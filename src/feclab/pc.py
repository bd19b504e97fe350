"""Product codes: construction, iterative BDD, and the soft-aided
bit-marking (SABM) decoder.

SABM augments iBDD with a channel-LLR mask: bits with |llr| > delta are
highly reliable (HRBs), and per component word the d0-t-1 smallest-|llr|
non-HRB positions are the flip candidates (HUBs). SABM runs if and only
if LLRs are given: in the first md_iters iterations a marking pass
vetoes every BDD proposal that touches an HRB or a bit
whose crossing word has a zero syndrome and, on a failure or a vetoed
proposal, retries BDD with the least reliable non-HRB bits flipped.

Decoding runs on syndromes, in passes that the staircase decoder shares.
A `Layout` says where the words of a set of word groups lie in a bit
array in which every bit lies in two words (here group 0 holds a block's
rows and group 1 its columns), from which the kernel builds the packed
syndrome of every word. A pass decodes the words of a group that have a
nonzero syndrome (a clean word is a no-op), yet `bdd_calls` counts w per
group pass, as if every word were decoded, plus one per flip retry.
Every flip updates the syndrome of its word and of the crossing word, so
the syndromes always equal those of the bits.

Both passes, the plain and the marking one, run in the compiled kernel
(`kernel`, `_passes.c`, as `plain_pass` and `sabm_pass`), on a
`kernel.Passes` state that a decoder binds once: a PC block
(`ibdd_decode`, `sabm_decode`), which is one trial, and a staircase chain
(`scc.decode_chain`) each own one, with one int64 array of the syndromes
and one uint8 array of the bits, which the decoded array is. A product
block's iterations, iBDD's or SABM's (`block_pass`), and a staircase
window's (`scc.window_pass`), are one kernel call each, as their ~14-16
passes would otherwise each pay a call's ~0.8 us of overhead. The kernel
toggles the bits in place, as a plain pass may flip back a bit that an
earlier pass flipped. The kernel also builds a `MarkState`
(`make_marks`) in one call on an LLR grid's rows (and columns), and its
passes read the marks' arrays as they are.
"""

import numbers
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .bch import BchCode
from .errors import ConfigError
from .kernel import Passes, binary, count, encode, mark_words


@dataclass(frozen=True)
class PcCode:
    component: BchCode

    @property
    def w(self) -> int:
        return self.component.n

    @property
    def k(self) -> int:
        return self.component.k


@dataclass(frozen=True)
class SabmParams:
    delta: float = 5.0
    total_iters: int = 10
    md_iters: int = 5
    failure_flip_attempts: int = 1

    def __post_init__(self):
        real = isinstance(self.delta, numbers.Real) and not isinstance(self.delta, bool)
        if not (real and self.delta >= 0):  # also rejects NaN; inf makes no bit an HRB
            raise ConfigError(f"delta must be a non-negative number, got {self.delta!r}")
        count(self.total_iters, "total_iters", 1)
        if count(self.md_iters, "md_iters", 0) > self.total_iters:
            raise ConfigError(f"need 0 <= md_iters <= total_iters, got md_iters="
                              f"{self.md_iters} and total_iters={self.total_iters}")
        count(self.failure_flip_attempts, "failure_flip_attempts", 0)


@dataclass
class DecodeStats:
    bdd_calls: int = 0
    miscorrections_detected: int = 0
    flips_attempted: int = 0
    flips_accepted: int = 0

    def __iadd__(self, other: "DecodeStats") -> "DecodeStats":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


@dataclass(frozen=True)
class MarkState:
    """Flip mask frozen at channel time, for the words along each axis (for
    a product block, rows are axis 0 and columns axis 1), as the arrays that
    the marking pass reads. hrb[axis, i, j] is 1 if position j of word i is
    an HRB, else 0 (uint8, (axes, words, n)). candidates[axis, i] holds
    word i's first min(d0-2, non-HRB count) positions by ascending |llr|,
    ties to the lowest index, then -1 up to d0-2 entries (int64, (axes,
    words, d0-2)): its non-HRBs, as many as SABM reads. Its first d0-t-1
    are the HUBs; a failed word gets flip_attempts retries, one per HUB."""

    candidates: np.ndarray
    flip_attempts: int
    hrb: np.ndarray


def make_marks(llr, params: SabmParams, code: BchCode, axes: int,
               offset: int = 0) -> MarkState:
    """`kernel.mark_words` of an (n, n) LLR grid, or of its C-contiguous
    float64 copy: positions below offset are unmarked (never HRB, never
    flipped)."""
    llr = np.ascontiguousarray(llr, dtype=np.float64)
    hrb, candidates = mark_words(llr, params.delta, offset, code.d0 - 2, axes)
    return MarkState(candidates, min(code.d0 - code.t - 1, params.failure_flip_attempts), hrb)


def pc_encode(code: PcCode, data) -> np.ndarray:
    """(k, k) data into a (w, w) block whose every row and column is a
    codeword, in one kernel call: the rows' parity, then the columns'
    (`kernel.encode` over `block_layout`). The rows below k carry no data,
    and the columns' parity overwrites what the rows' left there."""
    k = code.k
    if np.shape(data) != (k, k):
        raise ValueError(f"data must be ({k}, {k})")
    block = np.zeros((code.w, code.w), dtype=np.uint8)
    block[:k, :k] = binary(data, "data")
    encode(code.component, block_layout(code.w), block)
    return block


def mark_bits(llr: np.ndarray, params: SabmParams, code: PcCode) -> MarkState:
    """The marks of a block's rows (axis 0) and columns (axis 1)."""
    if np.shape(llr) != (code.w, code.w):
        raise ValueError(f"LLR grid must be ({code.w}, {code.w})")
    return make_marks(llr, params, code.component, 2)


class Layout:
    """Where the words of groups of w words each lie in a bit array.

    Position j of word i of group g is flat bit base[g, j] + i * stride[g, j],
    never below bit 0. The crossing word through that bit sits in syndrome
    slot cross[g, j] and holds the bit at its position shift[g, j] + i, in
    [0, n) for words of n positions. Every word of the tables has
    a slot, group by group, `slots` in all; the passes decode the first
    `groups` groups (all by default), and a crossing update alone changes
    the others. The words span `size` bits.
    """

    def __init__(self, w: int, base, stride, cross, shift, groups: int | None = None):
        self.w = w
        self.base, self.stride, self.cross, self.shift = arrays = [
            np.ascontiguousarray(a, dtype=np.int64) for a in (base, stride, cross, shift)]
        for a in arrays:
            a.setflags(write=False)
        rows = len(self.base)
        self.groups = count(rows if groups is None else groups, "groups", 0, rows)
        self.slots = rows * w
        n = self.base.shape[-1]
        if not (self.base.ndim == 2 and all(a.shape == self.base.shape for a in arrays)):
            raise ValueError("a layout's tables share one (groups, n) shape")
        if not ((0 <= self.cross) & (self.cross < self.slots)).all():
            raise ValueError("a layout crosses only words of its tables")
        # words 0 and w-1 bound the others, as a bit's index and its
        # crossing position are linear in the word
        last = self.base + (w - 1) * self.stride
        if not ((self.base >= 0) & (last >= 0) & (self.shift >= 0) & (self.shift + w <= n)).all():
            raise ValueError("a layout places no bit below bit 0 and every crossing "
                             f"position in [0, {n})")
        self.size = int(np.maximum(self.base, last).max(initial=-1)) + 1


@lru_cache(maxsize=None)
def block_layout(w: int) -> Layout:
    """The rows (group 0) and columns (group 1) of a (w, w) block: position
    j of row i is bit (i, j), which is position i of column j."""
    j = np.arange(w)
    return Layout(w, base=[j, j * w], stride=[np.full(w, w), np.ones(w)], cross=[w + j, j],
                  shift=np.zeros((2, w)))


def block_pass(state: Passes, marking: int, iters: int) -> None:
    """The iterations of the state's one product block (`block_layout`), in
    one kernel call: `marking` marking iterations, then plain ones up to
    `iters`, each a pass over the rows and then one over the columns. A
    marking pass reads axis 0 (rows) or 1 (columns) of the state's marks,
    and its veto reads only the block's words. Each phase ends at its first
    iteration that flips nothing, except that a marking iteration that
    leaves a nonzero syndrome in the block, which cannot progress with the
    same vetoes in place, hands the block to the plain iterations.
    ValueError for a state of another layout."""
    if state.lib["block"](state.ref, marking, iters) < 0:
        raise ValueError("the state is not one product block's, or it marks with no "
                         "marks bound")


def _decode(code: PcCode, block, iters: int, marks: MarkState | None = None,
            marking: int = 0) -> tuple[np.ndarray, DecodeStats]:
    """The decoded bits of one (w, w) block, a copy, and its DecodeStats:
    one `block_pass` on one `Passes`, with `marks` bound."""
    w = code.w
    if np.shape(block) != (w, w):
        raise ValueError(f"block must be ({w}, {w})")
    bits = np.array(binary(block, "block"), dtype=np.uint8, order="C")
    state = Passes(code.component, block_layout(w), bits)
    if marks is not None:
        state.mark(marks)
    block_pass(state, marking, iters)
    return bits, DecodeStats(*state.counts())


def ibdd_decode(code: PcCode, block, iters: int) -> tuple[np.ndarray, DecodeStats]:
    """iBDD of one (w, w) block: up to `iters` plain iterations, stopping
    at the first that flips nothing. Returns the decoded bits and the
    DecodeStats."""
    return _decode(code, block, count(iters, "iters", 1))


def sabm_decode(code: PcCode, block, llr: np.ndarray,
                params: SabmParams) -> tuple[np.ndarray, DecodeStats]:
    """SABM of one (w, w) block: md_iters marking iterations on the marks
    of its LLRs, then plain ones up to total_iters, as `block_pass` runs
    them. Returns the decoded bits and the DecodeStats."""
    return _decode(code, block, params.total_iters, mark_bits(llr, params, code),
                   params.md_iters)
