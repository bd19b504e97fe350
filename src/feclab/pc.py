"""Product codes: construction, iterative BDD, and the soft-aided
bit-marking (SABM) decoder.

SABM augments iBDD with a channel-LLR mask: bits with |llr| > delta are
highly reliable (HRBs), and per component word the d0-t-1 smallest-|llr|
non-HRB positions are the flip candidates (HUBs). SABM runs if and only
if LLRs are given: in the first md_iters iterations a marking pass
(`sabm_pass`) vetoes every BDD proposal that touches an HRB or a bit
whose crossing word has a zero syndrome and, on a failure or a vetoed
proposal, retries BDD with the least reliable non-HRB bits flipped.

Decoding runs on syndromes, in passes that the staircase decoder shares.
A `Layout` says where the words of a set of word groups lie in a bit
array in which every bit lies in two words (here group 2b holds the rows
of block b of a stack and group 2b + 1 its columns), and builds the
packed syndrome of every word. A pass decodes the words of a group that
have a nonzero syndrome (a clean word is a no-op), yet `bdd_calls` counts
w per group pass, as if every word were decoded, plus one per flip retry.
Every flip updates the syndrome of its word and of the crossing word, so
the syndromes always equal those of the bits.

Both passes, the plain `plain_pass` and the marking `sabm_pass`, are one
call each into the compiled kernel (`kernel`, `_passes.c`), on a
`kernel.Passes` state that a decoder binds once: a PC iBDD stack, a PC
SABM block (`sabm_decode`) and a staircase chain (`scc.decode_chain`)
each own one, with one int64 array of the syndromes and one uint8 array
of the bits, which the decoded array is. `sabm_decode` runs its schedule
here, a pass per call. A PC iBDD block's iterations, and a staircase
window's (`scc.window_pass`), are one kernel call each, as their ~16 and
~14 passes per call would otherwise spend 14-19% of the decode in call
overhead. The kernel toggles the bits in place, as a plain pass may flip
back a bit that an earlier pass flipped. The marks of a `MarkState` are
arrays that the kernel reads as they are.
"""

from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .bch import BchCode, encode_many, packed_syndromes
from .errors import ConfigError
from .kernel import Passes


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
        if not self.delta >= 0:  # also rejects NaN; inf makes no bit an HRB
            raise ConfigError(f"delta must be non-negative, got {self.delta}")
        if self.total_iters < 1:
            raise ConfigError(f"total_iters must be >= 1, got {self.total_iters}")
        if not 0 <= self.md_iters <= self.total_iters:
            raise ConfigError(f"need 0 <= md_iters <= total_iters, got md_iters="
                              f"{self.md_iters} and total_iters={self.total_iters}")
        if self.failure_flip_attempts < 0:
            raise ConfigError("failure_flip_attempts must be non-negative")


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


def _stable_order_prefix(a: np.ndarray, keep: int) -> np.ndarray:
    """np.argsort(a, axis=-1, kind="stable")[..., :keep], for non-negative
    float64 a (inf included) whose rows hold at least keep entries, by keep
    rounds of argmin, which picks the first of equal minima. The rounds run
    on the int64 bit patterns of a, which sort as its values do, and mask
    each pick with the int64 maximum, above every pattern: a C-contiguous a
    is overwritten."""
    bits = np.ascontiguousarray(a, dtype=np.float64).view(np.int64).reshape(-1, a.shape[-1])
    flat, starts = bits.reshape(-1), np.arange(0, bits.size, bits.shape[1])
    out, masked = np.empty((keep, len(bits)), dtype=np.int64), np.iinfo(np.int64).max
    for pick in out:
        bits.argmin(axis=1, out=pick)
        flat[starts + pick] = masked
    return out.T.reshape(a.shape[:-1] + (keep,))


def make_marks(a: np.ndarray, params: SabmParams, code: BchCode,
               offset: int = 0) -> MarkState:
    """Marks for words whose positions offset.. carry the |llr| values
    a[axis, i]; positions below offset are unmarked (never HRB, never
    flipped). a is the working copy of the order's rounds and is
    overwritten."""
    hrb = a > params.delta
    order = _stable_order_prefix(a, code.d0 - 2)
    # HRBs have |llr| > delta, so a stable order puts every non-HRB first: a
    # word's candidates end at its first HRB among its d0-2 picks, if any.
    # The order is a transposed view, so np.where's result is not C-ordered
    candidates = np.where(np.take_along_axis(hrb, order, axis=-1), -1, offset + order)
    flags = np.zeros(hrb.shape[:-1] + (offset + hrb.shape[-1],), dtype=np.uint8)
    flags[..., offset:] = hrb
    return MarkState(candidates=np.ascontiguousarray(candidates),
                     flip_attempts=min(code.d0 - code.t - 1, params.failure_flip_attempts),
                     hrb=flags)


def pc_encode(code: PcCode, data) -> np.ndarray:
    """(k, k) data into a (w, w) block whose every row and column is a
    codeword; float32 parity counts, at most k, cast to uint8 exactly."""
    k = code.k
    if np.shape(data) != (k, k):
        raise ValueError(f"data must be ({k}, {k})")
    block = np.empty((code.w, code.w), dtype=np.uint8)
    block[:k] = encode_many(code.component, data)
    block[k:] = code.component.parity_matrix.T @ block[:k]
    block[k:] &= 1
    return block


def mark_bits(llr: np.ndarray, params: SabmParams, code: PcCode) -> MarkState:
    a = np.abs(llr)
    w = code.w
    if a.shape != (w, w):
        raise ValueError(f"LLR grid must be ({w}, {w})")
    return make_marks(np.stack([a, a.T]), params, code.component)


class Layout:
    """Where the words of G groups of w words each lie in a bit array.

    Position j of word i of group g is flat bit base[g, j] + i * stride[g, j].
    The crossing word through that bit sits in syndrome slot cross[g, j] and
    holds the bit at position shift[g, j] + i. `syndromes(code, bits)`
    returns the packed syndrome of every word of a bit array, flat and
    group by group, from one float32 copy of the bits; it may cover groups
    beyond the G that are decoded, which only crossing updates change. The
    groups' words span `size` bits and read `slots` syndromes.
    """

    def __init__(self, w: int, syndromes: Callable, base, stride, cross, shift):
        self.w, self.syndromes = w, syndromes
        self.base, self.stride, self.cross, self.shift = arrays = [
            np.ascontiguousarray(a, dtype=np.int64) for a in (base, stride, cross, shift)]
        for a in arrays:
            a.setflags(write=False)
        self.size = int((self.base + (w - 1) * self.stride).max(initial=-1)) + 1
        self.slots = max(int(self.cross.max(initial=-1)) + 1, len(self.base) * w)


@lru_cache(maxsize=None)
def block_layout(w: int, blocks: int) -> Layout:
    """Rows (group 2b) and columns (group 2b + 1) of each block b of a
    (blocks, w, w) stack: position j of row i of block b is bit (b, i, j),
    which is position i of its column j."""
    j = np.arange(w)
    b = np.arange(blocks)[:, None, None]

    def syndromes(code, bits):
        # a single block may come as (w, w); rows are f @ C, columns f^T @ C
        f, c = bits.reshape(-1, w, w).astype(np.float32), code.check_matrix
        return packed_syndromes(np.stack([f @ c, f.transpose(0, 2, 1) @ c], axis=1)).reshape(-1)

    return Layout(w, syndromes, base=(b * w * w + [j, j * w]).reshape(-1, w),
                  stride=np.tile([np.full(w, w), np.ones(w)], (blocks, 1)),
                  cross=(b * 2 * w + [w + j, j]).reshape(-1, w),
                  shift=np.zeros((2 * blocks, w)))


def plain_pass(state: Passes, group: int) -> bool:
    """Plain BDD of the words of one group that have a nonzero syndrome, in
    ascending order, in place on the state's bits and syndromes: a word's
    pattern toggles its bits, XORs their flip syndromes into their crossing
    words' slots and zeroes its own. As no word of a group crosses another,
    that is decoding them all at once; a failure leaves its word as it is.
    `bdd_calls` counts w. Returns whether it flipped a bit."""
    changed = state.plain_pass(state.ref, group)
    if changed < 0:
        raise ValueError(f"group {group} is not a group of the state's layout")
    return changed > 0


def sabm_pass(state: Passes, group: int, axis: int, lo: int, hi: int) -> bool:
    """SABM on the words of one group that have a nonzero syndrome, in
    ascending order, in place as a `plain_pass`. Word i of the group is
    word i of axis `axis` of the state's marks. A word's BDD proposal is
    vetoed if it touches an HRB of the word or a bit whose crossing word
    lies in syndrome slots lo..hi-1 and has a zero syndrome. A failure
    retries with its candidates c[0], c[1], ... flipped one at a time, at
    most flip_attempts retries; a vetoed proposal of weight e retries once
    with c[:d0 - e - 1] flipped at once. Both act on the pre-BDD word and
    take the first retry that decodes to a pattern the veto passes (the
    flips and the decoded positions less those in both; syndrome 0
    decodes to no position); else the word is left as it is. A veto reads
    crossing syndromes that earlier words of the pass changed, so an
    accepted pattern updates the syndromes and bits at once, as a plain
    pass's does. `bdd_calls` counts w plus one per retry. Returns whether
    any bit was flipped."""
    changed = state.sabm_pass(state.ref, group, axis, lo, hi)
    if changed < 0:
        raise ValueError(f"group {group} or axis {axis} is not in the state or its marks")
    return changed > 0


def ibdd_decode(code: PcCode, blocks, iters: int) -> tuple[np.ndarray, DecodeStats]:
    """iBDD of one (w, w) block or of a (B, w, w) stack; returns the decoded
    bits in the input's shape and the DecodeStats summed over the stack.
    The blocks of a stack share one `Passes` and are decoded one after the
    other, each on its own, by one kernel call: an iteration is a row pass
    and then a column pass, and a block stops at its first iteration that
    flips nothing."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    blk = np.array(blocks, dtype=np.uint8, order="C")
    w = code.w
    if blk.shape[-2:] != (w, w) or blk.ndim not in (2, 3):
        raise ValueError(f"block must be ({w}, {w}) or a stack of them")
    count = blk.size // (w * w)
    state = Passes(code.component, block_layout(w, count), blk)
    for rows in range(0, 2 * count, 2):  # the row group of each block; its columns follow
        state.ibdd_block(state.ref, rows, iters)
    return blk, DecodeStats(*state.counts())


def sabm_decode(code: PcCode, block, llr: np.ndarray,
                params: SabmParams) -> tuple[np.ndarray, DecodeStats]:
    """SABM of one (w, w) block: md_iters marking iterations, then plain
    ones up to total_iters, each a row pass and then a column pass. An
    iteration that flips nothing ends the decode, except that a marking
    iteration that leaves a nonzero syndrome, which cannot progress with
    the same vetoes in place, hands the block to the plain ones. Returns
    the decoded bits and the DecodeStats.

    Every pass runs on one `Passes` of the block, whose bits are the
    returned block."""
    marks = mark_bits(llr, params, code)
    w = code.w
    if np.shape(block) != (w, w):
        raise ValueError(f"block must be ({w}, {w})")
    blk = np.array(block, dtype=np.uint8, order="C")
    state = Passes(code.component, block_layout(w, 1), blk)
    state.mark(marks)
    # rows, then columns (group and axis g), both in every iteration; every
    # crossing word of a block lies in its 2w slots
    for _ in range(params.md_iters):
        if not (sabm_pass(state, 0, 0, 0, 2 * w) | sabm_pass(state, 1, 1, 0, 2 * w)):
            if not state.syn.any():
                return blk, DecodeStats(*state.counts())
            break
    for _ in range(params.md_iters, params.total_iters):
        if not (plain_pass(state, 0) | plain_pass(state, 1)):
            break
    return blk, DecodeStats(*state.counts())
