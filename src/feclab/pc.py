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
the syndromes always equal those of the bits. Two owners keep them:
- a PC iBDD stack, decoded in lockstep, keeps numpy arrays: its
  `SyndromeState` owns the bits and the syndromes, and its plain pass,
  `decode_pass`, decodes the rows, or the columns, of every active block
  at once;
- a PC SABM block (`sabm_decode`) and a staircase chain
  (`scc.decode_chain`) own two Python objects: a list of the syndrome of
  every slot, then the `SENTINEL` slot, and a bytearray of the bits, which
  the decoded array views. Their passes, the plain `plain_pass` and the
  marking `sabm_pass`, decode one group each in a Python loop that reads
  and writes only these two, with no numpy call, and toggle the bits in
  place, as a plain pass may flip back a bit that an earlier pass flipped.
What these passes read that does not change within a block is built once:
per component code the flip syndromes and the BDD pattern of every
syndrome as lists (`BchCode.flip_list`, `BchCode.bdd_patterns`, made on
first use), the HRB flags as bytes and the flip candidates as one list
per word per `MarkState`, and per `Layout` each group's rows of its
tables as tuples and, per group and slot range, the slot that the veto
reads for each position.
"""

from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import compress

import numpy as np

from .bch import BchCode, encode_many, packed_syndromes
from .errors import ConfigError


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
    a product block, rows are axis 0 and columns axis 1), in the marking
    pass's scalar reads. Byte i * n + j of hrb[axis] is 1 if position j of
    word i is an HRB, else 0. candidates[axis][i] lists word i's first
    min(d0-2, non-HRB count) positions by ascending |llr|, ties to the
    lowest index: its non-HRBs, as many as SABM reads. Its first d0-t-1 are
    the HUBs; a failed word gets flip_attempts retries, one per HUB."""

    candidates: tuple = field(repr=False)     # axes lists of w position lists
    flip_attempts: int
    hrb: tuple = field(repr=False)            # axes bytes of w * n


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
    # word's candidates end at its first HRB among its d0-2 picks, if any
    picked = np.take_along_axis(hrb, order, axis=-1)
    candidates = (offset + order).tolist()
    short = picked[..., -1].nonzero()
    for axis, i, first in zip(*short, picked[short].argmax(axis=-1)):
        del candidates[axis][i][first:]
    flags = np.concatenate([np.zeros(hrb.shape[:-1] + (offset,), bool), hrb], axis=-1)
    return MarkState(candidates=tuple(candidates),
                     flip_attempts=min(code.d0 - code.t - 1, params.failure_flip_attempts),
                     hrb=tuple(axis.tobytes() for axis in flags))


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
    beyond the G that are decoded, which only crossing updates change.
    """

    def __init__(self, w: int, syndromes: Callable, base, stride, cross, shift):
        self.w, self.syndromes = w, syndromes
        self.base, self.stride, self.cross, self.shift = arrays = [
            np.asarray(a, dtype=np.int64) for a in (base, stride, cross, shift)]
        for a in arrays:
            a.setflags(write=False)
        # per group, its base, stride, cross and shift rows as tuples, for
        # the list passes' scalar reads
        self.tuples = tuple(zip(*(map(tuple, a.tolist()) for a in arrays)))
        self._slots = {}

    def slots(self, group: int, lo: int, hi: int) -> tuple:
        """Per position of a word of `group`, the syndrome list slot that
        the marking pass's veto reads: its crossing word's, if that lies in
        slots lo..hi-1, else -1, the `SENTINEL`. Built once per (group, lo,
        hi)."""
        key = group, lo, hi
        if key not in self._slots:
            c = self.cross[group]
            self._slots[key] = tuple(np.where((c >= lo) & (c < hi), c, -1).tolist())
        return self._slots[key]


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


class SyndromeState:
    """Packed syndromes of every word of a layout over a bit array, which
    is decoded in place by a PC iBDD stack: syn[g * w + i] is the syndrome
    of word i of group g. Flips made through `flip`, each making its word a
    codeword, update the bits, the flipped word's syndrome and each
    crossing word's syndrome, so `syn` always equals the syndromes of the
    bits."""

    def __init__(self, code: BchCode, bits: np.ndarray, layout: Layout):
        if not (isinstance(bits, np.ndarray) and bits.flags.c_contiguous):
            raise ValueError("bits must be a C-contiguous array, as they are decoded in place")
        self.code, self.bits, self.layout = code, bits, layout
        self.flat, self.w = bits.reshape(-1), layout.w
        self.syn = layout.syndromes(code, bits)

    def flip(self, groups: np.ndarray, words: np.ndarray, positions: np.ndarray):
        """Flip bit positions[k] of word words[k] of group groups[k], for
        every k; no (group, word, position) triple may repeat. Each flipped
        word's flips must make it a codeword (the pattern its syndrome
        decodes to): its syndrome is stored as 0 before the crossing words'
        syndromes are updated."""
        lay = self.layout
        at = groups * lay.base.shape[1] + positions  # (group, position) in the flat tables
        self.flat[lay.base.take(at) + words * lay.stride.take(at)] ^= 1
        self.syn[groups * self.w + words] = 0
        np.bitwise_xor.at(self.syn, lay.cross.take(at),
                          self.code.flip_syndrome[lay.shift.take(at) + words])


def decode_pass(state: SyndromeState, groups: np.ndarray, stats: DecodeStats) -> np.ndarray:
    """Decode the words with a nonzero syndrome of each of `groups`, an
    array of groups (the rows, or the columns, of the active blocks of a PC
    iBDD stack), and apply their flips, all at once, as the words of a group
    share no bits and the groups are disjoint word sets. Returns per group
    whether any bit of it was flipped."""
    w = state.w
    stats.bdd_calls += w * groups.size
    own = state.syn.reshape(-1, w).take(groups, axis=0).ravel()
    hit = own.nonzero()[0]
    pos = state.code.error_positions.take(own[hit], axis=0).ravel()
    at = (pos >= 0).nonzero()[0]  # word at // 2 (t = 2 entries a word)
    group, words = np.divmod(hit[at >> 1], w)
    state.flip(groups.take(group), words, pos[at])
    changed = np.zeros(groups.size, dtype=bool)
    changed[group] = True
    return changed


# the last slot of a list pass's syndrome list, read for any crossing word
# outside a marking pass's window; no pass writes it, so it never reads 0
SENTINEL = 1 << 62


def plain_pass(code: BchCode, layout: Layout, group: int, cs: list, bits: bytearray,
               stats: DecodeStats) -> bool:
    """Plain BDD of the words of one group that have a nonzero syndrome, in
    ascending order, on cs, the syndrome of every slot of the layout and
    then the `SENTINEL`, and bits, the bytearray of the layout's bit array,
    both updated in place: a word's pattern toggles its bits (as 1 - b,
    which CPython runs faster than b ^ 1), XORs their flip syndromes into
    their crossing words' slots and zeroes its own. As no word of a group
    crosses another, that is decoding them all at once; a failure leaves
    its word as it is. `bdd_calls` counts w. Returns whether it flipped."""
    w, h, patterns = layout.w, code.flip_list, code.bdd_patterns
    base, stride, cross, shift = layout.tuples[group]
    own = group * w
    pending = cs[own:own + w]
    changed = False
    for i, syn in zip(compress(range(w), pending), filter(None, pending)):
        pattern = patterns[syn]
        if pattern is None:
            continue
        for p in pattern:
            cs[cross[p]] ^= h[shift[p] + i]
            k = base[p] + i * stride[p]
            bits[k] = 1 - bits[k]
        cs[own + i] = 0
        changed = True
    stats.bdd_calls += w
    return changed


def sabm_pass(code: BchCode, layout: Layout, group: int, cs: list, bits: bytearray,
              slot: tuple, marks: MarkState, axis: int, stats: DecodeStats) -> bool:
    """SABM on the words of one group that have a nonzero syndrome, in
    ascending order, on the syndrome list cs and the bytearray bits of a
    `plain_pass`. The veto reads the crossing word through position j in
    cs[slot[j]], slot being a `Layout.slots` tuple of the group. Word i of
    the group is word i of marks' axis. A word's BDD proposal is vetoed if
    it touches an HRB of the word or a bit whose crossing word has a zero
    syndrome. A failure retries with its candidates c[0], c[1], ...
    flipped one at a time, at most flip_attempts retries; a vetoed proposal
    of weight e retries once with c[:d0 - e - 1] flipped at once. Both act
    on the pre-BDD word and take the first retry that decodes to a pattern
    the veto passes; else the word is left as it is. A veto reads crossing
    syndromes that earlier words of the pass changed, so an accepted
    pattern updates cs and bits at once, as a plain pass's does. BDD is
    one index into the code's `bdd_patterns` per proposal or retry;
    `bdd_calls` counts w plus one per retry. Returns whether any bit was
    flipped."""
    w, n, d0, h, patterns = layout.w, code.n, code.d0, code.flip_list, code.bdd_patterns
    base, stride, cross, shift = layout.tuples[group]
    own = group * w
    hrb, candidates, attempts = marks.hrb[axis], marks.candidates[axis], marks.flip_attempts
    # no word of a group crosses another: only its own acceptance changes its entry
    pending = cs[own:own + w]

    changed = False
    retries = miscorrections = accepted = 0
    for i, syn in zip(compress(range(w), pending), filter(None, pending)):
        row = i * n
        # syn != 0, so its pattern is never (): None is a failure
        pattern, tries = patterns[syn], ()
        if pattern is None:  # one candidate per retry, as 1-tuples
            pattern, tries = (), zip(candidates[i][:attempts])
        for p in pattern:
            if hrb[row + p] or not cs[slot[p]]:  # vetoed: drop it, retry once
                miscorrections += 1
                flips = candidates[i][:d0 - len(pattern) - 1]
                pattern, tries = (), [flips] if flips else []
                break
        for flips in tries:
            retries += 1
            change = syn
            for p in flips:
                change ^= h[p]
            got = patterns[change]
            if got is None:
                continue
            # never empty: syn != 0 is the syndrome of flips ^ got
            total = set(flips) ^ set(got)
            for p in total:
                if hrb[row + p] or not cs[slot[p]]:
                    break
            else:
                pattern = total
                accepted += 1
                break
        if not pattern:  # dropped: a nonzero syndrome never decodes to ()
            continue
        for p in pattern:
            cs[cross[p]] ^= h[shift[p] + i]
            k = base[p] + i * stride[p]
            bits[k] = 1 - bits[k]
        cs[own + i] = 0
        changed = True
    stats.bdd_calls += w + retries
    stats.miscorrections_detected += miscorrections
    stats.flips_attempted += retries
    stats.flips_accepted += accepted
    return changed


def ibdd_decode(code: PcCode, blocks, iters: int) -> tuple[np.ndarray, DecodeStats]:
    """iBDD of one (w, w) block or of a (B, w, w) stack; returns the decoded
    bits in the input's shape and the DecodeStats summed over the stack.
    The blocks of a stack are decoded in lockstep, each exactly as on its
    own: an iteration is a row pass and then a column pass over the active
    blocks, and a block leaves at its first iteration that flips nothing."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    blk = np.array(blocks, dtype=np.uint8, order="C")
    w = code.w
    if blk.shape[-2:] != (w, w) or blk.ndim not in (2, 3):
        raise ValueError(f"block must be ({w}, {w}) or a stack of them")
    count = blk.size // (w * w)
    state, stats = SyndromeState(code.component, blk, block_layout(w, count)), DecodeStats()
    rows = 2 * np.arange(count)  # row group of each active block; its columns follow
    for _ in range(iters):
        if rows.size == 0:
            break
        rows = rows[decode_pass(state, rows, stats) | decode_pass(state, rows + 1, stats)]
    return blk, stats


def sabm_decode(code: PcCode, block, llr: np.ndarray,
                params: SabmParams) -> tuple[np.ndarray, DecodeStats]:
    """SABM of one (w, w) block: md_iters marking iterations, then plain
    ones up to total_iters, each a row pass and then a column pass. An
    iteration that flips nothing ends the decode, except that a marking
    iteration that leaves a nonzero syndrome, which cannot progress with
    the same vetoes in place, hands the block to the plain ones. Returns
    the decoded bits and the DecodeStats.

    Every pass runs on one list of the block's 2w syndromes and the
    `SENTINEL`, and one bytearray of its bits, which the returned block
    views."""
    marks = mark_bits(llr, params, code)
    w, comp = code.w, code.component
    if np.shape(block) != (w, w):
        raise ValueError(f"block must be ({w}, {w})")
    bits = bytearray(w * w)
    blk = np.frombuffer(bits, dtype=np.uint8).reshape(w, w)
    blk[:] = block
    layout, stats = block_layout(w, 1), DecodeStats()
    cs = layout.syndromes(comp, blk).tolist() + [SENTINEL]
    # rows, then columns (group and axis g), both in every iteration; every
    # crossing word of a block lies in its 2w slots
    slots = [layout.slots(g, 0, 2 * w) for g in (0, 1)]
    for _ in range(params.md_iters):
        if not any([sabm_pass(comp, layout, g, cs, bits, slots[g], marks, g, stats)
                    for g in (0, 1)]):
            if not any(cs[:-1]):
                return blk, stats
            break
    for _ in range(params.md_iters, params.total_iters):
        if not any([plain_pass(comp, layout, g, cs, bits, stats) for g in (0, 1)]):
            break
    return blk, stats
