"""Product codes: construction, iterative BDD, and the soft-aided
bit-marking (SABM) decoder.

SABM augments iBDD with a channel-LLR mask: bits with |llr| > delta are
highly reliable (HRBs), and per component word the d0-t-1 smallest-|llr|
non-HRB positions are the flip candidates (HUBs). SABM runs if and only
if LLRs are given: in the first md_iters iterations `decode_pass` vetoes
every BDD proposal that touches an HRB or a bit whose crossing word has a
zero syndrome and, on a failure or a vetoed proposal, retries BDD with the
least reliable non-HRB bits flipped.

Decoding runs on syndromes, in one core that the staircase decoder shares.
`SyndromeState` keeps the packed syndrome of every word of a set of word
groups in which every bit lies in two words (here group 2b holds the rows
of block b of a stack and group 2b + 1 its columns). Every flip updates
the syndrome of its word and of the crossing word, so the maintained
syndromes always equal the syndromes of the bits. `decode_pass` decodes
the words of a set of groups that have a nonzero syndrome (a clean word
is a no-op), yet `bdd_calls` counts w per group pass, as if every word
were decoded, plus one per flip retry. A PC SABM block and a staircase
window pass one group at a time, as a Python int, which reads a view of
its syndromes and its rows of the layout; only a PC iBDD stack, decoded
in lockstep, passes an array of groups. What a marking pass reads that
does not change within a block is built once: the flip syndromes as a
list per `SyndromeState`, and the HRB flags as bytes per `MarkState`.
"""

from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .bch import BchCode, block_syndromes, encode_many
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
    a product block, rows are axis 0 and columns axis 1). Byte i * n + j of
    hrb[axis] is 1 if position j of word i is an HRB, else 0, for the
    marking pass's scalar reads. order[axis, i] holds the first d0-2
    entries of its stable order (positions by ascending |llr|, ties to the
    lowest index), the most that SABM reads; of that order the first
    non_hrb[axis, i] entries are the non-HRB positions. The HUB list of a
    word is the first d0-t-1 entries of its non-HRB order; a failed word
    gets flip_attempts retries, at most one per HUB."""

    order: np.ndarray = field(repr=False)     # (axes, w, d0-2)
    non_hrb: np.ndarray = field(repr=False)   # (axes, w)
    flip_attempts: int
    hrb: tuple = field(repr=False)            # axes bytes of w * n


def _stable_order_prefix(a: np.ndarray, keep: int) -> np.ndarray:
    """np.argsort(a, axis=-1, kind="stable")[..., :keep], for rows of at
    least keep entries, without sorting whole rows: each row keeps its
    values below the keep-th smallest one and, at that value, its
    lowest-index ties, and sorts only those."""
    cut = np.partition(a, keep - 1, axis=-1)[..., keep - 1, None]
    sel = a <= cut
    flat = np.flatnonzero(sel)
    if flat.size > sel.size // a.shape[-1] * keep:
        # every row selects at least keep entries; those with more hold
        # more than one entry at the cut
        tied = sel.sum(axis=-1) > keep
        at, below = a[tied] == cut[tied], a[tied] < cut[tied]
        room = keep - below.sum(axis=-1, keepdims=True)
        sel[tied] = below | (at & (np.cumsum(at, axis=-1) <= room))
        flat = np.flatnonzero(sel)
    pos = (flat % a.shape[-1]).reshape(a.shape[:-1] + (keep,))
    by_value = np.argsort(np.take_along_axis(a, pos, axis=-1), axis=-1, kind="stable")
    return np.take_along_axis(pos, by_value, axis=-1)


def make_marks(a: np.ndarray, params: SabmParams, code: BchCode,
               offset: int = 0) -> MarkState:
    """Marks for words whose positions offset.. carry the |llr| values
    a[axis, i]; positions below offset are unmarked (never HRB, never
    flipped)."""
    hrb = a > params.delta
    # HRBs have |llr| > delta, so a stable sort puts every non-HRB before
    # them: each word's non-HRB order is a prefix of its sorted positions
    order = offset + _stable_order_prefix(a, code.d0 - 2)
    flags = np.concatenate([np.zeros(hrb.shape[:-1] + (offset,), bool), hrb], axis=-1)
    return MarkState(order=order, non_hrb=a.shape[-1] - np.count_nonzero(hrb, axis=-1),
                     flip_attempts=min(code.d0 - code.t - 1, params.failure_flip_attempts),
                     hrb=tuple(axis.tobytes() for axis in flags))


def pc_encode(code: PcCode, data) -> np.ndarray:
    d = np.asarray(data, dtype=np.uint8)
    k = code.k
    if d.shape != (k, k):
        raise ValueError(f"data must be ({k}, {k})")
    rows = encode_many(code.component, d)          # (k, w): data rows encoded
    block = encode_many(code.component, rows.T).T  # every column encoded
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
    holds the bit at position shift[g, j] + i. `words(bits)` returns the
    words of a bit array as (groups, w, n), one syndrome group each; it may
    hold groups beyond the G that are decoded, which only crossing updates
    change.
    """

    def __init__(self, words: Callable, base, stride, cross, shift):
        self.words = words
        self.base, self.stride, self.cross, self.shift = arrays = [
            np.asarray(a, dtype=np.int64) for a in (base, stride, cross, shift)]
        for a in arrays:
            a.setflags(write=False)
        # per group, its rows of the four tables, for a flip in one group
        self.tables = tuple(zip(*arrays))
        # per group, cross and shift as tuples for the SABM pass's scalar reads
        self.rows = tuple((tuple(c), tuple(s)) for c, s in zip(self.cross.tolist(),
                                                                 self.shift.tolist()))


@lru_cache(maxsize=None)
def block_layout(w: int, blocks: int) -> Layout:
    """Rows (group 2b) and columns (group 2b + 1) of each block b of a
    (blocks, w, w) stack: position j of row i of block b is bit (b, i, j),
    which is position i of its column j."""
    j = np.arange(w)
    b = np.arange(blocks)[:, None, None]

    def words(bits):
        stack = bits.reshape(-1, w, w)  # a single block may come as (w, w)
        return np.stack([stack, stack.transpose(0, 2, 1)], axis=1).reshape(-1, w, w)

    return Layout(words, base=(b * w * w + [j, j * w]).reshape(-1, w),
                  stride=np.tile([np.full(w, w), np.ones(w)], (blocks, 1)),
                  cross=(b * 2 * w + [w + j, j]).reshape(-1, w),
                  shift=np.zeros((2 * blocks, w)))


class SyndromeState:
    """Packed syndromes of every word of a layout over a bit array, which
    is decoded in place: syn[g * w + i] is the syndrome of word i of group
    g. Flips made through `flip`, each making its word a codeword, update
    the bits, the flipped word's syndrome and each crossing word's
    syndrome, so `syn` always equals the syndromes of the bits."""

    def __init__(self, code: BchCode, bits: np.ndarray, layout: Layout):
        if not (isinstance(bits, np.ndarray) and bits.flags.c_contiguous):
            raise ValueError("bits must be a C-contiguous array, as they are decoded in place")
        self.code, self.bits, self.layout = code, bits, layout
        self.flat = bits.reshape(-1)
        words = layout.words(bits)
        self.w = words.shape[1]
        self.syn = block_syndromes(code, words).reshape(-1)
        self.h = code.flip_syndrome.tolist()  # for the marking pass's scalar reads

    def flip(self, groups, words: np.ndarray, positions: np.ndarray):
        """Flip bit positions[k] of word words[k] of group groups[k] (or of
        the one group `groups`, a Python int, through its rows of the
        layout's tables), for every k; no (group, word, position)
        triple may repeat. Each flipped word's flips must make it a
        codeword (a pattern its syndrome decodes to, or a flip retry's),
        as in the decoders' passes: its syndrome is stored as 0 before the
        crossing words' syndromes are updated."""
        lay, h = self.layout, self.code.flip_syndrome
        if isinstance(groups, int):
            base, stride, cross, shift = lay.tables[groups]
            at = positions
        else:
            base, stride, cross, shift = lay.base, lay.stride, lay.cross, lay.shift
            at = groups * base.shape[1] + positions  # (group, position) in the flat tables
        self.flat[base.take(at) + words * stride.take(at)] ^= 1
        self.syn[groups * self.w + words] = 0
        np.bitwise_xor.at(self.syn, cross.take(at), h[shift.take(at) + words])


def _sabm_pass(state: SyndromeState, group: int, idx: np.ndarray, syns: np.ndarray,
               marks: MarkState, axis: int, live: range | None, stats: DecodeStats) -> bool:
    """SABM on the words idx of one group, whose syndromes are syns, in
    ascending order, on Python ints. A word's BDD proposal is vetoed if it
    touches an HRB of the word or a bit whose crossing word is live and
    has a zero syndrome. A failure retries with its non-HRB flip order's
    order[0], order[1], ... flipped one at a time, at most flip_attempts
    retries (capped at the HUB count); a vetoed proposal of weight e
    retries once with order[:d0 - e - 1] flipped at once. Both act on the
    pre-BDD word and take the first retry that decodes to a pattern the
    veto passes; else the word is left as it is. A veto reads crossing
    syndromes that earlier words of the pass changed, so each accepted
    pattern updates the live crossing syndromes at once; the bits and the
    state's syndromes are flipped once at the end, which is exact as XOR
    commutes and no (word, position) repeats. BDD reads `error_positions`
    as `bch.decode_syndromes` does: the proposals of all words in one
    gather, each retry inline."""
    comp, n, h = state.code, state.code.n, state.h
    table = comp.error_positions
    cross, shift = state.layout.rows[group]
    lo, hi = (0, state.syn.size) if live is None else (live.start, live.stop)
    cs = state.syn[lo:hi].tolist()  # live crossing syndromes, kept current
    span = hi - lo
    hrb = marks.hrb[axis]
    d0, attempts = comp.d0, marks.flip_attempts

    def vetoed(pattern, row):
        for p in pattern:
            c = cross[p] - lo
            if hrb[row + p] or (0 <= c < span and not cs[c]):
                return True
        return False

    words, positions = [], []
    retries = miscorrections = accepted = 0
    for i, syn, (a, b), order, non_hrb in zip(idx.tolist(), syns.tolist(),
                                              table.take(syns, axis=0).tolist(),
                                              marks.order[axis, idx].tolist(),
                                              marks.non_hrb[axis, idx].tolist()):
        row = i * n
        # syn != 0, so a proposal without a position is a failure
        pattern = (a, b) if b >= 0 else (a,) if a >= 0 else None
        if pattern is None or vetoed(pattern, row):
            if pattern is None:
                tries = [[p] for p in order[:min(attempts, non_hrb)]]
            else:
                miscorrections += 1
                flips = order[:min(d0 - len(pattern) - 1, non_hrb)]
                tries = [flips] if flips else []
            pattern = ()
            for flips in tries:
                retries += 1
                change = syn
                for p in flips:
                    change ^= h[p]
                a, b = table.item(change, 0), table.item(change, 1)
                if b >= 0:
                    got = (a, b)
                elif a >= 0:
                    got = (a,)
                elif change:  # a failure; syndrome 0 decodes to ()
                    continue
                else:
                    got = ()
                # never empty: syn != 0 is the syndrome of flips ^ got
                total = tuple(sorted(set(flips).symmetric_difference(got)))
                if not vetoed(total, row):
                    pattern = total
                    accepted += 1
                    break
        if not pattern:  # dropped: a nonzero syndrome never decodes to ()
            continue
        for p in pattern:
            c = cross[p] - lo
            if 0 <= c < span:
                cs[c] ^= h[shift[p] + i]
        words += [i] * len(pattern)
        positions += pattern
    if words:
        state.flip(group, np.array(words), np.array(positions))
    stats.bdd_calls += retries
    stats.miscorrections_detected += miscorrections
    stats.flips_attempted += retries
    stats.flips_accepted += accepted
    return bool(words)


def decode_pass(state: SyndromeState, groups, stats: DecodeStats,
                marks: MarkState | None = None, axis: int = 0,
                live: range | None = None) -> bool | np.ndarray:
    """Decode the words with a nonzero syndrome of each of `groups` and
    apply their flips. `groups` is one group as a Python int (the rows or
    columns of a PC SABM block, a staircase pair) or, for an iBDD stack, an
    array of them. Without marks every pattern applies at once, as the
    words of a group share no bits and the groups are disjoint word sets.
    With marks (SABM, on an int group whose word i is word i of marks'
    axis) `_sabm_pass` resolves the words in ascending order in one loop,
    as a veto reads crossing syndromes that earlier words changed; it reads
    only the slots in `live` (default: all). Returns whether any bit of the
    group was flipped, for an int group, or per group of an array."""
    w = state.w
    table = state.code.error_positions
    if isinstance(groups, int):
        # one group: its syndromes are a view, and no group array is built
        stats.bdd_calls += w
        own = state.syn[groups * w:(groups + 1) * w]
        hit = own.nonzero()[0]
        if hit.size == 0:
            return False
        if marks is not None:
            return _sabm_pass(state, groups, hit, own[hit], marks, axis, live, stats)
        pos = table.take(own[hit], axis=0).ravel()
        at = (pos >= 0).nonzero()[0]  # word at // 2 (t = 2 entries a word)
        if at.size:
            state.flip(groups, hit[at >> 1], pos[at])
        return bool(at.size)
    if marks is not None:
        raise ValueError("marks take one group, as a Python int")
    groups = np.asarray(groups)
    stats.bdd_calls += w * groups.size
    own = state.syn.reshape(-1, w).take(groups, axis=0).ravel()
    hit = own.nonzero()[0]
    pos = table.take(own[hit], axis=0).ravel()
    at = (pos >= 0).nonzero()[0]
    group, words = np.divmod(hit[at >> 1], w)
    state.flip(groups.take(group), words, pos[at])
    changed = np.zeros(groups.size, dtype=bool)
    changed[group] = True
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
    """SABM of one (w, w) block, or a stack of one: md_iters marking
    iterations, then plain ones up to total_iters, each a row pass and then
    a column pass. An iteration that flips nothing ends the decode, except
    that a marking iteration that leaves a nonzero syndrome, which cannot
    progress with the same vetoes in place, hands the block to the plain
    ones. Returns the decoded bits in the input's shape and the DecodeStats."""
    marks = mark_bits(llr, params, code)
    blk = np.array(block, dtype=np.uint8, order="C")
    w = code.w
    if blk.shape[-2:] != (w, w) or blk.ndim not in (2, 3) or blk.size != w * w:
        raise ValueError(f"block must be ({w}, {w}) or a stack of one")
    state, stats = SyndromeState(code.component, blk, block_layout(w, 1)), DecodeStats()
    for _ in range(params.md_iters):
        if not (decode_pass(state, 0, stats, marks, 0) | decode_pass(state, 1, stats, marks, 1)):
            if not state.syn.any():
                return blk, stats
            break
    for _ in range(params.md_iters, params.total_iters):
        if not (decode_pass(state, 0, stats) | decode_pass(state, 1, stats)):
            break
    return blk, stats
