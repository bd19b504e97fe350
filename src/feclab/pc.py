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
were decoded, plus one per flip retry. iBDD decodes a stack of blocks in
lockstep, so that one pass serves every active block.
"""

from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .bch import BchCode, block_syndromes, decode_syndromes, encode_many
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
    a product block, rows are axis 0 and columns axis 1). word_hrb[axis, i]
    flags the HRB positions of word i. order[axis, i] holds the first d0-2
    entries of its stable order (positions by ascending |llr|, ties to the
    lowest index), the most that SABM reads; of that order the first
    non_hrb[axis, i] entries are the non-HRB positions. The HUB list of a
    word is the first d0-t-1 entries of its non-HRB order; a failed word
    gets flip_attempts retries, at most one per HUB."""

    word_hrb: np.ndarray = field(repr=False)  # (axes, w, n)
    order: np.ndarray = field(repr=False)     # (axes, w, min(d0-2, marked positions))
    non_hrb: np.ndarray = field(repr=False)   # (axes, w)
    flip_attempts: int


def _stable_order_prefix(a: np.ndarray, keep: int) -> np.ndarray:
    """np.argsort(a, axis=-1, kind="stable")[..., :keep] without sorting
    whole rows: each row keeps its values below the keep-th smallest one
    and, at that value, its lowest-index ties, and sorts only those."""
    if keep >= a.shape[-1]:
        return np.argsort(a, axis=-1, kind="stable")
    cut = np.partition(a, keep - 1, axis=-1)[..., keep - 1, None]
    sel = a <= cut
    tied = sel.sum(axis=-1) > keep  # rows with more than one entry at the cut
    if tied.any():
        at, below = a[tied] == cut[tied], a[tied] < cut[tied]
        room = keep - below.sum(axis=-1, keepdims=True)
        sel[tied] = below | (at & (np.cumsum(at, axis=-1) <= room))
    pos = (np.flatnonzero(sel) % a.shape[-1]).reshape(a.shape[:-1] + (keep,))
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
    word_hrb = np.concatenate([np.zeros(hrb.shape[:-1] + (offset,), bool), hrb], axis=-1)
    word_hrb.setflags(write=False)
    return MarkState(word_hrb=word_hrb, order=order, non_hrb=(~hrb).sum(axis=-1),
                     flip_attempts=min(code.d0 - code.t - 1, params.failure_flip_attempts))


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
        # per group, cross and shift as tuples for the SABM pass's scalar reads
        self.rows = tuple((tuple(c), tuple(s)) for c, s in zip(self.cross.tolist(),
                                                                 self.shift.tolist()))


@lru_cache(maxsize=None)
def block_layout(w: int, blocks: int = 1) -> Layout:
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

    def flip(self, groups, words: np.ndarray, positions: np.ndarray):
        """Flip bit positions[k] of word words[k] of group groups[k] (or of
        the one group `groups`), for every k; no (group, word, position)
        triple may repeat. Each flipped word's flips must make it a
        codeword (a pattern its syndrome decodes to, or a flip retry's),
        as in the decoders' passes: its syndrome is stored as 0 before the
        crossing words' syndromes are updated."""
        lay, h = self.layout, self.code.flip_syndrome
        at = groups * lay.base.shape[1] + positions  # (group, position) in the flat tables
        self.flat[lay.base.take(at) + words * lay.stride.take(at)] ^= 1
        self.syn[groups * self.w + words] = 0
        np.bitwise_xor.at(self.syn, lay.cross.take(at), h[lay.shift.take(at) + words])


def _sabm_pass(state: SyndromeState, group: int, idx: np.ndarray, marks: MarkState,
               axis: int, live: range | None, stats: DecodeStats) -> bool:
    """SABM on the words idx of one group, in ascending order, on Python
    ints. A word's BDD proposal is vetoed if it touches an HRB of the word
    or a bit whose crossing word is live and has a zero syndrome. A failure
    retries with its non-HRB flip order's order[0], order[1], ... flipped
    one at a time, at most flip_attempts retries (capped at the HUB count);
    a vetoed proposal of weight e retries once with order[:d0 - e - 1]
    flipped at once. Both act on the pre-BDD word and take the first retry
    that decodes to a pattern the veto passes; else the word is left as it
    is. A veto reads crossing syndromes that earlier words of the pass
    changed, so each accepted pattern updates the live crossing syndromes
    at once; the bits and the state's syndromes are flipped once at the
    end, which is exact as XOR commutes and no (word, position) repeats."""
    comp, w, n = state.code, state.w, state.code.n
    h = comp.flip_syndrome.tolist()
    cross, shift = state.layout.rows[group]
    lo, hi = (0, state.syn.size) if live is None else (live.start, live.stop)
    cs = state.syn[lo:hi].tolist()  # live crossing syndromes, kept current
    span = hi - lo
    hrb = marks.word_hrb[axis].tobytes()
    d0, attempts = comp.d0, marks.flip_attempts

    def vetoed(pattern, row):
        for p in pattern:
            c = cross[p] - lo
            if hrb[row + p] or (0 <= c < span and not cs[c]):
                return True
        return False

    words, positions = [], []
    retries = miscorrections = accepted = 0
    for i, syn, order, non_hrb in zip(idx.tolist(), state.syn[group * w + idx].tolist(),
                                      marks.order[axis, idx].tolist(),
                                      marks.non_hrb[axis, idx].tolist()):
        row = i * n
        pattern = decode_syndromes(comp, syn)
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
                got = decode_syndromes(comp, change)
                if got is None:
                    continue
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
                live: range | None = None) -> np.ndarray:
    """Decode the words with a nonzero syndrome of each of `groups` (one
    group index or an array of them) and apply their flips. Without marks
    every pattern applies at once, as the words of a group share no bits
    and the groups are disjoint word sets. With marks (SABM, on one group;
    word i of the group is word i of marks' axis) `_sabm_pass` resolves the
    words in ascending order in one loop, as a veto reads crossing
    syndromes that earlier words changed; it reads only the slots in
    `live` (default: all). Returns, per group, whether any of its bits was
    flipped."""
    w = state.w
    groups = np.asarray(groups)
    stats.bdd_calls += w * groups.size
    own = state.syn.reshape(-1, w).take(groups, axis=0).ravel()
    hit = own.nonzero()[0]
    changed = np.zeros(groups.size, dtype=bool)
    if hit.size == 0:
        return changed
    if marks is not None:
        changed[0] = _sabm_pass(state, groups.item(), hit, marks, axis, live, stats)
        return changed
    pos = state.code.error_positions[own[hit]]
    rows, k = (pos >= 0).nonzero()
    if rows.size:
        at, words = np.divmod(hit[rows], w)
        state.flip(groups.take(at), words, pos[rows, k])
        changed[at] = True
    return changed


def _decode_core(code: PcCode, blocks, iters: int, marks: MarkState | None,
                 md_iters: int) -> tuple[np.ndarray, DecodeStats]:
    """iBDD, with SABM in the first md_iters iterations if marks are given,
    on one (w, w) block or a (B, w, w) stack of them. The blocks of a stack
    are decoded in lockstep, each exactly as on its own: an iteration is a
    row pass and then a column pass over the active blocks, and a block
    leaves the active set where it would stop alone. Marks cover one
    block."""
    blk = np.array(blocks, dtype=np.uint8, order="C")
    w = code.w
    if blk.shape[-2:] != (w, w) or blk.ndim not in (2, 3):
        raise ValueError(f"block must be ({w}, {w}) or a stack of them")
    count = blk.size // (w * w)
    if marks is not None and count != 1:
        raise ValueError("marks cover one block")
    stats = DecodeStats()
    state = SyndromeState(code.component, blk, block_layout(w, count))
    rows = 2 * np.arange(count)  # row group of each active block; its columns follow
    it = 0
    while it < iters and rows.size:
        iter_marks = marks if it < md_iters else None
        changed = (decode_pass(state, rows, stats, iter_marks, 0)
                   | decode_pass(state, rows + 1, stats, iter_marks, 1))
        it += 1
        if not changed.all():
            # with no flip, every word left with a nonzero syndrome was
            # dropped: a stalled marking phase (of the one marked block)
            # cannot make progress with the same vetoes in place, so hand
            # such a block to the plain iterations; a clean block or a
            # stalled plain one stops
            if iter_marks is not None and state.syn.any():
                it = max(it, md_iters)
            else:
                rows = rows[changed]
    return blk, stats


def ibdd_decode(code: PcCode, blocks, iters: int) -> tuple[np.ndarray, DecodeStats]:
    """iBDD of one (w, w) block or of a (B, w, w) stack; returns the decoded
    bits in the input's shape and the DecodeStats summed over the stack."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    return _decode_core(code, blocks, iters, marks=None, md_iters=0)


def sabm_decode(code: PcCode, block, llr: np.ndarray,
                params: SabmParams) -> tuple[np.ndarray, DecodeStats]:
    marks = mark_bits(llr, params, code)
    return _decode_core(code, block, params.total_iters, marks=marks, md_iters=params.md_iters)
