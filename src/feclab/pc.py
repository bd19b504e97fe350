"""Product codes: construction, iterative BDD, and the soft-aided
bit-marking (SABM) decoder.

SABM augments iBDD with a channel-LLR mask: bits with |llr| > delta are
highly reliable (HRBs), and per component word the d0-t-1 smallest-|llr|
non-HRB positions are the flip candidates (HUBs). SABM runs if and only
if LLRs are given: in the first md_iters iterations `decode_pass` screens
every BDD success with `_suspicious` and, on a failure or miscorrection,
tries the flip sets that `sabm_resolve` lists.

Decoding runs on syndromes, in one core that the staircase decoder shares.
`SyndromeState` keeps the packed syndrome of every word of a set of word
groups in which every bit lies in two words (here group 0 holds the rows
of a block and group 1 its columns). Every flip updates the syndrome of
its word and of the crossing word, so the maintained syndromes always
equal the syndromes of the bits. `decode_pass` decodes the words of one
group that have a nonzero syndrome (a clean word is a no-op), yet
`bdd_calls` counts w per pass, as if every word were decoded, plus one per
flip retry.
"""

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from operator import xor

import numpy as np

from .bch import BchCode, block_syndromes, decode_block, decode_syndromes, encode_many
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


@dataclass(frozen=True)
class MarkState:
    """Flip mask frozen at channel time, for the words along each axis (for
    a product block, rows are axis 0 and columns axis 1). word_hrb[axis, i]
    flags the HRB positions of word i. order[axis, i] holds the first d0-2
    entries of its stable order (positions by ascending |llr|, ties to the
    lowest index), the most that SABM reads; of that order the first
    non_hrb[axis, i] entries are the non-HRB positions. The HUB list of a
    word is the first hub_len = d0-t-1 entries of its non-HRB order; a
    failed word gets flip_attempts retries, at most one per HUB."""

    word_hrb: np.ndarray = field(repr=False)  # (axes, w, n)
    order: np.ndarray = field(repr=False)     # (axes, w, min(d0-2, marked positions))
    non_hrb: np.ndarray = field(repr=False)   # (axes, w)
    hub_len: int
    flip_attempts: int

    def order_for(self, axis: int, index: int) -> np.ndarray:
        return self.order[axis, index, : self.non_hrb[axis, index]]


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
    hub_len = code.d0 - code.t - 1
    return MarkState(word_hrb=word_hrb, order=order, non_hrb=(~hrb).sum(axis=-1),
                     hub_len=hub_len,
                     flip_attempts=min(hub_len, params.failure_flip_attempts))


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
        # per group, the same vectors as tuples for scalar updates
        self.rows = tuple(tuple(tuple(a[g].tolist()) for a in arrays)
                          for g in range(len(base)))


@lru_cache(maxsize=None)
def block_layout(w: int) -> Layout:
    """Rows (group 0) and columns (group 1) of a w x w block: position j of
    row i is bit (i, j), which is position i of column j."""
    j = np.arange(w)
    return Layout(lambda bits: np.stack([bits, bits.T]), base=[j, j * w],
                  stride=[np.full(w, w), np.ones(w)], cross=[w + j, j],
                  shift=np.zeros((2, w)))


class SyndromeState:
    """Packed syndromes of every word of a layout over a bit array, which
    is decoded in place: syn[g * w + i] is the syndrome of word i of group
    g. Flips made through `flip` and `flip_word` update the bits, the
    flipped word's syndrome and each crossing word's syndrome, so `syn`
    always equals the syndromes of the bits."""

    def __init__(self, code: BchCode, bits: np.ndarray, layout: Layout):
        if not (isinstance(bits, np.ndarray) and bits.flags.c_contiguous):
            raise ValueError("bits must be a C-contiguous array, as they are decoded in place")
        self.code, self.bits, self.layout = code, bits, layout
        self.flat = bits.reshape(-1)
        words = layout.words(bits)
        self.w = words.shape[1]
        self.syn = block_syndromes(code, words.reshape(-1, code.n))

    def flip(self, group: int, words: np.ndarray, positions: np.ndarray):
        """Flip bit positions[k] of word words[k] of group, for every k; no
        (word, position) pair may repeat."""
        lay, h = self.layout, self.code.flip_syndrome
        self.flat[lay.base[group, positions] + words * lay.stride[group, positions]] ^= 1
        np.bitwise_xor.at(self.syn, group * self.w + words, h[positions])
        np.bitwise_xor.at(self.syn, lay.cross[group, positions],
                          h[lay.shift[group, positions] + words])

    def flip_word(self, group: int, index: int, pattern):
        """`flip` for the positions of one word, without the array set-up."""
        base, stride, cross, shift = self.layout.rows[group]
        flat, syn, h = self.flat, self.syn, self.code.flip_syndrome
        own = group * self.w + index
        for p in pattern:
            flat[base[p] + index * stride[p]] ^= 1
            syn[own] ^= h[p]
            syn[cross[p]] ^= h[shift[p] + index]


def _suspicious(pattern, hrb_row: np.ndarray, syn: np.ndarray, cross, live: range) -> bool:
    """True iff the pattern touches an HRB of its word or a bit whose
    crossing word (slot cross[p] of syn) is live and currently has a zero
    syndrome; a crossing word outside `live` never reads as a codeword."""
    return any(hrb_row[p] for p in pattern) or any(
        syn[cross[p]] == 0 and cross[p] in live for p in pattern)


def bit_flip_recover(code: BchCode, syndrome: int, attempts: list[list[int]],
                     stats: DecodeStats, suspicious) -> tuple[int, ...]:
    """Retry BDD with each flip set of `attempts` in turn, on the word whose
    packed syndrome is `syndrome` (no bits are read); returns the first total
    flip pattern that `suspicious` accepts, or () to revert the word."""
    for flips in attempts:
        stats.flips_attempted += 1
        change = reduce(xor, [code.flip_syndrome[p] for p in flips], syndrome)
        pat = decode_syndromes(code, change)
        stats.bdd_calls += 1
        if pat is None:
            continue
        total = tuple(sorted(set(flips).symmetric_difference(pat)))
        if not total or suspicious(total):
            # empty net pattern cannot happen for a non-codeword input;
            # treat it like a failed retry rather than a silent accept
            continue
        stats.flips_accepted += 1
        return total
    return ()


def sabm_resolve(code: BchCode, syndrome: int, proposal, order: np.ndarray,
                 suspicious, flip_attempts: int,
                 stats: DecodeStats) -> tuple[int, ...]:
    """SABM's final flip pattern for one word, given its packed syndrome,
    its BDD proposal (None on failure), its flip order and the word's
    miscorrection check. A failure retries with order[0], order[1], ...
    flipped one at a time, at most flip_attempts retries (callers cap
    flip_attempts at the HUB count). A suspicious proposal of weight e
    retries once with the d0 - e - 1 least reliable non-HRB positions
    flipped at once, operating on the pre-BDD word."""
    if proposal is None:
        attempts = [[p] for p in order[:flip_attempts].tolist()]
    elif not proposal or not suspicious(proposal):
        return proposal
    else:
        stats.miscorrections_detected += 1
        flips = order[:code.d0 - len(proposal) - 1].tolist()
        attempts = [flips] if flips else []
    return bit_flip_recover(code, syndrome, attempts, stats, suspicious)


def decode_pass(state: SyndromeState, group: int, stats: DecodeStats,
                marks: MarkState | None = None, axis: int = 0,
                live: range | None = None) -> tuple[bool, bool]:
    """Decode the words of one group that have a nonzero syndrome and apply
    their flips. Without marks every pattern applies at once, as the words
    of a group share no bits. With marks (SABM; word i of the group is word
    i of marks' axis) the words are resolved and applied in order, as a veto
    reads crossing syndromes that earlier words changed; it reads only the
    slots in `live` (default: all). Returns (changed, suppressed), where
    suppressed means a failure or proposal was dropped."""
    w = state.w
    stats.bdd_calls += w
    own = state.syn[group * w:(group + 1) * w]
    idx = np.flatnonzero(own)
    if idx.size == 0:
        return False, False
    comp = state.code
    if marks is None:
        rows, pos = decode_block(comp, own[idx]).flips()
        if rows.size:
            state.flip(group, idx[rows], pos)
        return rows.size > 0, False
    hrb, cross = marks.word_hrb[axis], state.layout.rows[group][2]
    live = range(state.syn.size) if live is None else live
    changed = suppressed = False
    for i in idx.tolist():
        syn = int(own[i])
        resolved = sabm_resolve(comp, syn, decode_syndromes(comp, syn),
                                marks.order_for(axis, i),
                                partial(_suspicious, hrb_row=hrb[i], syn=state.syn,
                                        cross=cross, live=live),
                                marks.flip_attempts, stats)
        if resolved:
            state.flip_word(group, i, resolved)
            changed = True
        else:  # a nonzero syndrome never decodes to an empty proposal
            suppressed = True
    return changed, suppressed


def _decode_core(code: PcCode, block, iters: int, marks: MarkState | None,
                 md_iters: int, early_exit: bool) -> tuple[np.ndarray, DecodeStats]:
    blk = np.array(block, dtype=np.uint8, order="C")
    w = code.w
    if blk.shape != (w, w):
        raise ValueError(f"block must be ({w}, {w})")
    stats = DecodeStats()
    state = SyndromeState(code.component, blk, block_layout(w))
    it = 0
    while it < iters:
        sabm_active = it < md_iters
        changed = suppressed = False
        for axis in (0, 1):
            c, s = decode_pass(state, axis, stats, marks if sabm_active else None, axis)
            changed |= c
            suppressed |= s
        it += 1
        if early_exit and not changed:
            if not sabm_active or not suppressed:
                break
            # a stalled marking phase cannot make progress with the same
            # vetoes in place; hand the block to the plain iterations
            it = max(it, md_iters)
    return blk, stats


def ibdd_decode(code: PcCode, block, iters: int,
                early_exit: bool = True) -> tuple[np.ndarray, DecodeStats]:
    if iters < 1:
        raise ValueError("iters must be >= 1")
    return _decode_core(code, block, iters, marks=None, md_iters=0,
                        early_exit=early_exit)


def sabm_decode(code: PcCode, block, llr: np.ndarray, params: SabmParams,
                early_exit: bool = True) -> tuple[np.ndarray, DecodeStats]:
    marks = mark_bits(llr, params, code)
    return _decode_core(code, block, params.total_iters, marks=marks,
                        md_iters=params.md_iters, early_exit=early_exit)
