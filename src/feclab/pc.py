"""Product codes: construction, iterative BDD, and the soft-aided
bit-marking (SABM) decoder.

SABM augments iBDD with a channel-LLR mask: bits with |llr| > delta are
highly reliable (HRBs), and per component word the d0-t-1 smallest-|llr|
non-HRB positions are the flip candidates (HUBs). During the first
md_iters iterations every BDD success is screened for miscorrection and
failures/miscorrections trigger deliberate bit flips followed by a retry.

Decoding runs on syndromes. `BlockSyndromes` keeps the packed syndrome of
every row and column, and every flip updates the syndrome of its word and
of the crossing word, so the maintained syndromes always equal the
syndromes of the bits. A pass decodes only the words with a nonzero
syndrome (a clean word is a no-op), yet `bdd_calls` counts w per pass, as
if every word were decoded, plus one per flip retry.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .bch import (BchCode, BddOutcome, block_syndromes, decode_block, decode_syndromes,
                  encode_many, unpack_syndromes)
from .errors import ConfigError
from .modem import ReliabilityGrid


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
        if self.delta < 0:
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
    """Flip mask frozen at channel time: HRB flags plus, per word, its
    positions sorted by ascending |llr| (ties broken by lowest index), of
    which the first non_hrb are its non-HRB positions. Axis 0 words are
    rows and axis 1 words columns. The HUB list of a word is the first
    hub_len = d0-t-1 entries of its non-HRB order."""

    hrb: np.ndarray
    order: np.ndarray = field(repr=False, default=None)    # (axes, w, n)
    non_hrb: np.ndarray = field(repr=False, default=None)  # (axes, w)
    hub_len: int = 0

    def order_for(self, axis: int, index: int) -> np.ndarray:
        return self.order[axis, index, : self.non_hrb[axis, index]]


def pc_encode(code: PcCode, data) -> np.ndarray:
    d = np.asarray(data, dtype=np.uint8)
    k = code.k
    if d.shape != (k, k):
        raise ValueError(f"data must be ({k}, {k})")
    rows = encode_many(code.component, d)          # (k, w): data rows encoded
    block = encode_many(code.component, rows.T).T  # every column encoded
    return block


def mark_bits(llrs: ReliabilityGrid, params: SabmParams, code: PcCode) -> MarkState:
    a = np.abs(llrs.llr)
    w = code.w
    if a.shape != (w, w):
        raise ValueError(f"LLR grid must be ({w}, {w})")
    hrb = a > params.delta
    # HRBs have |llr| > delta, so a stable sort puts every non-HRB before
    # them: each word's non-HRB order is a prefix of its sorted positions
    order = np.argsort(np.stack([a, a.T]), axis=-1, kind="stable")
    non_hrb = np.stack([(~hrb).sum(axis=1), (~hrb).sum(axis=0)])
    hrb.setflags(write=False)
    return MarkState(hrb=hrb, order=order, non_hrb=non_hrb,
                     hub_len=code.component.d0 - code.component.t - 1)


class BlockSyndromes:
    """Packed syndromes of every row (syn[0]) and column (syn[1]) of a
    w x w block. Flips made through `flip` and `flip_word` update the bits,
    the flipped word's syndrome and each crossing word's syndrome, so `syn`
    always equals the syndromes of `bits`."""

    def __init__(self, code: BchCode, bits: np.ndarray):
        self.code = code
        self.bits = bits
        w = bits.shape[0]
        self.syn = block_syndromes(code, np.concatenate([bits, bits.T])).reshape(2, w)

    def flip(self, axis: int, words: np.ndarray, positions: np.ndarray):
        """Flip bit positions[k] of word words[k] along axis, for every k;
        no (word, position) pair may repeat."""
        h = self.code.flip_syndrome
        view = self.bits if axis == 0 else self.bits.T
        view[words, positions] ^= 1
        np.bitwise_xor.at(self.syn[axis], words, h[positions])
        np.bitwise_xor.at(self.syn[1 - axis], positions, h[words])

    def flip_word(self, axis: int, index: int, pattern):
        """`flip` for the positions of one word, without the array set-up."""
        h = self.code.flip_syndrome
        view = self.bits if axis == 0 else self.bits.T
        own, cross = self.syn[axis], self.syn[1 - axis]
        for p in pattern:
            view[index, p] ^= 1
            own[index] ^= h[p]
            cross[p] ^= h[index]


def _suspicious(pattern, hrb_row: np.ndarray, cross: np.ndarray) -> bool:
    """True iff the pattern touches an HRB of its word or a bit whose
    crossing word currently has a zero syndrome."""
    return any(hrb_row[p] for p in pattern) or any(cross[p] == 0 for p in pattern)


def detect_miscorrection(outcome: BddOutcome, axis: int, index: int,
                         marks: MarkState, block: np.ndarray,
                         code: PcCode) -> bool:
    """True iff a successful correction touches an HRB or a currently
    zero-syndrome orthogonal word (column for a row decode and vice versa)."""
    cross = block_syndromes(code.component, block.T if axis == 0 else block)
    hrb = marks.hrb if axis == 0 else marks.hrb.T
    return _suspicious(outcome.error_pattern, hrb[index], cross)


def bit_flip_recover(code: BchCode, syndrome, outcome: BddOutcome,
                     reason: str, order: np.ndarray, flip_attempts: int,
                     stats: DecodeStats, suspicious) -> tuple[int, ...]:
    """Flip unreliable bits and retry BDD; returns the accepted total flip
    pattern relative to the word whose syndrome is `syndrome` = (S1, S3,
    parity), or () when every retry fails (revert). A retry decodes that
    syndrome XOR the flipped positions' contributions; no bits are read.

    reason="failure": flip order[0], order[1], ... one at a time, at most
    flip_attempts retries (callers cap flip_attempts at the HUB count).
    reason="miscorrection": flip the d0 - w_H(e) - 1 least reliable non-HRB
    positions at once, operating on the pre-BDD word. Every new success must
    survive the final miscorrection check `suspicious(pattern)`.
    """
    if reason == "miscorrection":
        nflip = code.d0 - outcome.weight - 1
        flips = [int(p) for p in order[:nflip]]
        attempts = [flips] if flips else []
    elif reason == "failure":
        attempts = [[int(h)] for h in order[:flip_attempts]]
    else:
        raise ValueError(f"unknown recovery reason {reason!r}")

    s1, s3, parity = syndrome
    for flips in attempts:
        stats.flips_attempted += 1
        change = int(np.bitwise_xor.reduce(code.flip_syndrome[flips]))
        d1, d3, dp = unpack_syndromes(code, change)
        pat = decode_syndromes(code, s1 ^ d1, s3 ^ d3, parity ^ dp)
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


def sabm_resolve(code: BchCode, syndrome, proposal, order: np.ndarray,
                 suspicious, flip_attempts: int,
                 stats: DecodeStats) -> tuple[int, ...]:
    """SABM's final flip pattern for one word, given its (S1, S3, parity),
    its BDD proposal (None on failure), its flip order and the word's
    miscorrection check. Used by the product and the staircase decoder."""
    if proposal is not None:
        if len(proposal) == 0:
            return ()
        if not suspicious(proposal):
            return proposal
        stats.miscorrections_detected += 1
        outcome, reason = BddOutcome(success=True, error_pattern=proposal), "miscorrection"
    else:
        outcome, reason = BddOutcome(success=False), "failure"
    return bit_flip_recover(code, syndrome, outcome, reason, order,
                            flip_attempts, stats, suspicious)


def _sabm_pass(state: BlockSyndromes, axis: int, idx: np.ndarray, props,
               marks: MarkState, params: SabmParams,
               stats: DecodeStats) -> tuple[bool, bool]:
    """Resolve and apply the words idx in order: a veto reads crossing
    syndromes that earlier words of the pass changed. Returns (changed,
    suppressed), where suppressed means a failure or proposal was dropped."""
    comp = state.code
    hrb = marks.hrb if axis == 0 else marks.hrb.T
    own, cross = state.syn[axis], state.syn[1 - axis]
    flip_attempts = min(marks.hub_len, params.failure_flip_attempts)
    changed = suppressed = False
    for k, i in enumerate(idx.tolist()):
        resolved = sabm_resolve(comp, unpack_syndromes(comp, int(own[i])),
                                props.full_pattern(k, comp.n), marks.order_for(axis, i),
                                partial(_suspicious, hrb_row=hrb[i], cross=cross),
                                flip_attempts, stats)
        if resolved:
            state.flip_word(axis, i, resolved)
            changed = True
        else:  # a nonzero syndrome never decodes to an empty proposal
            suppressed = True
    return changed, suppressed


def _decode_core(code: PcCode, block, iters: int, marks: MarkState | None,
                 params: SabmParams | None, early_exit: bool
                 ) -> tuple[np.ndarray, DecodeStats]:
    blk = np.array(block, dtype=np.uint8, copy=True)
    w = code.w
    if blk.shape != (w, w):
        raise ValueError(f"block must be ({w}, {w})")
    stats = DecodeStats()
    comp = code.component
    state = BlockSyndromes(comp, blk)
    md_iters = params.md_iters if marks is not None else 0
    it = 0
    while it < iters:
        changed = False
        suppressed = False
        sabm_active = it < md_iters
        for axis in (0, 1):
            stats.bdd_calls += w
            idx = np.flatnonzero(state.syn[axis])
            if idx.size == 0:
                continue
            props = decode_block(comp, state.syn[axis, idx])
            if sabm_active:
                c, s = _sabm_pass(state, axis, idx, props, marks, params, stats)
                changed |= c
                suppressed |= s
            else:
                # words of one pass share no bits, so every pattern applies at once
                rows, pos = props.flips(comp.n)
                if rows.size:
                    state.flip(axis, idx[rows], pos)
                    changed = True
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
    return _decode_core(code, block, iters, marks=None, params=None,
                        early_exit=early_exit)


def sabm_decode(code: PcCode, block, llrs: ReliabilityGrid,
                params: SabmParams,
                early_exit: bool = True) -> tuple[np.ndarray, DecodeStats]:
    marks = mark_bits(llrs, params, code)
    return _decode_core(code, block, params.total_iters, marks=marks,
                        params=params, early_exit=early_exit)
