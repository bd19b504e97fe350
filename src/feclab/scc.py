"""Staircase codes: encoding, sliding-window iBDD, SABM on the newest
block, and the relative-complexity metric eta.

Block geometry: every row of [transpose(B_{i-1}) | B_i] is a component
codeword with n = 2w. Within B_i, columns 0..k-w-1 carry fresh information
and the remaining columns the parity (overall-parity bit in the last
column). B_0 is the all-zero reference block known to both ends.

Decoding runs on syndromes. `WindowSyndromes` keeps the packed syndrome of
every word of every pair in the window; a flip updates its word and the
crossing word, which lies in the neighbouring pair p-1 (older-half bits)
or p+1 (newer-half bits), so the maintained syndromes always equal the
syndromes of the bits. A pass decodes only the words with a nonzero
syndrome (a clean word is a no-op), yet `bdd_calls` counts w per pair
pass, as if every word were decoded, plus one per flip retry.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .bch import BchCode, block_syndromes, decode_block, encode_many, unpack_syndromes
from .errors import ConfigError
from .pc import DecodeStats, MarkState, SabmParams, sabm_resolve


@dataclass(frozen=True)
class SccCode:
    component: BchCode

    def __post_init__(self):
        if self.component.n % 2:
            raise ConfigError("staircase component needs even n = 2w")
        if self.component.k <= self.w:
            raise ConfigError(f"staircase component k={self.component.k} must exceed "
                              f"w={self.w} to carry information")

    @property
    def w(self) -> int:
        return self.component.n // 2

    @property
    def info_cols(self) -> int:
        return self.component.k - self.w


@dataclass
class ComplexityStats:
    """BDD-call accounting: eta = (n_bar - n_sd) / n_sd, with n_sd the
    standard-decoding call count w*(L-1)*ell per window."""

    n_bar: float = 0.0
    n_sd: float = 0.0
    total_calls: int = 0
    baseline_calls: int = 0
    windows: int = 0

    def finalize(self):
        if self.windows:
            self.n_bar = self.total_calls / self.windows
            self.n_sd = self.baseline_calls / self.windows


def eta(stats: ComplexityStats) -> float:
    if stats.n_sd <= 0:
        raise ValueError("n_sd must be positive")
    return (stats.n_bar - stats.n_sd) / stats.n_sd


def scc_encode(code: SccCode, info_blocks) -> list[np.ndarray]:
    """Encode a chain; info_blocks has shape (num_blocks, w, k - w)."""
    info = np.asarray(info_blocks, dtype=np.uint8)
    w = code.w
    if info.ndim != 3 or info.shape[1:] != (w, code.info_cols):
        raise ValueError(f"info blocks must be (N, {w}, {code.info_cols})")
    prev = np.zeros((w, w), dtype=np.uint8)
    out = []
    for i in range(info.shape[0]):
        msgs = np.concatenate([prev.T, info[i]], axis=1)  # (w, k)
        words = encode_many(code.component, msgs)
        block = words[:, w:]
        out.append(np.ascontiguousarray(block))
        prev = block
    return out


def _pair_words(blocks: list[np.ndarray], p: int) -> np.ndarray:
    return np.concatenate([blocks[p].T, blocks[p + 1]], axis=1)


class WindowSyndromes:
    """Packed syndromes syn[p, i] of word i of pair p, the row i of
    [transpose(B_p) | B_{p+1}], for every pair of a window. Bit j < w of
    that word is B_p[j, i] and also bit w+i of word j of pair p-1; bit
    j >= w is B_{p+1}[i, j-w] and also bit i of word j-w of pair p+1.
    Flips made through `flip` and `flip_word` update the bits and every
    in-window syndrome they change, so `syn` always equals the syndromes
    of the blocks."""

    def __init__(self, code: BchCode, blocks: list[np.ndarray]):
        self.code = code
        self.blocks = blocks
        self.w = w = code.n // 2
        pairs = [_pair_words(blocks, p) for p in range(len(blocks) - 1)]
        words = np.concatenate(pairs) if pairs else np.zeros((0, code.n), np.uint8)
        self.syn = block_syndromes(code, words).reshape(len(pairs), w)

    def flip(self, p: int, words: np.ndarray, positions: np.ndarray):
        """Flip bit positions[k] of word words[k] of pair p, for every k;
        no (word, position) pair may repeat."""
        w, h, syn = self.w, self.code.flip_syndrome, self.syn
        older = positions < w
        wo, po = words[older], positions[older]
        wn, pn = words[~older], positions[~older] - w
        self.blocks[p][po, wo] ^= 1
        self.blocks[p + 1][wn, pn] ^= 1
        np.bitwise_xor.at(syn[p], words, h[positions])
        if p > 0:
            np.bitwise_xor.at(syn[p - 1], po, h[w + wo])
        if p + 1 < len(syn):
            np.bitwise_xor.at(syn[p + 1], pn, h[wn])

    def flip_word(self, p: int, index: int, pattern):
        """`flip` for the positions of one word, without the array set-up."""
        w, h, syn = self.w, self.code.flip_syndrome, self.syn
        for q in pattern:
            syn[p, index] ^= h[q]
            if q < w:
                self.blocks[p][q, index] ^= 1
                if p > 0:
                    syn[p - 1, q] ^= h[w + index]
            else:
                self.blocks[p + 1][index, q - w] ^= 1
                if p + 1 < len(syn):
                    syn[p + 1, q - w] ^= h[index]


def _mark_newest(code: SccCode, llr: np.ndarray, delta: float) -> MarkState:
    """HRB mask and per-word flip order of the newest block; the order holds
    word positions w..2w-1, as older-block bits are unmarked."""
    a = np.abs(llr)
    hrb = a > delta
    order = code.w + np.argsort(a, axis=1, kind="stable")
    return MarkState(hrb=hrb, order=order[None], non_hrb=(~hrb).sum(axis=1)[None],
                     hub_len=code.component.d0 - code.component.t - 1)


def _sabm_pass(state: WindowSyndromes, p: int, idx: np.ndarray, props,
               marks: MarkState, params: SabmParams, stats: DecodeStats):
    """Resolve and apply the words idx of the newest pair p in order: a
    veto reads syndromes of pair p-1 that earlier words changed."""
    comp, w, hrb = state.code, state.w, marks.hrb
    flip_attempts = min(marks.hub_len, params.failure_flip_attempts)
    # an older-half bit's crossing word is in pair p-1; a newest-half bit
    # has no crossing word in the window
    older = state.syn[p - 1] if p > 0 else None

    def suspicious(pattern, i):
        return (any(q >= w and hrb[i, q - w] for q in pattern)
                or (older is not None and any(q < w and older[q] == 0 for q in pattern)))

    for k, i in enumerate(idx.tolist()):
        resolved = sabm_resolve(comp, unpack_syndromes(comp, int(state.syn[p, i])),
                                props.full_pattern(k, comp.n), marks.order_for(0, i),
                                partial(suspicious, i=i), flip_attempts, stats)
        if resolved:
            state.flip_word(p, i, resolved)


def scc_window_decode(code: SccCode, blocks: list[np.ndarray], ell: int,
                      mode: str = "standard",
                      llr_newest: np.ndarray | None = None,
                      params: SabmParams | None = None,
                      stats: DecodeStats | None = None) -> tuple[np.ndarray, int]:
    """Run ell iterations over one window (oldest..newest, mutated in
    place) and return (oldest block, number of BDD calls made)."""
    w = code.w
    comp = code.component
    L = len(blocks)
    if L < 1:
        raise ValueError("window must hold at least one block")
    if stats is None:
        stats = DecodeStats()
    marks = None
    if mode == "sabm":
        if params is None:
            params = SabmParams()
        if llr_newest is None:
            raise ValueError("sabm mode requires LLRs for the newest block")
        marks = _mark_newest(code, llr_newest, params.delta)
    elif mode != "standard":
        raise ValueError(f"unknown mode {mode!r}")

    state = WindowSyndromes(comp, blocks)
    calls_before = stats.bdd_calls
    for it in range(ell):
        for p in range(L - 1):
            stats.bdd_calls += w
            idx = np.flatnonzero(state.syn[p])
            if idx.size == 0:
                continue
            props = decode_block(comp, state.syn[p, idx])
            if marks is not None and p == L - 2 and it < params.md_iters:
                _sabm_pass(state, p, idx, props, marks, params, stats)
            else:
                # words of one pass share no bits, so every pattern applies at once
                rows, pos = props.flips(comp.n)
                if rows.size:
                    state.flip(p, idx[rows], pos)
    return blocks[0], stats.bdd_calls - calls_before


def decode_chain(code: SccCode, received: list[np.ndarray],
                 llr_grids: list[np.ndarray] | None, mode: str,
                 params: SabmParams | None, window: int, ell: int
                 ) -> tuple[list[np.ndarray], ComplexityStats, DecodeStats]:
    """Sliding-window decode of a whole chain (leading zero block is
    handled internally); returns the decoded blocks in order."""
    if window < 2:
        raise ValueError("window size must be >= 2")
    w = code.w
    stats = DecodeStats()
    cx = ComplexityStats()
    buf: list[np.ndarray] = [np.zeros((w, w), dtype=np.uint8)]
    decoded: list[np.ndarray] = []

    def run_window():
        llr = llr_grids[_newest_idx()] if (mode == "sabm" and llr_grids) else None
        _, _ = scc_window_decode(code, buf, ell, mode=mode, llr_newest=llr,
                                 params=params, stats=stats)
        cx.windows += 1
        cx.baseline_calls += w * (len(buf) - 1) * ell
        decoded.append(buf.pop(0))

    newest = -1

    def _newest_idx():
        return newest

    for i, blk in enumerate(received):
        buf.append(np.array(blk, dtype=np.uint8, copy=True))
        newest = i
        if len(buf) == window:
            run_window()
    while len(buf) > 1:
        run_window()
    decoded.extend(buf)
    cx.total_calls = stats.bdd_calls
    cx.finalize()
    # drop the bootstrap zero block from the output
    return decoded[1:], cx, stats
