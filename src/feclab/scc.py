"""Staircase codes: encoding, sliding-window iBDD, SABM on the newest
block, and the relative-complexity metric eta.

Block geometry: every row of [transpose(B_{i-1}) | B_i] is a component
codeword with n = 2w. Within B_i, columns 0..k-w-1 carry fresh information
and the remaining columns the parity (overall-parity bit in the last
column). B_0 is the all-zero reference block known to both ends.

Decoding runs on the syndrome core of `pc`: a window of L blocks is one
(L, w, w) array whose L-1 pairs are the word groups of a `SyndromeState`.
A bit of the oldest or the newest block whose crossing word lies outside
the window maps to the sink slot, so the SABM veto never reads it as
lying in a codeword. A pass decodes only the words of a pair with a
nonzero syndrome, yet `bdd_calls` counts w per pair pass, as if every
word were decoded, plus one per flip retry.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bch import BchCode, encode_many
from .errors import ConfigError
from .pc import DecodeStats, Layout, SabmParams, SyndromeState, decode_pass, make_marks


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
    """BDD-call accounting of a chain: total_calls made, and baseline_calls,
    the standard-decoding count w*(L-1)*ell summed over its windows."""

    total_calls: int = 0
    baseline_calls: int = 0
    windows: int = 0


def eta(stats: ComplexityStats) -> float:
    """Relative complexity (total - baseline) / baseline."""
    if stats.baseline_calls <= 0:
        raise ValueError("baseline_calls must be positive")
    return (stats.total_calls - stats.baseline_calls) / stats.baseline_calls


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


@lru_cache(maxsize=None)
def window_layout(w: int, num_blocks: int) -> Layout:
    """The pairs 0..L-2 of an L-block window: word i of pair p is row i of
    [transpose(B_p) | B_{p+1}]. Its position j < w is B_p[j, i], which is
    position w+i of word j of pair p-1; its position w+j is B_{p+1}[i, j],
    which is position i of word j of pair p+1."""
    groups = num_blocks - 1
    p = np.arange(groups)[:, None]
    j = np.arange(w)[None, :]
    sink, n = groups * w, 2 * w
    older, newer = p > 0, p + 1 < groups

    def halves(older_half, newer_half):
        return np.concatenate([np.broadcast_to(older_half, (groups, w)),
                               np.broadcast_to(newer_half, (groups, w))], axis=1)

    return Layout(lambda bits: np.concatenate([bits[:-1].transpose(0, 2, 1), bits[1:]], axis=2),
                  base=halves(p * w * w + j * w, (p + 1) * w * w + j),
                  stride=halves(1, w),
                  cross=halves(np.where(older, (p - 1) * w + j, sink),
                               np.where(newer, (p + 1) * w + j, sink)),
                  shift=halves(np.where(older, w, n), np.where(newer, 0, n)))


def scc_window_decode(code: SccCode, blocks: np.ndarray, ell: int,
                      mode: str = "standard",
                      llr_newest: np.ndarray | None = None,
                      params: SabmParams | None = None,
                      stats: DecodeStats | None = None) -> None:
    """Run ell iterations over one window, a C-contiguous (L, w, w) array of
    blocks (oldest..newest) decoded in place, counting into stats."""
    if len(blocks) < 1:
        raise ValueError("window must hold at least one block")
    if stats is None:
        stats = DecodeStats()
    marks = None
    if mode == "sabm":
        if params is None:
            params = SabmParams()
        if llr_newest is None:
            raise ValueError("sabm mode requires LLRs for the newest block")
        # the newest block fills positions w..2w-1 of the newest pair's words
        marks = make_marks(np.abs(llr_newest)[None], params, code.component, offset=code.w)
    elif mode != "standard":
        raise ValueError(f"unknown mode {mode!r}")

    newest = len(blocks) - 2
    state = SyndromeState(code.component, blocks, window_layout(code.w, len(blocks)))
    for it in range(ell):
        for p in range(newest + 1):
            sabm = marks is not None and p == newest and it < params.md_iters
            decode_pass(state, p, stats, marks if sabm else None)


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
    chain = np.zeros((len(received) + 1, w, w), dtype=np.uint8)
    for i, blk in enumerate(received):
        chain[i + 1] = blk
    # the window starting at chain block s ends at block s+window-1 or at
    # the chain's end; its newest block is received[end - 2]
    for s in range(len(received)):
        end = min(s + window, len(chain))
        llr = llr_grids[end - 2] if (mode == "sabm" and llr_grids) else None
        scc_window_decode(code, chain[s:end], ell, mode=mode, llr_newest=llr,
                          params=params, stats=stats)
        cx.windows += 1
        cx.baseline_calls += w * (end - s - 1) * ell
    cx.total_calls = stats.bdd_calls
    # drop the bootstrap zero block from the output
    return list(chain[1:]), cx, stats
