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
word were decoded, plus one per flip retry. SABM runs if and only if LLRs
are given. `decode_chain` returns the decoded blocks and the chain's
`DecodeStats`; `baseline_calls` gives eta's baseline from the geometry.
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


def eta(total_calls: int, baseline_calls: int) -> float:
    """Relative complexity (total - baseline) / baseline."""
    if baseline_calls <= 0:
        raise ValueError("baseline_calls must be positive")
    return (total_calls - baseline_calls) / baseline_calls


def baseline_calls(code: SccCode, num_blocks: int, window: int, ell: int) -> int:
    """BDD calls of standard decoding of a num_blocks chain: w * (L - 1) *
    ell summed over `decode_chain`'s windows, where the window starting at
    chain block s has L - 1 = min(window - 1, num_blocks - s) pairs."""
    a = min(window - 1, num_blocks)
    return code.w * ell * (a * (a + 1) // 2 + (num_blocks - a) * a)


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
                      llr_newest: np.ndarray | None = None,
                      params: SabmParams | None = None,
                      stats: DecodeStats | None = None) -> None:
    """Run ell iterations over one window, a C-contiguous (L, w, w) array of
    blocks (oldest..newest) decoded in place, counting into stats. SABM runs
    on the newest pair in the first md_iters iterations if and only if
    llr_newest, the LLRs of the newest block, is given."""
    if len(blocks) < 1:
        raise ValueError("window must hold at least one block")
    if stats is None:
        stats = DecodeStats()
    marks = None
    if llr_newest is not None:
        if params is None:
            params = SabmParams()
        # the newest block fills positions w..2w-1 of the newest pair's words
        marks = make_marks(np.abs(llr_newest)[None], params, code.component, offset=code.w)

    newest = len(blocks) - 2
    state = SyndromeState(code.component, blocks, window_layout(code.w, len(blocks)))
    for it in range(ell):
        for p in range(newest + 1):
            sabm = marks is not None and p == newest and it < params.md_iters
            decode_pass(state, p, stats, marks if sabm else None)


def decode_chain(code: SccCode, received: list[np.ndarray],
                 llr_grids: list[np.ndarray] | None, params: SabmParams | None,
                 window: int, ell: int) -> tuple[list[np.ndarray], DecodeStats]:
    """Sliding-window decode of a whole chain (leading zero block is
    handled internally), with SABM if and only if llr_grids, one LLR grid
    per received block, is given. Returns the decoded blocks in order and
    the one DecodeStats that every window counted into."""
    if window < 2:
        raise ValueError("window size must be >= 2")
    w = code.w
    stats = DecodeStats()
    chain = np.zeros((len(received) + 1, w, w), dtype=np.uint8)
    for i, blk in enumerate(received):
        chain[i + 1] = blk
    # the window starting at chain block s ends at block s+window-1 or at
    # the chain's end; its newest block is received[end - 2]
    for s in range(len(received)):
        end = min(s + window, len(chain))
        llr = None if llr_grids is None else llr_grids[end - 2]
        scc_window_decode(code, chain[s:end], ell, llr_newest=llr,
                          params=params, stats=stats)
    # drop the bootstrap zero block from the output
    return list(chain[1:]), stats
