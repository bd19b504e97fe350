"""Staircase codes: encoding, sliding-window iBDD, SABM on the newest
block, and the relative-complexity metric eta.

Block geometry: every row of [transpose(B_{i-1}) | B_i] is a component
codeword with n = 2w. Within B_i, columns 0..k-w-1 carry fresh information
and the remaining columns the parity (overall-parity bit in the last
column). B_0 is the all-zero reference block known to both ends.

Decoding runs on the passes of the compiled kernel: the chain is one
uint8 array of (blocks + 1) w x w blocks, the zero block first, whose
pairs are the word groups of one `Layout`, decoded on one
`kernel.Passes` that `decode_chain` owns; a window is a range of pairs.
The pairs missing at both ends of the chain share a scratch group, the
last, that no window decodes. A window is one `window_pass`, a kernel
call that runs its iterations: plain passes over its pairs, and marking
passes on the newest pair, whose veto reads only the crossing words of
the window's pairs.
`bdd_calls` counts w per pair pass, as if every word were decoded, plus
one per flip retry. SABM reads the channel only through marks:
`newest_blocks` names the blocks that the windows mark,
and `block_marks` has the kernel make a block's `MarkState` from its LLR
rows, which the trial loop does as it demaps the block, so a chain never
holds its grids. `decode_chain` runs SABM if and only if it is given the marks, and
returns the decoded (N, w, w) chain and its `DecodeStats`;
`baseline_calls` gives eta's baseline from the geometry.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bch import BchCode
from .errors import ConfigError
from .kernel import Passes, binary, count, encode
from .pc import DecodeStats, Layout, MarkState, SabmParams, make_marks


@dataclass(frozen=True)
class SccCode:
    component: BchCode

    def __post_init__(self):
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


def scc_encode(code: SccCode, info_blocks) -> np.ndarray:
    """Encode a chain; info_blocks has shape (N, w, k - w), the chain (N, w, w).
    Row i of a block is row i of its info, then the parity of [column i of
    the previous block | that row]: the words of the chain's pairs, encoded
    in order in one kernel call (`kernel.encode` over `chain_layout`), after
    the zero block B_0, which the returned chain, a view, leaves out."""
    info = binary(info_blocks, "info_blocks")
    w = code.w
    if info.ndim != 3 or info.shape[1:] != (w, code.info_cols):
        raise ValueError(f"info blocks must be (N, {w}, {code.info_cols})")
    chain = np.zeros((len(info) + 1, w, w), dtype=np.uint8)
    chain[1:, :, :code.info_cols] = info
    encode(code.component, chain_layout(w, len(chain)), chain)
    return chain[1:]


@lru_cache(maxsize=None)
def chain_layout(w: int, num_blocks: int) -> Layout:
    """The pairs p = 0..P of a chain of blocks B_0..B_P, round the chain:
    word i of pair p is row i of [transpose(B_p) | B_{p+1 mod P+1}]. Its
    position j < w is B_p[j, i], position w+i of word j of pair p-1 (mod
    P+1); its position w+j is B_{p+1}[i, j], position i of word j of pair
    p+1. Pair P, where the missing pairs -1 and P meet, is a scratch group
    that no window decodes."""
    p = np.arange(num_blocks)[:, None]
    j = np.arange(w)[None, :]
    newer = (p + 1) % num_blocks

    def halves(older_half, newer_half):
        return np.concatenate([np.broadcast_to(older_half, (num_blocks, w)),
                               np.broadcast_to(newer_half, (num_blocks, w))], axis=1)

    return Layout(w, base=halves(p * w * w + j * w, newer * w * w + j), stride=halves(1, w),
                  cross=halves((p - 1) % num_blocks * w + j, newer * w + j),
                  shift=halves(w, 0), groups=num_blocks - 1)


def newest_blocks(num_blocks: int, window: int) -> list[int]:
    """The newest received block of each window of a num_blocks chain, by
    the window's first block s: min(s + window - 2, num_blocks - 1). These
    are the blocks that SABM marks; blocks 0..window-3 never are."""
    return [min(s + window, num_blocks + 1) - 2 for s in range(num_blocks)]


def block_marks(code: SccCode, llr: np.ndarray, params: SabmParams) -> MarkState:
    """The marks of a received (w, w) block from its LLR grid, for the
    windows in which it is the newest block: its row i fills positions
    w..2w-1 of word i of the newest pair."""
    return make_marks(llr, params, code.component, 1, offset=code.w)


def window_pass(state: Passes, first: int, newest: int, ell: int, marking: int) -> None:
    """The ell iterations of the window over pairs first..newest, in one
    kernel call: each is a plain pass over every pair but the newest, in
    order, and then over the newest pair a marking pass on the state's
    marks in the first `marking` iterations, whose veto reads only the
    crossing words of the window's pairs, or a plain pass."""
    if state.lib["window"](state.ref, first, newest, ell, marking) < 0:
        raise ValueError(f"pairs {first}..{newest} are not a window of the state's chain, "
                         "or it marks with no marks bound")


def decode_chain(code: SccCode, received: np.ndarray, marks: list[MarkState | None] | None,
                 params: SabmParams, window: int,
                 ell: int) -> tuple[np.ndarray, DecodeStats]:
    """Sliding-window decode of a whole chain of received blocks, (N, w, w)
    (the leading zero block is handled internally), with SABM if and only
    if marks, one entry per received block, is given: the `block_marks` of
    each block that `newest_blocks` names (the others are not read, and
    may be None; a None among these is a ValueError before any window
    decodes). Returns the (N, w, w) decoded blocks and the chain's
    DecodeStats.

    One `Passes` covers the chain, and the returned blocks view its
    bits. The window starting at chain block s ends at block s+window-1
    or at the chain's end, and its ell iterations, one `window_pass`,
    decode pairs s..newest in order; SABM runs on the newest
    pair, with the newest block's marks, in the first md_iters
    iterations. Its veto reads only crossing words of the window's pairs.
    The tail windows share the last block's marks.

    Known deviation: the first window starts once `window` blocks are
    buffered, so chain blocks 1..window-2 are never marked while the last
    block is the marked one of every tail window. The pinned SCC SABM
    outputs depend on this schedule."""
    count(window, "window", 2)
    count(ell, "ell", 1)
    w, shape = code.w, np.shape(received)
    if len(shape) != 3 or shape[1:] != (w, w):
        raise ValueError(f"received chain must be (N, {w}, {w}), got {shape}")
    received = binary(received, "received")
    newest_of = newest_blocks(len(received), window)
    if marks is not None:
        if len(marks) != len(received):
            raise ValueError(f"marks must have one entry per received block "
                             f"({len(received)}), got {len(marks)}")
        missing = [b for b in newest_of if marks[b] is None]
        if missing:
            raise ValueError(f"marks[{missing[0]}] is None, but a window marks block "
                             f"{missing[0]}")
    chain = np.zeros((len(received) + 1, w, w), dtype=np.uint8)
    chain[1:] = received
    state = Passes(code.component, chain_layout(w, len(chain)), chain)
    for s, newest in enumerate(newest_of):
        if marks is not None:
            state.mark(marks[newest])
        window_pass(state, s, newest, ell, 0 if marks is None else params.md_iters)
    # drop the bootstrap zero block from the output
    return chain[1:], DecodeStats(*state.counts())
