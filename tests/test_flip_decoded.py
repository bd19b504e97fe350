"""`SyndromeState.flip` stores a flipped word's syndrome as 0 instead of
folding its flips in. Applied, several groups per call as the iBDD pass
does, to the patterns the words' syndromes decode to, it keeps every
syndrome equal to the syndromes recomputed from the bits, on the product
block layout and on a staircase chain, the scratch group included."""

import numpy as np
from hypothesis import given, settings, strategies as st

from feclab.bch import block_syndromes, build_code
from feclab.pc import SyndromeState, block_layout
from feclab.scc import chain_layout

CODE = build_code(5)  # eBCH(32,21): PC w = 32, SCC w = 16


def recomputed(state):
    return block_syndromes(CODE, state.layout.words(state.bits)).reshape(-1)


def apply_decoded(state, groups):
    """Flip, in one call, the decoded pattern of every word of `groups`
    whose syndrome decodes; return the number of flips."""
    groups = np.asarray(groups)
    pos = CODE.error_positions[state.syn.reshape(-1, state.w)[groups]]  # (G, w, t)
    at, words, k = (pos >= 0).nonzero()
    if at.size:
        state.flip(groups[at], words, pos[at, words, k])
    return at.size


def noisy_zero_blocks(shape, rng):
    """The all-zero codeword with 5% of its bits flipped: most words decode."""
    return (rng.random(shape) < 0.05).astype(np.uint8)


def check_passes(state, draw_groups, rng):
    assert np.array_equal(state.syn, recomputed(state))
    flips = 0
    for _ in range(6):
        flips += apply_decoded(state, draw_groups(rng))
        assert np.array_equal(state.syn, recomputed(state))
    assert flips > 0


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_decoded_flips_keep_block_syndromes(seed, blocks):
    # per block its rows or its columns, as one call: groups that share no bits
    rng = np.random.default_rng(seed)
    w = CODE.n
    bits = noisy_zero_blocks((blocks, w, w), rng)
    state = SyndromeState(CODE, bits, block_layout(w, blocks))
    check_passes(state, lambda r: 2 * np.arange(blocks) + r.integers(0, 2, blocks), rng)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_decoded_flips_keep_chain_syndromes(seed, num_blocks):
    # pairs p and p + 2 share no bits, so every other pair goes in one call
    rng = np.random.default_rng(seed)
    w = CODE.n // 2
    bits = noisy_zero_blocks((num_blocks, w, w), rng)
    state = SyndromeState(CODE, bits, chain_layout(w, num_blocks))
    pairs = num_blocks - 1
    check_passes(state, lambda r: np.arange(r.integers(0, min(2, pairs)), pairs, 2), rng)
