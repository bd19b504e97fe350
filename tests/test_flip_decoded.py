"""A kernel pass stores a decoded word's syndrome as 0 instead of folding
its flips in. Run on random groups, the plain passes keep every syndrome
equal to the syndromes recomputed from the bits, on the product block
layout and on a staircase chain, the scratch group included. The words
are built from `reference.py`'s views, not from the layouts, whose own
syndrome builds are checked against the same words."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feclab.bch import build_code
from feclab.kernel import Passes
from feclab.pc import block_layout
from feclab.scc import chain_layout

import reference
from reference import block_syndromes, plain_pass

CODE = build_code(5)  # eBCH(32,21): PC w = 32, SCC w = 16


def stack_words(bits):
    """Per block of a (B, w, w) stack, its rows and then its columns."""
    return np.array([reference.pc_words(block, g) for block in bits for g in (0, 1)])


def chain_words(bits):
    """Each pair of a chain, then the scratch group's wrap-around pair."""
    return np.array([reference.scc_words(bits, g) for g in range(len(bits))])


def recomputed(state, words, code=CODE):
    return block_syndromes(code, words(state.bits)).reshape(-1)


def apply_decoded(state, groups):
    """A plain pass over each of `groups`, in order; return the number of
    words whose syndrome decoded."""
    pos = CODE.error_positions[state.syn.reshape(-1, state.state.w)[groups]]
    for group in groups:
        plain_pass(state, int(group))
    return int((pos[..., 0] >= 0).sum())


def noisy_zero_blocks(shape, rng):
    """The all-zero codeword with 5% of its bits flipped: most words decode."""
    return (rng.random(shape) < 0.05).astype(np.uint8)


def check_passes(state, words, draw_groups, rng):
    assert np.array_equal(state.syn, recomputed(state, words))
    flips = 0
    for _ in range(6):
        flips += apply_decoded(state, draw_groups(rng))
        assert np.array_equal(state.syn, recomputed(state, words))
    assert flips > 0


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_decoded_flips_keep_block_syndromes(seed, blocks):
    # per block its rows or its columns: groups that share no bits, whose
    # decoded words flip as in one pass
    rng = np.random.default_rng(seed)
    w = CODE.n
    bits = noisy_zero_blocks((blocks, w, w), rng)
    state = Passes(CODE, block_layout(w, blocks), bits)
    check_passes(state, stack_words,
                 lambda r: 2 * np.arange(blocks) + r.integers(0, 2, blocks), rng)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_decoded_flips_keep_chain_syndromes(seed, num_blocks):
    # pairs p and p + 2 share no bits, so every other pair goes in one round
    rng = np.random.default_rng(seed)
    w = CODE.n // 2
    bits = noisy_zero_blocks((num_blocks, w, w), rng)
    state = Passes(CODE, chain_layout(w, num_blocks), bits)
    pairs = num_blocks - 1
    check_passes(state, chain_words,
                 lambda r: np.arange(r.integers(0, min(2, pairs)), pairs, 2), rng)


@pytest.mark.parametrize("m", range(4, 9))
def test_layout_syndromes_are_those_of_the_words(m):
    # PC stacks of 1-3 blocks (one block also as a (w, w) array) and chains
    # of 1-6 blocks, whose last group is the scratch group
    code = build_code(m)
    rng = np.random.default_rng(m)
    w = code.n
    for blocks in (1, 2, 3):
        state = Passes(code, block_layout(w, blocks),
                       rng.integers(0, 2, (blocks, w, w), dtype=np.uint8))
        assert np.array_equal(state.syn, recomputed(state, stack_words, code))
    one = Passes(code, block_layout(w, 1), state.bits[0].copy())
    assert np.array_equal(one.syn, recomputed(state, stack_words, code)[:2 * w])
    w = code.n // 2
    for blocks in range(1, 7):
        state = Passes(code, chain_layout(w, blocks),
                       rng.integers(0, 2, (blocks, w, w), dtype=np.uint8))
        assert state.syn.size == blocks * w
        assert np.array_equal(state.syn, recomputed(state, chain_words, code))
