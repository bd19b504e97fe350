"""Differential oracle: the syndrome-domain decoders equal the bit-level
reference decoders of `reference.py`, bit for bit and counter for
counter, on random blocks and chains around the waterfall with random
LLRs that include ties and HRB extremes. iBDD on a stack of blocks equals
one call per block."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feclab.bch import build_code
from feclab.pc import PcCode, SabmParams, ibdd_decode, pc_encode, sabm_decode
from feclab.scc import SccCode, block_marks, decode_chain, newest_blocks, scc_encode

import reference

CODES = {m: build_code(m) for m in (4, 5, 6)}
DELTAS = [0.0, 0.5, 2.5, 5.0, float("inf")]
# |llr| levels: zero, the finite deltas themselves (ties at the threshold),
# values just off them and far above every finite delta
LEVELS = np.array([0.0, 0.25, 0.5, 0.5000001, 1.0, 2.5, 2.5000001, 4.0, 5.0, 5.0000001,
                   8.0, 1e9])

oracle = settings(max_examples=60, deadline=None, derandomize=True)


def channel(block, rng, error_rate):
    """Hard bits and LLRs of a sent block: |llr| drawn from LEVELS, the
    unreliable ones more often in error, and the sign agreeing with the
    hard bit."""
    mag = LEVELS[rng.integers(len(LEVELS), size=block.shape)]
    err = rng.random(block.shape) < error_rate * np.where(mag < 2.6, 3.0, 0.2)
    hard = block ^ err.astype(np.uint8)
    return hard, np.where(hard == 0, mag, -mag)


sabm_params = st.builds(
    lambda delta, md, attempts: SabmParams(delta=delta, total_iters=6, md_iters=md,
                                           failure_flip_attempts=attempts),
    st.sampled_from(DELTAS), st.integers(0, 6), st.integers(0, 3))


@given(m=st.integers(4, 6), seed=st.integers(0, 2**32 - 1), error_rate=st.floats(0.01, 0.06),
       sabm=st.booleans(), params=sabm_params, iters=st.integers(1, 6))
@oracle
def test_pc_matches_reference(m, seed, error_rate, sabm, params, iters):
    code = PcCode(CODES[m])
    rng = np.random.default_rng(seed)
    block = pc_encode(code, rng.integers(0, 2, (code.k, code.k), dtype=np.uint8))
    hard, llr = channel(block, rng, error_rate)
    if sabm:
        got, got_stats = sabm_decode(code, hard, llr, params)
        want, want_stats = reference.pc_decode(code, hard, params.total_iters, llr, params)
    else:
        got, got_stats = ibdd_decode(code, hard, iters)
        want, want_stats = reference.pc_decode(code, hard, iters)
    assert np.array_equal(got, want)
    assert got_stats == want_stats


@given(m=st.integers(5, 6), seed=st.integers(0, 2**32 - 1), error_rate=st.floats(0.005, 0.03),
       sabm=st.booleans(), params=sabm_params, blocks=st.integers(1, 7),
       window=st.integers(2, 5), ell=st.integers(1, 4))
@oracle
def test_scc_matches_reference(m, seed, error_rate, sabm, params, blocks, window, ell):
    code = SccCode(CODES[m])
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, (blocks, code.w, code.info_cols), dtype=np.uint8)
    hard, llrs = zip(*(channel(b, rng, error_rate) for b in scc_encode(code, info)))
    llrs = list(llrs) if sabm else None
    # marks as the trial loop makes them: None for the blocks no window marks
    marked = set(newest_blocks(blocks, window))
    marks = None if llrs is None else [block_marks(code, g, params) if b in marked else None
                                       for b, g in enumerate(llrs)]
    got, got_stats = decode_chain(code, list(hard), marks, params, window, ell)
    want, want_stats = reference.scc_decode(code, hard, llrs, params, window, ell)
    assert np.array_equal(np.array(got), np.array(want))
    assert got_stats == want_stats


def stack_matches_single_blocks(code, hard, iters):
    """ibdd_decode of the (B, w, w) stack `hard` equals B single-block
    calls, in bits and in the four DecodeStats counters summed; returns the
    single calls' bdd_calls."""
    got, got_stats = ibdd_decode(code, hard, iters)
    singles = [ibdd_decode(code, h, iters) for h in hard]
    assert got.shape == hard.shape
    assert np.array_equal(got, np.array([bits for bits, _ in singles]))
    want = np.sum([astuple(stats) for _, stats in singles], axis=0).tolist()
    assert list(astuple(got_stats)) == want
    return [stats.bdd_calls for _, stats in singles]


def noisy_stack(code, rng, error_rates):
    blocks = [pc_encode(code, rng.integers(0, 2, (code.k, code.k), dtype=np.uint8))
              for _ in error_rates]
    return np.array([channel(b, rng, rate)[0] for b, rate in zip(blocks, error_rates)])


@given(m=st.integers(4, 6), seed=st.integers(0, 2**32 - 1),
       error_rates=st.lists(st.floats(0.0, 0.06), min_size=1, max_size=6),
       iters=st.integers(1, 6))
@oracle
def test_pc_stack_matches_single_blocks(m, seed, error_rates, iters):
    code = PcCode(CODES[m])
    hard = noisy_stack(code, np.random.default_rng(seed), error_rates)
    stack_matches_single_blocks(code, hard, iters)


@pytest.mark.parametrize("heaviest_first", [True, False])
def test_pc_stack_blocks_leave_at_different_iterations(heaviest_first):
    # a clean block stops after one iteration, a light one after a few and
    # a heavy one runs all of them; the blocks that leave the active set
    # sit at its end or at its start
    code = PcCode(CODES[6])
    rates = [0.0, 0.004, 0.02, 0.06]
    hard = noisy_stack(code, np.random.default_rng(5), rates[::-1] if heaviest_first else rates)
    calls = stack_matches_single_blocks(code, hard, 8)
    assert sorted(calls) == (calls[::-1] if heaviest_first else calls)
    assert len(set(calls)) == len(calls)
    assert min(calls) == 2 * code.w and max(calls) == 8 * 2 * code.w


def test_pc_stack_of_one_block():
    code = PcCode(CODES[5])
    hard = noisy_stack(code, np.random.default_rng(2), [0.03])
    assert hard.shape == (1, code.w, code.w)
    stack_matches_single_blocks(code, hard, 6)
    got, got_stats = ibdd_decode(code, hard, 6)
    want, want_stats = reference.pc_decode(code, hard[0], 6)
    assert np.array_equal(got[0], want) and got_stats == want_stats
