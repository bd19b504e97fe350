"""Differential oracle: the syndrome-domain decoders equal the bit-level
reference decoders of `reference.py`, bit for bit and counter for
counter, on random blocks and chains around the waterfall with random
LLRs that include ties and HRB extremes."""

import numpy as np
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
