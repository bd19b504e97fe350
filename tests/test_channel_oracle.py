"""Channel-layer oracle: modulation, demapping and encoding equal the
reference array forms of `reference.py` bit for bit, LLR signs of zero
included, at the constellation levels, around zero and at tiny and huge
magnitudes."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from feclab.bch import build_code, encode_many
from feclab.modem import (ChannelConfig, _logsumexp_into, demap_llr, modulate,
                          pam_constellation)
from feclab.pc import PcCode, pc_encode
from feclab.scc import SccCode, scc_encode

import reference

channel_oracle = settings(max_examples=80, deadline=None, derandomize=True)
EDGES = np.array([0.0, 1e-300, 5e-324, 1e-8, 1.0, 40.0, 1e150, 1e300])


def same_floats(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


@given(M=st.sampled_from([2, 4, 8]), mode=st.sampled_from(["exact", "maxlog"]),
       snr_db=st.floats(-3, 25), seed=st.integers(0, 2**32 - 1),
       drawn=hnp.arrays(np.float64, 32, elements=st.floats(-60, 60)))
@channel_oracle
def test_demap_matches_reference(M, mode, snr_db, seed, drawn):
    cfg = ChannelConfig(M, snr_db, mode)
    scaled = cfg.sqrt_rho * pam_constellation(M)[0]
    noisy = scaled[:, None] + np.random.default_rng(seed).normal(0, 1, (M, 64))
    y = np.concatenate([scaled, -scaled, EDGES, -EDGES, drawn, noisy.reshape(-1)])
    with np.errstate(over="ignore", invalid="ignore"):  # the huge edges overflow
        got, want = demap_llr(y, cfg), reference.demap_llr(y, cfg)
    assert same_floats(got, want)


def test_one_term_logsumexp_clears_negative_zero():
    # no -0.0 term of 2-PAM demapping reaches its output (the other term of
    # the LLR is then nonzero), so this is where a dropped + 0.0 shows
    t = np.array([-0.0, 0.0, -1.5, -5e-324, -1e300])
    got = _logsumexp_into([t], np.empty_like(t), np.empty((2,) + t.shape))
    assert same_floats(got, reference.logsumexp(t[:, None], axis=1))


@given(M=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.uint8, np.int64, bool]))
@channel_oracle
def test_modulate_matches_reference(M, seed, dtype):
    cfg = ChannelConfig(M, 5.0)
    bits = np.random.default_rng(seed).integers(0, 2, 3 * 256).astype(dtype)
    assert np.array_equal(modulate(bits, cfg), reference.modulate(bits, cfg))


CODES = {m: build_code(m) for m in range(4, 9)}


@given(m=st.sampled_from(sorted(CODES)), seed=st.integers(0, 2**32 - 1),
       ones=st.floats(0, 1))
@channel_oracle
def test_encode_many_matches_reference(m, seed, ones):
    code = CODES[m]
    msgs = (np.random.default_rng(seed).random((40, code.k)) < ones).astype(np.uint8)
    got = encode_many(code, msgs)
    assert got.dtype == np.uint8
    assert np.array_equal(got, reference.encode_many(code, msgs))


@given(m=st.integers(4, 8), seed=st.integers(0, 2**32 - 1), blocks=st.integers(1, 4))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_pc_and_scc_encode_match_reference(m, seed, blocks):
    rng = np.random.default_rng(seed)
    comp = CODES[m]
    pc = PcCode(comp)
    data = rng.integers(0, 2, (pc.k, pc.k), dtype=np.uint8)
    rows = reference.encode_many(comp, data)
    assert np.array_equal(pc_encode(pc, data), reference.encode_many(comp, rows.T).T)
    if m == 4:
        return  # eBCH(16, 7) has k < w, too short for a staircase
    scc = SccCode(comp)
    info = rng.integers(0, 2, (blocks, scc.w, scc.info_cols), dtype=np.uint8)
    prev = np.zeros((scc.w, scc.w), dtype=np.uint8)
    for got, block_info in zip(scc_encode(scc, info), info):
        prev = reference.encode_many(comp, np.concatenate([prev.T, block_info], axis=1))[:, scc.w:]
        assert np.array_equal(got, prev)
