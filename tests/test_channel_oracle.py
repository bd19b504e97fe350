"""Channel-layer oracle: modulation, demapping and encoding equal the
reference array forms of `reference.py` bit for bit, LLR signs of zero
included, at the constellation levels, around zero and at tiny and huge
magnitudes. What `sim._channel` hands the decoders for one fixed trial per
channel shape is pinned by sha256 digest, which the CSV pins (rounded to
6 digits, errors only) cannot do for a one-ulp LLR change."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from feclab import sim
from feclab.bch import build_code, encode_many
from feclab.modem import ChannelConfig, _logsumexp_into, demap_llr, modulate, pam_constellation
from feclab.pc import PcCode, pc_encode
from feclab.scc import SccCode, scc_encode
from feclab.sim import SimConfig

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


def channel_digest(cfg: SimConfig, snr_db: float, trial: int) -> str:
    """sha256 of one trial's data, blocks and hard decisions, with dtype and
    shape, and of what the decoder reads of its soft values: a PC block's
    LLR grid, or per SCC block its marks' HRB flags and candidates ("-"
    for a block the windows never mark). The marks are hashed in the form
    they were pinned in: per axis the HRB flags as bytes, then the repr of
    the candidates as a tuple, per axis, of one list per word, without the
    -1 padding."""
    data, blocks, hard, soft = sim._channel(cfg, snr_db, trial)
    h = hashlib.sha256()
    arrays = [data, blocks, hard] + ([soft] if cfg.scheme == "pc" else [])
    for arr in map(np.ascontiguousarray, arrays):
        h.update(f"{arr.dtype}{arr.shape}".encode())
        h.update(arr.tobytes())
    for marks in soft if cfg.scheme == "scc" else ():
        if marks is None:
            h.update(b"-")
        else:
            for flags in marks.hrb:
                h.update(flags.tobytes())
            lists = tuple([[p for p in word if p >= 0] for word in axis]
                          for axis in marks.candidates.tolist())
            h.update(repr(lists).encode())
    return h.hexdigest()


# shape -> (config, SNR in dB, digest of trial 5). The digests pin float64
# LLR bytes, which numpy's exp and log may round differently on another
# CPU or numpy build; the reference tests above tell such a change apart
# from a fault of feclab.
CHANNEL_PINS = {
    "pc_2pam_exact": (
        SimConfig(scheme="pc", decoder="sabm", snr_points=(6.0,), master_seed=11), 6.0,
        "c211648fba9cb54750bf595036b447216eb067bd14bd881c46eb245dc77e997b"),
    "pc_4pam_exact": (
        SimConfig(scheme="pc", mod=4, llr_mode="exact", snr_points=(12.6,), master_seed=11),
        12.6, "fd29a066927ade04f0268ef0fb0e24b7f9b98dd847f8dcf7f7766a9079380d4f"),
    "pc_4pam_maxlog": (
        SimConfig(scheme="pc", mod=4, llr_mode="maxlog", snr_points=(12.6,), master_seed=11),
        12.6, "f605771752358474d95679f87acca7936846e1117fe42487c5896454dca33f09"),
    "scc_2pam_sabm": (
        SimConfig(scheme="scc", decoder="sabm", snr_points=(7.2,), master_seed=11), 7.2,
        "552d45b51903fd5165396d7ab1cdacd7315836a6b38fc6b75ac7840ba24c28ff"),
}


@pytest.mark.parametrize("shape", sorted(CHANNEL_PINS))
def test_channel_bytes_are_pinned(shape):
    cfg, snr_db, digest = CHANNEL_PINS[shape]
    assert channel_digest(cfg, snr_db, 5) == digest


@pytest.mark.parametrize("mode", ["exact", "maxlog"])
@pytest.mark.parametrize("snr_db", [-3.0, 6.0, 25.0])
def test_2pam_closed_form_matches_reference_at_zero_tiny_and_huge(mode, snr_db):
    # 2-PAM's ((y + s)^2 - (y - s)^2) / 2 in both modes: signed zeros, the
    # received levels themselves, the smallest subnormal, and squares that
    # overflow to a NaN LLR; no output is -0.0, and a scalar gives (1, 1)
    cfg = ChannelConfig(2, snr_db, mode)
    s = cfg.sqrt_rho
    y = np.array([0.0, -0.0, s, -s, 5e-324, -5e-324, 1e300, -1e300])
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = demap_llr(y, cfg), reference.demap_llr(y, cfg)
    assert got.shape == (y.size, 1)
    assert same_floats(got, want)
    assert not np.any((got == 0) & np.signbit(got))
    assert demap_llr(-0.0, cfg).shape == (1, 1)
    assert same_floats(demap_llr(-0.0, cfg), reference.demap_llr(-0.0, cfg))


def test_two_term_logsumexp_matches_reference():
    # a two-term log-sum-exp adds 1 = exp(0) for the larger term: tied
    # terms, a smaller exp that underflows to 0, signed zeros, infinities
    pairs = np.array([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (-1.5, -1.5),
                      (-1e300, -1e300), (-1.5, -3.0), (-3.0, -1.5), (0.0, -800.0),
                      (-800.0, -0.0), (-2.0, -747.0), (-5e-324, 0.0), (-1e300, -2.0),
                      (-np.inf, -1.0), (-np.inf, -np.inf), (np.nan, -1.0)])
    a, b = pairs.T.copy()
    with np.errstate(invalid="ignore"):  # -inf - -inf
        got = _logsumexp_into([a, b], np.empty_like(a), np.empty((2,) + a.shape))
        want = reference.logsumexp(pairs, axis=1)
    assert same_floats(got, want)


@pytest.mark.parametrize("M", [4, 8])
@pytest.mark.parametrize("snr_db", [0.0, 8.0, 12.6, 20.0])
def test_exact_demap_matches_reference_at_ties_and_underflow(M, snr_db):
    # y at each level, at the midpoint of each pair of levels (where the two
    # terms of a 4-PAM side tie) and so far out that the smaller term's exp
    # underflows to 0
    cfg = ChannelConfig(M, snr_db, "exact")
    scaled = cfg.sqrt_rho * pam_constellation(M)[0]
    mids = ((scaled[:, None] + scaled[None, :]) / 2).reshape(-1)
    far = np.array([1e3, 1e4, 1e8])
    y = np.concatenate([scaled, mids, scaled[-1] + far, scaled[0] - far, [0.0, -0.0]])
    assert same_floats(demap_llr(y, cfg), reference.demap_llr(y, cfg))


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


@given(m=st.integers(4, 8), seed=st.integers(0, 2**32 - 1), blocks=st.integers(1, 4),
       dtype=st.sampled_from([np.uint8, np.int64, bool]))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_pc_and_scc_encode_match_reference(m, seed, blocks, dtype):
    rng = np.random.default_rng(seed)
    comp = CODES[m]
    pc = PcCode(comp)
    data = rng.integers(0, 2, (pc.k, pc.k)).astype(dtype)
    rows = reference.encode_many(comp, data)
    got = pc_encode(pc, data)
    assert got.dtype == np.uint8
    assert np.array_equal(got, reference.encode_many(comp, rows.T).T)
    if m == 4:
        return  # eBCH(16, 7) has k < w, too short for a staircase
    scc = SccCode(comp)
    info = rng.integers(0, 2, (blocks, scc.w, scc.info_cols)).astype(dtype)
    prev = np.zeros((scc.w, scc.w), dtype=np.uint8)
    for got, block_info in zip(scc_encode(scc, info), info):
        prev = reference.encode_many(comp, np.concatenate([prev.T, block_info], axis=1))[:, scc.w:]
        assert np.array_equal(got, prev)
