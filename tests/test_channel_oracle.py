"""Channel-layer oracle: modulation, demapping, the kernel's 2-PAM channel
and the kernel's encoders equal the reference array forms of
`reference.py` bit for bit, LLR signs of zero included, at the
constellation levels, around zero and at tiny and huge magnitudes. What `sim._channel` hands the decoders for one fixed trial per
channel shape is pinned by sha256 digest, which the CSV pins (rounded to
6 digits, errors only) cannot do for a one-ulp LLR change."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from feclab import kernel, sim
from feclab.bch import build_code
from feclab.modem import (SNR_RANGE_DB, ChannelConfig, demap_llr, make_interleaver, modulate,
                          pam_constellation)
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


@pytest.mark.parametrize("M", [2, 4, 8])
@pytest.mark.parametrize("mode", ["exact", "maxlog"])
def test_nan_and_infinite_samples_demap_to_nan(M, mode):
    # a NaN sample gives a NaN of either sign; an infinite one puts inf -
    # inf in every term and gives the platform's default NaN
    cfg = ChannelConfig(M, 6.0, mode)
    with np.errstate(invalid="ignore"):
        got = demap_llr(np.array([np.nan, -np.nan, np.inf, -np.inf]), cfg)
        default_nan = np.array(np.inf) - np.inf
    assert np.isnan(got).all()
    assert same_floats(got[2:], np.full((2, cfg.bits_per_symbol), default_nan))


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
    # the kernel's word encoder against the textbook generator polynomials
    code = CODES[m]
    msgs = (np.random.default_rng(seed).random((40, code.k)) < ones).astype(np.uint8)
    got = reference.encode_rows(code, msgs)
    assert got.dtype == np.uint8
    assert np.array_equal(got, reference.encode_many(code, msgs))


@given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.uint8, np.int64, bool]))
@settings(max_examples=6, deadline=None, derandomize=True)
def test_pc_and_scc_encode_match_reference(seed, dtype):
    # every component code, and chains of 1 and 12 blocks
    rng = np.random.default_rng(seed)
    for m, comp in CODES.items():
        pc = PcCode(comp)
        data = rng.integers(0, 2, (pc.k, pc.k)).astype(dtype)
        rows = reference.encode_many(comp, data)
        got = pc_encode(pc, data)
        assert got.dtype == np.uint8
        assert np.array_equal(got, reference.encode_many(comp, rows.T).T)
        if m == 4:
            continue  # eBCH(16, 7) has k < w, too short for a staircase
        scc = SccCode(comp)
        for blocks in (1, 12):
            info = rng.integers(0, 2, (blocks, scc.w, scc.info_cols)).astype(dtype)
            chain = scc_encode(scc, info)
            assert chain.dtype == np.uint8 and chain.shape == (blocks, scc.w, scc.w)
            prev = np.zeros((scc.w, scc.w), dtype=np.uint8)
            for got, block_info in zip(chain, info):
                words = np.concatenate([prev.T, block_info], axis=1)
                prev = reference.encode_many(comp, words)[:, scc.w:]
                assert np.array_equal(got, prev)


@given(snr_db=st.one_of(st.sampled_from([*SNR_RANGE_DB, 0.0]), st.floats(-3, 300)),
       seed=st.integers(0, 2**32 - 1))
@channel_oracle
def test_send_2pam_matches_the_reference_channel(snr_db, seed):
    # the kernel's one pass over a block against reference.modulate,
    # numpy's s*x + z and reference.demap_llr, for both bits: drawn noise,
    # noise that puts y at 0 and at +-s, z = -0.0, and tiny and huge noise
    # of either sign, whose squares overflow to a NaN LLR
    cfg = ChannelConfig(2, snr_db)
    s = cfg.sqrt_rho
    crafted = np.array([-s, s, 2 * s, -2 * s, 0.0, -0.0])
    drawn = np.random.default_rng(seed).standard_normal(64)
    z = np.repeat(np.concatenate([crafted, EDGES, -EDGES, drawn]), 2)
    bits = np.tile(np.array([0, 1], dtype=np.uint8), z.size // 2)
    with np.errstate(over="ignore", invalid="ignore"):
        y = s * reference.modulate(bits, cfg) + z
        want = reference.demap_llr(y, cfg)[:, 0]
        want_hard = want < 0
    assert np.count_nonzero(y == 0) >= 2 and np.count_nonzero(np.abs(y) == s) >= 4
    noise, hard = z.copy(), np.full(z.size, 7, dtype=np.uint8)
    assert kernel.send_2pam(bits, noise, hard, s) is noise
    assert same_floats(noise, want)
    assert np.array_equal(hard, want_hard)


def test_send_2pam_refuses_arrays_it_cannot_write():
    bits, noise, hard = np.zeros(8, dtype=np.uint8), np.zeros(8), np.zeros(8, dtype=np.uint8)
    for args in ((bits, noise.astype(np.float32), hard), (bits, noise[:7], hard),
                 (bits, noise, hard.astype(bool)), (bits[::2], noise[::2], hard[::2])):
        with pytest.raises(ValueError, match="must be C-contiguous"):
            kernel.send_2pam(*args, 1.0)
    noise.setflags(write=False)
    with pytest.raises(ValueError, match="must be C-contiguous"):
        kernel.send_2pam(bits, noise, hard, 1.0)


@given(mode=st.sampled_from(["exact", "maxlog"]),
       snr_db=st.sampled_from([SNR_RANGE_DB[0], 0.0, 12.6, SNR_RANGE_DB[1]]),
       seed=st.integers(0, 2**32 - 1))
@channel_oracle
def test_4pam_kernel_matches_the_reference_channel(mode, snr_db, seed):
    # the kernel's modulate and demap of a block against reference.modulate
    # of the interleaved bits, numpy's s*x + z, reference.demap_llr and the
    # inverse interleaver, under a drawn permutation: noise that puts y on
    # each scaled level, at each midpoint of two (whose terms tie; y = 0
    # ties exactly) and far outside (the smaller exp underflows to 0 from
    # 0 dB on), z = +-0.0, and drawn noise
    cfg = ChannelConfig(4, snr_db, mode)
    s = cfg.sqrt_rho
    scaled = s * pam_constellation(4)[0]
    far = np.array([40.0, 1e3]) * max(s, 1.0)
    targets = np.concatenate([scaled, ((scaled[:, None] + scaled) / 2).reshape(-1),
                              scaled[-1] + far, scaled[0] - far])
    rng = np.random.default_rng(seed)
    # each target from each sent label, then zero noise and drawn noise on
    # drawn labels; the bits are those labels through the interleaver
    labels = np.concatenate([np.tile(np.arange(4), targets.size), rng.integers(0, 4, 8 + 64)])
    sent = (labels[:, None] >> np.array([1, 0]) & 1).astype(np.uint8).reshape(-1)
    perm = make_interleaver(sent.size, rng)
    bits = reference.interleave(sent, perm, inverse=True)
    x = reference.modulate(reference.interleave(bits, perm), cfg)
    crafted = np.repeat(targets, 4)
    z = np.concatenate([crafted - s * x[:crafted.size], np.tile([0.0, -0.0], 4),
                        rng.standard_normal(64)])
    y = s * x + z
    want = reference.interleave(reference.demap_llr(y, cfg).reshape(-1), perm, inverse=True)
    assert np.count_nonzero(y == 0) >= 4 and np.isin(scaled, y).all()

    got_x = kernel.modulate_pam(bits, perm, cfg)
    assert same_floats(got_x, x)
    hard = np.full(bits.size, 7, dtype=np.uint8)
    grid = kernel.demap_pam(s * got_x + z, perm, hard, cfg)
    assert grid.shape == hard.shape and grid.dtype == np.float64
    assert same_floats(grid, want)
    assert np.array_equal(hard, want < 0)


def test_the_4pam_kernel_refuses_arrays_it_cannot_use():
    # every refusal comes before the kernel writes: hard keeps its 7s
    exact, maxlog = ChannelConfig(4, 12.6), ChannelConfig(4, 12.6, "maxlog")
    bits, perm = np.zeros(16, dtype=np.uint8), np.arange(16, dtype=np.int64)
    y, hard = np.zeros(8), np.full(16, 7, dtype=np.uint8)
    read_only = hard.copy()
    read_only.setflags(write=False)
    calls = []
    for p in (perm[:14], perm.astype(np.int32), perm[::-1], np.r_[perm[:15], 16],
              np.r_[-1, perm[1:]], np.r_[perm[:15], 2**62]):
        calls += [lambda p=p: kernel.modulate_pam(bits, p, exact)]
        calls += [lambda p=p, cfg=cfg: kernel.demap_pam(y, p, hard, cfg)
                  for cfg in (exact, maxlog)]
    calls += [lambda: kernel.modulate_pam(bits.reshape(4, 4).T, perm, exact),
              lambda: kernel.modulate_pam(bits[:15], perm[:15], exact),
              lambda: kernel.modulate_pam(bits, perm, ChannelConfig(2, 12.6)),
              lambda: kernel.modulate_pam(bits, perm, ChannelConfig(8, 12.6))]
    for cfg in (exact, maxlog):
        calls += [lambda cfg=cfg, args=args: kernel.demap_pam(*args, cfg) for args in (
            (y[:7], perm, hard), (y.astype(np.float32), perm, hard), (y[::-1], perm, hard),
            (y, perm, read_only), (y, perm, hard.astype(bool)), (y, perm, hard[:14]))]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    assert (hard == 7).all()
