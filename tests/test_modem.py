import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feclab.errors import ConfigError
from feclab.modem import (ChannelConfig, awgn_transmit, demap_llr, interleave,
                          make_interleaver, modulate, pam_constellation)


class _ZeroNoise:
    def standard_normal(self, shape):
        return np.zeros(shape)


def test_levels_are_unit_energy():
    for M, expect in [(2, [-1.0, 1.0]),
                      (4, (np.array([-3, -1, 1, 3]) / np.sqrt(5)).tolist()),
                      (8, (np.arange(-7, 8, 2) / np.sqrt(21)).tolist())]:
        levels, _, _ = pam_constellation(M)
        assert np.allclose(levels, expect)
        assert np.isclose(np.mean(levels ** 2), 1.0)


def test_labels_are_gray():
    for M in (2, 4, 8):
        levels, labels, _ = pam_constellation(M)
        for i in range(M - 1):
            assert bin(labels[i] ^ labels[i + 1]).count("1") == 1


def test_bpsk_convention():
    cfg = ChannelConfig(2, 0.0)
    assert np.allclose(modulate([0, 1], cfg), [1.0, -1.0])


def test_modulate_rejects_ragged_input():
    with pytest.raises(ValueError):
        modulate([0, 1, 0], ChannelConfig(4, 0.0))
    with pytest.raises(ConfigError):
        ChannelConfig(16, 0.0)


def test_awgn_scaling_and_determinism():
    cfg = ChannelConfig(2, 6.0)
    x = modulate([0, 1, 1, 0], cfg)
    y = awgn_transmit(x, cfg, _ZeroNoise())
    assert np.allclose(y, cfg.sqrt_rho * x)
    r1 = awgn_transmit(x, cfg, np.random.default_rng(9))
    r2 = awgn_transmit(x, cfg, np.random.default_rng(9))
    assert np.array_equal(r1, r2)


def test_awgn_noise_variance_is_unity():
    cfg = ChannelConfig(2, 3.0)
    rng = np.random.default_rng(1)
    x = modulate(rng.integers(0, 2, 1_000_000), cfg)
    z = awgn_transmit(x, cfg, rng) - cfg.sqrt_rho * x
    assert abs(np.var(z) - 1.0) < 0.01


def test_bpsk_exact_llr_closed_form():
    cfg = ChannelConfig(2, 10 * np.log10(4.0))  # rho = 4
    llr = demap_llr(np.array([0.5]), cfg)
    assert np.isclose(llr[0, 0], 2.0, atol=1e-12)
    y = np.linspace(-6, 6, 501)
    llr = demap_llr(y, cfg)[:, 0]
    assert np.allclose(llr, 2 * cfg.sqrt_rho * y, atol=1e-9)
    assert np.all(np.diff(llr) > 0)  # monotone, sign flip at y=0


def test_bpsk_exact_equals_maxlog():
    ce = ChannelConfig(2, 5.0, "exact")
    cm = ChannelConfig(2, 5.0, "maxlog")
    y = np.linspace(-3 * ce.sqrt_rho, 3 * ce.sqrt_rho, 20001)
    assert np.max(np.abs(demap_llr(y, ce) - demap_llr(y, cm))) < 1e-9


def test_maxlog_vs_two_term_exact_at_midpoint():
    # 4-PAM MSB with y midway between the two bit-0 points: both terms of
    # the exact log-sum matter there. Check the exact value against a
    # high-precision scalar oracle, that the scaled max-log misses it by
    # exactly log(2), and that the raw (unscaled) max-log metric of the
    # approximation overshoots the exact magnitude.
    import mpmath
    rho = 4.0
    cfg_e = ChannelConfig(4, 10 * np.log10(rho), "exact")
    cfg_m = ChannelConfig(4, 10 * np.log10(rho), "maxlog")
    levels, labels, _ = pam_constellation(4)
    y = float(np.sqrt(rho) * (levels[2] + levels[3]) / 2)  # midpoint of +1,+3
    terms0, terms1 = [], []
    for lv, lb in zip(levels, labels):
        t = mpmath.e ** (-(mpmath.mpf(y) - 2 * mpmath.mpf(lv)) ** 2 / 2)
        (terms0 if (lb >> 1) == 0 else terms1).append(t)
    oracle = float(mpmath.log(sum(terms0)) - mpmath.log(sum(terms1)))
    exact = demap_llr(np.array([y]), cfg_e)[0, 0]
    approx = demap_llr(np.array([y]), cfg_m)[0, 0]
    assert np.isclose(exact, oracle, atol=1e-9)
    assert np.isclose(approx, 3.2, atol=1e-12)
    # both bit-0 terms are equal at the midpoint, so the scaled max-log
    # undershoots by log(2) up to the tiny two-term residue on the bit-1 side
    assert 0.0 < exact - approx <= np.log(2.0) + 1e-12
    assert np.isclose(exact - approx, np.log(2.0), atol=1e-2)
    assert 2 * abs(approx) > abs(oracle)


def test_hard_decisions_agree_between_modes():
    for M in (2, 4, 8):
        ce = ChannelConfig(M, 4.0, "exact")
        cm = ChannelConfig(M, 4.0, "maxlog")
        y = np.linspace(-3 * ce.sqrt_rho, 3 * ce.sqrt_rho, 4001)
        le, lm = demap_llr(y, ce), demap_llr(y, cm)
        # zero crossings of the exact and max-log curves differ slightly
        # for M > 2, so only compare points clearly away from a crossing
        sig = (np.abs(le) > 0.25) & (np.abs(lm) > 0.25)
        assert np.all(np.sign(le[sig]) == np.sign(lm[sig]))
        frac = np.mean(np.sign(le) != np.sign(lm))
        assert frac < 0.05


def test_llr_consistency_with_transmitted_bit():
    cfg = ChannelConfig(4, 2.0)
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 100_000)
    y = awgn_transmit(modulate(bits, cfg), cfg, rng)
    llr = demap_llr(y, cfg).reshape(-1)
    assert llr[bits == 0].mean() > 0 > llr[bits == 1].mean()


def test_identity_interleaver_is_noop(rng):
    block = rng.integers(0, 2, (8, 8), dtype=np.uint8)
    assert np.array_equal(interleave(block, np.arange(64)), block)


@given(seed=st.integers(0, 2**31), side=st.sampled_from([4, 8, 16]))
@settings(max_examples=25)
def test_interleave_roundtrip(seed, side):
    rng = np.random.default_rng(seed)
    block = rng.integers(0, 2, (side, side), dtype=np.uint8)
    il = make_interleaver(side * side, rng)
    fwd = interleave(block, il)
    assert np.array_equal(interleave(fwd, il, inverse=True), block)


def test_interleave_size_mismatch():
    il = make_interleaver(16, np.random.default_rng(0))
    with pytest.raises(ValueError):
        interleave(np.zeros((5, 5), dtype=np.uint8), il)
