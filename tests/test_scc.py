"""Staircase encoding, sliding-window decoding, and complexity accounting."""

import numpy as np
import pytest

from feclab import scc
from feclab.bch import build_code
from feclab.errors import ConfigError
from feclab.pc import SabmParams
from feclab.scc import SccCode, baseline_calls, decode_chain, eta, scc_encode

from reference import block_syndromes


@pytest.fixture(scope="module")
def scc32(ecc32_code):
    return SccCode(ecc32_code)


def marks_of(code, llrs, params):
    """Every block's marks; decode_chain reads only those of newest blocks."""
    return [scc.block_marks(code, llr, params) for llr in llrs]


def random_chain(code, rng, num_blocks):
    info = rng.integers(0, 2, size=(num_blocks, code.w, code.info_cols),
                        dtype=np.uint8)
    return info, scc_encode(code, info)


# ---------------------------------------------------------------- encoding

def test_scc_code_geometry(scc32):
    assert scc32.w == 16
    assert scc32.component.n == 2 * scc32.w
    assert scc32.info_cols == scc32.component.k - scc32.w == 5


def test_scc_code_validation():
    with pytest.raises(ValueError):
        SccCode(build_code(4))  # k = 7 <= w = 8


def test_scc_encode_zero_info(scc32):
    blocks = scc_encode(scc32, np.zeros((4, scc32.w, scc32.info_cols),
                                        dtype=np.uint8))
    assert len(blocks) == 4
    for b in blocks:
        assert not b.any()


def test_scc_encode_rows_of_pairs_are_codewords(scc32, rng):
    info, blocks = random_chain(scc32, rng, 6)
    w = scc32.w
    prev = np.zeros((w, w), dtype=np.uint8)
    for b in blocks:
        pair = np.concatenate([prev.T, b], axis=1)
        assert not block_syndromes(scc32.component, pair).any()  # every row
        prev = b


def test_scc_encode_preserves_info_region(scc32, rng):
    info, blocks = random_chain(scc32, rng, 5)
    for i, b in enumerate(blocks):
        assert np.array_equal(b[:, : scc32.info_cols], info[i])


def test_scc_encode_single_bit_propagates(scc32):
    # flipping one info bit changes the parity of its block and, through the
    # stair coupling, the later blocks too
    zero = np.zeros((3, scc32.w, scc32.info_cols), dtype=np.uint8)
    one = zero.copy()
    one[0, 4, 2] = 1
    b0 = scc_encode(scc32, zero)
    b1 = scc_encode(scc32, one)
    assert not np.array_equal(b0[0], b1[0])
    assert not np.array_equal(b0[1], b1[1])


def test_scc_encode_rejects_bad_shape(scc32):
    with pytest.raises(ValueError):
        scc_encode(scc32, np.zeros((2, 4, 4), dtype=np.uint8))


# ----------------------------------------------------------- window decode
# A window one block longer than the chain makes the first window span the
# whole chain, bootstrap zero block included.

def test_window_decode_noiseless(scc32, rng, monkeypatch):
    # every window decodes the chain's one bit array, whose bootstrap block
    # stays zero, and the decoded chain views it
    seen = []
    run = scc.window_pass
    monkeypatch.setattr(scc, "window_pass",
                        lambda state, *args: seen.append(state.bits) or run(state, *args))
    _, blocks = random_chain(scc32, rng, 4)
    out, _ = decode_chain(scc32, blocks, None, SabmParams(), window=len(blocks) + 1, ell=3)
    (bits,) = {id(b): b for b in seen}.values()
    w = scc32.w
    assert len(seen) == 4 and bits.shape == (5, w, w) and not bits[0].any()
    assert np.shares_memory(out, bits)
    for got, want in zip(out, blocks):
        assert np.array_equal(got, want)


def test_window_decode_fixes_scattered_errors(scc32, rng):
    _, blocks = random_chain(scc32, rng, 4)
    noisy = [b.copy() for b in blocks]
    noisy[1][3, 7] ^= 1
    noisy[2][9, 0] ^= 1
    noisy[2][9, 4] ^= 1
    out, _ = decode_chain(scc32, noisy, None, SabmParams(), window=len(noisy) + 1, ell=4)
    for got, want in zip(out, blocks):
        assert np.array_equal(got, want)


def test_sabm_degenerate_matches_standard(scc32, rng):
    _, blocks = random_chain(scc32, rng, 5)
    noisy = [b.copy() for b in blocks]
    for b in noisy:
        r, c = rng.integers(0, scc32.w, size=2)
        b[r, c] ^= 1
    window = len(noisy) + 1
    out_std, st_std = decode_chain(scc32, noisy, None, SabmParams(), window=window, ell=3)
    llrs = [np.where(b == 0, 2.0, -2.0) for b in noisy]
    params = SabmParams(md_iters=0, total_iters=3)
    out_deg, st_deg = decode_chain(scc32, noisy, marks_of(scc32, llrs, params), params,
                                   window=window, ell=3)
    for a, b in zip(out_std, out_deg):
        assert np.array_equal(a, b)
    assert st_std == st_deg


def test_sabm_window_recovers_three_error_row(scc32, rng):
    _, blocks = random_chain(scc32, rng, 3)
    noisy = [b.copy() for b in blocks]
    errs = [1, 6, 12]
    noisy[-1][5, errs] ^= 1
    llrs = [np.where(b == 0, 8.0, -8.0) for b in noisy]
    llrs[-1][5, errs] = np.where(noisy[-1][5, errs] == 0, 0.4, -0.4)
    params = SabmParams(delta=5.0, total_iters=4, md_iters=4)
    out, _ = decode_chain(scc32, noisy, marks_of(scc32, llrs, params), params,
                          window=len(noisy) + 1, ell=4)
    for got, want in zip(out, blocks):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------- chains

def test_decode_chain_roundtrip(scc32, rng):
    _, blocks = random_chain(scc32, rng, 10)
    noisy = [b.copy() for b in blocks]
    for b in noisy[2:]:
        r, c = rng.integers(0, scc32.w, size=2)
        b[r, c] ^= 1
    out, stats = decode_chain(scc32, noisy, None, SabmParams(), window=4, ell=3)
    assert len(out) == 10
    for got, want in zip(out, blocks):
        assert np.array_equal(got, want)
    # windows ran, and standard decoding counts exactly its baseline
    assert stats.bdd_calls == baseline_calls(scc32, 10, window=4, ell=3) > 0


def test_decode_chain_sabm_roundtrip(scc32, rng):
    _, blocks = random_chain(scc32, rng, 8)
    noisy = [b.copy() for b in blocks]
    noisy[3][2, 9] ^= 1
    noisy[5][11, 1] ^= 1
    llrs = [np.where(b == 0, 8.0, -8.0) for b in noisy]
    out, stats = decode_chain(scc32, noisy, marks_of(scc32, llrs, SabmParams()), SabmParams(),
                              window=4, ell=3)
    for got, want in zip(out, blocks):
        assert np.array_equal(got, want)


def test_decode_chain_input_not_mutated(scc32, rng):
    _, blocks = random_chain(scc32, rng, 4)
    noisy = [b.copy() for b in blocks]
    noisy[1][0, 0] ^= 1
    snap = [b.copy() for b in noisy]
    decode_chain(scc32, noisy, None, SabmParams(), window=3, ell=2)
    for a, b in zip(noisy, snap):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("num_blocks, window, newest", [
    (12, 5, [3, 4, 5, 6, 7, 8, 9, 10, 11, 11, 11, 11]),  # the benchmark's chains
    (3, 5, [2, 2, 2]),          # a chain shorter than the window
    (4, 4, [2, 3, 3, 3]),
    (4, 2, [0, 1, 2, 3]),       # window 2 marks every block
    (1, 3, [0]),
])
def test_newest_blocks_follow_the_window_schedule(num_blocks, window, newest):
    assert scc.newest_blocks(num_blocks, window) == newest


def test_decode_chain_window_validation(scc32):
    with pytest.raises(ValueError):
        decode_chain(scc32, [], None, SabmParams(), window=1, ell=1)
    # ell reaches the kernel as an int64, which ctypes would wrap
    for ell in (0, 2 ** 63, 2 ** 64):
        with pytest.raises(ValueError, match="ell must lie in"):
            decode_chain(scc32, np.zeros((2, scc32.w, scc32.w), dtype=np.uint8), None,
                         SabmParams(), window=3, ell=ell)


def test_decode_chain_counts_are_integers(scc32, rng):
    # a float count is a ConfigError, not ctypes' ArgumentError or a
    # TypeError of range(); a numpy integer decodes as an int
    _, blocks = random_chain(scc32, rng, 4)
    noisy = blocks ^ (rng.random(blocks.shape) < 0.02)
    for window, ell in ((3.0, 2), (3, 2.5)):
        with pytest.raises(ConfigError, match="must be an integer"):
            decode_chain(scc32, noisy, None, SabmParams(), window=window, ell=ell)
    out, stats = decode_chain(scc32, noisy, None, SabmParams(), window=np.int64(3),
                              ell=np.int64(2))
    want, want_stats = decode_chain(scc32, noisy, None, SabmParams(), window=3, ell=2)
    assert np.array_equal(out, want) and stats == want_stats


@pytest.mark.parametrize("shape", ["block", "rows"])
def test_decode_chain_rejects_what_is_not_a_chain(scc32, shape):
    # a (w, w) block would broadcast into a chain of w copies of it, and an
    # (N, 1, w) array into N full blocks
    w = scc32.w
    received = np.zeros((w, w) if shape == "block" else (3, 1, w), dtype=np.uint8)
    with pytest.raises(ValueError, match=rf"received chain must be \(N, {w}, {w}\)"):
        decode_chain(scc32, received, None, SabmParams(), window=3, ell=1)


@pytest.mark.parametrize("extra", [-1, 1], ids=["one_short", "one_over"])
def test_decode_chain_takes_one_mark_per_block(scc32, rng, extra):
    # one entry short would fail on a window's read, one over would be
    # ignored: both are rejected before decoding
    _, blocks = random_chain(scc32, rng, 4)
    marks = marks_of(scc32, [np.ones((scc32.w, scc32.w))] * (len(blocks) + extra), SabmParams())
    with pytest.raises(ValueError, match=r"one entry per received block \(4\), got "):
        decode_chain(scc32, blocks, marks, SabmParams(), window=3, ell=1)


def test_decode_chain_refuses_a_missing_mark(scc32, rng, monkeypatch):
    # window 3 over 4 blocks marks blocks 1, 2 and 3: a None at one of them
    # is refused, naming it, before any window decodes; block 0's is never read
    _, blocks = random_chain(scc32, rng, 4)
    params = SabmParams()
    marks = marks_of(scc32, [np.ones((scc32.w, scc32.w))] * len(blocks), params)
    ran = []
    monkeypatch.setattr(scc, "window_pass", lambda *args: ran.append(args[1:]))
    for b in (3, 1):
        missing = [None if i == b else m for i, m in enumerate(marks)]
        with pytest.raises(ValueError, match=rf"^marks\[{b}\] is None, but a window marks "
                                             rf"block {b}$"):
            decode_chain(scc32, blocks, missing, params, window=3, ell=1)
    assert ran == []
    decode_chain(scc32, blocks, [None, *marks[1:]], params, window=3, ell=1)
    assert [first for first, *_ in ran] == [0, 1, 2, 3]


# ------------------------------------------------------------- complexity

def test_eta_arithmetic():
    assert eta(18, 16) == pytest.approx(0.125)
    assert eta(16, 16) == 0.0
    with pytest.raises(ValueError):
        eta(1, 0)


def test_standard_chain_counts_match_baseline(scc32, rng):
    # plain sliding-window decoding always spends exactly w*(L-1)*ell calls
    # per window; window 9 is longer than the 7-block chain
    _, blocks = random_chain(scc32, rng, 7)
    for window in (2, 3, 4, 9):
        _, stats = decode_chain(scc32, blocks, None, SabmParams(), window=window, ell=3)
        baseline = baseline_calls(scc32, 7, window=window, ell=3)
        # the same sum window by window: L = min(window, 8 - s) blocks at start s
        assert baseline == sum(scc32.w * (min(window, 8 - s) - 1) * 3 for s in range(7))
        assert stats.bdd_calls == baseline
        assert eta(stats.bdd_calls, baseline) == 0.0


def test_sabm_chain_extra_calls_only_from_flips(scc32, rng):
    _, blocks = random_chain(scc32, rng, 6)
    noisy = [b.copy() for b in blocks]
    errs = [2, 8, 13]
    noisy[4][6, errs] ^= 1
    llrs = [np.where(b == 0, 8.0, -8.0) for b in noisy]
    llrs[4][6, errs] = np.where(noisy[4][6, errs] == 0, 0.4, -0.4)
    out, stats = decode_chain(scc32, noisy, marks_of(scc32, llrs, SabmParams()), SabmParams(),
                              window=4, ell=3)
    for got, want in zip(out, blocks):
        assert np.array_equal(got, want)
    baseline = baseline_calls(scc32, 6, window=4, ell=3)
    assert stats.bdd_calls == baseline + stats.flips_attempted
    assert eta(stats.bdd_calls, baseline) >= 0.0
