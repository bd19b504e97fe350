"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible even under pytest capture). The whole module is Monte Carlo heavy
and takes several minutes on one core; run it with

    pytest tests/test_acceptance.py -v
"""

import io
import math

import numpy as np
import pytest

from feclab.bch import build_code, encode_many
from feclab.modem import ChannelConfig, awgn_transmit, demap_llr, modulate
from feclab.pc import PcCode, SabmParams, ibdd_decode, pc_encode, sabm_decode
from feclab.scc import SccCode, decode_chain, scc_encode
from feclab import sim
from feclab.sim import (
    SccRunParams,
    SimConfig,
    StopRule,
    mask_stats,
    run_sweep,
)

from reference import analytic_non_hrb_probability, block_syndromes, decode_syndromes

PC_PARAMS = SabmParams(delta=5.0, total_iters=10, md_iters=5,
                       failure_flip_attempts=1)


@pytest.fixture
def report(capsys):
    def _report(num, name, ok, detail=""):
        line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" [{detail}]"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def int_to_bits(values, n):
    v = np.asarray(values, dtype=np.int64)
    return ((v[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def ber_ci(st):
    """95% confidence interval for the post-decoding BER of a `BerStats`,
    from its per-block moments (normal approximation of the block mean)."""
    n, total = st.blocks_run, st.post_fec_bit_errors
    bits_per_block = st.info_bits / n
    mean = total / n
    half = 0.0
    if n > 1:
        # exact integers: n * sumsq - sum^2 cancels in floating point
        var = (n * st.post_sq_errors - total * total) / (n * (n - 1))
        half = 1.96 * math.sqrt(var / n)
    return (max(mean - half, 0.0) / bits_per_block,
            (mean + half) / bits_per_block)


def ber_ci_of_list(per_block_errors, bits_per_block):
    """Oracle for `ber_ci`: the same interval from the list of per-block
    residual bit-error counts."""
    e = np.asarray(per_block_errors, dtype=np.float64)
    n = e.size
    mean = e.mean()
    half = 1.96 * e.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
    return (max(mean - half, 0.0) / bits_per_block,
            (mean + half) / bits_per_block)


def sweep(cfg):
    return run_sweep(cfg, out=io.StringIO())


def pc_point(decoder, snr, min_errors, max_blocks, mod=2, llr="exact", seed=202):
    cfg = SimConfig(scheme="pc", mod=mod, snr_points=(snr,), decoder=decoder,
                    llr_mode=llr, sabm=PC_PARAMS,
                    stop=StopRule(min_word_errors=min_errors,
                                  max_blocks=max_blocks),
                    master_seed=seed, record_timing=False)
    return sweep(cfg)[0]


def cross_snr(points, target=1e-3):
    """SNR where log10(ber) crosses log10(target), by linear interpolation
    over (snr, log10 ber) pairs."""
    (s1, b1), (s2, b2) = points
    l1, l2, lt = math.log10(b1), math.log10(b2), math.log10(target)
    return s1 + (s2 - s1) * (lt - l1) / (l2 - l1)


# SNRs low enough that some blocks of the small codes keep errors
@pytest.mark.parametrize("scheme, snr", [("pc", 2.5), ("scc", 3.5)])
def test_ber_ci_from_moments_matches_list_oracle(scheme, snr):
    cfg = SimConfig(scheme=scheme, mod=2, snr_points=(snr,), decoder="sabm",
                    component_m=5, scc=SccRunParams(window=3, iters=2, chain_blocks=4),
                    stop=StopRule(min_word_errors=10 ** 9, max_blocks=24),
                    master_seed=11, record_timing=False, batch_size=2)
    st = sweep(cfg)[0]
    _, post, _ = sim._trials(cfg, snr, 0, st.blocks_run // (4 if scheme == "scc" else 1))
    errors = post.tolist()
    bits_per_block = st.info_bits // st.blocks_run
    assert len(errors) == st.blocks_run and sum(errors) == st.post_fec_bit_errors
    assert np.std(errors) > 0  # the interval has a nonzero width to compare
    assert ber_ci(st) == pytest.approx(ber_ci_of_list(errors, bits_per_block),
                                       rel=1e-12, abs=1e-12)


# --------------------------------------------------------------------- 1

def test_criterion_1_exhaustive_bdd_oracle(report):
    code = build_code(4)  # (16, 7), d0 = 6
    n, k = code.n, code.k
    codewords = encode_many(code, int_to_bits(np.arange(1 << k), k))
    mismatches = 0
    for lo in range(0, 1 << n, 4096):
        words = int_to_bits(np.arange(lo, lo + 4096), n)
        dist = (words[:, None, :] != codewords[None, :, :]).sum(axis=2)
        dmin = dist.min(axis=1)
        nearest = dist.argmin(axis=1)
        pats = [decode_syndromes(code, s) for s in block_syndromes(code, words).tolist()]
        for i, pat in enumerate(pats):  # None: decoding failure
            if dmin[i] <= code.t:
                if pat is None:
                    mismatches += 1
                    continue
                fixed = words[i].copy()
                fixed[list(pat)] ^= 1
                if not np.array_equal(fixed, codewords[nearest[i]]):
                    mismatches += 1
            elif pat is not None:
                mismatches += 1
    report(1, "exhaustive BDD oracle, (16,7)", mismatches == 0,
           f"{mismatches} mismatches over {1 << n} words")


# --------------------------------------------------------------------- 2

def test_criterion_2_component_code_bdd(report):
    rng = np.random.default_rng(77)
    trials = 10_000
    failures = []
    for m in (7, 8):
        code = build_code(m)
        n, k = code.n, code.k
        msgs = rng.integers(0, 2, (trials, k), dtype=np.uint8)
        sent = encode_many(code, msgs)

        # weights 0..2: the exact channel pattern must come back
        noisy = sent.copy()
        weights = rng.integers(0, 3, trials)
        true_pats = []
        for i in range(trials):
            pos = rng.choice(n, size=weights[i], replace=False)
            noisy[i, pos] ^= 1
            true_pats.append(tuple(sorted(int(p) for p in pos)))
        pats = [decode_syndromes(code, s) for s in block_syndromes(code, noisy).tolist()]
        bad = sum(pat is None or pat != true_pats[i] for i, pat in enumerate(pats))
        if bad:
            failures.append(f"m={m}: {bad} wrong recoveries at weight<=2")

        # weight 3: never the transmitted codeword, outputs stay valid
        noisy3 = sent.copy()
        for i in range(trials):
            pos = rng.choice(n, size=3, replace=False)
            noisy3[i, pos] ^= 1
        pats3 = [decode_syndromes(code, s) for s in block_syndromes(code, noisy3).tolist()]
        bad3 = 0
        for i, pat in enumerate(pats3):
            if pat is None:
                continue
            out = noisy3[i].copy()
            out[list(pat)] ^= 1
            if (len(pat) > code.t or block_syndromes(code, out[None, :])[0] != 0
                    or np.array_equal(out, sent[i])):
                bad3 += 1
        if bad3:
            failures.append(f"m={m}: {bad3} bad weight-3 outcomes")
    report(2, "BDD on (128,113) and (256,239)", not failures,
           "; ".join(failures) or f"{trials} trials per weight per code")


# --------------------------------------------------------------------- 3

def test_criterion_3_mask_counts(report):
    cfg = SimConfig(scheme="pc", mod=2, snr_points=(6.2,), decoder="sabm",
                    sabm=PC_PARAMS, master_seed=99, record_timing=False)
    n_bits = 128 * 128
    checks = []
    analytic = {}
    for snr, center, tol in ((6.2, 3361.0, 160.0), (5.8, 4077.0, 170.0)):
        expect = n_bits * analytic_non_hrb_probability(snr, PC_PARAMS.delta)
        analytic[snr] = expect
        checks.append(abs(expect - center) <= tol)
        counts = mask_stats(cfg, snr, num_blocks=1000).per_block_counts
        checks.append(len(counts) == 1000)
        checks.append(abs(sum(counts) / 1000 - expect) <= 0.01 * expect)
    ratio = analytic[6.2] / n_bits
    checks.append(0.20 <= ratio <= 0.25)
    report(3, "mask counts at 6.2/5.8 dB", all(checks),
           f"analytic 6.2dB={analytic[6.2]:.1f}, 5.8dB={analytic[5.8]:.1f}, "
           f"ratio={ratio:.4f}")


# --------------------------------------------------------------------- 4

def test_criterion_4_sabm_gain(report):
    # operating point: iBDD post-FEC BER inside [1e-4, 1e-3]
    ib_hi = pc_point("ibdd", 6.3, min_errors=100, max_blocks=2500)
    assert 1e-4 <= ib_hi.ber_post <= 1e-3, ib_hi.ber_post
    assert ib_hi.block_errors >= 100
    # same trials (common master seed and count) through the SABM decoder
    sa_same = pc_point("sabm", 6.3, min_errors=10 ** 9,
                       max_blocks=ib_hi.blocks_run)
    assert sa_same.blocks_run == ib_hi.blocks_run
    lo_i, hi_i = ber_ci(ib_hi)
    lo_s, hi_s = ber_ci(sa_same)
    separated = sa_same.ber_post < ib_hi.ber_post and hi_s < lo_i

    # horizontal gain at BER 1e-3 from one bracketing pair per decoder
    ib_lo = pc_point("ibdd", 6.2, min_errors=100, max_blocks=1200)
    sa_lo = pc_point("sabm", 5.7, min_errors=100, max_blocks=1200)
    sa_hi = pc_point("sabm", 5.8, min_errors=100, max_blocks=1500)
    s_ib = cross_snr([(6.2, ib_lo.ber_post), (6.3, ib_hi.ber_post)])
    s_sa = cross_snr([(5.7, sa_lo.ber_post), (5.8, sa_hi.ber_post)])
    gain = s_ib - s_sa
    report(4, "bit-marking coding gain", separated and gain >= 0.1,
           f"ibdd={ib_hi.ber_post:.3e} CI[{lo_i:.2e},{hi_i:.2e}], "
           f"sabm={sa_same.ber_post:.3e} CI[{lo_s:.2e},{hi_s:.2e}] at 6.3 dB; "
           f"gain at 1e-3 = {gain:.3f} dB")


# --------------------------------------------------------------------- 5

def test_criterion_5_reduction_identity(report):
    params = SabmParams(delta=5.0, total_iters=10, md_iters=0,
                        failure_flip_attempts=0)
    chan = ChannelConfig(2, 4.5, "exact")
    mismatch = 0
    for m, blocks in ((5, 1000), (7, 20)):
        code = PcCode(build_code(m))
        rng = np.random.default_rng(m * 1000)
        for _ in range(blocks):
            data = rng.integers(0, 2, (code.k, code.k), dtype=np.uint8)
            block = pc_encode(code, data)
            y = awgn_transmit(modulate(block.reshape(-1), chan), chan, rng)
            llr = demap_llr(y, chan).reshape(block.shape)
            hard = (llr < 0).astype(np.uint8)
            out_i, _ = ibdd_decode(code, hard, params.total_iters)
            out_s, _ = sabm_decode(code, hard, llr, params)
            mismatch += not np.array_equal(out_i, out_s)
    report(5, "degenerate bit-marking equals iBDD", mismatch == 0,
           f"{mismatch} mismatching blocks of 1020")


# --------------------------------------------------------------------- 6

def test_criterion_6a_bpsk_llr_equality(report):
    worst = 0.0
    for snr in (0.0, 3.0, 6.2, 10.0):
        ce = ChannelConfig(2, snr, "exact")
        cm = ChannelConfig(2, snr, "maxlog")
        y = np.linspace(-4 * ce.sqrt_rho, 4 * ce.sqrt_rho, 100_001)
        worst = max(worst, float(np.abs(demap_llr(y, ce) - demap_llr(y, cm)).max()))
    report("6a", "2-PAM exact equals max-log", worst < 1e-9,
           f"max |diff| = {worst:.2e}")


def test_criterion_6b_4pam_maxlog_parity(report):
    details = []
    ok = True
    for snr in (12.0, 12.2):
        exact = pc_point("sabm", snr, min_errors=100, max_blocks=900,
                         mod=4, llr="exact")
        approx = pc_point("sabm", snr, min_errors=10 ** 9,
                          max_blocks=exact.blocks_run, mod=4, llr="maxlog")
        lo, hi = ber_ci(exact)
        inside = lo <= approx.ber_post <= hi
        ok = ok and inside
        details.append(f"{snr} dB: maxlog={approx.ber_post:.3e} in "
                       f"exact CI [{lo:.2e},{hi:.2e}] -> {inside}")
    report("6b", "4-PAM max-log parity", ok, "; ".join(details))


# --------------------------------------------------------------------- 7

def test_criterion_7_structural_invariants(report):
    rng = np.random.default_rng(31)
    pc = PcCode(build_code(5))
    bad = 0
    for _ in range(1000):
        data = rng.integers(0, 2, (pc.k, pc.k), dtype=np.uint8)
        block = pc_encode(pc, data)
        rows = block_syndromes(pc.component, block)
        cols = block_syndromes(pc.component, block.T)
        if rows.any() or cols.any():
            bad += 1
            continue
        out, _ = ibdd_decode(pc, block, 2)
        if not np.array_equal(out, block):
            bad += 1

    scc = SccCode(build_code(5))
    for _ in range(100):
        info = rng.integers(0, 2, (10, scc.w, scc.info_cols), dtype=np.uint8)
        chain = scc_encode(scc, info)
        prev = np.zeros((scc.w, scc.w), dtype=np.uint8)
        for b in chain:
            pair = np.concatenate([prev.T, b], axis=1)
            if block_syndromes(scc.component, pair).any():
                bad += 1
            prev = b
        out, _ = decode_chain(scc, chain, None, SabmParams(), window=4, ell=2)
        if any(not np.array_equal(a, b) for a, b in zip(out, chain)):
            bad += 1
    report(7, "structural invariants", bad == 0,
           f"{bad} violations over 1000 blocks + 100 chains")


# --------------------------------------------------------------------- 8

def test_criterion_8_complexity_trend(report):
    def scc_point(snr):
        cfg = SimConfig(scheme="scc", mod=2, snr_points=(snr,),
                        decoder="sabm", sabm=PC_PARAMS,
                        scc=SccRunParams(window=5, iters=4, chain_blocks=10),
                        stop=StopRule(min_word_errors=30, max_blocks=400),
                        master_seed=55, record_timing=False, component_m=6,
                        batch_size=8)
        return sweep(cfg)[0]

    low = scc_point(4.8)
    high = scc_point(6.5)
    ok = (low.eta is not None and high.eta is not None
          and low.eta >= 0.0 and high.eta >= 0.0 and high.eta < low.eta)
    report(8, "relative complexity eta trend", ok,
           f"eta(4.8 dB)={low.eta:.4f}, eta(6.5 dB)={high.eta:.4f}")


# --------------------------------------------------------------------- 9

def test_criterion_9_deterministic_csv(report):
    def csv_text(scheme, workers):
        if scheme == "pc":
            cfg = SimConfig(scheme="pc", mod=2, snr_points=(5.0, 6.0),
                            decoder="sabm", sabm=PC_PARAMS,
                            stop=StopRule(min_word_errors=4, max_blocks=32),
                            master_seed=13, workers=workers,
                            record_timing=False, component_m=5, batch_size=8)
        else:
            cfg = SimConfig(scheme="scc", mod=2, snr_points=(5.0,),
                            decoder="sabm", sabm=PC_PARAMS,
                            scc=SccRunParams(window=3, iters=2, chain_blocks=4),
                            stop=StopRule(min_word_errors=2, max_blocks=8),
                            master_seed=13, workers=workers,
                            record_timing=False, component_m=5, batch_size=4)
        buf = io.StringIO()
        run_sweep(cfg, out=buf)
        return buf.getvalue()

    ok = True
    for scheme in ("pc", "scc"):
        first = csv_text(scheme, 1)
        ok = ok and first == csv_text(scheme, 1) == csv_text(scheme, 3)
    report(9, "byte-identical CSV across reruns and workers", ok)
