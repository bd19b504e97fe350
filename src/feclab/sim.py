"""Seeded Monte Carlo BER engine, statistics aggregation, mask diagnostics
and CSV emission.

Every trial derives its generator from (master_seed, snr, trial index), so
sweeps are reproducible bit for bit at any worker count. The stopping rule
is evaluated at fixed batch boundaries for the same reason.
"""

import csv
import io
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .bch import build_code
from .errors import ConfigError
from .modem import (ChannelConfig, ReliabilityGrid, awgn_transmit, demap_llr,
                    interleave, make_interleaver, modulate)
from .pc import PcCode, SabmParams, ibdd_decode, pc_encode, sabm_decode
from .scc import SccCode, baseline_calls, decode_chain, eta, scc_encode

CSV_COLUMNS = ["scheme", "mod", "decoder", "llr_mode", "snr_db", "blocks",
               "ber_pre", "ber_post", "block_errors", "bdd_calls_avg", "eta",
               "seed", "wall_seconds"]


@dataclass(frozen=True)
class SccRunParams:
    window: int = 5
    iters: int = 4
    chain_blocks: int = 12


@dataclass(frozen=True)
class StopRule:
    min_word_errors: int = 100
    max_blocks: int = 1_000_000


@dataclass(frozen=True)
class SimConfig:
    scheme: str = "pc"
    mod: int = 2
    snr_points: tuple = ()
    decoder: str = "ibdd"
    llr_mode: str = "exact"
    sabm: SabmParams = field(default_factory=SabmParams)
    scc: SccRunParams = field(default_factory=SccRunParams)
    stop: StopRule = field(default_factory=StopRule)
    master_seed: int = 1
    out_path: str | None = None
    workers: int = 1
    batch_size: int = 16
    record_timing: bool = True
    # component code override (extension degree m); None picks the
    # defaults: eBCH(128,113) for PC, eBCH(256,239) for SCC
    component_m: int | None = None


def validate_config(cfg: SimConfig) -> None:
    if cfg.scheme not in ("pc", "scc"):
        raise ConfigError(f"unknown scheme {cfg.scheme!r}")
    if cfg.decoder not in ("ibdd", "sabm"):
        raise ConfigError(f"unknown decoder {cfg.decoder!r}")
    if cfg.mod not in (2, 4, 8):
        raise ConfigError(f"unsupported modulation order {cfg.mod}")
    if cfg.llr_mode not in ("exact", "maxlog"):
        raise ConfigError(f"unknown llr_mode {cfg.llr_mode!r}")
    if not cfg.snr_points:
        raise ConfigError("snr_points must be non-empty")
    if not all(math.isfinite(snr) for snr in cfg.snr_points):
        raise ConfigError(f"SNR points must be finite, got {cfg.snr_points}")
    keys = [_snr_key(snr) for snr in cfg.snr_points]
    if len(set(keys)) < len(keys):
        raise ConfigError(f"SNR points {cfg.snr_points} repeat a value at 0.001 dB "
                          "resolution, and such points share one noise stream")
    if cfg.stop.min_word_errors < 1 or cfg.stop.max_blocks < 1:
        raise ConfigError("stopping rule needs min_word_errors >= 1 and max_blocks >= 1")
    if cfg.workers < 1 or cfg.batch_size < 1:
        raise ConfigError("workers and batch_size must be >= 1")
    if cfg.scheme == "scc" and cfg.scc.window < 2:
        raise ConfigError("scc window must be >= 2")
    if cfg.scheme == "scc" and min(cfg.scc.iters, cfg.scc.chain_blocks) < 1:
        raise ConfigError(f"scc iters and chain_blocks must be >= 1, got "
                          f"{cfg.scc.iters} and {cfg.scc.chain_blocks}")
    m = _component_m(cfg)
    if not 4 <= m <= 8:
        raise ConfigError(f"component code needs 4 <= m <= 8, got m={m}")
    # a block is w x w bits with w = 2^m (PC) or 2^(m-1) (SCC), sent in
    # whole symbols of log2(M) bits each
    w = 1 << (m if cfg.scheme == "pc" else m - 1)
    bits_per_symbol = cfg.mod.bit_length() - 1
    if (w * w) % bits_per_symbol:
        raise ConfigError(f"{cfg.mod}-PAM needs the {w * w} bits of a block to be a "
                          f"multiple of log2(M)={bits_per_symbol}; padding is not "
                          "implemented")


def _component_m(cfg: SimConfig) -> int:
    """Extension degree of the component code: the override, or the
    default eBCH(128,113) for PC and eBCH(256,239) for SCC."""
    if cfg.component_m is not None:
        return cfg.component_m
    return 7 if cfg.scheme == "pc" else 8


@dataclass
class BerStats:
    snr_db: float
    blocks_run: int = 0
    pre_fec_bit_errors: int = 0
    post_fec_bit_errors: int = 0
    block_errors: int = 0
    ber_pre: float = 0.0
    ber_post: float = 0.0
    bdd_calls_total: int = 0
    eta: float | None = None
    wall_seconds: float = 0.0
    info_bits: int = 0
    coded_bits: int = 0
    per_block_post: list = field(default_factory=list)


@dataclass
class _TrialResult:
    blocks: int
    pre_err: int
    post_err: int
    info_bits: int
    coded_bits: int
    block_errors: int
    bdd_calls: int
    per_block_post: list


def _snr_key(snr_db: float) -> int:
    return int(round(snr_db * 1000)) + 1_000_000


def _trial_rng(master_seed: int, snr_db: float, trial: int):
    return np.random.default_rng(np.random.SeedSequence([master_seed, _snr_key(snr_db), trial]))


class _Runtime:
    """Heavy per-config objects, built once per process."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        component = build_code(_component_m(cfg), 2, extended=True)
        self.code = (PcCode if cfg.scheme == "pc" else SccCode)(component)

    def channel(self, snr_db: float) -> ChannelConfig:
        return ChannelConfig(self.cfg.mod, snr_db, self.cfg.llr_mode)


def _transmit_block(rt: _Runtime, block: np.ndarray, chan: ChannelConfig, rng):
    """Send one w x w block; returns (hard grid, llr grid)."""
    tx = block.reshape(-1)
    il = None
    if chan.M > 2:
        il = make_interleaver(tx.size, rng=rng)
        tx = interleave(tx, il)
    y = awgn_transmit(modulate(tx, chan), chan, rng)
    llr = demap_llr(y, chan).reshape(-1)
    if il is not None:
        llr = interleave(llr, il, inverse=True)
    llr = llr.reshape(block.shape)
    return (llr < 0).astype(np.uint8), llr


def _pc_trial(rt: _Runtime, snr_db: float, trial: int) -> _TrialResult:
    cfg = rt.cfg
    code = rt.code
    rng = _trial_rng(cfg.master_seed, snr_db, trial)
    chan = rt.channel(snr_db)
    data = rng.integers(0, 2, (code.k, code.k), dtype=np.uint8)
    block = pc_encode(code, data)
    hard, llr = _transmit_block(rt, block, chan, rng)
    pre = int((hard != block).sum())
    if cfg.decoder == "ibdd":
        decoded, st = ibdd_decode(code, hard, cfg.sabm.total_iters)
    else:
        decoded, st = sabm_decode(code, hard, ReliabilityGrid(llr), cfg.sabm)
    post = int((decoded[: code.k, : code.k] != data).sum())
    return _TrialResult(blocks=1, pre_err=pre, post_err=post,
                        info_bits=code.k * code.k, coded_bits=block.size,
                        block_errors=int(post > 0), bdd_calls=st.bdd_calls,
                        per_block_post=[post])


def _scc_trial(rt: _Runtime, snr_db: float, trial: int) -> _TrialResult:
    cfg = rt.cfg
    code = rt.code
    rng = _trial_rng(cfg.master_seed, snr_db, trial)
    chan = rt.channel(snr_db)
    w, ic = code.w, code.info_cols
    nblk = cfg.scc.chain_blocks
    info = rng.integers(0, 2, (nblk, w, ic), dtype=np.uint8)
    chain = scc_encode(code, info)
    rx, llrs, pre = [], [], 0
    for blk in chain:
        hard, llr = _transmit_block(rt, blk, chan, rng)
        pre += int((hard != blk).sum())
        rx.append(hard)
        llrs.append(llr)
    decoded, st = decode_chain(code, rx, llrs if cfg.decoder == "sabm" else None,
                               cfg.sabm, cfg.scc.window, cfg.scc.iters)
    per_block = [int((d[:, :ic] != i).sum()) for d, i in zip(decoded, info)]
    post = int(sum(per_block))
    return _TrialResult(blocks=nblk, pre_err=pre, post_err=post,
                        info_bits=nblk * w * ic, coded_bits=nblk * w * w,
                        block_errors=sum(e > 0 for e in per_block),
                        bdd_calls=st.bdd_calls, per_block_post=per_block)


_WORKER_RT: _Runtime | None = None


def _worker_init(cfg: SimConfig):
    global _WORKER_RT
    _WORKER_RT = _Runtime(cfg)


def _worker_trial(args):
    snr_db, trial = args
    rt = _WORKER_RT
    fn = _pc_trial if rt.cfg.scheme == "pc" else _scc_trial
    return fn(rt, snr_db, trial)


def run_point(cfg: SimConfig, snr_db: float, _pool=None, _rt=None) -> BerStats:
    validate_config(cfg)
    rt = _rt if _rt is not None else _Runtime(cfg)
    stats = BerStats(snr_db=snr_db)
    t0 = time.perf_counter()
    trial_fn = _pc_trial if cfg.scheme == "pc" else _scc_trial
    next_trial = 0
    while (stats.block_errors < cfg.stop.min_word_errors
           and stats.blocks_run < cfg.stop.max_blocks):
        batch = list(range(next_trial, next_trial + cfg.batch_size))
        next_trial += cfg.batch_size
        if _pool is not None:
            results = list(_pool.map(_worker_trial, [(snr_db, t) for t in batch]))
        else:
            results = [trial_fn(rt, snr_db, t) for t in batch]
        for r in results:
            stats.blocks_run += r.blocks
            stats.pre_fec_bit_errors += r.pre_err
            stats.post_fec_bit_errors += r.post_err
            stats.block_errors += r.block_errors
            stats.bdd_calls_total += r.bdd_calls
            stats.info_bits += r.info_bits
            stats.coded_bits += r.coded_bits
            stats.per_block_post.extend(r.per_block_post)
    stats.ber_pre = stats.pre_fec_bit_errors / max(stats.coded_bits, 1)
    stats.ber_post = stats.post_fec_bit_errors / max(stats.info_bits, 1)
    if cfg.scheme == "scc":
        scc = cfg.scc
        per_chain = baseline_calls(rt.code, scc.chain_blocks, scc.window, scc.iters)
        stats.eta = eta(stats.bdd_calls_total,
                        stats.blocks_run // scc.chain_blocks * per_chain)
    if cfg.record_timing:
        stats.wall_seconds = time.perf_counter() - t0
    return stats


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def stats_row(cfg: SimConfig, st: BerStats) -> list[str]:
    calls_avg = st.bdd_calls_total / max(st.blocks_run, 1)
    return [cfg.scheme, str(cfg.mod), cfg.decoder, cfg.llr_mode,
            _fmt(float(st.snr_db)), str(st.blocks_run), _fmt(st.ber_pre),
            _fmt(st.ber_post), str(st.block_errors), _fmt(calls_avg),
            _fmt(st.eta), str(cfg.master_seed), _fmt(st.wall_seconds)]


def run_sweep(cfg: SimConfig, out=None) -> list[BerStats]:
    """Run every SNR point in order, flushing CSV rows as they complete."""
    validate_config(cfg)
    close_out = False
    if out is None:
        if cfg.out_path is not None:
            out = open(cfg.out_path, "w", newline="")
            close_out = True
        else:
            out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    out.flush()
    results = []
    pool = None
    rt = _Runtime(cfg)
    try:
        if cfg.workers > 1:
            pool = ProcessPoolExecutor(max_workers=cfg.workers,
                                       initializer=_worker_init,
                                       initargs=(cfg,))
        for snr in cfg.snr_points:
            st = run_point(cfg, snr, _pool=pool, _rt=rt)
            results.append(st)
            writer.writerow(stats_row(cfg, st))
            out.flush()
    finally:
        if pool is not None:
            pool.shutdown()
        if close_out:
            out.close()
    return results


@dataclass
class MaskStats:
    mean_non_hrb_count: float
    ratio: float
    per_block_counts: list
    first_mask: np.ndarray


def analytic_non_hrb_probability(snr_db: float, delta: float) -> float:
    """Gaussian-tail probability that a 2-PAM bit has |llr| <= delta."""
    rho = 10.0 ** (snr_db / 10.0)
    sq = math.sqrt(rho)
    thr = delta / (2.0 * sq)
    phi = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    return phi(thr - sq) - phi(-thr - sq)


def mask_stats(cfg: SimConfig, snr_db: float, num_blocks: int) -> MaskStats:
    if cfg.scheme != "pc":
        raise ConfigError("mask statistics are defined for the pc scheme")
    if num_blocks < 1:
        raise ConfigError(f"mask statistics need at least one block, got {num_blocks}")
    validate_config(replace(cfg, snr_points=(snr_db,)))
    rt = _Runtime(cfg)
    counts = []
    first = None
    delta = cfg.sabm.delta
    for trial in range(num_blocks):
        rng = _trial_rng(cfg.master_seed, snr_db, trial)
        chan = rt.channel(snr_db)
        data = rng.integers(0, 2, (rt.code.k, rt.code.k), dtype=np.uint8)
        block = pc_encode(rt.code, data)
        _, llr = _transmit_block(rt, block, chan, rng)
        mask = np.abs(llr) <= delta
        counts.append(int(mask.sum()))
        if first is None:
            first = mask
    w2 = rt.code.w ** 2
    mean = float(np.mean(counts))
    return MaskStats(mean_non_hrb_count=mean, ratio=mean / w2,
                     per_block_counts=counts, first_mask=first)


def render_mask(mask: np.ndarray) -> str:
    """Text grid of non-HRB positions: '#' unmarked-as-HRB, '.' HRB."""
    return "\n".join("".join("#" if m else "." for m in row) for row in mask)
