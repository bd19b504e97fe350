"""Seeded Monte Carlo BER engine, statistics aggregation, mask diagnostics
and CSV emission.

Every trial derives its generator from (master_seed, snr, trial index), so
sweeps are reproducible bit for bit at any worker count. The stopping rule
is evaluated at fixed batch boundaries for the same reason. A point queues
the next batch before it collects the current one whenever the current
batch cannot end the point, so pool workers do not wait at the boundary;
such a batch would run anyway, so no output changes. A point without a pool
runs the same queued loop, each share as soon as it is queued.

A process keeps one pool of worker processes. It starts at the first sweep
with workers > 1 and serves every later sweep of the process with the same
worker count; another count replaces it. The workers fork from the process
as it is when the pool starts, so they run the code of that moment: a sweep
after a rebinding of a name in feclab's modules (a monkeypatch, a tracer)
starts a fresh pool, but a later change elsewhere does not reach them.
A child process keeps no pool: in a multiprocessing child, and in a child
that a plain os.fork made after feclab was imported, the pool is shut down
at the end of each sweep. A multiprocessing child joins its children
at exit before a pool could stop them, and a forked child may leave by
os._exit, which stops nothing. A sweep may replace the kept pool, so
pooled sweeps must not run in several threads at once. The workers ignore
SIGINT, which a terminal's Ctrl-C sends to the whole process group: the
caller handles it, and the workers finish their tasks and stop when the
caller's process shuts the pool down at exit.
"""

import csv
import io
import math
import multiprocessing
import os
import signal
import sys
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .bch import build_code
from .errors import ConfigError
from .kernel import count, demap_pam, modulate_pam, send_2pam
from .modem import ChannelConfig, awgn_transmit, make_interleaver
from .pc import DecodeStats, PcCode, SabmParams, ibdd_decode, pc_encode, sabm_decode
from .scc import (SccCode, baseline_calls, block_marks, decode_chain, eta, newest_blocks,
                  scc_encode)

CSV_COLUMNS = ["scheme", "mod", "decoder", "llr_mode", "snr_db", "blocks",
               "ber_pre", "ber_post", "block_errors", "bdd_calls_avg", "eta",
               "seed", "wall_seconds"]


# most worker processes a sweep starts: a fixed bound, so that a config
# validates the same way on every host
MAX_WORKERS = 512

# most trials in one batch: a fixed bound, as for workers. A batch runs
# whole, so a larger one would overshoot the default max_blocks, and its
# task list, one entry per share, is built before any of it runs
MAX_BATCH = 1_000_000

# most bytes of one staircase chain's arrays, counted as its data and 10
# bytes a bit: its code blocks, hard decisions and decode array (a byte
# a bit each, the decode's int64 syndrome per word well below it) and
# its SABM marks (2 bytes a bit of a marked block), all held while the
# chain runs, with room to spare: a SABM run peaks at ~0.65x this
MAX_CHAIN_BYTES = 1 << 28

# SNR points the seed key and the channel take: below -1000 dB the key of
# _trial_rng is negative, and above ~3,080 dB rho = 10^(snr/10) overflows
SNR_RANGE_DB = (-1000.0, 3000.0)


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
    if not cfg.snr_points:
        raise ConfigError("snr_points must be non-empty")
    lo, hi = SNR_RANGE_DB
    if not all(lo <= snr <= hi for snr in cfg.snr_points):  # also rejects NaN
        raise ConfigError(f"SNR points must lie in [{lo:g}, {hi:g}] dB, got {cfg.snr_points}")
    # the channel checks M and the LLR mode, which do not depend on the SNR
    bits_per_symbol = ChannelConfig(cfg.mod, cfg.snr_points[0], cfg.llr_mode).bits_per_symbol
    keys = [_snr_key(snr) for snr in cfg.snr_points]
    if len(set(keys)) < len(keys):
        raise ConfigError(f"SNR points {cfg.snr_points} repeat a value at 0.001 dB "
                          "resolution, and such points share one noise stream")
    count(cfg.stop.min_word_errors, "min_word_errors", 1, math.inf)
    count(cfg.stop.max_blocks, "max_blocks", 1, math.inf)
    count(cfg.master_seed, "master_seed", 0, math.inf)
    count(cfg.workers, "workers", 1, MAX_WORKERS)
    count(cfg.batch_size, "batch_size", 1, MAX_BATCH)
    # the code's own checks reject m outside 4..8 and SCC components too short
    code = _code(cfg.scheme, _component_m(cfg))
    w = code.w
    if cfg.scheme == "scc":
        count(cfg.scc.window, "scc window", 2)
        count(cfg.scc.iters, "scc iters", 1)
        count(cfg.scc.chain_blocks, "chain_blocks", 1, math.inf)
        most = MAX_CHAIN_BYTES // (w * code.info_cols + 10 * w * w)
        if cfg.scc.chain_blocks > most:
            raise ConfigError(f"chain_blocks must be <= {most} for {w}x{w} blocks (one "
                              f"chain's arrays take at most {MAX_CHAIN_BYTES >> 20} MiB), "
                              f"got {cfg.scc.chain_blocks}")
    # a block is w x w bits, sent in whole symbols of log2(M) bits each
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
    """Counts of one SNR point, streamed trial by trial. Per-block post-FEC
    bit errors are kept as moments: count blocks_run, sum post_fec_bit_errors
    and sum of squares post_sq_errors, so memory does not grow per block.
    `decoder` sums the decoder's counters over the blocks (the SABM ones
    are 0 under iBDD)."""

    snr_db: float
    blocks_run: int = 0
    pre_fec_bit_errors: int = 0
    post_fec_bit_errors: int = 0
    post_sq_errors: int = 0
    block_errors: int = 0
    decoder: DecodeStats = field(default_factory=DecodeStats)
    eta: float | None = None
    wall_seconds: float = 0.0
    info_bits: int = 0
    coded_bits: int = 0

    @property
    def ber_pre(self) -> float:
        return self.pre_fec_bit_errors / max(self.coded_bits, 1)

    @property
    def ber_post(self) -> float:
        return self.post_fec_bit_errors / max(self.info_bits, 1)


def _snr_key(snr_db: float) -> int:
    return int(round(snr_db * 1000)) + 1_000_000


def _trial_rng(master_seed: int, snr_db: float, trial: int):
    return np.random.default_rng(np.random.SeedSequence([master_seed, _snr_key(snr_db), trial]))


@lru_cache(maxsize=None)
def _code(scheme: str, m: int) -> PcCode | SccCode:
    """The scheme's code on the eBCH component of degree m, built once per
    process (pool workers inherit the codes built before they fork and
    build others on first use)."""
    return (PcCode if scheme == "pc" else SccCode)(build_code(m))


def _channel(cfg: SimConfig, snr_db: float, trial: int):
    """Draw, encode and send the blocks of one trial, a PC block or an SCC
    chain, on the trial's generator: the data first, then for each block
    its interleaver permutation (M > 2) and its noise. Returns the data,
    the blocks and their hard decisions as arrays with one entry per
    block, and what the decoder reads of the soft values: a PC block's
    LLR grid; for SCC SABM, per block the `block_marks` made as soon as
    it is demapped if the windows mark it (`newest_blocks`), else None;
    for SCC iBDD, None. A chain holds no LLR grid beyond its block's.

    2-PAM draws each block's noise into one (w, w) array of the trial,
    which one kernel call (`send_2pam`) turns into the block's LLR grid.
    4-PAM draws the permutation and sends `modulate_pam`'s symbols
    through `awgn_transmit`, numpy's draw of the noise and s x + z; then
    `demap_pam` writes the LLR grid and the hard decisions, its exact
    LLR's exp and log in numpy."""
    code = _code(cfg.scheme, _component_m(cfg))
    rng = _trial_rng(cfg.master_seed, snr_db, trial)
    if cfg.scheme == "pc":
        data = rng.integers(0, 2, (1, code.k, code.k), dtype=np.uint8)
        blocks = pc_encode(code, data[0])[None]
    else:
        data = rng.integers(0, 2, (cfg.scc.chain_blocks, code.w, code.info_cols),
                            dtype=np.uint8)
        blocks = scc_encode(code, data)
    chan = ChannelConfig(cfg.mod, snr_db, cfg.llr_mode)
    hard = np.empty(blocks.shape, dtype=np.uint8)
    marked = soft = None
    if cfg.scheme == "scc" and cfg.decoder == "sabm":
        marked, soft = set(newest_blocks(len(blocks), cfg.scc.window)), [None] * len(blocks)
    noise = np.empty(blocks.shape[1:]) if chan.M == 2 else None
    for b, (tx, bits) in enumerate(zip(blocks, hard)):
        if noise is not None:
            grid = send_2pam(tx, rng.standard_normal(out=noise), bits, chan.sqrt_rho)
        else:
            il = make_interleaver(tx.size, rng)
            y = awgn_transmit(modulate_pam(tx, il, chan), chan, rng)
            grid = demap_pam(y, il, bits, chan)
        if cfg.scheme == "pc":
            soft = grid
        elif marked is not None and b in marked:
            soft[b] = block_marks(code, grid, cfg.sabm)
    return data, blocks, hard, soft


# most trials in one task: a task runs whole once it has started, so this
# bounds how long a pooled task runs on after its point is cancelled or
# interrupted, whatever the batch size
MAX_SHARE = 64


def _trials(cfg: SimConfig, snr_db: float, first: int, count: int):
    """Monte Carlo trials first..first+count-1, each a PC block or an SCC
    chain on its own generator, decoded as soon as it is drawn. Returns
    their pre-FEC bit errors, an array of the post-FEC bit errors of each
    of their blocks, and the DecodeStats summed over them."""
    code = _code(cfg.scheme, _component_m(cfg))
    stats, pre, post = DecodeStats(), 0, []
    for trial in range(first, first + count):
        data, blocks, hard, soft = _channel(cfg, snr_db, trial)
        pre += int((hard != blocks).sum())
        if cfg.scheme == "scc":
            decoded, st = decode_chain(code, hard, soft, cfg.sabm, cfg.scc.window,
                                       cfg.scc.iters)
        elif cfg.decoder == "sabm":
            decoded, st = sabm_decode(code, hard[0], soft, cfg.sabm)
        else:
            decoded, st = ibdd_decode(code, hard[0], cfg.sabm.total_iters)
        rows, cols = data.shape[1:]
        post.extend(np.count_nonzero(bits[:rows, :cols] != sent)
                    for bits, sent in zip(decoded.reshape(blocks.shape), data))
        stats += st
    return pre, np.array(post, dtype=np.int64), stats


def _run_now(fn, *args) -> Future:
    """A pool's submit for a point without a pool: runs the share at once."""
    future = Future()
    future.set_result(fn(*args))
    return future


def run_point(cfg: SimConfig, snr_db: float, _pool=None) -> BerStats:
    """Trials at one SNR point until the stopping rule holds, all in the
    calling process whatever cfg.workers is: only `run_sweep` passes a pool."""
    validate_config(cfg)
    code = _code(cfg.scheme, _component_m(cfg))
    stats = BerStats(snr_db=snr_db)
    t0 = time.perf_counter()
    stop = cfg.stop

    def running() -> bool:  # the stopping rule, read at a batch boundary
        return stats.block_errors < stop.min_word_errors and stats.blocks_run < stop.max_blocks

    def add(pre, post, st):
        stats.blocks_run += post.size
        stats.pre_fec_bit_errors += pre
        stats.post_fec_bit_errors += int(post.sum())
        stats.post_sq_errors += int(post @ post)
        stats.block_errors += int(np.count_nonzero(post))
        stats.decoder += st

    # one task per worker share of a batch (split in tasks of MAX_SHARE
    # trials at most): the task at offset lo of a batch runs n trials
    share = min(math.ceil(cfg.batch_size / cfg.workers), MAX_SHARE)
    offsets = range(0, cfg.batch_size, share)
    counts = [min(share, cfg.batch_size - lo) for lo in offsets]
    # results are read in trial order. The next batch is queued before the
    # one in flight is read when that batch, which adds batch_blocks blocks
    # and at most as many block errors, cannot meet the stopping rule: then
    # the point runs the next batch anyway
    batch_blocks = cfg.batch_size * (cfg.scc.chain_blocks if cfg.scheme == "scc" else 1)
    queued, next_first = deque(), 0
    run_share = _run_now if _pool is None else _pool.submit

    def submit():
        nonlocal next_first
        queued.extend(run_share(_trials, cfg, snr_db, next_first + lo, n)
                      for lo, n in zip(offsets, counts))
        next_first += cfg.batch_size

    try:
        while queued or running():
            if not queued:
                submit()
            if (stats.blocks_run + batch_blocks < stop.max_blocks
                    and stats.block_errors + batch_blocks < stop.min_word_errors):
                submit()
            for _ in counts:
                add(*queued[0].result())
                queued.popleft()
    finally:
        # on an error, no queued share of this point may run later
        for future in queued:
            future.cancel()
    info_bits = code.k * code.k if cfg.scheme == "pc" else code.w * code.info_cols
    stats.info_bits = info_bits * stats.blocks_run
    stats.coded_bits = code.w * code.w * stats.blocks_run
    if cfg.scheme == "scc":
        scc = cfg.scc
        per_chain = baseline_calls(code, scc.chain_blocks, scc.window, scc.iters)
        stats.eta = eta(stats.decoder.bdd_calls,
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
    calls_avg = st.decoder.bdd_calls / max(st.blocks_run, 1)
    return [cfg.scheme, str(cfg.mod), cfg.decoder, cfg.llr_mode,
            _fmt(float(st.snr_db)), str(st.blocks_run), _fmt(st.ber_pre),
            _fmt(st.ber_post), str(st.block_errors), _fmt(calls_avg),
            _fmt(st.eta), str(cfg.master_seed), _fmt(st.wall_seconds)]


# the worker pool this process keeps, with the key it was started for and
# the bindings it forked with; changed in place, so it rebinds no name here
_KEPT = {}
# the process that imported this module: the only one that keeps its pool
_HOME_PID = os.getpid()


def _bindings() -> tuple:
    """The object every name of feclab's modules is bound to now, which
    workers forked now would run."""
    return tuple(value for name, module in list(sys.modules.items())
                 if name.partition(".")[0] == __package__
                 for value in vars(module).values())


def _ignore_sigint() -> None:
    """Start of a pool worker: only the caller handles a Ctrl-C."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _worker_pool(workers: int) -> tuple[ProcessPoolExecutor, bool]:
    """The pool of `workers` workers that this process keeps, started if
    there is none for this count and these bindings; and whether an
    earlier sweep started it."""
    bindings = _bindings()
    # ids compare as identities, as the kept bindings keep their objects alive
    key = (os.getpid(), workers, tuple(map(id, bindings)))
    if _KEPT.get("key") == key:
        return _KEPT["pool"], True
    _drop_pool()
    _KEPT.update(key=key, bindings=bindings,
                 pool=ProcessPoolExecutor(max_workers=workers, initializer=_ignore_sigint))
    return _KEPT["pool"], False


def _drop_pool() -> None:
    """Forget the kept pool, shutting it down if this process owns it: a
    pool inherited through fork belongs to the process that started it."""
    if _KEPT and _KEPT["key"][0] == os.getpid():
        _KEPT["pool"].shutdown()
    _KEPT.clear()


def run_sweep(cfg: SimConfig, out=None) -> list[BerStats]:
    """Run every SNR point in order, flushing CSV rows as they complete.
    With workers > 1 the points run on the process's kept pool, which this
    sweep may replace: do not run pooled sweeps in several threads at once."""
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
    pool, kept = None, False
    try:
        if cfg.workers > 1:
            pool, kept = _worker_pool(cfg.workers)
        for snr in cfg.snr_points:
            try:
                st = run_point(cfg, snr, _pool=pool)
            except BrokenProcessPool:
                # a worker died. A pool this sweep started fails the sweep;
                # one kept from an earlier sweep (it may have broken then)
                # is replaced, and the point runs again on the fresh pool
                if not kept:
                    raise
                _drop_pool()
                pool, kept = _worker_pool(cfg.workers)
                st = run_point(cfg, snr, _pool=pool)
            results.append(st)
            writer.writerow(stats_row(cfg, st))
            out.flush()
    finally:
        # a child process keeps no pool: a multiprocessing child joins its
        # children at exit before a pool's own exit hook could stop them,
        # and a child of a plain os.fork may leave by os._exit
        if pool is not None and (os.getpid() != _HOME_PID
                                 or multiprocessing.parent_process() is not None):
            _drop_pool()
        if close_out:
            out.close()
    return results


@dataclass
class MaskStats:
    per_block_counts: list


def validate_mask(cfg: SimConfig, num_blocks: int) -> None:
    if cfg.scheme != "pc":
        raise ConfigError("mask statistics are defined for the pc scheme")
    if num_blocks < 1:
        raise ConfigError(f"mask statistics need at least one block, got {num_blocks}")
    validate_config(cfg)


def mask_blocks(cfg: SimConfig, snr_db: float, num_blocks: int):
    """The non-HRB mask (|llr| <= delta) of each of num_blocks PC blocks at
    snr_db, drawn one at a time as the trials draw them. The config is
    checked before the first block is drawn."""
    validate_mask(replace(cfg, snr_points=(snr_db,)), num_blocks)
    for trial in range(num_blocks):
        yield np.abs(_channel(cfg, snr_db, trial)[3]) <= cfg.sabm.delta


def mask_stats(cfg: SimConfig, snr_db: float, num_blocks: int) -> MaskStats:
    """The non-HRB count of each of num_blocks PC blocks at snr_db."""
    return MaskStats([int(mask.sum()) for mask in mask_blocks(cfg, snr_db, num_blocks)])


def render_mask(mask: np.ndarray) -> str:
    """Text grid of non-HRB positions: '#' unmarked-as-HRB, '.' HRB."""
    return "\n".join("".join("#" if m else "." for m in row) for row in mask)
