"""Monte Carlo driver: determinism, CSV contract, mask stats, CLI."""

import csv
import io
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from multiprocessing.connection import wait
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from feclab import cli
from feclab.cli import build_parser, config_from_args, main
from feclab.errors import ConfigError
from feclab import sim
from feclab.pc import DecodeStats, MarkState, SabmParams, sabm_decode
from feclab.scc import newest_blocks
from feclab.sim import (
    CSV_COLUMNS,
    SccRunParams,
    SimConfig,
    StopRule,
    mask_stats,
    render_mask,
    run_point,
    run_sweep,
    stats_row,
    validate_config,
)

from reference import analytic_non_hrb_probability


def small_pc_cfg(**over):
    base = dict(scheme="pc", mod=2, snr_points=(5.0,), decoder="ibdd",
                llr_mode="exact", stop=StopRule(min_word_errors=4,
                                                max_blocks=24),
                master_seed=7, component_m=5, record_timing=False,
                batch_size=8)
    base.update(over)
    return SimConfig(**base)


def small_scc_cfg(**over):
    base = dict(scheme="scc", mod=2, snr_points=(5.0,), decoder="ibdd",
                llr_mode="exact", stop=StopRule(min_word_errors=2,
                                                max_blocks=6),
                scc=SccRunParams(window=3, iters=2, chain_blocks=4),
                master_seed=7, component_m=5, record_timing=False,
                batch_size=2)
    base.update(over)
    return SimConfig(**base)


def sweep_csv(cfg) -> str:
    buf = io.StringIO()
    run_sweep(cfg, out=buf)
    return buf.getvalue()


# ------------------------------------------------------------- validation

def test_validate_rejects_empty_snr():
    with pytest.raises(ConfigError):
        validate_config(small_pc_cfg(snr_points=()))


def test_validate_rejects_bad_fields():
    with pytest.raises(ConfigError):
        validate_config(small_pc_cfg(scheme="turbo"))
    with pytest.raises(ConfigError):
        validate_config(small_pc_cfg(mod=3))
    with pytest.raises(ConfigError):
        validate_config(small_pc_cfg(decoder="viterbi"))
    with pytest.raises(ConfigError):
        validate_config(small_pc_cfg(workers=0))
    with pytest.raises(ConfigError):
        validate_config(small_pc_cfg(workers=sim.MAX_WORKERS + 1))
    validate_config(small_pc_cfg(workers=sim.MAX_WORKERS))
    with pytest.raises(ConfigError):
        validate_config(small_pc_cfg(batch_size=sim.MAX_BATCH + 1))
    validate_config(small_pc_cfg(batch_size=sim.MAX_BATCH))


def test_scc_counts_must_be_integers():
    # a float window or iteration count is refused before a chain runs; a
    # numpy integer runs as the int
    for scc in (SccRunParams(window=3.0, iters=2, chain_blocks=4),
                SccRunParams(window=3, iters=2.0, chain_blocks=4)):
        with pytest.raises(ConfigError, match="must be an integer"):
            run_sweep(small_scc_cfg(scc=scc), out=io.StringIO())
    numpy_counts = SccRunParams(window=np.int64(3), iters=np.int64(2), chain_blocks=4)
    assert sweep_csv(small_scc_cfg(scc=numpy_counts)) == sweep_csv(small_scc_cfg())


@pytest.mark.parametrize("field, value", [
    ("batch_size", 2.5), ("workers", 2.0), ("master_seed", 1.5), ("chain_blocks", 2.5),
    ("max_blocks", 4.5), ("min_word_errors", 1.5)])
def test_config_counts_must_be_integers(field, value, monkeypatch):
    # through the Python API, a float count is refused, naming its field,
    # before a trial runs; a numpy integer runs as the int
    monkeypatch.setattr(sim, "_trials", lambda *args: pytest.fail("a trial ran"))
    part = {"chain_blocks": "scc", "max_blocks": "stop", "min_word_errors": "stop"}.get(field)

    def config(count):
        cfg = small_scc_cfg()
        if part is None:
            return replace(cfg, **{field: count})
        return replace(cfg, **{part: replace(getattr(cfg, part), **{field: count})})

    with pytest.raises(ConfigError, match=rf"^{field} must be an integer, got {value}$"):
        run_sweep(config(value), out=io.StringIO())
    validate_config(config(np.int64(value)))


def test_chain_blocks_bound_follows_the_block_size():
    # one chain's data, code blocks, hard grids and float64 LLR grids take
    # at most MAX_CHAIN_BYTES: 128x128 blocks at m = 8, 16x16 at m = 5
    for m, w, info_cols in ((8, 128, 111), (5, 16, 5)):
        most = sim.MAX_CHAIN_BYTES // (w * info_cols + 10 * w * w)
        cfg = small_scc_cfg(component_m=m, scc=SccRunParams(window=3, iters=2,
                                                            chain_blocks=most))
        validate_config(cfg)
        with pytest.raises(ConfigError, match=f"<= {most} for {w}x{w} blocks"):
            validate_config(replace(cfg, scc=replace(cfg.scc, chain_blocks=most + 1)))


# -------------------------------------------------------------- run_point

def test_run_point_clean_at_high_snr():
    st = run_point(small_pc_cfg(snr_points=(60.0,)), 60.0)
    assert st.ber_pre == 0.0
    assert st.ber_post == 0.0
    assert st.block_errors == 0
    assert st.blocks_run == 24  # stop rule never met, hits max_blocks


def test_run_point_deterministic():
    cfg = small_pc_cfg()
    a = run_point(cfg, 5.0)
    b = run_point(cfg, 5.0)
    assert a.ber_post == b.ber_post
    assert a.ber_pre == b.ber_pre
    assert a.blocks_run == b.blocks_run
    assert a == b


def test_run_point_noisy_has_pre_fec_errors():
    st = run_point(small_pc_cfg(), 5.0)
    assert st.ber_pre > 0.0
    assert st.blocks_run >= 8


def test_scc_point_populates_eta():
    st = run_point(small_scc_cfg(), 5.0)
    assert st.eta is not None
    assert st.eta >= 0.0
    pc = run_point(small_pc_cfg(), 5.0)
    assert pc.eta is None


@pytest.mark.parametrize("window", [2, 3, 5, 8])
def test_channel_keeps_the_marks_of_the_marked_blocks_only(window):
    # an SCC SABM chain holds the marks of the blocks that the windows mark
    # and no LLR grid; SCC iBDD holds nothing soft; a PC block its LLR grid
    cfg = small_scc_cfg(decoder="sabm", scc=SccRunParams(window=window, iters=2,
                                                         chain_blocks=6))
    _, blocks, hard, marks = sim._channel(cfg, 4.0, 1)
    marked = set(newest_blocks(6, window))
    assert [isinstance(m, MarkState) for m in marks] == [b in marked for b in range(6)]
    plain = sim._channel(replace(cfg, decoder="ibdd"), 4.0, 1)
    assert np.array_equal(plain[2], hard) and plain[3] is None
    assert hard.dtype == np.uint8 and hard.shape == blocks.shape
    _, block, hard, llr = sim._channel(small_pc_cfg(), 4.0, 1)
    assert llr.shape == block.shape[1:] and np.array_equal(hard[0], llr < 0)


def test_scc_sabm_trial_memory_is_bounded():
    # one default chain (12 blocks of 128 x 128, window 5, m = 8) holds its
    # marks, not its LLR grids, and the kernel builds its syndromes from the
    # bits in place: 1.45 MiB traced, where a float32 copy of the bits would
    # add ~1 MiB, and grids and word copies ~3 MiB
    cfg = SimConfig(scheme="scc", decoder="sabm", snr_points=(7.2,), component_m=8,
                    scc=SccRunParams(window=5, chain_blocks=12))
    sim._trials(cfg, 7.2, 0, 1)  # builds the code tables and the layout
    tracemalloc.start()
    try:
        sim._trials(cfg, 7.2, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * 2**20


@pytest.mark.parametrize("scheme", ["pc", "scc"])
def test_a_2pam_trial_sends_through_the_kernel_alone(scheme, monkeypatch):
    # a 2-PAM block's modulate, noise addition, demap and hard decision are
    # one kernel call; numpy's channel layers serve 4-PAM only
    cfg = SimConfig(scheme=scheme, decoder="sabm", snr_points=(4.5,), component_m=5,
                    scc=SccRunParams(chain_blocks=3))
    want = sim._trials(cfg, 4.5, 0, 2)

    def numpy_layer(*args):
        raise AssertionError("a 2-PAM trial called a numpy channel layer")

    for name in ("modulate", "awgn_transmit", "demap_llr", "interleave", "make_interleaver"):
        monkeypatch.setattr(sim, name, numpy_layer)
    got = sim._trials(cfg, 4.5, 0, 2)
    assert got[0] == want[0] and np.array_equal(got[1], want[1]) and got[2] == want[2]


def test_sabm_counters_sum_per_trial_decodes():
    cfg = small_pc_cfg(decoder="sabm", snr_points=(4.5,), workers=2,
                       stop=StopRule(min_word_errors=10 ** 9, max_blocks=16))
    st = run_point(cfg, 4.5)
    code = sim._code("pc", 5)
    total = DecodeStats()
    for trial in range(st.blocks_run):
        _, _, hard, llr = sim._channel(cfg, 4.5, trial)
        total += sabm_decode(code, hard[0], llr, cfg.sabm)[1]
    assert total.miscorrections_detected > 0 and total.flips_accepted > 0
    assert st.decoder == total


# per trial path: its config, at an SNR where some blocks keep errors
SHARE_PATHS = {
    ("pc", "ibdd"): small_pc_cfg(snr_points=(3.0,)),
    ("pc", "sabm"): small_pc_cfg(decoder="sabm", snr_points=(2.5,)),
    ("scc", "ibdd"): small_scc_cfg(snr_points=(3.5,)),
    ("scc", "sabm"): small_scc_cfg(decoder="sabm", snr_points=(3.5,)),
}
SHARES = pytest.mark.parametrize("workers, batch_size, max_share",
                                 [(1, 24, 64), (2, 8, 64), (3, 8, 64), (5, 3, 64), (1, 24, 5)])


@pytest.mark.parametrize("path", list(SHARE_PATHS), ids="-".join)
@SHARES
def test_other_paths_stats_do_not_depend_on_the_shares(path, workers, batch_size, max_share,
                                                       monkeypatch):
    # 24 trials of a path in shares of any size, uneven ones too, give the
    # whole BerStats of batches of one trial, the decoder counters included
    cfg = SHARE_PATHS[path]
    snr = cfg.snr_points[0]
    blocks = 24 * (cfg.scc.chain_blocks if path[0] == "scc" else 1)
    cfg = replace(cfg, stop=StopRule(min_word_errors=10 ** 9, max_blocks=blocks))
    want = run_point(replace(cfg, batch_size=1), snr)
    assert 0 < want.block_errors < want.blocks_run == blocks
    assert (want.decoder.flips_accepted > 0) == (path[1] == "sabm")
    monkeypatch.setattr(sim, "MAX_SHARE", max_share)
    assert run_point(replace(cfg, workers=workers, batch_size=batch_size), snr) == want


# ------------------------------------------------------ pipelined batches

class RecordingPool:
    """A thread pool that logs, in order, each task submitted, as
    ("submit", first, count), and each result read, as ("read", first)."""

    def __init__(self, workers: int):
        self.pool = ThreadPoolExecutor(workers)
        self.log, self.futures = [], []

    def submit(self, fn, cfg, snr_db, first, count):
        self.log.append(("submit", first, count))
        self.futures.append(self.pool.submit(fn, cfg, snr_db, first, count))
        return LoggedFuture(self.futures[-1], self.log, first)

    def tasks(self, kind: str) -> list:
        return [entry[1:] for entry in self.log if entry[0] == kind]


class LoggedFuture:
    def __init__(self, future, log, first):
        self.future, self.log, self.first = future, log, first

    def result(self):
        result = self.future.result()
        self.log.append(("read", self.first))
        return result

    def cancel(self):
        return self.future.cancel()


def serial_tasks(cfg, snr, monkeypatch):
    """The BerStats of a point run without a pool, and its (first, count) tasks."""
    tasks, trials = [], sim._trials
    monkeypatch.setattr(sim, "_trials", lambda cfg, snr, first, count: (
        tasks.append((first, count)) or trials(cfg, snr, first, count)))
    stats = run_point(cfg, snr)
    monkeypatch.setattr(sim, "_trials", trials)
    return stats, tasks


PIPELINES = {
    # 18 is not a whole number of batches: the fifth batch runs, no sixth
    "max_blocks": small_pc_cfg(snr_points=(60.0,), workers=2, batch_size=4,
                               stop=StopRule(min_word_errors=10 ** 9, max_blocks=18)),
    # the batches in flight may end the point once 6 blocks are in error
    "min_errors": small_pc_cfg(snr_points=(3.0,), workers=2, batch_size=4,
                               stop=StopRule(min_word_errors=10, max_blocks=10 ** 6)),
    # the third batch reaches max_blocks exactly: no fourth is queued
    "uneven_shares": small_pc_cfg(workers=3, batch_size=8,
                                  stop=StopRule(min_word_errors=10 ** 9, max_blocks=24)),
    # a batch of 2 chains is 8 blocks
    "chains": small_scc_cfg(workers=2, batch_size=2,
                            stop=StopRule(min_word_errors=10 ** 9, max_blocks=20)),
}


@pytest.mark.parametrize("case", sorted(PIPELINES))
def test_pooled_point_submits_the_serial_tasks_ahead(case, monkeypatch):
    cfg = PIPELINES[case]
    snr = cfg.snr_points[0]
    want, tasks = serial_tasks(cfg, snr, monkeypatch)
    if case == "min_errors":
        assert 10 <= want.block_errors and want.blocks_run < 10 ** 6
    pool = RecordingPool(2)
    try:
        assert run_point(cfg, snr, _pool=pool) == want
    finally:
        pool.pool.shutdown()
    assert pool.tasks("submit") == tasks
    assert pool.tasks("read") == [(first,) for first, _ in tasks]
    # the second batch was queued before the first result was read
    per_batch = sum(first < cfg.batch_size for first, _ in tasks)
    assert pool.log.index(("read", 0)) == 2 * per_batch


def test_pooled_point_cancels_its_queued_shares_on_an_error(monkeypatch):
    # the share of trials 0-1 raises; the pool's one thread then blocks in
    # at most one of the three shares queued behind it, and the others
    # must never start
    cfg = small_pc_cfg(workers=2, batch_size=4,
                       stop=StopRule(min_word_errors=10 ** 9, max_blocks=16))
    release, trials = threading.Event(), sim._trials

    def failing(cfg, snr, first, count):
        if first == 0:
            raise RuntimeError("share failed")
        release.wait(10)
        return trials(cfg, snr, first, count)

    monkeypatch.setattr(sim, "_trials", failing)
    pool = RecordingPool(1)
    try:
        with pytest.raises(RuntimeError, match="share failed"):
            run_point(cfg, 5.0, _pool=pool)
        assert pool.tasks("submit") == [(0, 2), (2, 2), (4, 2), (6, 2)]
        assert all(f.running() or f.done() for f in pool.futures)  # none still queued
        assert sum(f.cancelled() for f in pool.futures[1:]) >= 2
    finally:
        release.set()
        pool.pool.shutdown()
    assert all(f.done() for f in pool.futures)


# each sweep has a point that stops by min_word_errors after a few batches
@pytest.mark.parametrize("argv", [
    "pc --mod 4 --component-m 5 --snr 9,10 --decoder ibdd --min-errors 10 --max-blocks 96 "
    "--batch-size 16",
    "scc --component-m 5 --chain-blocks 2 --window 3 --scc-iters 2 --snr 2.5,3.5 "
    "--decoder sabm --min-errors 40 --max-blocks 192 --batch-size 16",
    "scc --component-m 5 --chain-blocks 2 --window 3 --scc-iters 2 --snr 2.5,3.5 "
    "--decoder ibdd --min-errors 40 --max-blocks 192 --batch-size 16",
    *[f"pc --component-m 5 --snr {snr} --decoder {decoder} --min-errors 10 --max-blocks 96 "
      f"--batch-size {batch}" for decoder, snr in (("ibdd", "3,4"), ("sabm", "2,3"))
      for batch in (1, 16)],
], ids=["pc_ibdd_4pam", "scc_sabm", "scc_ibdd", "pc_ibdd_2pam_b1", "pc_ibdd_2pam_b16",
        "pc_sabm_2pam_b1", "pc_sabm_2pam_b16"])
def test_cli_csv_is_the_same_at_any_worker_count(argv, capsys):
    texts = []
    for workers in (1, 2, 3):
        assert main(argv.split() + ["--no-timing", "--seed", "3",
                                    "--workers", str(workers)]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] == texts[2]
    args = argv.split()
    min_errors = int(args[args.index("--min-errors") + 1])
    assert any(int(row.split(",")[8]) >= min_errors for row in texts[0].splitlines()[1:])


# ------------------------------------------------------------- CSV output

def test_sweep_csv_shape_and_header():
    cfg = small_pc_cfg(snr_points=(5.0, 6.0))
    rows = list(csv.reader(io.StringIO(sweep_csv(cfg))))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[0] == "pc"
        assert row[3] == "exact"
        assert row[CSV_COLUMNS.index("eta")] == ""
        assert row[CSV_COLUMNS.index("wall_seconds")] == "0"


def test_sweep_csv_byte_identical():
    cfg = small_pc_cfg(snr_points=(5.0, 6.0))
    assert sweep_csv(cfg) == sweep_csv(cfg)


def test_sweep_csv_worker_invariant():
    text1 = sweep_csv(small_pc_cfg())
    text3 = sweep_csv(small_pc_cfg(workers=3))
    assert text1 == text3


# ------------------------------------------------------------ worker pool

def pool_pids() -> list[int]:
    """Pids of this process's live multiprocessing children: the workers of
    its kept pool."""
    return sorted(p.pid for p in multiprocessing.active_children())


def gone(pid: int, timeout: float = 10.0) -> bool:
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


def kill_all(pids):
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


@pytest.fixture
def refuse_big_pools(monkeypatch):
    """Fail, instead of forking, a pool of more than 3 workers: a value that
    validation should reject must never start its processes."""
    start = sim.ProcessPoolExecutor

    def capped(max_workers, **kwargs):
        assert max_workers <= 3, f"a pool of {max_workers} workers was started"
        return start(max_workers, **kwargs)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", capped)


def test_pool_serves_later_sweeps_of_its_worker_count():
    # SABM sweeps in this process, before and between the pooled ones,
    # decode here: loading the kernel rebinds no name of feclab, so the
    # kept pool stays
    sabm = sweep_csv(small_pc_cfg(decoder="sabm"))
    want = sweep_csv(small_pc_cfg())
    cfg = small_pc_cfg(workers=2)
    first = sweep_csv(cfg)
    pids = pool_pids()
    assert len(pids) == 2
    assert sweep_csv(replace(cfg, snr_points=(5.0, 6.0)))  # another sweep between
    assert sweep_csv(small_pc_cfg(decoder="sabm")) == sabm
    assert sweep_csv(cfg) == first == want
    assert sweep_csv(replace(cfg, decoder="sabm")) == sabm
    assert pool_pids() == pids


def test_pool_workers_ignore_sigint():
    # a Ctrl-C reaches every process of the group; an idle worker that took
    # it as a KeyboardInterrupt would print a traceback and die
    cfg = small_pc_cfg(workers=2)
    want = sweep_csv(cfg)
    pids = pool_pids()
    os.kill(pids[0], signal.SIGINT)
    assert not gone(pids[0], timeout=1.0)
    assert sweep_csv(cfg) == want and pool_pids() == pids


def test_pool_follows_a_rebinding_in_feclab(monkeypatch):
    # workers run the code the caller sees: a sweep after a monkeypatch of
    # a feclab name starts workers that run the patched code
    cfg = small_pc_cfg(workers=2)
    want = sweep_csv(cfg)
    send = sim.send_2pam
    monkeypatch.setattr(sim, "send_2pam",
                        lambda bits, noise, hard, s: send(bits, noise + 0.5, hard, s))
    assert sweep_csv(cfg) == sweep_csv(replace(cfg, workers=1)) != want


def test_process_with_a_pool_exits_and_takes_its_workers():
    # the workers of a pool kept to the end stop when their process exits
    script = ("import multiprocessing\n"
              "from feclab.sim import *\n"
              f"run_sweep({small_pc_cfg(workers=2)!r})\n"
              "print(*(p.pid for p in multiprocessing.active_children()), flush=True)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(sim.__file__).parents[1])}
    try:
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
    except subprocess.TimeoutExpired as exc:
        kill_all(int(pid) for pid in (exc.stdout or b"").split())
        raise
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 2
    assert all(gone(pid) for pid in pids)


def _sweep_in_child(cfg, conn):
    conn.send(sweep_csv(cfg))
    conn.send(pool_pids())


def test_forked_child_of_a_pool_holder_runs_a_pooled_sweep_and_exits():
    # a multiprocessing child joins its children at exit, so it keeps no
    # pool; the pool it inherited belongs to this process and stays intact
    cfg = small_pc_cfg(workers=2)
    want = sweep_csv(cfg)
    pids = pool_pids()
    recv, send = multiprocessing.get_context("fork").Pipe(duplex=False)
    child = multiprocessing.get_context("fork").Process(target=_sweep_in_child,
                                                         args=(cfg, send))
    child.start()
    got = recv.recv() if recv.poll(120) else None
    left = recv.recv() if recv.poll(5) else None  # the child's workers after its sweep
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
        kill_all(left or [])
    assert got == want
    assert left == [] and child.exitcode == 0
    assert pool_pids() == pids
    assert sweep_csv(cfg) == want and pool_pids() == pids


def test_child_of_a_plain_fork_keeps_no_pool():
    # a child of os.fork may leave by os._exit, which stops no pool, so
    # its sweep shuts its own workers down; the inherited pool stays intact
    cfg = small_pc_cfg(workers=2)
    want = sweep_csv(cfg)
    pids = pool_pids()
    recv, send = os.pipe()
    child = os.fork()
    if child == 0:
        try:
            same = sweep_csv(cfg) == want
            new = [pid for pid in pool_pids() if pid not in pids]
            os.write(send, repr((same, new, bool(sim._KEPT))).encode())
            kill_all(new)
        finally:
            os._exit(0)
    os.close(send)
    with os.fdopen(recv) as report:
        got = report.read() if select.select([report], [], [], 120)[0] else None
    end = time.monotonic() + 60
    while os.waitpid(child, os.WNOHANG) == (0, 0) and time.monotonic() < end:
        time.sleep(0.05)
    assert got == repr((True, [], False))
    assert pool_pids() == pids
    assert sweep_csv(cfg) == want and pool_pids() == pids


def test_sweep_after_a_worker_died_runs_on_a_fresh_pool():
    want = sweep_csv(small_pc_cfg())
    cfg = small_pc_cfg(workers=2)
    assert sweep_csv(cfg) == want
    victim, *_ = multiprocessing.active_children()
    old = pool_pids()
    victim.kill()
    assert wait([victim.sentinel], timeout=30)
    assert sweep_csv(cfg) == want
    new = pool_pids()
    assert len(new) == 2 and not set(new) & set(old)
    assert sweep_csv(cfg) == want and pool_pids() == new


def test_scc_sweep_eta_column_populated():
    rows = list(csv.reader(io.StringIO(sweep_csv(small_scc_cfg()))))
    val = rows[1][CSV_COLUMNS.index("eta")]
    assert val != ""
    assert float(val) >= 0.0


def test_stats_row_number_formatting():
    cfg = small_pc_cfg()
    st = run_point(cfg, 5.0)
    row = stats_row(cfg, st)
    ber = row[CSV_COLUMNS.index("ber_post")]
    # six significant digits, no excess precision
    assert ber == f"{st.ber_post:.6g}"
    assert row[CSV_COLUMNS.index("snr_db")] == "5"


# ------------------------------------------------------------- mask stats

def test_analytic_non_hrb_probability_degenerate():
    assert analytic_non_hrb_probability(6.2, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert analytic_non_hrb_probability(6.2, np.inf) == pytest.approx(1.0)


def test_analytic_non_hrb_monotone_in_snr():
    p_low = analytic_non_hrb_probability(5.8, 5.0)
    p_high = analytic_non_hrb_probability(6.2, 5.0)
    assert p_low > p_high > 0.0


def test_mask_stats_matches_analytic():
    cfg = small_pc_cfg(component_m=7, decoder="sabm")
    counts = mask_stats(cfg, 6.2, num_blocks=40).per_block_counts
    n = 128 * 128
    p = analytic_non_hrb_probability(6.2, cfg.sabm.delta)
    mean = sum(counts) / 40
    assert mean == pytest.approx(n * p, rel=0.05)
    assert mean / n == pytest.approx(p, rel=0.05)
    assert len(counts) == 40
    # each count is the sum of its block's mask, a whole w x w grid
    masks = list(sim.mask_blocks(cfg, 6.2, 40))
    assert masks[0].shape == (128, 128)
    assert counts == [int(mask.sum()) for mask in masks]


def test_mask_stats_delta_zero_marks_nothing():
    cfg = small_pc_cfg(component_m=5, sabm=SabmParams(delta=0.0))
    ms = mask_stats(cfg, 6.2, num_blocks=5)
    assert ms.per_block_counts == [0] * 5


def test_only_a_trial_loads_the_kernel():
    # in a fresh interpreter: importing feclab and checking a config (which
    # builds the code) load no kernel, so set-up never pays for it; the
    # first trial's encoder loads it, here one of the mask statistics, and
    # that rebinds no name of feclab's modules, which key the kept pool
    code = """
import sys
from feclab import kernel, sim
from feclab.sim import SimConfig, StopRule
loaded = kernel._load.cache_info
cfg = SimConfig(scheme="pc", decoder="sabm", snr_points=(6.0,), component_m=5,
                stop=StopRule(min_word_errors=1, max_blocks=2), batch_size=2)
sim.validate_config(cfg)
assert loaded().currsize == 0, "loaded before a trial"
before = [id(v) for v in sim._bindings()]
assert sum(mask.sum() for mask in sim.mask_blocks(cfg, 6.0, 3)) > 0
assert loaded().currsize == 1, "not loaded by a trial"
sim.run_sweep(cfg)
assert loaded().currsize == 1
assert [id(v) for v in sim._bindings()] == before, "a name was rebound"
print("ok")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "ok\n"


def test_render_mask():
    grid = np.array([[True, False], [False, True]])
    assert render_mask(grid) == "#.\n.#"


# -------------------------------------------------------------------- CLI

def test_cli_pc_sweep(tmp_path):
    out = tmp_path / "pc.csv"
    rc = main(["pc", "--snr", "5.0", "--component-m", "5", "--min-errors",
               "2", "--max-blocks", "8", "--seed", "3", "--no-timing",
               "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 2
    assert rows[1][0] == "pc"


def test_cli_scc_sweep(tmp_path):
    out = tmp_path / "scc.csv"
    rc = main(["scc", "--snr", "5.0", "--component-m", "5", "--decoder",
               "sabm", "--min-errors", "1", "--max-blocks", "4",
               "--chain-blocks", "4", "--window", "3", "--scc-iters", "2",
               "--seed", "3", "--no-timing", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[1][0] == "scc"
    assert rows[1][CSV_COLUMNS.index("eta")] != ""


def test_cli_config_file_with_override(tmp_path):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(yaml.safe_dump({
        "mod": 2, "snr": [5.0], "component_m": 5, "min_errors": 2,
        "max_blocks": 8, "seed": 3, "record_timing": False,
    }))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["pc", "--config", str(cfgfile), "--out", str(out1)]) == 0
    # CLI flag overrides the file value
    assert main(["pc", "--config", str(cfgfile), "--seed", "4",
                 "--out", str(out2)]) == 0
    a, b = out1.read_text(), out2.read_text()
    assert a != b
    assert csv.DictReader(io.StringIO(a)).__next__()["seed"] == "3"
    assert csv.DictReader(io.StringIO(b)).__next__()["seed"] == "4"


def test_cli_mask(tmp_path):
    out = tmp_path / "mask.csv"
    inset = tmp_path / "inset.txt"
    rc = main(["mask", "--snr", "6.2", "--component-m", "5", "--blocks", "10",
               "--seed", "2", "--out", str(out), "--inset", str(inset)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 11  # header + one row per block
    grid = inset.read_text().strip("\n").split("\n")
    assert len(grid) == 32
    assert set("".join(grid)) <= {".", "#"}


def test_cli_mask_writes_each_row_before_it_draws_the_next_block(monkeypatch, capsys):
    # the rows stream from one block at a time: none is held until a point
    # ends. Before it draws block t of point k, the CLI has written the
    # header and the rows of every block before it
    out = io.StringIO()
    drawn = []
    channel = sim._channel

    def counted(cfg, snr_db, trial):
        drawn.append(out.getvalue().count("\n"))
        return channel(cfg, snr_db, trial)

    monkeypatch.setattr(sim, "_channel", counted)
    monkeypatch.setattr(sys, "stdout", out)
    blocks = 6
    argv = ["mask", "--snr", "5.8,6.2", "--component-m", "5", "--blocks", str(blocks),
            "--seed", "4"]
    assert main(argv) == 0
    assert drawn == [1 + t for t in range(2 * blocks)]
    # the mean each point prints is np.mean's over mask_stats' counts, and
    # its ratio that mean over the w^2 = 1024 bits of a block
    err = capsys.readouterr().err.splitlines()
    cfg = config_from_args(build_parser().parse_args(argv))
    assert len(err) == len(cfg.snr_points)
    for snr, line in zip(cfg.snr_points, err):
        mean = np.mean(mask_stats(cfg, snr, blocks).per_block_counts)
        assert line == (f"snr {snr:.6g} dB: mean non-HRB count {mean:.6g} "
                        f"(ratio {mean / 1024:.4f})")


def test_mask_mean_is_the_exact_integer_mean():
    # sum / n over exact integers equals np.mean wherever the counts of a
    # run can reach: up to w^2 = 65,536 per block and 10^6 blocks
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 7, 1000, 99_991):
        counts = rng.integers(0, 1 << 16, n).tolist()
        assert sum(counts) / n == np.mean(counts)
    counts = [65_536] * 1_000_000
    assert sum(counts) / len(counts) == np.mean(counts) == 65_536.0


@pytest.mark.parametrize("command", ["pc", "scc", "mask"])
def test_cli_defaults_are_the_dataclass_defaults(command):
    # every key the flags leave unset keeps its field's default
    cfg = config_from_args(build_parser().parse_args([command, "--snr", "6"]))
    assert cfg == SimConfig(scheme="scc" if command == "scc" else "pc", snr_points=(6.0,))


def test_cli_interrupt_prints_one_line(monkeypatch, capsys):
    def interrupted(cfg, out=None):
        out.write("header\n")
        out.flush()
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_sweep", interrupted)
    assert main(["pc", "--snr", "6.0"]) == 130
    captured = capsys.readouterr()
    assert captured.out == "header\n"
    assert captured.err.startswith("interrupted") and captured.err.count("\n") == 1


def test_ctrl_c_on_a_pooled_sweep_prints_one_line_and_leaves_no_process():
    # SIGINT to the process group, as a terminal's Ctrl-C sends it, while
    # two workers decode the first point
    env = {**os.environ, "PYTHONPATH": str(Path(sim.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "feclab.cli", "pc", "--snr", "6.0,6.4",
                             "--decoder", "sabm", "--workers", "2"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        header = proc.stdout.readline() if select.select([proc.stdout], [], [], 120)[0] else ""
        time.sleep(1.5)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert header.startswith("scheme,")
    assert proc.returncode == 130
    assert err.startswith("interrupted") and err.count("\n") == 1, err
    end = time.monotonic() + 10
    while time.monotonic() < end:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    else:
        os.killpg(proc.pid, signal.SIGKILL)
        pytest.fail("a process of the interrupted sweep is still running")


def test_cli_rejects_bad_snr(capsys):
    assert main(["pc", "--snr", "abc"]) == 2
    assert "bad SNR" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pc", "--snr", "6", "--delta", "-1"],
    ["pc", "--snr", "6", "--md-iters", "20"],
    ["pc", "--snr", "6", "--iters", "0"],
    ["pc", "--snr", "6", "--iters", "0", "--md-iters", "0"],
    ["pc", "--snr", "6", "--mod", "8"],
    ["scc", "--snr", "7", "--mod", "8"],
    ["mask", "--snr", "6", "--mod", "8", "--blocks", "1"],
    ["scc", "--snr", "7", "--scc-iters", "0"],
    ["scc", "--snr", "7", "--window", str(2 ** 63)],
    ["pc", "--snr", "5", "--decoder", "sabm", "--flip-attempts", str(2 ** 63)],
    # the kernel takes iteration counts as int64, which ctypes wraps
    *[["pc", "--snr", "5", "--decoder", decoder, "--iters", str(2 ** e)]
      for decoder in ("ibdd", "sabm") for e in (63, 64)],
    *[["scc", "--snr", "7", "--scc-iters", str(2 ** e)] for e in (63, 64)],
    ["scc", "--snr", "7", "--chain-blocks", "0"],
    ["scc", "--snr", "7", "--component-m", "4"],
    # 6.0004 rounds to the 6.0 key of the trial RNG: one noise stream
    ["pc", "--snr", "6.0,6.0004", "--component-m", "5"],
    ["mask", "--snr", "6.0,6.0004", "--component-m", "5", "--blocks", "1"],
    # a non-finite SNR has no noise stream
    ["pc", "--snr", "nan"],
    ["scc", "--snr", "7,inf"],
    ["mask", "--snr", "6", "--blocks", "0"],
    ["mask", "--snr", "6", "--blocks", "-3"],
    # NaN fails every comparison, so delta >= 0 must be asked, not delta < 0
    ["pc", "--snr", "6", "--delta", "nan", "--decoder", "sabm"],
    ["mask", "--snr", "6", "--delta", "nan", "--blocks", "1"],
    # a SeedSequence takes only non-negative entries
    ["pc", "--snr", "5", "--seed", "-1"],
    ["mask", "--snr", "6", "--seed", "-1", "--blocks", "1"],
    # workers has a fixed bound, the same on every host
    ["pc", "--snr", "5", "--workers", "100000"],
    ["scc", "--snr", "7", "--workers", str(sim.MAX_WORKERS + 1)],
    # so do batch_size and one chain's arrays: a batch's task list was built
    # for 10^20 trials, a chain's grids for 10^11 blocks
    ["pc", "--snr", "6", "--batch-size", "100000000000000000000"],
    ["pc", "--snr", "6", "--batch-size", str(sim.MAX_BATCH + 1)],
    ["scc", "--snr", "6", "--chain-blocks", "100000000000"],
    ["scc", "--snr", "7", "--chain-blocks", str(sim.MAX_CHAIN_BYTES // (128 * 111 + 10 * 128 ** 2) + 1)],
    # values of no supported kind, which ChannelConfig and validate_config
    # refuse; then argparse's own errors: a type, an option of another command
    ["pc", "--snr", "6", "--mod", "3"],
    ["pc", "--snr", "6", "--iters", "abc"],
    ["scc", "--snr", "7", "--decoder", "foo"],
    ["pc", "--snr", "6", "--window", "3"],
    # an empty config path names no file: it is not a run without one
    ["pc", "--snr", "6", "--config="],
], ids=lambda argv: " ".join(argv))
def test_cli_rejects_bad_values(argv, capsys, refuse_big_pools, monkeypatch):
    # a value that validation misses fails here instead of running a point
    monkeypatch.setattr(sim, "run_point", lambda *a, **k: pytest.fail("a point ran"))
    assert main(argv + ["--max-blocks", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["scc", "--help"]], ids=" ".join)
def test_cli_help_still_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: feclab") and err == ""


@pytest.mark.parametrize("command", ["pc", "mask"])
@pytest.mark.parametrize("snr", ["-1001", "4000", "1e306", "-1e306"])
def test_cli_rejects_snr_outside_range(command, snr, capsys):
    # below -1000 dB the trial seed key is negative, above ~3,080 dB rho
    # overflows, and from ~1.8e305 dB on so does the key's round(snr * 1000)
    argv = [command, f"--snr={snr}", "--max-blocks", "1", "--component-m", "4"]
    assert main(argv + (["--blocks", "1"] if command == "mask" else [])) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "[-1000, 3000] dB" in err[0]


@pytest.mark.parametrize("out", [False, True])
def test_cli_checks_the_code_before_any_output(out, tmp_path, capsys):
    # eBCH(16,7) has k <= w = 8: a staircase block would carry no
    # information; a mask run needs at least one block, and an --inset
    # path it can open
    path = tmp_path / "x.csv"
    for argv in (["scc", "--snr", "7", "--component-m", "4", "--max-blocks", "1"],
                 ["mask", "--snr", "6", "--blocks", "0"],
                 ["mask", "--snr", "6,6.2", "--component-m", "5", "--blocks", "2",
                  "--inset", str(tmp_path / "nonexist" / "x.txt")]):
        assert main(argv + (["--out", str(path)] if out else [])) == 2
        assert not path.exists()
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("existing", [False, True])
def test_cli_mask_leaves_inset_as_it_was_when_out_fails(existing, tmp_path, capsys):
    # both paths are checked before either is created or truncated
    inset = tmp_path / "inset.txt"
    if existing:
        inset.write_bytes(b"kept\n")
    argv = ["mask", "--snr", "6", "--component-m", "5", "--blocks", "1",
            "--inset", str(inset)]
    for out in (tmp_path / "nonexist" / "x.csv", tmp_path):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]
        assert inset.read_bytes() == b"kept\n" if existing else not inset.exists()


@pytest.mark.parametrize("argv", [
    [command, "--snr", "6", *extra, *path]
    for command, extra in (("pc", []), ("scc", ["--component-m", "5"]),
                           ("mask", ["--blocks", "1"]))
    for path in (["--out="], ["--config", "run.yaml"])
] + [["mask", "--snr", "6", "--blocks", "1", "--inset=", "--out", "x.csv"]], ids=" ".join)
def test_cli_refuses_an_empty_output_path(argv, tmp_path, capsys, monkeypatch):
    # every command refuses '' before any output, as it refuses a path it
    # cannot open, from a flag or from the config file; so does mask's --inset
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.yaml").write_text(yaml.safe_dump({"out": ""}))
    assert main(argv + ["--max-blocks", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: cannot open '' for writing\n"
    assert os.listdir(tmp_path) == ["run.yaml"]


def test_cli_mask_refuses_one_file_for_out_and_inset(tmp_path, capsys, monkeypatch):
    # both would open the file for writing, and the grid would overwrite
    # the CSV rows; './F' and 'F' are one file
    monkeypatch.chdir(tmp_path)
    argv = ["mask", "--snr", "6", "--component-m", "5", "--blocks", "2"]
    assert main(argv + ["--out", "F", "--inset", "./F"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["pc", "scc", "mask"])
def test_cli_refuses_an_output_path_that_names_the_config(command, tmp_path, capsys):
    # the CSV would replace the config it was read from; a symlink to the
    # config names the config too
    cfgfile = tmp_path / "run.yaml"
    text = yaml.safe_dump({"snr": [6.0], "component_m": 5, "max_blocks": 1})
    cfgfile.write_text(text)
    (tmp_path / "link.csv").symlink_to(cfgfile)
    extra = ["--blocks", "1"] if command == "mask" else []
    for out in (cfgfile, tmp_path / "link.csv"):
        assert main([command, "--config", str(cfgfile), "--out", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert cfgfile.read_text() == text
    # the config may name its own output, and that must not be the config
    cfgfile.write_text(yaml.safe_dump({"snr": [6.0], "component_m": 5, "max_blocks": 1,
                                       "out": str(cfgfile)}))
    assert main([command, "--config", str(cfgfile), *extra]) == 2
    assert "out: " in cfgfile.read_text()
    if command == "mask":
        assert main(["mask", "--snr", "6", "--blocks", "1", "--config", str(cfgfile),
                     "--out", str(tmp_path / "m.csv"), "--inset", str(cfgfile)]) == 2
        assert "out: " in cfgfile.read_text()


# a value, not the default, of every config key but record_timing
KEY_VALUES = {
    "mod": 4, "decoder": "sabm", "llr": "maxlog", "delta": 2.5, "iters": 7,
    "md_iters": 2, "flip_attempts": 3, "seed": 9, "min_errors": 5, "max_blocks": 50,
    "out": "x.csv", "window": 3, "scc_iters": 2, "chain_blocks": 4, "workers": 2,
    "batch_size": 4, "component_m": 6,
}


@pytest.mark.parametrize("flags, key, value", [
    pytest.param(["--" + key.replace("_", "-"), str(value)], key, value, id=key)
    for key, value in KEY_VALUES.items()
] + [pytest.param(["--no-timing"], "record_timing", False, id="no_timing")])
def test_cli_flag_and_config_key_give_the_same_config(flags, key, value, tmp_path):
    assert set(KEY_VALUES) == set(cli._FIELDS) - {"record_timing"}
    command = "scc" if cli._FIELDS[key][0] is SccRunParams else "pc"
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(yaml.safe_dump({key: value}))
    parse = lambda *argv: config_from_args(build_parser().parse_args([command, "--snr", "6", *argv]))
    assert parse(*flags) == parse("--config", str(cfgfile)) != parse()


# per config key other than out: values a run takes, and values of the key's
# whole type range. The keys that set how much work a run does take small
# values only, out-of-range ones included; workers stays <= 2 or goes above
# sim.MAX_WORKERS, which validation rejects before any pool starts, as a
# pool starts all of its workers at once. An iteration count of 2^63 or
# more does not fit the kernel's int64
WILD = st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.integers(),
                 st.sampled_from([-1, 2 ** 63, 2 ** 64, 10 ** 400]), st.floats(),
                 st.sampled_from([5e-324, 1e308, -1e308, float("nan"), float("inf")]))
# edge values of each type that `cli._field_type` gives a key
EDGES = {int: st.sampled_from([0, -1, 2 ** 63 - 1, 2 ** 63, 2 ** 64, -2 ** 63 - 1]),
         float: st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e308, float("nan"), float("inf"),
                                 float("-inf")]),
         bool: st.booleans(), str: st.text(max_size=4)}
TOO_MANY = st.sampled_from([2 ** 63, 2 ** 64])


def wild(key):
    return st.one_of(EDGES[cli._field_type(key)], WILD)


FUZZ_KEYS = {
    "mod": (st.sampled_from([2, 4]), wild("mod")),
    "decoder": (st.sampled_from(["ibdd", "sabm"]), wild("decoder")),
    "llr": (st.sampled_from(["exact", "maxlog"]), wild("llr")),
    "delta": (st.floats(0, 10), wild("delta")),
    "md_iters": (st.integers(0, 1), wild("md_iters")),
    "flip_attempts": (st.integers(0, 2), wild("flip_attempts")),
    "seed": (st.integers(0, 2 ** 64), wild("seed")),
    "min_errors": (st.integers(1, 10 ** 9), wild("min_errors")),
    "record_timing": (st.booleans(), wild("record_timing")),
    "workers": (st.integers(1, 2), st.one_of(st.integers(-2, 0), st.sampled_from(
        [sim.MAX_WORKERS + 1, 100_000, 2 ** 63, 2 ** 64]))),
    "batch_size": (st.integers(1, 3), st.one_of(st.integers(-2, 0), TOO_MANY)),
    "max_blocks": (st.integers(1, 2), st.integers(-2, 0)),
    "chain_blocks": (st.integers(1, 3), st.one_of(st.integers(-2, 0), TOO_MANY)),
    "scc_iters": (st.integers(1, 3), st.one_of(st.integers(-2, 0), TOO_MANY)),
    "iters": (st.integers(1, 3), st.one_of(st.integers(-2, 0), TOO_MANY)),
    "window": (st.integers(2, 4), st.integers(-2, 1)),
    "component_m": (st.sampled_from([4, 5]), st.sampled_from([-1, 0, 3, 9, 17, 2 ** 64])),
}
FUZZ_SNR = st.one_of(st.lists(st.floats(-5, 15), min_size=1, max_size=2), WILD,
                     st.lists(st.one_of(WILD, st.lists(WILD, max_size=1)), min_size=1, max_size=2))


@st.composite
def fuzz_configs(draw):
    """snr, and every key at a value a run takes but for up to two keys
    drawn wild."""
    wild = draw(st.sets(st.sampled_from(sorted(FUZZ_KEYS)), max_size=2))
    return {"snr": draw(FUZZ_SNR),
            **{key: draw(strategies[key in wild]) for key, strategies in FUZZ_KEYS.items()}}


def test_fuzz_keys_are_the_config_keys():
    assert set(FUZZ_KEYS) == set(cli._FIELDS) - {"out"}


def as_flag(key, value):
    """The command-line form of a config value, [] for record_timing true,
    or None where the value has none (null, a list of no floats, or a
    record_timing that is no bool)."""
    if key == "record_timing":
        return None if type(value) is not bool else [] if value else ["--no-timing"]
    if key == "snr" and isinstance(value, list):
        if not all(type(v) is float for v in value):
            return None
        value = ",".join(map(repr, value))
    if value is None or isinstance(value, list):
        return None
    text = repr(value) if type(value) is float else str(value)
    return [f"--{key.replace('_', '-')}={text}"]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["pc", "scc", "mask"]), config=fuzz_configs(),
       flags=st.sets(st.sampled_from(sorted(FUZZ_KEYS) + ["snr"])))
def test_cli_config_file_runs_or_exits_2(command, config, flags, tmp_path, capsys,
                                         refuse_big_pools):
    # every run ends with exit 0, or exit 2 and one error line. The keys in
    # `flags` that have a command-line form go on the command line, which
    # parses each as `_field_type` gives it, and the rest into a config file
    argv = [command]
    for key in flags:
        flag = as_flag(key, config[key])
        if flag is not None and (key not in ("window", "scc_iters", "chain_blocks")
                                 or command == "scc"):
            argv += flag
            del config[key]
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(yaml.safe_dump({**config, "out": str(tmp_path / "out.csv")}))
    argv += ["--config", str(cfgfile)] + (["--blocks", "1"] if command == "mask" else [])
    rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 0 or rc == 2 and len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("depth", [100, 1000])
def test_cli_deeply_nested_config_exits_2(depth, tmp_path, capsys):
    # yaml's parser recurses once per level: 1,000 levels of [[...]] exceed
    # the interpreter's recursion limit, 100 do not and read as a list
    cfgfile = tmp_path / "deep.yaml"
    cfgfile.write_text("[" * depth + "]" * depth)
    assert main(["pc", "--config", str(cfgfile)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: config file ")
    assert ("nests too deeply" in err) == (depth == 1000)


@pytest.mark.parametrize("snr", ["-1000", "3000"])
def test_cli_runs_at_the_snr_range_ends(snr, capsys):
    assert main(["pc", f"--snr={snr}", "--max-blocks", "1", "--batch-size", "1",
                 "--component-m", "4", "--no-timing"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(f"pc,2,ibdd,exact,{snr},1,")


@pytest.mark.parametrize("key, value", [
    ("mod", "x"), ("iters", [3]),
    # no lossy cast: these ran as 2-PAM, 7 iterations and timing on
    ("mod", 2.9), ("iters", 7.9), ("record_timing", "false"),
    ("seed", True), ("delta", False),
    # these raised TypeError, OverflowError, or ran at 1 dB
    ("snr", [None]), ("snr", [[6.0]]), ("snr", [True]), ("snr", [10 ** 400]),
    ("delta", 10 ** 400),
], ids=["mod: x", "iters: [3]", "mod: 2.9", "iters: 7.9", "record_timing: 'false'",
        "seed: true", "delta: false", "snr: [null]", "snr: [[6.0]]", "snr: [true]",
        "snr: [10**400]", "delta: 10**400"])
def test_cli_rejects_mistyped_config_value(key, value, tmp_path, capsys):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(yaml.safe_dump({"snr": [6.0], "component_m": 5, key: value}))
    assert main(["pc", "--config", str(cfgfile), "--max-blocks", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and repr(key) in err[0]


@pytest.mark.parametrize("content", [
    b"snr: [6.0\nmod: 2\n",          # malformed YAML
    b"\xff\xfesnr: [6.0]\n",         # a UTF-16 byte order mark on UTF-8 text
    b"snr: [6.0]\n\xff: 1\n",        # not UTF-8
    b"snr: [6.0]\n1: 2\nx: 3\n",       # unknown keys of mixed types
], ids=["malformed", "ff fe", "not utf-8", "mixed keys"])
def test_cli_rejects_unreadable_config_file(content, tmp_path, capsys):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_bytes(content)
    assert main(["pc", "--config", str(cfgfile), "--max-blocks", "1",
                 "--component-m", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def test_cli_rejects_negative_config_seed(tmp_path, capsys):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(yaml.safe_dump({"snr": [6.0], "seed": -1}))
    assert main(["pc", "--config", str(cfgfile), "--max-blocks", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "seed" in err[0]


def test_cli_accepts_integral_float_config_value(tmp_path, capsys):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(yaml.safe_dump({"snr": [6.0], "component_m": 5.0, "iters": 7.0,
                                       "record_timing": False}))
    assert main(["pc", "--config", str(cfgfile), "--max-blocks", "1",
                 "--batch-size", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("pc,2,ibdd,exact,6,1,")


@pytest.mark.parametrize("llr", ["exact", "maxlog"])
@pytest.mark.parametrize("decoder", ["ibdd", "sabm"])
@pytest.mark.parametrize("mod", [2, 4, 8])
@pytest.mark.parametrize("scheme", ["pc", "scc"])
def test_cli_runs_every_advertised_config(scheme, mod, decoder, llr, capsys):
    argv = [scheme, "--mod", str(mod), "--decoder", decoder, "--llr", llr,
            "--snr", "7", "--max-blocks", "2", "--batch-size", "1", "--no-timing"]
    if scheme == "pc":
        argv += ["--component-m", "5"]
    else:
        argv += ["--component-m", "6", "--chain-blocks", "3", "--window", "3"]
    rc = main(argv)
    out, err = capsys.readouterr()
    if mod == 8:  # a block's bits are never a whole number of 8-PAM symbols
        assert rc == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return
    assert rc == 0
    header, row = csv.reader(io.StringIO(out))
    assert header == CSV_COLUMNS and len(row) == len(CSV_COLUMNS)
    got = dict(zip(CSV_COLUMNS, row))
    assert [got[c] for c in ("scheme", "mod", "decoder", "llr_mode", "snr_db")] == \
        [scheme, str(mod), decoder, llr, "7"]
    assert int(got["blocks"]) >= 2 and int(got["block_errors"]) >= 0
    assert 0.0 <= float(got["ber_pre"]) <= 1.0 and 0.0 <= float(got["ber_post"]) <= 1.0
    assert float(got["bdd_calls_avg"]) > 0
    assert (got["eta"] != "") == (scheme == "scc")
    assert got["wall_seconds"] == "0"
