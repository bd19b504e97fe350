#!/usr/bin/env python3
"""feclab benchmark: Monte Carlo trials per second for product and staircase
codes under iBDD and SABM, and for the mask statistics, checked against
pinned outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload pc_sabm_2pam --seed 1 --seconds 22 --trace 0
    python3 perfbench/selfcheck.py       # quick check of the benchmark itself

A trial is one (128,113)^2 product-code block, one 12-block eBCH(256,239)
staircase chain, or one mask block. A run repeats fixed-work reps (see workloads.py) through
feclab's public API until `--seconds` have passed; the first rep only warms
caches. `--seed` picks the order in which the run walks the pinned master
seeds, so the same seed gives the same inputs. Every rep's outputs (CSV rows,
or mask counts) are compared with the pinned ones; a mismatch, or a rep that
ran another number of blocks than planned, counts as a failed output.

Workloads (why each is here):
  pc_sabm_2pam     PC, SABM (delta 5, 10 iterations, 5 marking), 2-PAM,
                   6.0 dB. Decoding is ~90% of a trial, spread over the BDD
                   kernel, bit_flip_recover, is_codeword and mark_bits; this
                   is where the paper's SABM gain sits.
  scc_sabm_2pam    SCC, SABM, 12-block chains, window 5, 4 iterations, 2-PAM,
                   7.2 dB. The window loop and the kernel on 256-bit words
                   dominate; SCC does its own marking, so mark_bits is not
                   run. (At 6.8 dB neither decoder converges.)
  pc_ibdd_4pam_w2  PC, iBDD, 4-PAM with the interleaver, 12.6 dB, 2 worker
                   processes, batches of 16. No marking or SABM code runs,
                   so a change to SABM alone must leave it unchanged. The
                   only workload with the process pool, the 4-level demapper
                   and the interleaver. run_sweep starts its pool per call,
                   and the workers start on the first batch, so each rep's
                   time includes starting them (see setup.pool_start_s).
  mask_2pam        mask_stats at 5.8 and 6.2 dB, 2-PAM: encoding and the
                   channel, no decoding. The only workload where the channel
                   path dominates. mask_stats builds its code tables inside
                   the timed call (about 2 ms of a 0.7 s rep).

End-to-end metrics (--trace 0): trials_per_s (median over timed reps, at
the reference host speed; see CAL_REF_S), info_mbps (information bits per
second on the same footing; 113^2 per PC block, 12*128*111 per SCC chain),
setup_s (median over fresh interpreters of `import feclab`, the table build
and, with workers, the pool start, each at the reference host speed; see
probe_setup.py) and peak_rss_mb (peak resident memory of the benchmark
process, plus that of its largest pool worker times the worker count). The
share of outputs that differ from the pinned ones is reported as
`failed`/`attempted` and in the run record.

Per-layer metrics (--trace 1), per trial unless named otherwise: traced reps
run at workers=1 with the wrappers of spans.py installed, alternating with
untraced reps of the same inputs at workers=1, which give
trace.overhead_share, and, for a pool workload, at its own worker count,
which give sim.pool_efficiency. A metric of a layer the workload does not
use reads 0. `*_ms` of a traced function is its inclusive time; the
`*.decode_self_ms` and `sim.self_ms` metrics are self times (span minus its
child spans). Every span is written to .perfbench_out/.
"""

import os

# Pin native thread pools before numpy loads, so no run uses more threads
# than there are cores; set-up probes inherit these.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import itertools
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 11
MIN_TIMED_REPS = 3

# A shared host's single-thread speed drifts by up to 1.5x over seconds to
# minutes, which no run length averages out. So every timed rep is preceded
# by a fixed calibration loop that does not touch feclab, and throughput is
# reported at the reference host speed: measured trials/s times the run's
# median calibration time over CAL_REF_S, the loop's time on a quiet
# moment of the 2-vCPU Xeon VM where the benchmark was defined. The measured
# figure and the calibration are kept in the run record.
CAL_REF_S = 0.048
# Set-up times are scaled the same way, by a loop that each set-up probe
# times itself (see probe_setup.py); this is about its fastest time there.
PROBE_LOOP_REF_S = 0.010


def declared_units(key: str) -> dict:
    """Metric name -> unit for the "end_to_end" or "per_layer" list of
    BENCHMARK.json, in its order."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_feclab():
    """Put this checkout's sources first on the path and import from them."""
    if not (SRC / "feclab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: feclab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import feclab
    if Path(feclab.__file__).resolve().parent != SRC / "feclab":
        raise SystemExit(f"perfbench: imported feclab from {feclab.__file__}, not {SRC}")
    return feclab


def seed_order(master_seeds, seed: int):
    """The run's master seeds: a seeded shuffle of the pinned ones, cycled."""
    return itertools.cycle(random.Random(seed).sample(master_seeds, len(master_seeds)))


def setup_probes(wl, n: int = SETUP_PROBES) -> dict:
    """Median of each set-up figure over n fresh interpreters, at the
    reference host speed, and the median measured setup_s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    m = 8 if wl.scheme == "scc" else 7
    cmd = [sys.executable, str(HERE / "probe_setup.py"), str(m), str(wl.workers)]
    keys = ("import_s", "build_code_s", "pool_start_s", "setup_s")
    runs = []
    for _ in range(n):
        out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             timeout=120, check=True).stdout
        probe = json.loads(out.strip().splitlines()[-1])
        if Path(probe["feclab_file"]).resolve().parent != SRC / "feclab":
            raise SystemExit(f"perfbench: set-up probe imported {probe['feclab_file']}")
        speed = PROBE_LOOP_REF_S / probe["loop_s"]
        runs.append({k: probe[k] * speed for k in keys} | {"measured": probe["setup_s"]})
    return {k: statistics.median(r[k] for r in runs) for k in keys + ("measured",)}


_cal_data = []


def calibration_seconds() -> float:
    """Wall time of a fixed mix of interpreter work and numpy operations on
    arrays larger than a core's private caches, like a decoder's, that does
    not touch feclab. Neighbours on a shared host slow both the core and the
    shared cache, so the loop needs both."""
    import numpy as np
    if not _cal_data:
        rng = np.random.default_rng(0)
        _cal_data.extend((rng.random((512, 512)), rng.integers(0, 256, (512, 512))))
    floats, ints = _cal_data
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i
    for _ in range(3):
        np.argsort(floats, axis=1, kind="stable")
        np.bitwise_xor.reduce(ints, axis=1)
    return time.perf_counter() - t0


class Calibration:
    """Host speed as the calibration loop's time. A pool workload's trials
    run on both cores at once, and the two cores of a shared host slow down
    apart, so for one the loop runs on both cores at once, here and in one
    helper process, and the mean of the two times counts."""

    def __init__(self, pool: bool):
        calibration_seconds()  # build the data before the helper forks
        self._helper = None
        if pool:
            from concurrent.futures import ProcessPoolExecutor
            self._helper = ProcessPoolExecutor(max_workers=1)
            self._helper.submit(int).result()  # start it before timing

    @property
    def processes(self) -> int:
        return 1 if self._helper else 0

    def seconds(self) -> float:
        if self._helper is None:
            return calibration_seconds()
        other = self._helper.submit(calibration_seconds)
        return (calibration_seconds() + other.result()) / 2

    def close(self):
        if self._helper is not None:
            self._helper.shutdown()


def untraced_run(wl, order, seconds, gate):
    from workloads import run_rep
    cal = Calibration(pool=wl.workers > 1)
    t_start = time.perf_counter()
    rates, cals = [], []
    for i, ms in enumerate(order):
        cal_s = cal.seconds()
        rep = run_rep(wl, ms)
        gate.check(ms, rep)
        if i:  # the first rep warms caches and lazy set-up
            rates.append(wl.trials / rep.seconds)
            cals.append(cal_s)
        if len(rates) >= MIN_TIMED_REPS and time.perf_counter() - t_start >= seconds:
            break
    measured = statistics.median(rates)
    host_slowdown = statistics.median(cals) / CAL_REF_S
    tps = measured * host_slowdown
    # pool workers are the only children reaped so far
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "trials_per_s": tps,
        "info_mbps": tps * wl.info_bits_per_trial / 1e6,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        + wl.pool_workers * worker_kb) / 1024.0,
    }
    cal.close()
    return metrics, {"timed_reps": len(rates),
                     # the benchmark process, its pool workers and the
                     # calibration helper; set-up probes run one at a time
                     # after them
                     "processes": 1 + wl.pool_workers + cal.processes,
                     "measured_trials_per_s": measured,
                     "measured_trials_per_s_quartiles": statistics.quantiles(rates, n=4),
                     "calibration_median_s": statistics.median(cals),
                     "host_slowdown": host_slowdown}


def traced_run(wl, order, seconds, gate, seed):
    """Alternate untraced and traced reps of the same inputs until `seconds`
    have passed, then turn the spans into per-layer metrics."""
    from dataclasses import replace
    from spans import ROOT_SPAN, Tracer
    from workloads import run_rep
    single = replace(wl, workers=1)  # spans are recorded in this process only
    tracer = Tracer()
    t_start = time.perf_counter()
    warm = next(order)
    gate.check(warm, run_rep(wl, warm))
    plain_s = traced_s = pool_s = 0.0
    trials = 0
    rows = []
    worst_gap = 0.0
    for ms in order:
        if wl.workers > 1:
            rep = run_rep(wl, ms)
            gate.check(ms, rep)
            pool_s += rep.seconds
        rep = run_rep(single, ms)
        gate.check(ms, rep)
        plain_s += rep.seconds
        first = len(tracer)
        with tracer.installed():
            rep = run_rep(single, ms)
        gate.check(ms, rep)
        traced_s += rep.seconds
        trials += wl.trials
        rows.append(rep.csv_fields)
        # self times partition the root spans, which the rep's time measures
        self_sum = sum(v[2] for v in tracer.totals(first).values())
        worst_gap = max(worst_gap, abs(rep.seconds - self_sum) / rep.seconds)
        if time.perf_counter() - t_start >= seconds:
            break

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.npz"
    tracer.write(spans_path)

    agg = tracer.totals()

    def per_trial_ms(name, col=1):
        return agg[name][col] * 1e3 / trials

    blocks = trials * wl.chain_blocks
    dec = tracer.decode
    metrics = {
        "bch.kernel_calls": agg["bch.kernel"][0] / trials,
        "bch.kernel_ms": per_trial_ms("bch.kernel"),
        "bch.kernel_us_per_word": (agg["bch.kernel"][1] * 1e6 / tracer.kernel_words
                                   if tracer.kernel_words else 0.0),
        "bch.codeword_checks": agg["bch.codeword_check"][0] / trials,
        "bch.codeword_check_ms": per_trial_ms("bch.codeword_check"),
        "bch.bdd_calls_per_block": _csv_mean(rows, "bdd_calls_avg"),
        "modem.modulate_ms": per_trial_ms("modem.modulate"),
        "modem.awgn_ms": per_trial_ms("modem.awgn"),
        "modem.demap_ms": per_trial_ms("modem.demap"),
        "modem.interleave_ms": per_trial_ms("modem.interleave"),
        "pc.mark_bits_ms": per_trial_ms("pc.mark_bits"),
        "pc.flip_recover_calls": agg["pc.flip_recover"][0] / trials,
        "pc.flip_recover_ms": per_trial_ms("pc.flip_recover"),
        "pc.decode_self_ms": per_trial_ms("pc.decode", col=2),
        "pc.encode_ms": per_trial_ms("pc.encode"),
        "scc.encode_ms": per_trial_ms("scc.encode"),
        "pc.miscorrections_per_block": dec["miscorrections_detected"] / blocks,
        "pc.flips_attempted_per_block": dec["flips_attempted"] / blocks,
        "pc.flip_accept_ratio": (dec["flips_accepted"] / dec["flips_attempted"]
                                 if dec["flips_attempted"] else 0.0),
        "scc.decode_self_ms": per_trial_ms("scc.decode", col=2),
        "scc.eta": _csv_mean(rows, "eta"),
        "sim.self_ms": per_trial_ms(ROOT_SPAN, col=2),
        # trials/s at the pool's worker count over the pool's ideal speed-up
        "sim.pool_efficiency": plain_s / (wl.workers * pool_s) if pool_s else 0.0,
        "trace.overhead_share": 1.0 - plain_s / traced_s,
    }
    info = {"traced_reps": trials // wl.trials, "processes": 1 + wl.pool_workers,
            "self_time_gap_share": worst_gap,
            "spans": len(tracer), "spans_file": str(spans_path.relative_to(ROOT)),
            "untraced_names": [f"{m}.{a}" for m, a in tracer.missing]}
    return metrics, info


def _csv_mean(rows, column) -> float:
    vals = [float(r[column]) for r in rows if r.get(column)]
    return statistics.fmean(vals) if vals else 0.0


def run_record(wl, args, load_before, extra) -> dict:
    import numpy
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "feclab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        **extra,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_before = os.getloadavg()
    import_feclab()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    gate = workloads.Gate(wl, workloads.load_golden()[wl.name])
    order = seed_order(workloads.MASTER_SEEDS, args.seed)

    if args.trace:
        metrics, extra = traced_run(wl, order, args.seconds, gate, args.seed)
    else:
        metrics, extra = untraced_run(wl, order, args.seconds, gate)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    setup = setup_probes(wl)
    metrics.update({
        "setup_s": setup["setup_s"],
        "setup.import_s": setup["import_s"],
        "setup.build_code_ms": setup["build_code_s"] * 1e3,
        "setup.pool_start_s": setup["pool_start_s"],
    })
    mismatch_share = gate.failed / gate.attempted
    record = run_record(wl, args, load_before,
                        {"mismatch_share": mismatch_share,
                         "measured_setup_s": setup["measured"], **extra})

    for name, unit in units.items():
        print(f"{wl.name} {name} = {metrics[name]:.6g} {unit}")
    print(f"{wl.name} mismatch_share = {mismatch_share:.6g} share "
          f"({gate.failed} of {gate.attempted} outputs)")
    print("run-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
