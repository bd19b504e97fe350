#!/usr/bin/env python3
"""Quick check of the benchmark itself, on a few trials per workload with
their own pinned outputs. It checks that

1. the quick reps match their pinned outputs, untraced and traced;
2. the golden gate trips when an output is altered, both in the text and by
   perturbing the channel inside feclab;
3. span self times add up to the traced wall time within 1%;
4. run.py prints every metric named in BENCHMARK.json, with its unit, in
   a run that passes the gate.

Usage (from the repository root): python3 perfbench/selfcheck.py
Exits 0 when every check passes, 1 otherwise.
"""

import json
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace

from run import HERE, ROOT, import_feclab

SELF_TIME_TOLERANCE = 0.01


def main() -> int:
    feclab = import_feclab()
    import workloads
    from spans import Tracer

    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    @contextmanager
    def noisier_channel():
        orig = feclab.sim.awgn_transmit
        feclab.sim.awgn_transmit = lambda x, cfg, rng: orig(x, cfg, rng) + 0.05
        try:
            yield
        finally:
            feclab.sim.awgn_transmit = orig

    golden = workloads.load_golden(quick=True)
    for name, wl in workloads.QUICK_WORKLOADS.items():
        ms = workloads.QUICK_MASTER_SEEDS[0]
        gate = workloads.Gate(wl, golden[name])
        rep = workloads.run_rep(wl, ms)
        expect(gate.check(ms, rep) == 0, f"{name}: untraced rep matches its pins")

        altered = workloads.Rep(list(rep.outputs), rep.blocks, rep.seconds, {})
        altered.outputs[0] = altered.outputs[0][:-1] + "#"
        expect(gate.check(ms, altered) > 0, f"{name}: gate trips on an altered output")
        short = workloads.Rep(rep.outputs, rep.blocks - 1, rep.seconds, {})
        expect(gate.check(ms, short) > 0, f"{name}: gate trips on a short run")
        with noisier_channel():
            perturbed = workloads.run_rep(wl, ms)
        expect(gate.check(ms, perturbed) > 0, f"{name}: gate trips on a changed channel")

        tracer = Tracer()
        with tracer.installed():
            traced = workloads.run_rep(replace(wl, workers=1), ms)
        expect(workloads.Gate(wl, golden[name]).check(ms, traced) == 0,
               f"{name}: traced rep at workers=1 matches its pins")
        self_sum = sum(v[2] for v in tracer.totals().values())
        gap = abs(traced.seconds - self_sum) / traced.seconds
        expect(gap <= SELF_TIME_TOLERANCE,
               f"{name}: span self times sum to the traced wall time (gap {gap:.2e})")

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    expect(sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "pc_sabm_2pam",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, check=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        printed = {n: m["unit"] for n, m in result["metrics"].items()}
        expect(printed == declared, f"--trace {trace} prints every {key} metric with its unit")
        expect(all(any(f" {n} = " in ln and ln.endswith(f" {u}") for ln in lines)
                   for n, u in declared.items()),
               f"--trace {trace} prints a line per metric with its unit")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"--trace {trace} run is correct")

    print(f"selfcheck: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
