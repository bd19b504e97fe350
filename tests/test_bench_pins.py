"""The benchmark's quick pins in the test suite: every quick workload of
`perfbench/workloads.py`, at each quick master seed, gives the outputs
that `perfbench/golden.json` pins, as `perfbench/selfcheck.py` checks by
hand. The pins were recorded from an earlier commit, so this holds every
decoder and the channel to them bit for bit."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.QUICK_WORKLOADS))
def test_quick_workloads_match_their_pins(name):
    wl = workloads.QUICK_WORKLOADS[name]
    gate = workloads.Gate(wl, workloads.load_golden(quick=True)[name])
    for seed in workloads.QUICK_MASTER_SEEDS:
        gate.check(seed, workloads.run_rep(wl, seed))
    assert gate.attempted > 0 and gate.failed == 0
