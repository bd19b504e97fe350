"""Benchmark workloads, the fixed-work repetition that each one runs, and the
golden-output gate.

A repetition ("rep") is one call into feclab's public API with a fixed number
of trials: `run_sweep` over one SNR point, or, for the mask workload,
`mask_stats` at each of its SNR points. Its inputs come from one master seed.
Every rep's outputs are compared with the ones pinned in `golden.json`, which
were recorded from the reference commit by `pin.py`.
"""

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, replace
from itertools import zip_longest
from pathlib import Path

from feclab import SabmParams, SimConfig, run_sweep, sim
from feclab.sim import SccRunParams, StopRule

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

CHAIN_BLOCKS = 12  # code blocks per staircase trial
PC_K, SCC_W, SCC_INFO_COLS = 113, 128, 111


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str          # "pc" or "scc"
    decoder: str         # "ibdd", "sabm", or "mask" for mask_stats (no decoding)
    mod: int
    snr_points: tuple
    trials: int          # trials per rep, over all SNR points
    batch_size: int = 1
    workers: int = 1

    def __post_init__(self):
        if self.decoder == "mask":
            if self.trials % len(self.snr_points):
                raise ValueError(f"{self.name}: trials must split evenly over the SNR points")
        elif len(self.snr_points) != 1 or self.trials % self.batch_size:
            # run_sweep checks its stop rule only at batch boundaries, so a
            # planned count that is not a whole number of batches overshoots
            raise ValueError(f"{self.name}: one SNR point and whole batches per rep")

    @property
    def chain_blocks(self) -> int:
        return CHAIN_BLOCKS if self.scheme == "scc" else 1

    @property
    def pool_workers(self) -> int:
        """Worker processes run_sweep starts; at workers=1 it starts none."""
        return self.workers if self.workers > 1 else 0

    @property
    def planned_blocks(self) -> int:
        """Code blocks one rep must run."""
        return self.trials * self.chain_blocks

    @property
    def info_bits_per_trial(self) -> int:
        if self.scheme == "scc":
            return CHAIN_BLOCKS * SCC_W * SCC_INFO_COLS
        return PC_K * PC_K

    def config(self, master_seed: int) -> SimConfig:
        return SimConfig(
            scheme=self.scheme,
            mod=self.mod,
            snr_points=self.snr_points,
            # mask_stats reads only sabm.delta; any valid decoder name will do
            decoder="sabm" if self.decoder == "mask" else self.decoder,
            llr_mode="exact",
            sabm=SabmParams(delta=5.0, total_iters=10, md_iters=5),
            scc=SccRunParams(window=5, iters=4, chain_blocks=CHAIN_BLOCKS),
            # stop by max_blocks only: block_errors <= blocks_run < min_word_errors
            stop=StopRule(min_word_errors=self.planned_blocks + 1,
                          max_blocks=self.planned_blocks),
            master_seed=master_seed,
            workers=self.workers,
            batch_size=self.batch_size,
        )


# Why each workload is here is recorded in BENCHMARK.json and in run.py.
# Reps are short (about 0.3 to 0.7 s on a 2-core x86 host) so that a run
# holds many of them and their median is steady under background load.
WORKLOADS = {wl.name: wl for wl in (
    Workload("pc_sabm_2pam", "pc", "sabm", 2, (6.0,), trials=16, batch_size=16),
    Workload("scc_sabm_2pam", "scc", "sabm", 2, (7.2,), trials=1),
    Workload("pc_ibdd_4pam_w2", "pc", "ibdd", 4, (12.6,), trials=64, batch_size=16,
             workers=2),
    Workload("mask_2pam", "pc", "mask", 2, (5.8, 6.2), trials=256),
)}

# Smaller reps with their own pinned outputs, for the self-check.
QUICK_WORKLOADS = {
    "pc_sabm_2pam": replace(WORKLOADS["pc_sabm_2pam"], trials=4, batch_size=4),
    "scc_sabm_2pam": WORKLOADS["scc_sabm_2pam"],
    "pc_ibdd_4pam_w2": replace(WORKLOADS["pc_ibdd_4pam_w2"], trials=8, batch_size=4),
    "mask_2pam": replace(WORKLOADS["mask_2pam"], trials=8),
}

MASTER_SEEDS = tuple(range(1, 129))
QUICK_MASTER_SEEDS = (1, 2)


@dataclass
class Rep:
    outputs: list        # output rows compared with the pins
    blocks: int          # code blocks run
    seconds: float       # wall time of the trials, without the API call's set-up
    csv_fields: dict     # the CSV row by column name ({} for mask reps)


def run_rep(wl: Workload, master_seed: int) -> Rep:
    """Run one rep with the feclab functions currently bound in its modules,
    so an installed tracer sees it."""
    cfg = wl.config(master_seed)
    if wl.decoder == "mask":
        return _mask_rep(wl, cfg)
    buf = io.StringIO()
    stats = run_sweep(cfg, out=buf)
    header, *rows = csv.reader(io.StringIO(buf.getvalue()))
    keep = [i for i, col in enumerate(header) if col != "wall_seconds"]
    outputs = [",".join(row[i] for i in keep) for row in rows]
    # run_point's own timer: it starts after run_sweep has checked the config
    # and built the code tables, which setup_s measures
    return Rep(outputs, stats[0].blocks_run, stats[0].wall_seconds,
               dict(zip(header, rows[0])))


def _mask_rep(wl: Workload, cfg: SimConfig) -> Rep:
    """Per SNR point: the block count, and the sum and a checksum of the
    per-block non-HRB counts."""
    per_snr = wl.trials // len(wl.snr_points)
    outputs, blocks = [], 0
    t0 = time.perf_counter()
    results = [sim.mask_stats(cfg, snr, per_snr) for snr in wl.snr_points]
    seconds = time.perf_counter() - t0
    for snr, ms in zip(wl.snr_points, results):
        counts = ms.per_block_counts
        digest = hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()[:16]
        outputs.append(f"{snr:g},{len(counts)},{sum(counts)},{digest}")
        blocks += len(counts)
    return Rep(outputs, blocks, seconds, {})


class Gate:
    """Counts checked outputs and those that differ from the pinned values.
    A rep that ran a different number of blocks than planned also fails."""

    def __init__(self, wl: Workload, pinned: dict):
        self.wl = wl
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0

    def check(self, master_seed: int, rep: Rep) -> int:
        expected = self.pinned.get(str(master_seed))
        if expected is None:
            bad = len(rep.outputs)
        else:
            bad = sum(e != g for e, g in zip_longest(expected, rep.outputs))
        if rep.blocks != self.wl.planned_blocks:
            bad = max(bad, 1)
        self.attempted += max(len(rep.outputs), len(expected or ()), 1)
        self.failed += bad
        return bad


def load_golden(quick: bool = False) -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)["quick" if quick else "full"]
