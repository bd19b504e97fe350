#!/usr/bin/env python3
"""Waterfall sweep for the (128,113)^2 product code: iBDD vs the
bit-marking decoder on 2-PAM, one CSV per decoder.

Usage:
    python scripts/pc_waterfall.py [outdir]

The default grid takes about 45 s on one core of a shared 2-core x86
host (44-46 s over two runs: 10-11 s for iBDD, 33-35 s for the
bit-marking sweep); trim the SNR list or min_errors for a quicker look.
"""

import pathlib
import sys

from feclab.pc import SabmParams
from feclab.sim import SimConfig, StopRule, run_sweep


def main() -> int:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "results")
    outdir.mkdir(parents=True, exist_ok=True)
    snr = tuple(round(5.4 + 0.2 * i, 1) for i in range(8))  # 5.4 .. 6.8 dB
    for decoder in ("ibdd", "sabm"):
        cfg = SimConfig(
            scheme="pc",
            mod=2,
            snr_points=snr,
            decoder=decoder,
            sabm=SabmParams(delta=5.0, total_iters=10, md_iters=5),
            stop=StopRule(min_word_errors=100, max_blocks=3000),
            master_seed=1,
            out_path=str(outdir / f"pc_2pam_{decoder}.csv"),
            record_timing=True,
        )
        print(f"running {decoder} sweep -> {cfg.out_path}")
        run_sweep(cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
