#!/usr/bin/env python3
"""Staircase-code sweep with the bit-marking decoder, reporting the
relative BDD-call overhead eta alongside the BER at each SNR point, and
what SABM did: miscorrections detected per block, and the share of flip
retries that were accepted.

Usage:
    python scripts/scc_complexity.py [out.csv]

Uses the eBCH(256,239) component (w = 128) with a window of 5 blocks and
4 iterations, matching the usual staircase operating point.
"""

import sys

from feclab.pc import SabmParams
from feclab.sim import SccRunParams, SimConfig, StopRule, run_sweep


def main() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else "scc_sabm.csv"
    cfg = SimConfig(
        scheme="scc",
        mod=2,
        snr_points=(6.4, 6.6, 6.8, 7.0, 7.2),
        decoder="sabm",
        sabm=SabmParams(delta=5.0, md_iters=5),
        scc=SccRunParams(window=5, iters=4, chain_blocks=12),
        stop=StopRule(min_word_errors=100, max_blocks=200),
        master_seed=1,
        out_path=out,
        record_timing=True,
    )
    print(f"running staircase sweep -> {out}")
    for st in run_sweep(cfg):
        accepted = st.decoder.flips_accepted / max(st.decoder.flips_attempted, 1)
        print(f"  {st.snr_db:5.2f} dB  ber_post={st.ber_post:.3e}  "
              f"eta={st.eta:.4f}  "
              f"detected/block={st.decoder.miscorrections_detected / st.blocks_run:.3f}  "
              f"flips accepted={accepted:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
