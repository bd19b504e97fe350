#!/usr/bin/env python3
"""Record the pinned outputs in golden.json from the feclab sources of this
checkout.

The pinned values define correct output for the benchmark. They were
recorded once, from the reference commit named in golden.json; recording
them again from changed code would hide a change in decoding results.

Usage: python3 perfbench/pin.py
"""

import json
import subprocess
import sys

from run import ROOT, import_feclab


def main() -> int:
    import_feclab()
    import workloads
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    golden = {"full": {}, "quick": {}, "recorded_from": sha or None}
    for key, table, seeds in (("full", workloads.WORKLOADS, workloads.MASTER_SEEDS),
                              ("quick", workloads.QUICK_WORKLOADS,
                               workloads.QUICK_MASTER_SEEDS)):
        for name, wl in table.items():
            pins = {}
            for ms in seeds:
                rep = workloads.run_rep(wl, ms)
                if rep.blocks != wl.planned_blocks:
                    raise SystemExit(f"{name} seed {ms}: ran {rep.blocks} blocks, "
                                     f"planned {wl.planned_blocks}")
                pins[str(ms)] = rep.outputs
            golden[key][name] = pins
            print(f"{key} {name}: {len(pins)} seeds", file=sys.stderr)
    with open(workloads.GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
