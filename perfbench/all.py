"""Run every workload, untraced then traced, and print each run's summary.

    python3 perfbench/all.py [--seed N]

Each run is ``run.py`` as the gated benchmark calls it; its readable summary
(every end-to-end metric with unit, median, quartiles and sample count,
fail_ratio, each op's wall time, and for traced runs the stage table) is
printed as it arrives, then one line per workload with the gated medians.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    table = []
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            status = status or int(not result["correct"])
            if not trace:
                cells = [f"{k}={m['value']:.4f} {m['unit']}" for k, m in result["metrics"].items()]
                table.append(f"{workload:<14} failed {result['failed']}/{result['attempted']}  " + "  ".join(cells))
    print("\n".join(table))
    return status


if __name__ == "__main__":
    sys.exit(main())
