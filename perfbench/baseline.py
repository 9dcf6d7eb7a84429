"""Regenerate ROADMAP's Baseline stage table at acceptance size.

    python3 perfbench/baseline.py

Runs once, traced, ``convexify-experiment`` on Z^2*Z^2 at radius 6 with
depths 1..5 and ``milnor-svarc`` on Z^2 at radius 32 with t in {1,2,4,8},
through ``horolab.cli.main`` in this process, and prints per op the stage
table: self time, share of the op's wall time, calls and counts of every
wrapped function, plus each ``build_augmented`` call.  It takes about
four minutes on a 2-core machine; the gated benchmark (``run.py``) never
runs it.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy is imported

import json  # noqa: E402

import horolab.cli as cli  # noqa: E402
from tracer import Tracer, stage_table, summarize  # noqa: E402
from workloads import Z2, Z2_FREE_Z2, Op  # noqa: E402

ACCEPTANCE = (
    Op("convexify-experiment", "convexify-experiment",
       {"group": Z2_FREE_Z2, "radius": 6}, {"depths": [1, 2, 3, 4, 5]}),
    Op("milnor-svarc", "milnor-svarc",
       {"group": Z2, "radius": 32}, {"depth": 3, "t_list": [1, 2, 4, 8]}),
)


def main() -> int:
    work = ROOT / ".bench_work" / "baseline"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    tracer.install()
    status = 0
    for i, op in enumerate(ACCEPTANCE):
        config = work / f"{op.name}.config.json"
        config.write_text(json.dumps(op.config(None)), encoding="utf-8")
        tracer.op = i
        rc = cli.main([op.kind, "--config", str(config), "--out", str(work / op.name)])
        status = status or rc
        spans = [row for row in tracer.rows() if row[1] == i]
        wall = sum(end - start for name, _, parent, start, end, _, _ in spans if parent == -1)
        totals = summarize(spans, tracer.absent)
        print(f"\n{op.kind} {json.dumps(op.instance)} {json.dumps(op.params)}: exit {rc}, wall {wall:.2f} s")
        print("\n".join(stage_table(totals, wall)))
        for name, _, _, start, end, _, counts in spans:
            if name == "horoball.build_augmented":
                print(f"  build_augmented call: {end - start:.2f} s, "
                      f"{counts.get('carrier_vertices', 0):,} carrier vertices")
    tracer.write(work / "spans.json")
    return status


if __name__ == "__main__":
    sys.exit(main())
