"""Record the reference digests every benchmark op is checked against.

    python3 perfbench/make_references.py

Runs each op once per distinct input (every pool entry of the seeded ops,
once for the rest) through ``horolab.cli.main`` and writes
``perfbench/references.json``.  Run it only at a commit whose results are
known good: the benchmark counts every later difference as a failed op.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import horolab.cli as cli  # noqa: E402
from workloads import POOL, WORKLOADS, output_digest, write_inputs  # noqa: E402


def main() -> int:
    work = ROOT / ".bench_work" / "references"
    references: dict[str, dict] = {}
    for workload, ops in WORKLOADS.items():
        seeds = range(POOL) if any(op.graph for op in ops) else [0]
        for seed in seeds:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            for step in write_inputs(workload, seed, work):
                known = references.setdefault(step["name"], {})
                if step["input_key"] in known:
                    continue
                if cli.main(step["argv"]) != 0:
                    print(f"{workload}/{step['name']} seed {seed} failed", file=sys.stderr)
                    return 1
                known[step["input_key"]] = output_digest(pathlib.Path(step["out"]))
                print(f"{workload}/{step['name']} seed {seed}: recorded", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    doc = {"commit": commit.stdout.strip() or "unknown", "pool": POOL, "ops": references}
    (HERE / "references.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
