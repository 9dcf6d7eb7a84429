"""The horolab benchmark: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Each pass runs the workload's ops once in a fresh Python process
(``one_pass.py``); passes never overlap and each op waits for the one
before it.  Passes repeat while the next one is predicted to end inside
``--seconds`` (at least one pass, and with ``--trace 1`` at least one
untraced and one traced).  Every op's result rows and artifacts are checked
against ``references.json``; an op that exits non-zero, raises or differs
is a failed op.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, as medians
over the run's untraced passes; set-up is also timed in set-up-only
processes so its median rests on several samples.  ``--trace 1`` reports the
per-layer metrics: span totals of the traced passes (``tracer.py``), each
op's untraced wall time, and the tracing overhead.  The last line of
standard output is the JSON result; the lines before it are a readable
summary, and the full record goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave the checkout as it was, apart from .bench_work/
from tracer import stage_table, summarize  # noqa: E402
from workloads import WORKLOADS, output_digest  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # set-up-only processes per run, on top of one sample per pass
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave src/ as checked out
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def environment(versions: dict) -> dict:
    """Where the numbers come from, so runs on different code, machines or
    library versions are never compared silently."""
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and pathlib.Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": source.hexdigest(), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), **versions}


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.started = time.perf_counter()
        self.dir = ROOT / ".bench_work" / f"run-{os.getpid()}"
        self.env = child_env()
        self.references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))["ops"]
        self.setup: list[float] = []
        self.passes: list[dict] = []
        self.layers: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.versions: dict = {}

    def spawn(self, index: int, mode: str) -> dict | str:
        """Run one pass process to completion; its result, or why there is none."""
        work = self.dir / f"pass-{index}"
        result_file = self.dir / f"pass-{index}.json"
        cmd = [sys.executable, str(HERE / "one_pass.py"), self.workload, str(self.seed),
               str(work), str(result_file), mode]
        start = time.perf_counter()
        left = RUN_LIMIT_S - (start - self.started)
        try:
            subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL, timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:  # run() has killed and reaped the pass
            return "out of time"
        if not result_file.exists():
            return "process died"
        result = json.loads(result_file.read_text(encoding="utf-8"))
        result["elapsed"] = time.perf_counter() - start
        self.versions = result["versions"]
        return result

    def check(self, result: dict) -> None:
        for op in result["ops"]:
            if op["rc"] != 0:
                self.failures.append(f"{op['name']}: exit {op['rc']}")
                continue
            expected = self.references.get(op["name"], {}).get(op["input_key"])
            try:
                got = output_digest(pathlib.Path(op["out"]))
            except (OSError, ValueError, KeyError) as exc:
                self.failures.append(f"{op['name']}: unreadable output ({exc})")
                continue
            if expected is None:
                self.failures.append(f"{op['name']}: no reference for input {op['input_key'][:12]}")
            elif got != expected:
                self.failures.append(f"{op['name']}: output differs from the reference")

    def measure(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        for i in range(SETUP_PROBES):
            probe = self.spawn(-1 - i, "setup")
            if isinstance(probe, dict):
                self.setup.append(probe["setup_s"])
        modes = ["plain", "trace"] if self.trace else ["plain"]
        ops = WORKLOADS[self.workload]
        window_start = time.perf_counter()
        took: dict[str, float] = {}
        index = 0
        while True:
            mode = modes[index % len(modes)]
            self.attempted += len(ops)
            result = self.spawn(index, mode)
            index += 1
            if isinstance(result, str):
                self.failures.extend(f"{op.name}: pass {index - 1} {result}" for op in ops)
                break
            self.check(result)
            if mode == "trace":
                spans = json.loads((self.dir / f"pass-{index - 1}" / "spans.json").read_text())
                layer = summarize(spans["spans"], spans["absent"])
                layer["trace.wall_s"] = result["wall_s"]
                layer["trace.unwrapped_s"] = result["wall_s"] - sum(
                    v for k, v in layer.items() if k.endswith(".self_s"))
                self.layers.append(layer)
            else:
                self.setup.append(result["setup_s"])
            self.passes.append(result)
            shutil.rmtree(self.dir / f"pass-{index - 1}", ignore_errors=True)
            took[mode] = result["elapsed"]
            now = time.perf_counter()
            upcoming = took.get(modes[index % len(modes)], result["elapsed"])
            if index >= len(modes) and now - window_start + upcoming > self.seconds:
                break
            if now - self.started + upcoming > RUN_LIMIT_S:
                break
        shutil.rmtree(self.dir, ignore_errors=True)

    def end_to_end(self) -> dict[str, dict]:
        plain = [p for p in self.passes if p["mode"] == "plain"]
        out = {key: spread([p[key] for p in plain]) for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        out["setup_s"] = spread(self.setup)
        for op in WORKLOADS[self.workload]:
            out[f"op.{op.name}_s"] = spread([o["seconds"] for p in plain for o in p["ops"]
                                             if o["name"] == op.name])
        return out

    def per_layer(self) -> dict[str, float]:
        """Medians over the traced passes of every span total, plus each op's
        untraced wall time and the tracing overhead."""
        names = sorted({k for layer in self.layers for k in layer})
        out = {k: statistics.median(layer.get(k, 0) for layer in self.layers) for k in names}
        e2e = self.end_to_end()
        for key, value in e2e.items():
            if key.startswith("op."):
                out[key] = value["median"]
        out["trace.overhead_s"] = out["trace.wall_s"] - e2e["wall_s"]["median"]
        return out


def summary_lines(run: Run, record: dict) -> list[str]:
    lines = [f"horolab benchmark: workload={run.workload} seed={run.seed} "
             f"seconds={run.seconds} trace={int(run.trace)}",
             "environment: " + json.dumps(record["environment"], sort_keys=True)]
    for name, s in record["end_to_end"].items():
        unit = "MB" if name.endswith("_mb") else "s"
        lines.append(f"  {name:<22} median {s['median']:.4f} {unit}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}"
                     f"  n={s['n']}")
    lines.append(f"  fail_ratio             {record['failed']}/{record['attempted']}"
                 f" = {record['failed'] / record['attempted']:.4f}")
    lines.extend(f"  FAILED {f}" for f in run.failures)
    if run.trace:
        layer = record["per_layer"]
        wall = layer["trace.wall_s"]
        selfs = sorted((v, k[:-len(".self_s")]) for k, v in layer.items() if k.endswith(".self_s"))
        lines.append(f"  traced wall {wall:.3f} s = self times {sum(v for v, _ in selfs):.3f} s"
                     f" + unwrapped {layer['trace.unwrapped_s']:.3f} s;"
                     f" tracing overhead {layer['trace.overhead_s']:.3f} s")
        lines.append(f"  dominant layer: {selfs[-1][1]} ({selfs[-1][0] / wall:.1%} of traced wall)")
        lines.extend(stage_table(layer, wall))
        absent = [k[:-len(".absent")] for k in layer if k.endswith(".absent")]
        if absent:
            lines.append(f"  absent from horolab (reported as 0): {', '.join(absent)}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="measuring window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "horolab" / "cli.py").is_file():
        print(f"horolab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    run = Run(args.workload, args.seed, args.seconds or spec["run_seconds"], bool(args.trace))
    run.measure()
    if not any(p["mode"] == "plain" for p in run.passes) or (run.trace and not run.layers):
        print("\n".join(run.failures) or "no pass completed", file=sys.stderr)
        return 1
    failed = len(run.failures)
    record = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds, "trace": run.trace,
        "environment": environment(run.versions), "attempted": run.attempted, "failed": failed,
        "failures": run.failures, "end_to_end": run.end_to_end(),
    }
    metrics_spec = spec["per_layer"] if run.trace else spec["end_to_end"]
    if run.trace:
        record["per_layer"] = run.per_layer()
        values = {m["name"]: record["per_layer"].get(m["name"], 0) for m in metrics_spec}
    else:
        values = {m["name"]: record["end_to_end"][m["name"]]["median"] for m in metrics_spec}
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    (results / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    print("\n".join(summary_lines(run, record)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
