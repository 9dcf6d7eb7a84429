"""One benchmark pass, in a fresh process: set up, then issue each op in turn.

    python3 perfbench/one_pass.py WORKLOAD SEED WORK_DIR RESULT_FILE {setup,plain,trace}

``setup`` stops once the inputs are written; ``trace`` wraps horolab's
public functions with spans before the first op and writes them to
``WORK_DIR/spans.json``.  Ops are issued one at a time, each waiting for the
previous (a closed loop with one client), through ``horolab.cli.main``.
The result file holds the timings; the caller checks the outputs.
"""

import time

T0 = time.perf_counter()  # set-up is timed from the first line of the pass

import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(workload: str, seed: int, work: pathlib.Path, result_path: pathlib.Path, mode: str) -> None:
    import numpy
    import scipy

    import horolab.cli as cli
    from workloads import write_inputs

    work.mkdir(parents=True, exist_ok=True)
    plan = write_inputs(workload, seed, work)
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    first_op = time.perf_counter()
    result = {
        "mode": mode,
        "setup_s": first_op - T0,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "horolab_file": cli.__file__},
    }
    if mode != "setup":
        cpu0 = cpu_seconds()
        ops = []
        for i, step in enumerate(plan):
            if tracer:
                tracer.op = i
            start = time.perf_counter()
            rc, error = None, None
            try:
                rc = cli.main(step["argv"])
            except (Exception, SystemExit):  # an op that dies is a failed op, not a dead pass
                error = traceback.format_exc()
                print(error, file=sys.stderr)
            ops.append({**step, "rc": rc, "error": error, "seconds": time.perf_counter() - start})
        end = time.perf_counter()
        result.update(
            wall_s=end - first_op,
            cpu_s=cpu_seconds() - cpu0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            ops=ops,
        )
        if tracer:
            tracer.write(work / "spans.json")
    result_path.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    name, seed_text, work_dir, result_file, run_mode = sys.argv[1:]
    main(name, int(seed_text), pathlib.Path(work_dir), pathlib.Path(result_file), run_mode)
