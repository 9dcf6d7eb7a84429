"""Benchmark workloads: the ops each pass issues and the inputs they read.

Every op is one call of ``horolab.cli.main`` with a config file.  Inputs are
made from the workload seed with the standard library only, so a change to
horolab's own graph helpers cannot change what the benchmark feeds it.

The seed picks one of ``POOL`` input sets (``seed % POOL``).  Reference
digests exist for every pool entry, so any seed the caller passes is checked
byte for byte against results recorded when the references were made.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import pathlib
import random
from dataclasses import dataclass

POOL = 32

Z2 = {"free_abelian": 2}
Z2_FREE_Z2 = {"free_product": [{"free_abelian": 2}, {"free_abelian": 2}]}
Z2_FREE_Z = {"free_product": [{"free_abelian": 2}, {"free_abelian": 1}]}


@dataclass(frozen=True)
class Op:
    """One CLI call: ``horolab <kind> --config <name>.json --out <name>/``."""

    name: str
    kind: str
    instance: dict
    params: dict
    graph: tuple[int, int] | None = None  # (vertices, extra edges) of a seeded graph file

    def config(self, graph_path: str | None) -> dict:
        instance = {"graph_file": graph_path} if self.graph else self.instance
        return {"version": 1, "experiment": self.kind, "instance": instance, "params": self.params}


# Why each workload is here (perfbench/README.md has the layer table).  Sizes
# keep one pass near 5 s, so a 35 s run takes the median of several passes.
#  convexify     the paper's headline table (Z^2*Z^2, depths 1..5) two radii below
#                acceptance; time is in build_augmented, carrier rows and Graph
#                construction, and coset shapes repeat (5 shapes, 1970 members).
#  milnor-svarc  one family member covers the ball; ~75% of the time is carrier BFS
#                rows, and coset families and geodesic enumeration are bypassed.
#  toolkit-mix   many small all-pairs matrices and pure-Python BFS instead of a few
#                huge rows, plus the restricted builder, analysis, shortcut and io.
WORKLOADS: dict[str, tuple[Op, ...]] = {
    "convexify": (
        Op("convexify-experiment", "convexify-experiment",
           {"group": Z2_FREE_Z2, "radius": 4}, {"depths": [1, 2, 3, 4, 5]}),
    ),
    "milnor-svarc": (
        Op("milnor-svarc", "milnor-svarc",
           {"group": Z2, "radius": 16}, {"depth": 3, "t_list": [1, 2, 4, 8]}),
    ),
    "toolkit-mix": (
        Op("delta", "delta", {}, {"sample": "all"}, graph=(55, 25)),
        Op("shortcut", "shortcut", {"grid": [7, 7]},
           {"K": "6/5", "n_list": [5, 6, 7, 8, 9, 10],
            "lambda": {"lo": "2", "hi": "3", "step": "1/4"}}),
        Op("convexity", "convexity", {}, {"depth": 4, "set": {"level_at_least": 2}},
           graph=(23, 8)),
        Op("build-horoball", "build-horoball", {"grid": [16, 16]}, {"depth": 4}),
        Op("augment", "augment", {"group": Z2_FREE_Z, "radius": 5}, {"depth": 3}),
    ),
}


def random_graph_document(vertices: int, extra_edges: int, rng: random.Random) -> str:
    """A connected graph in horolab's graph file format: a random spanning
    tree plus ``extra_edges`` distinct extra edges."""
    edges = set()
    for v in range(1, vertices):
        u = rng.randrange(v)
        edges.add((u, v))
    while len(edges) < vertices - 1 + extra_edges:
        u, v = sorted(rng.sample(range(vertices), 2))
        edges.add((u, v))
    doc = {
        "version": 1,
        "vertices": [{"id": v} for v in range(vertices)],
        "edges": [list(e) for e in sorted(edges)],
        "metadata": {},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_inputs(workload: str, seed: int, work: pathlib.Path) -> list[dict]:
    """Write every op's config (and graph file) under ``work``.

    Returns one entry per op: its name, CLI argv and ``input_key``, the
    digest of everything the op reads, under which its reference is kept.
    """
    pool_rng = random.Random(seed % POOL)
    plan = []
    for op in WORKLOADS[workload]:
        graph_path = None
        graph_text = ""
        if op.graph:
            graph_text = random_graph_document(*op.graph, pool_rng)
            graph_path = str(work / f"{op.name}.graph.json")
            pathlib.Path(graph_path).write_text(graph_text, encoding="utf-8")
        config = op.config(graph_path)
        config_path = work / f"{op.name}.config.json"
        config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        key_doc = json.dumps({"config": op.config(None), "graph": graph_text}, sort_keys=True)
        plan.append({
            "name": op.name,
            "argv": [op.kind, "--config", str(config_path), "--out", str(work / op.name)],
            "out": str(work / op.name),
            "input_key": _sha256(key_doc.encode("utf-8")),
        })
    return plan


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digest(path: pathlib.Path) -> str:
    """Digest of an artifact's bytes.  A CSV's ``seconds`` column is a
    timing, not a result, so it is left out of the digest."""
    data = path.read_bytes()
    if path.suffix != ".csv":
        return _sha256(data)
    table = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    keep = [i for i, name in enumerate(table[0]) if name != "seconds"] if table else []
    buf = io.StringIO()
    csv.writer(buf).writerows([[row[i] for i in keep] for row in table])
    return _sha256(buf.getvalue().encode("utf-8"))


def output_digest(out_dir: pathlib.Path) -> dict:
    """Digests of an op's result rows and of every artifact it wrote.

    Rows are hashed in a fixed serialization; the report's timings are not."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    rows = json.dumps(report["rows"], sort_keys=True, separators=(",", ":"))
    return {
        "rows": _sha256(rows.encode("utf-8")),
        "artifacts": {name: artifact_digest(out_dir / name) for name in report["artifacts"]},
    }
