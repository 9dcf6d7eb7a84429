"""Graph file format and DOT export.

The on-disk format is a single JSON document:

    {
      "version": 1,
      "vertices": [{"id": 0, "label": "e"}, ...],   # label optional
      "edges": [[0, 1], ...],                        # u < v, sorted
      "metadata": {...}                              # free-form object
    }

Serialization is canonical (sorted keys, fixed separators, trailing newline)
so identical graphs produce byte-identical files.  Files are streamed into
the open file by the encoder, never held in memory as one text.  Per-vertex
annotations of structured carriers live under ``metadata["vertex_meta"]`` as
a list aligned with vertex ids.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Sequence

from .errors import InputError
from .graph import Graph

FORMAT_VERSION = 1

_DOT_PALETTE = (
    "white", "lightblue", "lightyellow", "lightpink", "lightgreen",
    "lightsalmon", "lightcyan", "plum", "wheat", "palegreen",
)


_JSON_OPTIONS = {"sort_keys": True, "indent": 2, "ensure_ascii": False}


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, **_JSON_OPTIONS) + "\n"


def write_json(obj: Any, path: str | pathlib.Path) -> None:
    """Write ``canonical_json(obj)`` to ``path`` chunk by chunk."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, **_JSON_OPTIONS)
        f.write("\n")


def sha256_of(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def graph_to_json(g: Graph) -> dict:
    vertices = []
    for v in range(g.num_vertices):
        entry: dict[str, Any] = {"id": v}
        if g.labels is not None:
            entry["label"] = g.labels[v]
        vertices.append(entry)
    return {
        "version": FORMAT_VERSION,
        "vertices": vertices,
        "edges": g.edges.tolist(),  # canonical already: rows u < v, sorted
        "metadata": g.metadata,
    }


def graph_from_json(obj: dict) -> Graph:
    if not isinstance(obj, dict):
        raise InputError("graph document must be a JSON object")
    if obj.get("version") != FORMAT_VERSION:
        raise InputError(f"unsupported graph format version {obj.get('version')!r}")
    vertices = obj.get("vertices")
    edges = obj.get("edges")
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise InputError("graph document needs 'vertices' and 'edges' arrays")
    ids = [v.get("id") for v in vertices]
    if ids != list(range(len(vertices))):
        raise InputError("vertex ids must be dense and sorted 0..n-1")
    labels = None
    if any("label" in v for v in vertices):
        labels = [str(v.get("label", v["id"])) for v in vertices]
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and e[0] < e[1]):
            raise InputError(f"malformed edge entry {e!r}: expected [u, v] with u < v")
    return Graph(len(vertices), [(e[0], e[1]) for e in edges], labels=labels,
                 metadata=obj.get("metadata") or {})


def write_graph(g: Graph, path: str | pathlib.Path) -> None:
    write_json(graph_to_json(g), path)


def read_graph(path: str | pathlib.Path) -> Graph:
    try:
        obj = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {path}") from exc
    return graph_from_json(obj)


def to_dot(g: Graph, name: str = "G", levels: Sequence[int] | None = None) -> str:
    """Undirected DOT text.  Labels become node labels; ``levels`` (explicit
    or found in metadata vertex_meta) color nodes per level."""
    if levels is None:
        meta = g.metadata.get("vertex_meta")
        if isinstance(meta, list) and len(meta) == g.num_vertices:
            if all(isinstance(m, dict) and "level" in m for m in meta):
                levels = [m["level"] for m in meta]
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for v in range(g.num_vertices):
        attrs = []
        if g.labels is not None:
            attrs.append(f'label="{g.labels[v]}"')
        if levels is not None:
            k = int(levels[v])
            attrs.append(f"level={k}")
            attrs.append(f'style=filled fillcolor="{_DOT_PALETTE[k % len(_DOT_PALETTE)]}"')
        lines.append(f"  {v} [{', '.join(attrs)}];" if attrs else f"  {v};")
    for u, v in sorted((int(a), int(b)) for a, b in g.edges):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
