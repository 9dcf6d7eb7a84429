"""Graph file format and DOT export.

The on-disk format is a single JSON document:

    {
      "version": 1,
      "vertices": [{"id": 0, "label": "e"}, ...],   # label optional
      "edges": [[0, 1], ...],                        # u < v, sorted
      "metadata": {...}                              # free-form object
    }

Serialization is canonical (sorted keys, 2-space indent, ``ensure_ascii``
off, trailing newline) so identical graphs produce byte-identical files.
Per-vertex annotations of structured carriers live under
``metadata["vertex_meta"]`` as a list aligned with vertex ids.
``write_json`` streams a document (a graph's, ``report.json``) through
``json.dump`` with these options.

``write_carrier`` writes a glued carrier's document, labels and
``vertex_meta`` included, with the same bytes, but from its columns: the
edge array, the base labels and the per-vertex provenance arrays (kind,
member, base vertex, level), in blocks of ``_BLOCK`` records.  Each run of
base vertices or horoball copies in a block is one ``%`` template repeated
over a flat tuple of encoded values, so no label string or ``vertex_meta``
record is built for a carrier, and the pure-Python encoder that
``json.dump`` runs under an indent is never reached.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from json.encoder import encode_basestring
from typing import Any, Iterator, Sequence

import numpy as np

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
    n = len(vertices)
    # ids and ends are ints as JSON spells them: ``true`` and ``1.0`` are not ids
    if not all(isinstance(v, dict) and type(v.get("id")) is int and v["id"] == i
               for i, v in enumerate(vertices)):
        raise InputError("vertex ids must be dense and sorted 0..n-1")
    labels = None
    if any("label" in v for v in vertices):
        labels = [str(v.get("label", v["id"])) for v in vertices]
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)
                and 0 <= e[0] < e[1] < n):
            raise InputError(f"malformed edge entry {e!r}: expected [u, v] with 0 <= u < v < {n}")
    metadata = obj.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise InputError("graph metadata must be an object")
    return Graph(n, [(e[0], e[1]) for e in edges], labels=labels, metadata=metadata)


def write_graph(g: Graph, path: str | pathlib.Path) -> None:
    write_json(graph_to_json(g), path)


def write_carrier(path: str | pathlib.Path, edges: np.ndarray, base_labels: Sequence[str] | None,
                  kind: np.ndarray, alpha: np.ndarray, base_vertex: np.ndarray,
                  level: np.ndarray) -> None:
    """Write the document of a glued carrier from its columns.

    Vertex v has ``kind[v]`` 0 (a base vertex) or 1 (a horoball copy of base
    vertex ``base_vertex[v]`` at ``level[v]`` in member ``alpha[v]``).  The
    bytes are those of ``write_graph`` on the carrier with these labels and
    metadata: a base vertex keeps its base label, a copy is labelled
    ``label@k`` (level 0 included), and no vertex has a label when the base
    has none; ``vertex_meta`` holds ``{"kind": "gamma", "alpha": null,
    "base": x, "level": 0}`` or ``{"kind": "horo", "alpha": a, "base": x,
    "level": k}`` per vertex.  The sections come in canonical (sorted)
    order."""
    with open(path, "w", encoding="utf-8") as f:
        f.write('{\n  "edges": ')
        _write_array(f, _edge_blocks(edges), "  ")
        f.write(',\n  "metadata": {\n    "vertex_meta": ')
        _write_array(f, _provenance_blocks(kind, alpha, base_vertex, level), "    ")
        f.write(f'\n  }},\n  "version": {FORMAT_VERSION},\n  "vertices": ')
        _write_array(f, _carrier_vertex_blocks(base_labels, kind, base_vertex, level), "  ")
        f.write("\n}\n")


def carrier_labels(base_labels: Sequence[str] | None, kind: np.ndarray, base_vertex: np.ndarray,
                   level: np.ndarray) -> list[str] | None:
    """The labels ``write_carrier`` gives the carrier's vertices, for
    ``to_dot``."""
    if base_labels is None:
        return None
    return [f"{base_labels[x]}@{k}" if t else base_labels[x]
            for t, x, k in zip(kind.tolist(), base_vertex.tolist(), level.tolist())]


# -- the block writer ------------------------------------------------------------
#
# ``json.dump`` with an indent runs the pure-Python encoder, one generator step
# per token.  The writer below lays out the same indented text itself: every
# array is written in blocks of ``_BLOCK`` items, and each block is one ``%``
# template repeated over a flat tuple of already encoded values.  ``pad`` is the
# indent of the line that holds an array's brackets; its items sit two spaces in.

_BLOCK = 4096


def _write_array(f, blocks: Iterator[str], pad: str) -> None:
    """Write a JSON array whose items arrive as blocks already joined by
    ``_item_sep(pad)``."""
    first = True
    for text in blocks:
        f.write(("[\n" if first else ",\n") + pad + "  " + text)
        first = False
    f.write("[]" if first else "\n" + pad + "]")


def _item_sep(pad: str) -> str:
    return ",\n" + pad + "  "


def _repeat(template: str, count: int, pad: str) -> str:
    return _item_sep(pad).join([template] * count)


def _object_template(keys: Sequence[str], pad: str) -> str:
    """The indented text of an object with ``keys`` (in this order) sitting at
    indent ``pad``, with one ``%s`` per value."""
    if not keys:
        return "{}"
    inner = pad + "  "
    body = ",\n".join(f"{inner}{encode_basestring(k).replace('%', '%%')}: %s" for k in keys)
    return "{\n" + body + "\n" + pad + "}"


def _edge_blocks(edges: np.ndarray) -> Iterator[str]:
    template = "[\n      %s,\n      %s\n    ]"
    for start in range(0, len(edges), _BLOCK):
        block = edges[start : start + _BLOCK]
        yield _repeat(template, len(block), "  ") % tuple(block.ravel().tolist())


def _id_blocks(n: int) -> Iterator[str]:
    template = _object_template(("id",), "    ")
    for start in range(0, n, _BLOCK):
        ids = range(start, min(start + _BLOCK, n))
        yield _repeat(template, len(ids), "  ") % tuple(ids)


# Carrier records, one template per vertex kind (0 = base vertex, 1 = horoball
# copy), with the constant fields written into the template.  A copy's label
# is its base label's encoding without the closing quote, then ``@k"``.
_VERTEX = _object_template(("id", "label"), "    ")
_COPY_VERTEX = _VERTEX % ("%s", '%s@%s"')
_META = _object_template(("alpha", "base", "kind", "level"), "      ")
_GAMMA_META = _META % ("null", "%s", '"gamma"', "0")
_HORO_META = _META % ("%s", "%s", '"horo"', "%s")


def _kind_runs(kind: np.ndarray) -> Iterator[list[tuple[int, int, int]]]:
    """For each block of ``_BLOCK`` vertices, the (start, stop, kind) of
    every run of equal ``kind`` inside it."""
    for start in range(0, len(kind), _BLOCK):
        block = kind[start : start + _BLOCK]
        cuts = [0, *(np.flatnonzero(block[1:] != block[:-1]) + 1).tolist(), len(block)]
        yield [(start + a, start + b, int(block[a])) for a, b in zip(cuts, cuts[1:])]


def _provenance_blocks(kind, alpha, base_vertex, level) -> Iterator[str]:
    for runs in _kind_runs(kind):
        yield _item_sep("    ").join(
            _repeat(_HORO_META, b - a, "    ") % _interleave(alpha[a:b], base_vertex[a:b], level[a:b])
            if t else
            _repeat(_GAMMA_META, b - a, "    ") % tuple(base_vertex[a:b].tolist())
            for a, b, t in runs)


def _carrier_vertex_blocks(base_labels, kind, base_vertex, level) -> Iterator[str]:
    if base_labels is None:
        yield from _id_blocks(len(kind))
        return
    encoded = np.array([encode_basestring(x) for x in base_labels], dtype=object)
    opened = np.array([e[:-1] for e in encoded], dtype=object)
    for runs in _kind_runs(kind):
        yield _item_sep("  ").join(
            _repeat(_COPY_VERTEX, b - a, "  ") % _interleave(np.arange(a, b), opened[base_vertex[a:b]],
                                                            level[a:b])
            if t else
            _repeat(_VERTEX, b - a, "  ") % _interleave(np.arange(a, b), encoded[base_vertex[a:b]])
            for a, b, t in runs)


def _interleave(*columns: np.ndarray) -> tuple:
    """The values of equal-length columns, row by row, as one flat tuple of
    Python objects."""
    table = np.empty((len(columns[0]), len(columns)), dtype=object)
    for j, column in enumerate(columns):
        table[:, j] = column
    return tuple(table.ravel().tolist())


def read_graph(path: str | pathlib.Path) -> Graph:
    return graph_from_json(read_json(path, "graph file")[0])


def read_json(path: str | pathlib.Path, what: str) -> tuple[Any, str]:
    """The JSON document in a UTF-8 file and the text it was parsed from,
    read once; ``InputError`` naming ``what`` if the file cannot be read
    (missing, a directory, not UTF-8, a NUL in the path) or is not JSON
    (nesting too deep included)."""
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
        return json.loads(text), text
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from None


def to_dot(g: Graph, name: str = "G", levels: Sequence[int] | None = None,
           labels: Sequence[str] | None = None) -> str:
    """Undirected DOT text.  Labels (explicit, or the graph's own) become
    node labels; ``levels``, when given, color nodes per level."""
    if labels is None:
        labels = g.labels
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for v in range(g.num_vertices):
        attrs = []
        if labels is not None:
            attrs.append(f'label="{labels[v]}"')
        if levels is not None:
            k = int(levels[v])
            attrs.append(f"level={k}")
            attrs.append(f'style=filled fillcolor="{_DOT_PALETTE[k % len(_DOT_PALETTE)]}"')
        lines.append(f"  {v} [{', '.join(attrs)}];" if attrs else f"  {v};")
    for u, v in g.edges.tolist():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
