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

``write_graph`` writes exactly ``canonical_json(graph_to_json(g))`` without
building that document.  It lays out the sections itself, from the edge
array, the vertex ids and labels, and the metadata, in blocks of
``_BLOCK`` records.  Each block is one ``%`` template repeated over a flat
tuple of encoded values: strings through ``json``'s own escaper, scalars
spelled as ``json`` spells them.  A metadata list of flat records (such as
``vertex_meta``) gets one template per key set; any other metadata value
goes through ``json`` itself.  So a carrier never reaches the pure-Python
encoder that ``json.dump`` runs under an indent.  ``write_json`` streams
other documents (``report.json``) through ``json.dump`` with the same
options.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
from itertools import chain, groupby
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
    """Write ``canonical_json(graph_to_json(g))`` to ``path``, byte for byte,
    straight from the graph's arrays (see the module docstring)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write('{\n  "edges": ')
        _write_array(f, _edge_blocks(g.edges), "  ")
        f.write(',\n  "metadata": ')
        _write_metadata(f, g.metadata)
        f.write(f',\n  "version": {FORMAT_VERSION},\n  "vertices": ')
        _write_array(f, _vertex_blocks(g.num_vertices, g.labels), "  ")
        f.write("\n}\n")


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


def _vertex_blocks(n: int, labels: Sequence | None) -> Iterator[str]:
    template = _object_template(("id",) if labels is None else ("id", "label"), "    ")
    for start in range(0, n, _BLOCK):
        ids = range(start, min(start + _BLOCK, n))
        if labels is None:
            args = tuple(ids)
        else:
            args = tuple(chain.from_iterable(zip(ids, _encode_column(labels[start : ids.stop], "      "))))
        yield _repeat(template, len(ids), "  ") % args


def _write_metadata(f, metadata: dict) -> None:
    """The metadata object at indent one.  A list of flat records is written
    by ``_record_blocks``; any other value goes through ``_encode``."""
    if not metadata or not all(type(k) is str for k in metadata):
        f.write(_encode(metadata, "  "))
        return
    f.write("{")
    for i, (key, value) in enumerate(sorted(metadata.items())):
        f.write(("\n" if i == 0 else ",\n") + "    " + encode_basestring(key) + ": ")
        if _is_record_list(value):
            _write_array(f, _record_blocks(value, "    "), "    ")
        else:
            f.write(_encode(value, "    "))
    f.write("\n  }")


def _is_record_list(value: Any) -> bool:
    """A list of plain dicts with ``str`` keys, such as ``vertex_meta``."""
    return (type(value) is list and all(type(r) is dict for r in value)
            and all(type(k) is str for k in set(chain.from_iterable(value))))


def _record_blocks(records: list[dict], pad: str) -> Iterator[str]:
    """Blocks of a record list: each run of records with the same keys is one
    template, filled column by column."""
    item_pad = pad + "  "
    for start in range(0, len(records), _BLOCK):
        texts = []
        for keys, run in groupby(records[start : start + _BLOCK], key=lambda r: tuple(sorted(r))):
            run = list(run)
            columns = [_encode_column([r[k] for r in run], item_pad + "  ") for k in keys]
            texts.append(_repeat(_object_template(keys, item_pad), len(run), pad)
                         % tuple(chain.from_iterable(zip(*columns))))
        yield _item_sep(pad).join(texts)


def _encode_column(values: list, pad: str) -> list[str]:
    """``_encode`` of every value, with one C-level pass for the common
    all-``int`` and all-``str`` columns."""
    kinds = set(map(type, values))
    if kinds <= {int}:
        return list(map(int.__repr__, values))
    if kinds <= {str}:
        return list(map(encode_basestring, values))
    return [_encode(v, pad) for v in values]


def _encode(value: Any, pad: str) -> str:
    """``value`` as ``canonical_json`` writes it at indent ``pad``.  The
    scalars are spelled as ``json`` spells them (``None``, ``True`` and
    ``False`` before ``int``; ``NaN`` and ``Infinity`` for floats); anything
    else goes through ``json`` itself and is shifted to ``pad``."""
    kind = type(value)
    if kind is str:
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    return json.dumps(value, **_JSON_OPTIONS).replace("\n", "\n" + pad)


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
