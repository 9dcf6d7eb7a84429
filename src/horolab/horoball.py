"""Combinatorial horoballs, depth-restricted augmentations, and the
ascend-cross-descend geodesic machinery.

A depth-n horoball over a connected base graph has vertices (v, k) for
0 <= k <= n, vertical edges (v,k)-(v,k+1), and horizontal edges at level k
between base vertices at base distance in (0, 2^k].  Level k is therefore the
2^k-Rips graph of the base, so within-level distances halve (up to rounding)
with each level climbed.  The augmentation of a graph glues one such horoball
onto each member of a family of subgraphs along its level 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .graph import INF, DistanceOracle, Graph, Path, distance_rows

ASCENDING = "ascending"
DESCENDING = "descending"
HORIZONTAL = "horizontal"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class RestrictedHoroball:
    """Depth-``depth`` horoball over ``base``.

    Vertex ids are level-major: (v, k) has id k*|base| + v, so level 0 keeps
    the base's own ids.
    """

    def __init__(self, base: Graph, depth: int, carrier: Graph, base_oracle: DistanceOracle):
        self.base = base
        self.depth = depth
        self.carrier = carrier
        self.base_oracle = base_oracle

    def vertex_id(self, base_vertex: int, level: int) -> int:
        if not 0 <= base_vertex < self.base.num_vertices or not 0 <= level <= self.depth:
            raise InputError(f"no vertex ({base_vertex}, {level}) in this horoball")
        return level * self.base.num_vertices + base_vertex

    def level_of(self, vid: int) -> int:
        self._check(vid)
        return vid // self.base.num_vertices

    def base_of(self, vid: int) -> int:
        self._check(vid)
        return vid % self.base.num_vertices

    def base_distance(self, x: int, y: int) -> int:
        return self.base_oracle.distance(x, y)

    def level_vertices(self, level: int) -> range:
        if not 0 <= level <= self.depth:
            raise InputError(f"no level {level}")
        v = self.base.num_vertices
        return range(level * v, (level + 1) * v)

    def deep_vertices(self, level: int) -> list[int]:
        """All vertices at levels >= level."""
        return [vid for k in range(level, self.depth + 1) for vid in self.level_vertices(k)]

    def _check(self, vid: int) -> None:
        if not 0 <= vid < self.carrier.num_vertices:
            raise InputError(f"unknown vertex id {vid}")

    def __repr__(self) -> str:
        return f"RestrictedHoroball(base |V|={self.base.num_vertices}, depth={self.depth})"


def build_restricted_horoball(base: Graph, depth: int) -> RestrictedHoroball:
    if depth < 1:
        raise InputError("depth must be >= 1")
    if not base.is_connected():
        raise InputError("horoball base must be connected")

    v = base.num_vertices
    oracle = DistanceOracle(base)
    dmat = oracle.matrix()

    chunks = []
    # vertical edges (x, k) - (x, k+1)
    ids = np.arange(v, dtype=np.int64)
    for k in range(depth):
        lo = k * v + ids
        chunks.append(np.stack([lo, lo + v], axis=1))
    # horizontal edges per level; level 0 is the base itself
    for k in range(depth + 1):
        iu, iv = np.nonzero(np.triu((dmat > 0) & (dmat <= 2**k), k=1))
        chunks.append(np.stack([iu + k * v, iv + k * v], axis=1))

    labels = None
    if base.labels is not None:
        labels = [f"{base.labels[x]}@{k}" for k in range(depth + 1) for x in range(v)]
    meta = {
        "vertex_meta": [
            {"kind": "horo", "alpha": 0, "base": x, "level": k}
            for k in range(depth + 1)
            for x in range(v)
        ]
    }
    carrier = Graph(v * (depth + 1), np.concatenate(chunks, axis=0), labels=labels, metadata=meta)
    return RestrictedHoroball(base, depth, carrier, oracle)


def horoball_distance(h: RestrictedHoroball, v1: int, v2: int) -> int:
    """Exact carrier distance, via the crossing-level formula.

    For endpoints (x,k), (y,l) with base distance D the distance is
    min over levels m in [max(k,l), depth] of (m-k) + (m-l) + ceil(D / 2^m);
    a crossing below max(k,l) or split across levels is never shorter.
    Agreement with carrier BFS is enforced by the acceptance suite.
    """
    x, k = h.base_of(v1), h.level_of(v1)
    y, l = h.base_of(v2), h.level_of(v2)
    if x == y:
        return abs(k - l)
    d_base = h.base_distance(x, y)
    best = None
    for m in range(max(k, l), h.depth + 1):
        cost = (m - k) + (m - l) + _ceil_div(d_base, 2**m)
        if best is None or cost < best:
            best = cost
    return best


@dataclass(frozen=True)
class GeodesicNormalForm:
    """Geodesic shaped as ascent, one horizontal crossing, descent.

    Degenerate segments are single-vertex paths.  When the crossing sits
    below the top level its length is at most 3: a crossing of 4 or 5 edges
    costs the same after climbing one more level, and the builder always
    climbs in that situation.
    """

    ascent: Path
    crossing: Path
    descent: Path
    top_level: int

    @property
    def path(self) -> Path:
        vs = list(self.ascent.vertices)
        for seg in (self.crossing, self.descent):
            vs.extend(seg.vertices[1:] if vs and seg.vertices[0] == vs[-1] else seg.vertices)
        return Path(tuple(vs))

    @property
    def length(self) -> int:
        return self.ascent.length + self.crossing.length + self.descent.length


def _lex_first_base_geodesic(h: RestrictedHoroball, x: int, y: int) -> list[int]:
    dist_to_y = h.base_oracle.row(y)
    seq = [x]
    cur = x
    while cur != y:
        d = dist_to_y[cur]
        for z in h.base.neighbors(cur):
            if dist_to_y[z] == d - 1:
                cur = int(z)
                break
        seq.append(cur)
    return seq


def normal_form_geodesic(h: RestrictedHoroball, v1: int, v2: int) -> GeodesicNormalForm:
    x, k = h.base_of(v1), h.level_of(v1)
    y, l = h.base_of(v2), h.level_of(v2)

    if x == y:
        top = max(k, l)
        if k > l:
            ascent = [h.vertex_id(x, k)]
            descent = [h.vertex_id(x, j) for j in range(k, l - 1, -1)]
        else:
            ascent = [h.vertex_id(x, j) for j in range(k, l + 1)]
            descent = [h.vertex_id(x, l)]
        return GeodesicNormalForm(
            ascent=Path(tuple(ascent)),
            crossing=Path((h.vertex_id(x, top),)),
            descent=Path(tuple(descent)),
            top_level=top,
        )

    d_base = h.base_distance(x, y)
    costs = {
        m: (m - k) + (m - l) + _ceil_div(d_base, 2**m)
        for m in range(max(k, l), h.depth + 1)
    }
    best = min(costs.values())
    m = min(mm for mm, c in costs.items() if c == best)
    if m < h.depth and _ceil_div(d_base, 2**m) in (4, 5):
        m += 1  # same total length, crossing shrinks to <= 3

    step = 2**m
    base_geo = _lex_first_base_geodesic(h, x, y)
    waypoints = list(range(0, d_base, step)) + [d_base]
    crossing = [h.vertex_id(base_geo[i], m) for i in waypoints]

    ascent = [h.vertex_id(x, j) for j in range(k, m + 1)]
    descent = [h.vertex_id(y, j) for j in range(m, l - 1, -1)]
    return GeodesicNormalForm(
        ascent=Path(tuple(ascent)),
        crossing=Path(tuple(crossing)),
        descent=Path(tuple(descent)),
        top_level=m,
    )


# -- segment decomposition and geodesic shape checks -------------------------


@dataclass(frozen=True)
class Segment:
    kind: str  # ASCENDING / DESCENDING / HORIZONTAL
    level: int | None  # constant level for horizontal runs
    start: int  # index range into the path, inclusive
    end: int

    @property
    def edge_count(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class SegmentClassification:
    path: Path
    segments: tuple[Segment, ...]

    def counts(self) -> dict[str, int]:
        out = {ASCENDING: 0, DESCENDING: 0, HORIZONTAL: 0}
        for s in self.segments:
            out[s.kind] += 1
        return out


def classify_segments(h: RestrictedHoroball, p: Path) -> SegmentClassification:
    """Maximal alternating decomposition into ascending / descending /
    horizontal runs."""
    vs = p.vertices
    for a, b in zip(vs, vs[1:]):
        if not h.carrier.has_edge(a, b):
            raise InputError(f"not a path in the carrier: {a} and {b} not adjacent")

    if len(vs) == 1:
        return SegmentClassification(path=p, segments=())

    tags = []
    for a, b in zip(vs, vs[1:]):
        la, lb = h.level_of(a), h.level_of(b)
        if h.base_of(a) == h.base_of(b) and abs(la - lb) == 1:
            tags.append(ASCENDING if lb > la else DESCENDING)
        else:
            tags.append(HORIZONTAL)

    segments = []
    start = 0
    for i in range(1, len(tags) + 1):
        if i == len(tags) or tags[i] != tags[start]:
            level = h.level_of(vs[start]) if tags[start] == HORIZONTAL else None
            segments.append(Segment(kind=tags[start], level=level, start=start, end=i))
            start = i
    return SegmentClassification(path=p, segments=tuple(segments))


#: Violation identifiers reported by verify_geodesic_shape.
ASCENT_AFTER_DESCENT = "ascent_after_descent"
LONG_HORIZONTAL_OFF_MAX = "long_horizontal_below_max_level"
VERY_LONG_HORIZONTAL_OFF_TOP = "very_long_horizontal_below_top"
TOO_MANY_VERTICAL_RUNS = "more_than_two_vertical_runs"
BELOW_ENDPOINT_LEVEL = "below_minimum_endpoint_level"
ABOVE_CAPPED_HORIZONTAL = "level_exceeded_after_capped_horizontal"

SHAPE_CLAUSES = (
    ASCENT_AFTER_DESCENT,
    LONG_HORIZONTAL_OFF_MAX,
    VERY_LONG_HORIZONTAL_OFF_TOP,
    TOO_MANY_VERTICAL_RUNS,
    BELOW_ENDPOINT_LEVEL,
    ABOVE_CAPPED_HORIZONTAL,
)


@dataclass(frozen=True)
class ShapeReport:
    passed: bool
    violations: tuple[tuple[str, str], ...]
    classification: SegmentClassification


def verify_geodesic_shape(h: RestrictedHoroball, p: Path) -> ShapeReport:
    """Check the structural laws every horoball geodesic must satisfy.

    The path must actually be a geodesic (checked against the exact metric);
    a non-geodesic input is a precondition failure, not a shape violation.
    """
    if p.length != horoball_distance(h, p.start, p.end):
        raise InputError("path is not a geodesic between its endpoints")

    cls = classify_segments(h, p)
    levels = [h.level_of(v) for v in p.vertices]
    max_level = max(levels)
    violations: list[tuple[str, str]] = []

    descended = False
    for seg in cls.segments:
        if seg.kind == DESCENDING:
            descended = True
        elif seg.kind == ASCENDING and descended:
            violations.append((ASCENT_AFTER_DESCENT, f"ascent at index {seg.start}"))

    for seg in cls.segments:
        if seg.kind != HORIZONTAL:
            continue
        if seg.edge_count >= 2 and seg.level != max_level:
            violations.append(
                (LONG_HORIZONTAL_OFF_MAX,
                 f"length-{seg.edge_count} horizontal at level {seg.level}, max level {max_level}")
            )
        if seg.edge_count >= 6 and seg.level != h.depth:
            violations.append(
                (VERY_LONG_HORIZONTAL_OFF_TOP,
                 f"length-{seg.edge_count} horizontal at level {seg.level} < depth {h.depth}")
            )
        if seg.edge_count >= 2 and seg.level < h.depth and max_level > seg.level:
            violations.append(
                (ABOVE_CAPPED_HORIZONTAL,
                 f"path reaches level {max_level} despite a long horizontal at {seg.level}")
            )

    counts = cls.counts()
    if counts[ASCENDING] > 2 or counts[DESCENDING] > 2:
        violations.append(
            (TOO_MANY_VERTICAL_RUNS,
             f"{counts[ASCENDING]} ascending / {counts[DESCENDING]} descending runs")
        )

    floor = min(levels[0], levels[-1])
    if min(levels) < floor:
        violations.append(
            (BELOW_ENDPOINT_LEVEL, f"path dips to level {min(levels)} below endpoint floor {floor}")
        )

    return ShapeReport(passed=not violations, violations=tuple(violations), classification=cls)


# -- augmented spaces ---------------------------------------------------------


@dataclass(frozen=True)
class Subgraph:
    """A subgraph of an ambient graph, by vertex ids and explicit edges.

    The edge list may be a strict subset of the induced edges (coset
    subgraphs keep only their own factor's edges)."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


class AugmentedSpace:
    """A base graph with one depth-``depth`` horoball glued onto each family
    member along its level 0."""

    def __init__(self, base, family, depth, carrier, kind, alpha, base_vertex, level, block_starts):
        self.base: Graph = base
        self.family: tuple[Subgraph, ...] = family
        self.depth: int = depth
        self.carrier: Graph = carrier
        self._kind = kind            # 0 = base vertex, 1 = horoball copy
        self._alpha = alpha          # family index, -1 for base vertices
        self._base_vertex = base_vertex
        self._level = level
        self._block_starts = block_starts

    def provenance(self, vid: int) -> tuple:
        if not 0 <= vid < self.carrier.num_vertices:
            raise InputError(f"unknown vertex id {vid}")
        if self._kind[vid] == 0:
            return ("gamma", int(self._base_vertex[vid]))
        return ("horo", int(self._alpha[vid]), int(self._base_vertex[vid]), int(self._level[vid]))

    def level_of(self, vid: int) -> int:
        return int(self._level[vid])

    def base_vertex_of(self, vid: int) -> int:
        return int(self._base_vertex[vid])

    def horo_vertex(self, alpha: int, base_vid: int, level: int) -> int:
        """Carrier id of the level-``level`` copy of a member vertex."""
        member = self.family[alpha]
        if level == 0:
            return base_vid
        if not 1 <= level <= self.depth:
            raise InputError(f"no level {level}")
        try:
            idx = member.vertices.index(base_vid)
        except ValueError:
            raise InputError(f"vertex {base_vid} not in family member {alpha}") from None
        s = len(member.vertices)
        return self._block_starts[alpha] + (level - 1) * s + idx

    def level_vertices(self, alpha: int, level: int) -> list[int]:
        member = self.family[alpha]
        if level == 0:
            return list(member.vertices)
        s = len(member.vertices)
        start = self._block_starts[alpha] + (level - 1) * s
        return list(range(start, start + s))

    def vertex_meta(self) -> list[dict]:
        return _vertex_meta(self._kind, self._alpha, self._base_vertex, self._level)

    def __repr__(self) -> str:
        return (f"AugmentedSpace(|base|={self.base.num_vertices}, "
                f"family={len(self.family)}, depth={self.depth}, "
                f"|carrier|={self.carrier.num_vertices})")


def _vertex_meta(kind, alpha, base_vertex, level) -> list[dict]:
    return [
        {"kind": "gamma", "alpha": None, "base": b, "level": 0}
        if t == 0
        else {"kind": "horo", "alpha": a, "base": b, "level": k}
        for t, a, b, k in zip(kind.tolist(), alpha.tolist(), base_vertex.tolist(), level.tolist())
    ]


def _member_local_edges(base: Graph, member: Subgraph, where: str) -> list[tuple[int, int]]:
    local = {v: i for i, v in enumerate(member.vertices)}
    if len(local) != len(member.vertices):
        raise InputError(f"{where}: repeated vertices")
    for v in member.vertices:
        if not 0 <= v < base.num_vertices:
            raise InputError(f"{where}: vertex {v} outside the base graph")
    edges = []
    for u, v in member.edges:
        if u not in local or v not in local:
            raise InputError(f"{where}: edge ({u}, {v}) leaves the member")
        if not base.has_edge(u, v):
            raise InputError(f"{where}: edge ({u}, {v}) is not a base edge")
        edges.append((local[u], local[v]))
    return edges


def member_shapes(base: Graph, family: Sequence[Subgraph]) -> tuple[list[int], list[np.ndarray]]:
    """Validate every family member and group the members by shape.

    A member's shape is its size plus its sorted local edge list, where a
    vertex's local index is its position in ``member.vertices``; members of
    one shape have the same graph on their local indices.
    Returns the shape index of each member and, per shape, its int32
    distance matrix over local indices.  A disconnected shape is reported on
    the first member that has it.
    """
    index: dict[tuple, int] = {}
    shape_of: list[int] = []
    dmats: list[np.ndarray] = []
    for a, member in enumerate(family):
        where = f"family member {a}"
        local_edges = _member_local_edges(base, member, where)
        s = len(member.vertices)
        key = (s, tuple(sorted({(min(e), max(e)) for e in local_edges})))
        shape = index.get(key)
        if shape is None:
            dmat = distance_rows(Graph(s, key[1]), range(s))
            if np.any(dmat >= INF):
                raise InputError(f"{where}: member is not connected")
            shape = index[key] = len(dmats)
            dmats.append(dmat)
        shape_of.append(shape)
    return shape_of, dmats


def build_augmented(
    base: Graph,
    family: Sequence[Subgraph],
    depth: int,
    with_meta: bool = False,
) -> AugmentedSpace:
    """Glue a depth-``depth`` horoball onto each family member.

    Member ``a`` owns the block of carrier ids ``block_starts[a] + (k-1)*s +
    i`` for its level-k copy of local vertex ``i`` (``s`` its size); level 0
    is the member itself, inside the base.  The work is done per shape, not
    per member (see ``member_shapes``): a shape's level-k horizontal pairs
    come from its distance matrix once, and one broadcast over the block
    offsets of all its members emits their edges and provenance.  On Cayley
    balls the parabolic subgroups act cocompactly on their cosets, so the
    coset family has only a few shapes however many members it has
    (Z^2*Z^2 at radius 4: 1,970 members, 5 shapes).
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    family = tuple(Subgraph(tuple(m.vertices), tuple(tuple(e) for e in m.edges)) for m in family)
    shape_of, dmats = member_shapes(base, family)

    n0 = base.num_vertices
    blocks = np.array([len(m.vertices) for m in family], dtype=np.int64) * depth
    block_starts = n0 + np.cumsum(blocks) - blocks
    total = int(n0 + blocks.sum())

    kind = np.zeros(total, dtype=np.int8)
    alpha = np.full(total, -1, dtype=np.int32)
    base_vertex = np.zeros(total, dtype=np.int32)
    level = np.zeros(total, dtype=np.int32)
    base_vertex[:n0] = np.arange(n0)

    chunks = [np.asarray(base.edges, dtype=np.int64)]
    shape_of = np.asarray(shape_of, dtype=np.int64)
    by_shape = np.split(np.argsort(shape_of, kind="stable"),
                        np.cumsum(np.bincount(shape_of, minlength=len(dmats)))[:-1])
    for dmat, members in zip(dmats, by_shape):
        s = dmat.shape[0]
        # ids[m, k-1, i]: level-k copy of local vertex i of the m-th member
        ids = (block_starts[members, None, None]
               + (np.arange(depth, dtype=np.int64) * s)[None, :, None]
               + np.arange(s, dtype=np.int64)[None, None, :])
        bottom = np.array([family[a].vertices for a in members], dtype=np.int64)
        kind[ids] = 1
        alpha[ids] = members[:, None, None]
        base_vertex[ids] = bottom[:, None, :]
        level[ids] = np.arange(1, depth + 1)[None, :, None]

        # vertical edges: level 0 (the member itself) up to level depth
        below = np.concatenate([bottom[:, None, :], ids[:, :-1, :]], axis=1)
        chunks.append(np.stack([below.ravel(), ids.ravel()], axis=1))
        # horizontal edges at levels >= 1 (level 0 edges are base edges)
        for k in range(1, depth + 1):
            iu, iv = np.nonzero(np.triu((dmat > 0) & (dmat <= 2**k), k=1))
            level_ids = ids[:, k - 1, :]
            chunks.append(np.stack([level_ids[:, iu].ravel(), level_ids[:, iv].ravel()], axis=1))

    labels = None
    meta = {}
    if with_meta:
        if base.labels is not None:
            labels = list(base.labels) + [
                f"{base.labels[v]}@{k}"
                for v, k in zip(base_vertex[n0:].tolist(), level[n0:].tolist())
            ]
        meta = {"vertex_meta": _vertex_meta(kind, alpha, base_vertex, level)}

    carrier = Graph(total, np.concatenate(chunks, axis=0), labels=labels, metadata=meta)
    return AugmentedSpace(base, family, depth, carrier, kind, alpha, base_vertex, level,
                          block_starts.tolist())
