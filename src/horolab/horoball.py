"""Combinatorial horoballs, depth-restricted augmentations, and the
ascend-cross-descend geodesic machinery.

A depth-n horoball over a connected base graph has vertices (v, k) for
0 <= k <= n, vertical edges (v,k)-(v,k+1), and horizontal edges at level k
between base vertices at base distance in (0, 2^k].  Level k is therefore the
2^k-Rips graph of the base, so within-level distances halve (up to rounding)
with each level climbed.  The augmentation of a graph glues one such horoball
onto each member of a family of subgraphs along its level 0.

Every family is a ``SubgraphFamily``: a few templates copied many times, as
the paper's parabolic subgroups act cocompactly on their cosets.  Its
builder vouches for its members (a Cayley ball for its cosets, ``whole``
for a whole base), and the family holds its shape table,
``SubgraphFamily.shapes``: one distance matrix per member shape, computed
once per family, so an experiment over several depths measures each shape
once.  ``glue_horoballs(base, family, depth)`` reads that table and returns
an ``AugmentedSpace``: the carrier's layout, whose vertices and edges
``check_carrier`` has counted and held to their budgets.  The carrier
``Graph`` and its per-vertex provenance (``columns``) are glued by one step,
``_glue``, which emits the edges and provenance of all members of a shape
at once, on the first read of either; ``io.write_carrier`` renders labels
and vertex_meta from the columns.  The space also reads the carrier's edges
at any vertices off its layout (``AugmentedSpace.adjacent``), so the
convexification experiment cuts each scanned neighborhood out of the
layout and never glues a carrier.  The restricted horoball over a whole
base is the one-member case: ``RestrictedHoroball`` is a view over the
glued ``AugmentedSpace`` over ``SubgraphFamily.whole(base)`` that adds the
level-major id arithmetic of the geodesic functions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, check_budget
from .graph import (Graph, Path, SubgraphFamily, check_table, concatenated_ranges, enumerate_geodesics,
                    unique_ints)

ASCENDING = "ascending"
DESCENDING = "descending"
HORIZONTAL = "horizontal"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class RestrictedHoroball:
    """Depth-``depth`` horoball over ``base``: a view over the one-member
    ``AugmentedSpace`` glued over ``SubgraphFamily.whole(base)``, which has its
    ``base``, ``depth`` and ``carrier``, and as its member's metric the base's
    distance matrix, ``base_metric``.

    Vertex ids are level-major: (v, k) has id k*|base| + v, since the
    member's level-k block starts at k*|base|, and level 0 keeps the base's
    own ids.  ``columns`` are the space's, except that every vertex, level 0
    included, is a copy in member 0, so ``io.write_carrier`` labels it
    ``x@k``.
    """

    def __init__(self, space: AugmentedSpace):
        self.base, self.depth, self.carrier = space.base, space.depth, space.carrier
        kind, alpha, base_vertex, level = space.columns  # left as they are in ``space``
        self.columns = (np.ones_like(kind), np.zeros_like(alpha), base_vertex, level)
        self.base_metric = space.member_metric(0)

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

    def level_vertices(self, level: int) -> range:
        if not 0 <= level <= self.depth:
            raise InputError(f"no level {level}")
        v = self.base.num_vertices
        return range(level * v, (level + 1) * v)

    def deep_vertices(self, level: int) -> range:
        """All vertices at levels >= level."""
        return range(level * self.base.num_vertices, self.carrier.num_vertices)

    def _check(self, vid: int) -> None:
        if not 0 <= vid < self.carrier.num_vertices:
            raise InputError(f"unknown vertex id {vid}")

    def __repr__(self) -> str:
        return f"RestrictedHoroball(base |V|={self.base.num_vertices}, depth={self.depth})"


def build_restricted_horoball(base: Graph, depth: int,
                              check: Callable[[int], None] | None = None) -> RestrictedHoroball:
    """Depth-``depth`` horoball over all of ``base``: the view over
    ``glue_horoballs`` of the one member ``SubgraphFamily.whole(base)``.  A
    disconnected base is refused by ``SubgraphFamily.shapes``.

    The carrier floor and the base's table are checked before the base's
    distance matrix exists; then ``check``, when given, is called with the
    carrier's vertex count, (depth + 1) * |base|, so that a caller refuses
    what it would do with the carrier before any distance row."""
    family = SubgraphFamily.whole(base)
    check_carrier(base, family, depth)
    check_table(base.num_vertices)
    if check is not None:
        check((depth + 1) * base.num_vertices)
    return RestrictedHoroball(glue_horoballs(base, family, depth))


def _crossing_costs(d_base, k: int, l: int, depth: int) -> list:
    """Lengths of the ascend-cross-descend paths between (x,k) and (y,l),
    one per crossing level m = max(k,l), ..., depth, for base distance
    ``d_base`` = d(x, y): (m-k) + (m-l) + ceil(D / 2^m).

    ``d_base`` may be an int or an integer array of base distances; each
    cost then has its shape.  The list stops at the first m with 2^m >= max
    D (or at ``depth``): from there on every ceil(D / 2^m) stays 0 or 1, so
    each further cost is 2 more than the one before, and stopping keeps the
    minimum and its first index.
    """
    saturated = max(int(np.max(d_base, initial=0)) - 1, 0).bit_length()
    top = min(depth, max(k, l, saturated))
    return [(m - k) + (m - l) + _ceil_div(d_base, 2**m) for m in range(max(k, l), top + 1)]


def crossing_distance(d_base, k: int, l: int, depth: int):
    """Exact distance between (x,k) and (y,l) in a depth-``depth`` horoball
    whose base distance d(x, y) is ``d_base`` (an int or an integer array),
    by the crossing-level formula: the minimum of ``_crossing_costs``.  A
    crossing below max(k,l) or split across levels is never shorter, and
    D = 0 gives |k - l|.  Agreement with carrier BFS is checked in the tests
    and by the acceptance suite.
    """
    return functools.reduce(np.minimum, _crossing_costs(d_base, k, l, depth))


def horoball_distance(h: RestrictedHoroball, v1: int, v2: int) -> int:
    """Exact carrier distance, via ``crossing_distance``."""
    x, k = h.base_of(v1), h.level_of(v1)
    y, l = h.base_of(v2), h.level_of(v2)
    return int(crossing_distance(int(h.base_metric[x, y]), k, l, h.depth))


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


def normal_form_geodesic(h: RestrictedHoroball, v1: int, v2: int) -> GeodesicNormalForm:
    """The ascend-cross-descend geodesic from ``v1`` to ``v2``, crossing
    along the first path of ``enumerate_geodesics``.  Over one base vertex
    (D = 0) the crossing is that vertex at level max(k, l)."""
    x, k = h.base_of(v1), h.level_of(v1)
    y, l = h.base_of(v2), h.level_of(v2)
    d_base = int(h.base_metric[x, y])
    costs = _crossing_costs(d_base, k, l, h.depth)
    m = max(k, l) + costs.index(min(costs))
    if m < h.depth and _ceil_div(d_base, 2**m) in (4, 5):
        m += 1  # same total length, crossing shrinks to <= 3

    step = 2**m
    (base_geo,), _ = enumerate_geodesics(h.base, x, y, cap=1, dist_to_target=h.base_metric[y])
    waypoints = list(range(0, d_base, step)) + [d_base]
    crossing = [h.vertex_id(base_geo.vertices[i], m) for i in waypoints]

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


@dataclass(eq=False, repr=False)
class AugmentedSpace:
    """A base graph with one depth-``depth`` horoball glued onto each family
    member along its level 0, held as its layout.

    Member ``a``'s level-k copy of its local vertex i has the id
    ``_block_starts[a] + (k-1)*s + i``, s its size, and the carrier has
    ``num_vertices`` = |base| + depth * (member vertices) ids and the
    ``num_edges`` that ``check_carrier`` counted.  The carrier
    ``Graph`` and its provenance ``columns`` are glued by ``_glue`` on the
    first read of either.  ``columns`` are the arrays (kind, alpha,
    base_vertex, level): kind 0 on base vertices and 1 on horoball copies,
    alpha the member index (-1 on base vertices).  ``adjacent`` reads edges
    off the layout, so ``graph.neighborhood_subgraph`` cuts a neighborhood
    out of the space without the carrier."""

    base: Graph
    family: SubgraphFamily
    depth: int
    num_vertices: int
    num_edges: int
    _block_starts: np.ndarray  # int64, one per member

    @functools.cached_property
    def _glued(self) -> tuple[Graph, tuple]:
        edges, columns = _glue(self)
        return Graph(self.num_vertices, edges), columns

    @property
    def carrier(self) -> Graph:
        return self._glued[0]

    @property
    def columns(self) -> tuple:
        return self._glued[1]

    def member_metric(self, alpha: int) -> np.ndarray:
        """Member ``alpha``'s int32 distance matrix over its local indices,
        shared by every member of its shape."""
        shape_of, dmats = self.family.shapes
        return dmats[shape_of[alpha]]

    def level_vertices(self, alpha: int, level: int) -> np.ndarray:
        """Carrier ids of member ``alpha``'s level-``level`` copy, in member
        order, as an int64 array; level 0 is the member itself, a view
        into ``family.vertices`` not to be written to."""
        alpha = range(len(self.family))[alpha]  # IndexError past the end, as for a list
        lo, hi = self.family.offsets[alpha:alpha + 2].tolist()
        if level == 0:
            return self.family.vertices[lo:hi]
        if not 1 <= level <= self.depth:
            raise InputError(f"no level {level}")
        start = int(self._block_starts[alpha]) + (level - 1) * (hi - lo)
        return np.arange(start, start + hi - lo, dtype=np.int64)

    def adjacent(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The carrier's edge ends at ``vertices`` as ``Graph.adjacent``
        gives them, read off the layout: base edges from the base's CSR, a
        vertical edge from a base vertex up to level 1 of each member through
        it, from a copy up a level and down a level (level 1 steps down to
        the member's base vertex), and at level k a horizontal edge to each
        copy at member distance in (0, 2^k], from the shape matrix."""
        v = np.asarray(vertices, dtype=np.int64)
        n0, family, starts = self.base.num_vertices, self.family, self._block_starts
        offsets = family.offsets
        owners, ends = [], []

        at = np.flatnonzero(v < n0)
        owner, nb = self.base.adjacent(v[at])
        owners.append(at[owner])
        ends.append(nb)
        first, slot_of = family.slots_by_vertex
        lo = np.searchsorted(first, v[at])
        counts = np.searchsorted(first, v[at], side="right") - lo
        slots = slot_of[concatenated_ranges(lo, counts)]
        a = np.searchsorted(offsets, slots, side="right") - 1
        owners.append(np.repeat(at, counts))
        ends.append(starts[a] + slots - offsets[a])

        at = np.flatnonzero(v >= n0)
        copy = v[at]
        # the last member starting at or before a copy is its own, as an
        # empty member starts where the next one does
        a = np.searchsorted(starts, copy, side="right") - 1
        size = family.sizes[a]
        k, i = np.divmod(copy - starts[a], size)
        k += 1
        owners += [at, at[k < self.depth]]
        ends += [np.where(k == 1, family.vertices[offsets[a] + i], copy - size), (copy + size)[k < self.depth]]
        shape_of, dmats = self.family.shapes
        shape = shape_of[a]
        for sigma in unique_ints(shape).tolist():
            sel = np.flatnonzero(shape == sigma)
            d = dmats[sigma][i[sel]]
            # 2^30 exceeds every member distance, so k caps there
            row, j = np.nonzero((d > 0) & (d <= np.left_shift(1, np.minimum(k[sel], 30))[:, None]))
            owners.append(at[sel][row])
            ends.append((copy - i)[sel][row] + j)
        return np.concatenate(owners), np.concatenate(ends)

    def __repr__(self) -> str:
        return (f"AugmentedSpace(|base|={self.base.num_vertices}, "
                f"family={len(self.family)}, depth={self.depth}, "
                f"|carrier|={self.num_vertices})")


def glue_horoballs(base: Graph, family: SubgraphFamily, depth: int) -> AugmentedSpace:
    """Lay out a depth-``depth`` horoball on each family member, over the
    family's shape table (``SubgraphFamily.shapes``), which the family
    computes once, so that a run over several depths measures the members
    once.  The carrier is counted here and refused over its budgets
    (``check_carrier``), and glued only when the space's ``carrier`` or
    ``columns`` is first read; its labels and vertex_meta are rendered from
    the columns by ``io.write_carrier``."""
    if depth < 1:
        raise InputError("depth must be >= 1")
    total, edges = check_carrier(base, family, depth, exact=True)
    # without copies any depth lays out nothing, and a factor of 1 keeps a huge one from overflowing
    block_starts = base.num_vertices + family.offsets[:-1] * (depth if total > base.num_vertices else 1)
    return AugmentedSpace(base, family, depth, total, edges, block_starts)


def _first_complete_level(diameter: int) -> int:
    """The first level k >= 1 whose 2^k reaches ``diameter``: from there on
    a level joins all pairs of a member of that diameter."""
    return max(1, max(diameter - 1, 0).bit_length())


def _level_pairs(dmat: np.ndarray, depth: int) -> int:
    """The horizontal edges of one member of the shape with distance matrix
    ``dmat``, summed over levels 1..depth: at level k, its pairs at member
    distance in (0, 2^k]."""
    complete = _first_complete_level(int(dmat.max(initial=0)))
    pairs = [int(np.count_nonzero((dmat > 0) & (dmat <= 2**k))) // 2 for k in range(1, min(depth, complete) + 1)]
    return sum(pairs) + pairs[-1] * max(0, depth - complete)


def check_carrier(base: Graph, family: SubgraphFamily, depth: int, exact: bool = False) -> tuple[int, int]:
    """Count the depth-``depth`` carrier over ``family`` and refuse it, with
    ``ResourceLimitError``, over the carrier budget in vertices or the
    carrier edge budget in edges, before any carrier array exists.  Returns
    its vertex count, |V| + depth * (member vertices), and its edge count.

    Its edges are the base's, depth * s vertical ones per member of s
    vertices, and per member and level its pairs within 2^k.  An ``exact``
    count reads the family's shape table.  Otherwise it is a floor from the
    member sizes alone, checked before any shape matrix is computed: a
    connected member of s vertices has diameter at most s - 1, so every
    level from ``_first_complete_level(s - 1)`` on joins all of its pairs.
    (A disconnected member is refused by ``SubgraphFamily.shapes``.)
    """
    n0, copied = base.num_vertices, int(family.offsets[-1])
    total = n0 + depth * copied  # Python ints: exact at any depth
    check_budget("carrier", total, f"carrier of {total} vertices ({n0} base + depth {depth} x {copied} "
                 "member vertices) exceeds")
    if not exact:
        sizes = np.bincount(family.sizes)
        horizontal = sum(int(sizes[s]) * max(0, depth - _first_complete_level(s - 1) + 1) * (s * (s - 1) // 2)
                         for s in np.flatnonzero(sizes).tolist())
    else:
        shape_of, dmats = family.shapes
        members = np.bincount(shape_of, minlength=len(dmats)).tolist()
        horizontal = sum(m * _level_pairs(dmat, depth) for m, dmat in zip(members, dmats) if m)
    edges = base.num_edges + depth * copied + horizontal
    check_budget("carrier edge", edges, f"carrier of {'' if exact else 'at least '}{edges} edges "
                 f"at depth {depth} exceeds")
    return total, edges


def _glue(space: AugmentedSpace) -> tuple:
    """The one gluing step: the carrier edges and per-vertex provenance of
    ``space``, laid out by ``glue_horoballs``.

    The work is done per shape, not per member: a shape's level-k
    horizontal pairs come from its distance matrix once, and one broadcast
    over the block offsets of all its members emits their edges and
    provenance.  On Cayley balls the parabolic subgroups act cocompactly on
    their cosets, so the coset family has only a few shapes however many
    members it has (Z^2*Z^2 at radius 4: 1,970 members, 5 shapes).

    Returns (edges, columns), with the provenance columns (kind, alpha,
    base_vertex, level) of ``AugmentedSpace``.
    """
    base, family, total, depth = space.base, space.family, space.num_vertices, space.depth
    shape_of, dmats = family.shapes
    n0 = base.num_vertices
    offsets, vertices = family.offsets, family.vertices

    kind = np.zeros(total, dtype=np.int8)
    alpha = np.full(total, -1, dtype=np.int32)
    base_vertex = np.zeros(total, dtype=np.int32)
    level = np.zeros(total, dtype=np.int32)
    base_vertex[:n0] = np.arange(n0)

    chunks = [np.asarray(base.edges, dtype=np.int64)]
    by_shape = np.split(np.argsort(shape_of, kind="stable"),
                        np.cumsum(np.bincount(shape_of, minlength=len(dmats)))[:-1])
    for dmat, members in zip(dmats, by_shape):
        s = dmat.shape[0]
        if not s:  # members without vertices glue nothing at any depth
            continue
        # ids[m, k-1, i]: level-k copy of local vertex i of the m-th member
        ids = (space._block_starts[members, None, None]
               + (np.arange(depth, dtype=np.int64) * s)[None, :, None]
               + np.arange(s, dtype=np.int64)[None, None, :])
        bottom = vertices[offsets[members, None] + np.arange(s)]
        kind[ids] = 1
        alpha[ids] = members[:, None, None]
        base_vertex[ids] = bottom[:, None, :]
        level[ids] = np.arange(1, depth + 1)[None, :, None]

        # vertical edges: level 0 (the member itself) up to level depth
        below = np.concatenate([bottom[:, None, :], ids[:, :-1, :]], axis=1)
        chunks.append(np.stack([below.ravel(), ids.ravel()], axis=1))
        # horizontal edges at levels >= 1 (level 0 edges are base edges);
        # from the first level whose 2^k reaches the shape's diameter on,
        # every level joins all pairs, so those levels take one pair list
        complete = _first_complete_level(int(dmat.max(initial=0)))
        for k in range(1, min(depth, complete) + 1):
            iu, iv = np.nonzero(np.triu((dmat > 0) & (dmat <= 2**k), k=1))
            levels = ids[:, k - 1:k if k < complete else depth, :]
            chunks.append(np.stack([levels[:, :, iu].ravel(), levels[:, :, iv].ravel()], axis=1))

    return np.concatenate(chunks, axis=0), (kind, alpha, base_vertex, level)
