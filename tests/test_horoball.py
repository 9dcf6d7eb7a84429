"""Horoballs, geodesic normal forms, shape laws, augmented spaces."""

from __future__ import annotations

import itertools
import pathlib
import random
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horolab import (
    DistanceOracle,
    Graph,
    InputError,
    Path,
    ResourceLimitError,
    cayley_ball,
    distance_rows,
    enumerate_geodesics,
    free,
    free_abelian,
    free_product,
    heisenberg,
)
from horolab.graph import (SubgraphFamily, cycle_graph, distance_to_set, grid_graph, neighborhood_subgraph,
                           path_graph)
from horolab.horoball import (
    ASCENDING,
    DESCENDING,
    HORIZONTAL,
    RestrictedHoroball,
    build_restricted_horoball,
    classify_segments,
    crossing_distance,
    glue_horoballs,
    horoball_distance,
    normal_form_geodesic,
    verify_geodesic_shape,
)
from horolab.io import canonical_json, read_graph, write_carrier, write_graph

import horolab.analysis
import horolab.experiments
import horolab.graph
import horolab.horoball
import horolab.io
from horolab.experiments import convexify_experiment, milnor_svarc_experiment, parabolic_family

from oracles import (BIG, arc_on_a_cycle, augmented_carrier, bfs_distances, family_of, glued_neighborhood,
                     random_connected_graph, reference_coset_family, restricted_horoball, subgraph, subgraphs,
                     u_path_in_a_grid)


def all_pairs(n):
    return itertools.combinations(range(n), 2)


def written(space, path) -> bytes:
    """The bytes ``io.write_carrier`` writes for a carrier, from its columns."""
    write_carrier(path, space.carrier.edges, space.base.labels, *space.columns)
    return pathlib.Path(path).read_bytes()


# -- construction -------------------------------------------------------------


def test_three_vertex_base_depth_one():
    h = build_restricted_horoball(path_graph(2), 1)
    assert h.carrier.num_vertices == 6
    level1 = [(u, v) for u, v in h.carrier.edges
              if h.level_of(u) == 1 and h.level_of(v) == 1]
    assert len(level1) == 3  # all pairs at base distance <= 2


def test_level_zero_equals_base():
    base = cycle_graph(7)
    h = build_restricted_horoball(base, 2)
    level0 = sorted((int(u), int(v)) for u, v in h.carrier.edges
                    if h.level_of(u) == 0 and h.level_of(v) == 0)
    assert level0 == sorted((int(u), int(v)) for u, v in base.edges)


def test_p8_horizontal_counts_per_level():
    h = build_restricted_horoball(path_graph(8), 3)
    for k in range(4):
        count = sum(
            1 for u, v in h.carrier.edges
            if h.level_of(u) == k and h.level_of(v) == k
        )
        expected = sum(1 for u, v in all_pairs(9) if 0 < abs(u - v) <= 2**k)
        assert count == expected


def _restricted_cases():
    rng = random.Random(11)
    cases = [("P1", path_graph(1)), ("P6-labelled", path_graph(6, labels=True)),
             ("C3", cycle_graph(3)), ("C9", cycle_graph(9)), ("grid3x4", grid_graph(3, 4))]
    for n in (7, 12, 20):
        g = random_connected_graph(n, n // 2, rng)
        cases.append((f"random{n}", g))
        cases.append((f"random{n}-labelled", Graph(n, g.edges, labels=[f"v{i}" for i in range(n)])))
    cases.append(("ball-Z2*Z-r2", cayley_ball(free_product(free_abelian(2), free_abelian(1)), 2).graph))
    return [pytest.param(base, id=name) for name, base in cases]


@pytest.mark.parametrize("depth", [1, 2, 3, 6])  # 2^6 passes every base's diameter
@pytest.mark.parametrize("base", _restricted_cases())
def test_restricted_horoball_document_matches_reference(base, depth, tmp_path):
    """Edges, ``x@k`` labels (level 0 included) and vertex_meta, byte for
    byte, written from the carrier's columns; the carrier graph itself holds
    no labels or metadata."""
    h = build_restricted_horoball(base, depth)
    expected = canonical_json(restricted_horoball(base, depth)).encode("utf-8")
    assert written(h, tmp_path / "h.json") == expected
    assert h.carrier.labels is None and h.carrier.metadata == {}


def test_restricted_view_leaves_its_space_unchanged():
    """The view marks level 0 as horoball copies in its own columns; the
    augmented space it wraps keeps base vertices as base vertices."""
    base = path_graph(4)
    space = glue_horoballs(base, SubgraphFamily.whole(base), 2)
    before = [column.copy() for column in space.columns]
    h = RestrictedHoroball(space)
    assert all(np.array_equal(a, b) for a, b in zip(space.columns, before))
    assert [int(c[0]) for c in space.columns] == [0, -1, 0, 0]  # base vertex 0
    assert [int(c[5]) for c in space.columns] == [1, 0, 0, 1]  # member 0's vertex 0 at level 1
    kind, alpha, base_vertex, level = h.columns
    assert kind.tolist() == [1] * 15 and alpha.tolist() == [0] * 15
    assert base_vertex.tolist() == list(range(5)) * 3 and level.tolist() == [0] * 5 + [1] * 5 + [2] * 5


def test_rejects_disconnected_or_shallow():
    with pytest.raises(InputError):
        build_restricted_horoball(Graph(4, [(0, 1), (2, 3)]), 2)
    with pytest.raises(InputError):
        build_restricted_horoball(path_graph(3), 0)


def test_vertex_indexing_roundtrip():
    h = build_restricted_horoball(path_graph(5), 2)
    for v in range(6):
        for k in range(3):
            vid = h.vertex_id(v, k)
            assert h.base_of(vid) == v and h.level_of(vid) == k
    with pytest.raises(InputError):
        h.vertex_id(0, 3)


# -- distances ----------------------------------------------------------------


def test_crossing_distance_stops_at_the_saturating_depth():
    """Past the first level m with 2^m >= max D every further crossing costs
    2 more, so a depth of 2**70 gives the minimum over all crossing levels,
    for a table and for single distances, at any endpoint levels."""
    def every_level(d, k, l, depth=64):  # the formula over every crossing level
        return min((m - k) + (m - l) + -(-d // 2**m) for m in range(max(k, l), depth + 1))

    table = distance_rows(cycle_graph(40), range(40))  # max D = 20, saturated at m = 5
    for k, l in ((0, 0), (0, 3), (7, 2), (2, 9)):
        expected = [[every_level(int(d), k, l) for d in row] for row in table]
        assert crossing_distance(table, k, l, 2**70).tolist() == expected
        assert [crossing_distance(d, k, l, 2**70) for d in range(60)] == [every_level(d, k, l) for d in range(60)]


def test_vertical_distance():
    h = build_restricted_horoball(path_graph(4), 5)
    assert horoball_distance(h, h.vertex_id(2, 2), h.vertex_id(2, 5)) == 3


def test_level_crossing_shrinks_distance():
    # base distance 8 halves with each level: 8, 4, 2, 1
    h = build_restricted_horoball(path_graph(8), 3)
    d = DistanceOracle(h.carrier)
    for k, expected in ((0, 8), (1, 4), (2, 2), (3, 1)):
        level_ids = list(h.level_vertices(k))
        induced = [
            (level_ids.index(int(u)), level_ids.index(int(v)))
            for u, v in h.carrier.edges
            if int(u) in level_ids and int(v) in level_ids
        ]
        level_graph = Graph(len(level_ids), induced)
        assert bfs_distances(level_graph.num_vertices, level_graph.edges, 0)[8] == expected


def test_p8_depth3_base_endpoints():
    h = build_restricted_horoball(path_graph(8), 3)
    a, b = h.vertex_id(0, 0), h.vertex_id(8, 0)
    assert horoball_distance(h, a, b) == 6  # min(8, 2+4, 4+2, 6+1)
    assert bfs_distances(h.carrier.num_vertices, h.carrier.edges, a)[b] == 6


@pytest.mark.parametrize("length,depth", [(8, 1), (8, 3), (12, 2), (5, 4)])
def test_formula_matches_bfs_exhaustively(length, depth):
    h = build_restricted_horoball(path_graph(length), depth)
    oracle = DistanceOracle(h.carrier)
    n = h.carrier.num_vertices
    for u in range(n):
        row = oracle.rows([u])[0]
        for v in range(u, n):
            assert horoball_distance(h, u, v) == row[v]


def test_formula_on_cycle_base():
    h = build_restricted_horoball(cycle_graph(12), 3)
    oracle = DistanceOracle(h.carrier)
    for u in range(h.carrier.num_vertices):
        row = oracle.rows([u])[0]
        for v in range(h.carrier.num_vertices):
            assert horoball_distance(h, u, v) == row[v]


# -- normal-form geodesics ------------------------------------------------------


def test_normal_form_same_vertex():
    h = build_restricted_horoball(path_graph(8), 3)
    beta = normal_form_geodesic(h, 4, 4)
    assert beta.length == 0 and beta.path.vertices == (4,)


def test_normal_form_pure_vertical():
    h = build_restricted_horoball(path_graph(8), 3)
    up = normal_form_geodesic(h, h.vertex_id(3, 0), h.vertex_id(3, 3))
    assert up.length == 3
    down = normal_form_geodesic(h, h.vertex_id(3, 3), h.vertex_id(3, 1))
    assert down.length == 2
    assert down.path.vertices[0] == h.vertex_id(3, 3)
    assert down.path.vertices[-1] == h.vertex_id(3, 1)


def test_normal_form_is_geodesic_everywhere():
    h = build_restricted_horoball(path_graph(8), 2)
    oracle = DistanceOracle(h.carrier)
    for u in range(h.carrier.num_vertices):
        for v in range(h.carrier.num_vertices):
            beta = normal_form_geodesic(h, u, v)
            vs = beta.path.vertices
            assert all(h.carrier.has_edge(a, b) for a, b in zip(vs, vs[1:]))  # a carrier path
            assert beta.length == oracle.rows([u])[0, v]
            assert beta.path.start == u and beta.path.end == v


def test_crossing_below_top_is_short():
    # a crossing of 4 or 5 edges is always pushed one level up
    h = build_restricted_horoball(path_graph(16), 4)
    for u in range(h.carrier.num_vertices):
        for v in range(h.carrier.num_vertices):
            beta = normal_form_geodesic(h, u, v)
            if beta.top_level < h.depth:
                assert beta.crossing.length <= 3


# -- segment classification -----------------------------------------------------


def test_classify_pure_vertical():
    h = build_restricted_horoball(path_graph(4), 3)
    p = Path(tuple(h.vertex_id(2, k) for k in range(4)))
    cls = classify_segments(h, p)
    assert [s.kind for s in cls.segments] == [ASCENDING]


def test_classify_normal_form_shape():
    h = build_restricted_horoball(path_graph(8), 3)
    beta = normal_form_geodesic(h, h.vertex_id(0, 0), h.vertex_id(8, 0))
    cls = classify_segments(h, beta.path)
    kinds = [s.kind for s in cls.segments]
    assert len(kinds) <= 3
    assert kinds == [ASCENDING, HORIZONTAL, DESCENDING]
    horiz = [s for s in cls.segments if s.kind == HORIZONTAL]
    assert horiz[0].level == beta.top_level


def test_classification_covers_and_alternates():
    h = build_restricted_horoball(path_graph(16), 3)
    oracle = DistanceOracle(h.carrier)
    src = h.vertex_id(0, 0)
    for v in (h.vertex_id(16, 0), h.vertex_id(16, 3), h.vertex_id(7, 1)):
        paths, _ = enumerate_geodesics(h.carrier, src, v, cap=50)
        for p in paths:
            cls = classify_segments(h, p)
            assert cls.segments[0].start == 0
            assert cls.segments[-1].end == p.length
            for s1, s2 in zip(cls.segments, cls.segments[1:]):
                assert s1.end == s2.start
                assert s1.kind != s2.kind
            # reconstruction: concatenating segment slices reproduces p
            rebuilt = []
            for s in cls.segments:
                chunk = p.vertices[s.start : s.end + 1]
                rebuilt.extend(chunk if not rebuilt else chunk[1:])
            assert tuple(rebuilt) == p.vertices


def test_classify_rejects_non_path():
    h = build_restricted_horoball(path_graph(4), 2)
    with pytest.raises(InputError):
        classify_segments(h, Path((0, 3)))


# -- shape verification ------------------------------------------------------------


def test_vertical_geodesic_passes_all_clauses():
    h = build_restricted_horoball(path_graph(4), 3)
    p = Path(tuple(h.vertex_id(1, k) for k in range(4)))
    report = verify_geodesic_shape(h, p)
    assert report.passed and not report.violations


def test_descend_then_ascend_is_not_a_geodesic():
    # walk down, along, and back up: always beatable, so the precondition
    # (path must be geodesic) rejects it
    h = build_restricted_horoball(path_graph(8), 2)
    p = Path((h.vertex_id(0, 1), h.vertex_id(0, 0), h.vertex_id(1, 0),
              h.vertex_id(2, 0), h.vertex_id(2, 1)))
    assert all(h.carrier.has_edge(a, b) for a, b in zip(p.vertices, p.vertices[1:]))
    with pytest.raises(InputError):
        verify_geodesic_shape(h, p)


def test_all_geodesics_pass_shape_checks_small():
    h = build_restricted_horoball(path_graph(8), 2)
    n = h.carrier.num_vertices
    for u, v in all_pairs(n):
        paths, truncated = enumerate_geodesics(h.carrier, u, v, cap=10_000)
        assert not truncated
        for p in paths:
            assert verify_geodesic_shape(h, p).passed


def test_hausdorff_between_geodesics_and_normal_form():
    """max(sup_{x in p} d(x, beta), sup_{y in beta} d(y, p)) <= 4."""
    h = build_restricted_horoball(path_graph(8), 2)
    oracle = DistanceOracle(h.carrier)
    for u, v in all_pairs(h.carrier.num_vertices):
        beta = list(normal_form_geodesic(h, u, v).path.vertices)
        to_beta = distance_to_set(h.carrier, beta)
        paths, _ = enumerate_geodesics(h.carrier, u, v, cap=10_000)
        for p in paths:
            vs = list(p.vertices)
            assert max(to_beta[vs].max(), distance_to_set(h.carrier, vs)[beta].max()) <= 4


def test_extra_horizontal_edges_outside_top_segment():
    """Beyond its single longest horizontal run, a geodesic carries at most
    one further horizontal edge.  Scanned, and any counterexample surfaces
    here with its witness path."""
    h = build_restricted_horoball(path_graph(16), 3)
    worst = None
    for u, v in all_pairs(h.carrier.num_vertices):
        paths, _ = enumerate_geodesics(h.carrier, u, v, cap=2_000)
        for p in paths:
            cls = classify_segments(h, p)
            horiz = sorted((s.edge_count for s in cls.segments if s.kind == HORIZONTAL), reverse=True)
            extra = sum(horiz[1:])
            if worst is None or extra > worst[0]:
                worst = (extra, p.vertices)
    assert worst is not None
    assert worst[0] <= 1, f"geodesic with {worst[0]} extra horizontal edges: {worst[1]}"


# -- augmented spaces -----------------------------------------------------------


def test_empty_family_is_base():
    base = cycle_graph(6)
    aug = glue_horoballs(base, family_of([]), 3)
    assert aug.carrier.num_vertices == 6
    assert np.array_equal(aug.carrier.edges, base.edges)


def test_whole_base_family_count_and_edges():
    base = path_graph(8)
    aug = glue_horoballs(base, family_of([(range(9), [(i, i + 1) for i in range(8)])]), 3)
    assert aug.carrier.num_vertices == 9 * 4
    # same ids as the standalone horoball: edge sets must agree exactly
    h = build_restricted_horoball(base, 3)
    assert np.array_equal(aug.carrier.edges, h.carrier.edges)


def test_family_validation_errors():
    """A family is vouched for by its builder; what gluing still refuses is
    a disconnected member and a depth below 1."""
    base = path_graph(4)
    with pytest.raises(InputError, match="not connected"):
        family_of([((0, 2), ())]).shapes
    with pytest.raises(InputError, match="depth must be >= 1"):
        glue_horoballs(base, family_of([((0, 1), ((0, 1),))]), 0)


@pytest.mark.parametrize("family, message", [
    ([((0, 1), ((0, 1),)), ((0, 2), ())], "family member 1: member is not connected"),
    # the first disconnected member wins
    ([((0, 2), ()), ((1, 3), ())], "family member 0: member is not connected"),
], ids=["disconnected", "disconnected-first"])
def test_family_validation_messages(family, message):
    with pytest.raises(InputError) as err:
        family_of(family).shapes
    assert str(err.value) == message


def reference_shapes(family):
    """The member-by-member shape table: the shape index of each member and
    each shape's distance rows, or the message of the first member whose
    shape, the first time it is seen, is disconnected."""
    index, shape_of, dmats = {}, [], []
    for a, (vertices, edges) in enumerate(family):
        local = {v: i for i, v in enumerate(vertices)}
        key = (len(vertices), frozenset((min(local[u], local[v]), max(local[u], local[v])) for u, v in edges))
        if key not in index:
            dist = [bfs_distances(key[0], list(key[1]), i) for i in range(key[0])]
            if any(BIG in row for row in dist):
                return f"family member {a}: member is not connected"
            index[key] = len(dmats)
            dmats.append(dist)
        shape_of.append(index[key])
    return shape_of, dmats


def test_family_validation_matches_the_member_by_member_check():
    """Random families of connected vertex sets of a grid, each with a
    random part of its induced base edges: the shape table, or the first
    disconnected member, is the member-by-member one."""
    rng = random.Random(4)
    base = grid_graph(3, 4)
    faults = 0
    for _ in range(400):
        family = []
        for _ in range(rng.randrange(1, 5)):
            vs = [rng.randrange(12)]
            for _ in range(rng.randrange(0, 5)):
                vs.append(rng.choice([v for u in vs for v in base.neighbors(u).tolist() if v not in vs]))
            rng.shuffle(vs)
            edges = [(u, v) for u, v in base.edges.tolist() if u in vs and v in vs and rng.random() < 0.9]
            family.append((vs, edges))
        expected = reference_shapes(family)
        if isinstance(expected, str):
            faults += 1
            with pytest.raises(InputError) as err:
                family_of(family).shapes
            assert str(err.value) == expected
        else:
            shape_of, dmats = family_of(family).shapes
            assert (shape_of.tolist(), [d.tolist() for d in dmats]) == expected
    assert 100 < faults < 300


def test_provenance_partition_on_coset_family():
    ball = cayley_ball(free_product(free_abelian(2), free_abelian(2)), 3)
    family, _, _ = parabolic_family(ball)
    aug = glue_horoballs(ball.graph, family, 3)

    expected = ball.graph.num_vertices + sum(len(m.vertices) for m in subgraphs(family)) * 3
    assert aug.carrier.num_vertices == expected

    seen = set()
    gamma = 0
    for tag in zip(*(column.tolist() for column in aug.columns)):  # (kind, alpha, base vertex, level)
        assert tag not in seen
        seen.add(tag)
        if tag[0] == 0:
            gamma += 1
    assert gamma == ball.graph.num_vertices
    # declared disjoint union: each (alpha, member vertex, level>=1) once
    horo_tags = {t for t in seen if t[0] == 1}
    declared = {
        (1, a, v, k)
        for a, m in enumerate(subgraphs(family))
        for v in m.vertices
        for k in range(1, 4)
    }
    assert horo_tags == declared


def test_horo_vertex_lookup_and_levels():
    """A member's level-k copy, from ``level_vertices``, holds the copies of
    its vertices in member order: there the provenance columns give member
    a, its vertices and level k.  Level 0 is the member's own base vertices.
    Checked on coset families and on whole bases."""
    z2z2 = free_product(free_abelian(2), free_abelian(2))
    depth = 2
    for spec, radius, whole in ((z2z2, 2, False), (z2z2, 3, False), (z2z2, 3, True), (free_abelian(2), 3, True)):
        ball = cayley_ball(spec, radius)
        family = SubgraphFamily.whole(ball.graph) if whole else parabolic_family(ball)[0]
        aug = glue_horoballs(ball.graph, family, depth)
        kind, alpha, base_vertex, level = aug.columns
        for a, m in enumerate(subgraphs(family)):
            assert aug.level_vertices(a, 0).tolist() == list(m.vertices)
            for k in range(depth + 1):
                ids = aug.level_vertices(a, k)
                assert base_vertex[ids].tolist() == list(m.vertices)
                assert level[ids].tolist() == [k] * len(m.vertices)
                assert alpha[ids].tolist() == [a if k else -1] * len(m.vertices)
                assert kind[ids].tolist() == [min(k, 1)] * len(m.vertices)


def test_rough_isometry_bound_between_bottom_and_top():
    # |d((x,0),(y,0)) - d((x,n),(y,n))| <= 2n for members of one family piece
    ball = cayley_ball(free_product(free_abelian(2), free_abelian(2)), 3)
    family, _, _ = parabolic_family(ball)
    n = 2
    aug = glue_horoballs(ball.graph, family, n)
    oracle = DistanceOracle(aug.carrier)
    bottom, top = aug.level_vertices(0, 0)[:8], aug.level_vertices(0, n)[:8]
    for i, j in itertools.combinations(range(len(bottom)), 2):
        d0 = oracle.rows([bottom[i]])[0, bottom[j]]
        dn = oracle.rows([top[i]])[0, top[j]]
        assert abs(d0 - dn) <= 2 * n


def test_augmented_vertex_meta_roundtrip(tmp_path):
    """The written vertex_meta reads back as the reference's records, and
    the generic writer reproduces the file from what was read."""
    base = path_graph(3)
    member = ((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)))
    aug = glue_horoballs(base, family_of([member]), 2)
    ref = augmented_carrier(4, base.edges.tolist(), [member], 2)
    f = tmp_path / "aug.json"
    assert written(aug, f) == canonical_json(ref["document"]).encode("utf-8")
    again = read_graph(f)
    meta = again.metadata["vertex_meta"]
    assert meta[0] == {"kind": "gamma", "alpha": None, "base": 0, "level": 0}
    assert meta[-1] == {"kind": "horo", "alpha": 0, "base": 3, "level": 2}
    assert meta == ref["vertex_meta"] and again.labels is None
    first = f.read_bytes()
    write_graph(again, f)
    assert f.read_bytes() == first


# -- shape templates against the member-by-member reference --------------------


def assert_matches_member_reference(base, family, depth):
    """Edges, provenance columns, block starts and the written document
    (labels and vertex_meta) against the member-by-member reference."""
    ref = augmented_carrier(base.num_vertices, base.edges.tolist(),
                            [(m.vertices, m.edges) for m in subgraphs(family)], depth, base.labels)
    aug = glue_horoballs(base, family, depth)
    assert aug.carrier.edges.tolist() == [list(e) for e in ref["edges"]]
    assert [c.tolist() for c in aug.columns] == [ref[k] for k in ("kind", "alpha", "base_vertex", "level")]
    assert aug._block_starts.tolist() == ref["block_starts"]
    assert aug.carrier.labels is None and aug.carrier.metadata == {}
    with tempfile.TemporaryDirectory() as tmp:
        assert written(aug, pathlib.Path(tmp) / "aug.json") == canonical_json(ref["document"]).encode("utf-8")


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("spec,radius", [
    (free_product(free_abelian(2), free_abelian(2)), 3),
    (free_product(free_abelian(2), free_abelian(1)), 3),
    (free_product(free(2), heisenberg()), 2),
], ids=["Z2*Z2", "Z2*Z", "F2*Heis"])
def test_coset_family_matches_member_reference(spec, radius, depth):
    ball = cayley_ball(spec, radius)
    family, _, _ = parabolic_family(ball)
    assert len(family.shapes[1]) < len(family)
    assert_matches_member_reference(ball.graph, family, depth)


def test_reordered_vertex_lists_are_different_shapes():
    base = path_graph(4)
    family = family_of([
        ((0, 1, 2), ((0, 1), (1, 2))),
        ((2, 0, 1), ((1, 2), (0, 1))),  # same set, other local order
        ((2, 3, 4), ((3, 2), (3, 4))),  # translate of the first
    ])
    shape_of, dmats = family.shapes
    assert shape_of.tolist() == [0, 1, 0]
    assert dmats[1].tolist() == [[0, 2, 1], [2, 0, 1], [1, 1, 0]]
    for depth in (1, 2, 3):
        assert_matches_member_reference(base, family, depth)


def test_same_size_members_with_different_edges():
    base = cycle_graph(4)
    family = family_of([
        ((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3), (3, 0))),
        ((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3))),
    ])
    shape_of, dmats = family.shapes
    assert shape_of.tolist() == [0, 1]
    assert dmats[0][0, 3] == 1 and dmats[1][0, 3] == 3
    for depth in (1, 2):
        assert_matches_member_reference(base, family, depth)


# -- neighborhoods cut out of the layout ----------------------------------------


def _random_family(base: Graph, members: int, rng: random.Random):
    """``members`` connected members of ``base`` grown from random roots, each
    with its spanning tree and some of its induced edges, in random vertex
    order, plus an empty and a one-vertex member; members overlap."""
    out = [((), ()), ((rng.randrange(base.num_vertices),), ())]
    for _ in range(members):
        grown, tree = [rng.randrange(base.num_vertices)], []
        for _ in range(rng.randrange(1, 9)):
            u = rng.choice(grown)
            fresh = [int(w) for w in base.neighbors(u) if int(w) not in grown]
            if fresh:
                tree.append((u, rng.choice(fresh)))
                grown.append(tree[-1][1])
        extra = [(int(u), int(w)) for u in grown for w in base.neighbors(u) if int(w) in grown and rng.random() < 0.5]
        rng.shuffle(grown)
        out.append((tuple(grown), tuple(tree + extra)))
    rng.shuffle(out)
    return family_of(out)


def _spaces():
    """(id, base, family) of the ball cases of the coset-family test, the
    arc and U-path families of the local-scan tests, and random families on
    random graphs."""
    for name, spec, radius in [("Z2*Z2", free_product(free_abelian(2), free_abelian(2)), 3),
                               ("Z2*Z", free_product(free_abelian(2), free_abelian(1)), 3),
                               ("F2*Heis", free_product(free(2), heisenberg()), 2)]:
        ball = cayley_ball(spec, radius)
        yield name, ball.graph, parabolic_family(ball)[0]
    yield ("arc", *arc_on_a_cycle())
    yield ("U-path", *u_path_in_a_grid())
    for seed in range(4):
        rng = random.Random(seed)
        base = random_connected_graph(rng.randrange(8, 30), rng.randrange(0, 12), rng)
        yield f"random-{seed}", base, _random_family(base, rng.randrange(1, 6), rng)


SPACES = list(_spaces())


@pytest.mark.parametrize("base, family", [case[1:] for case in SPACES], ids=[case[0] for case in SPACES])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_space_adjacency_is_the_glued_carrier(base, family, depth):
    """``AugmentedSpace.adjacent`` gives every vertex exactly its edge ends
    in the glued carrier."""
    aug = glue_horoballs(base, family, depth)
    owner, nb = aug.adjacent(np.arange(aug.num_vertices))
    got = np.sort(owner * aug.num_vertices + nb)
    carrier = aug.carrier
    expected = np.sort(np.concatenate([carrier.edges[:, 0] * aug.num_vertices + carrier.edges[:, 1],
                                       carrier.edges[:, 1] * aug.num_vertices + carrier.edges[:, 0]]))
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("base, family", [case[1:] for case in SPACES], ids=[case[0] for case in SPACES])
@pytest.mark.parametrize("depth", [1, 2, 3, 5])
def test_space_neighborhood_matches_glue_then_cut(base, family, depth):
    """The neighborhood cut out of the layout equals the one cut out of the
    glued carrier, and the plain-BFS reference, in ids and edges, around
    the top and the bottom level of members at radii 0-4."""
    aug = glue_horoballs(base, family, depth)
    members = [a for a in range(len(family)) if family.sizes[a]]
    for alpha in sorted({members[0], members[len(members) // 2], members[-1]}):
        for sources in (aug.level_vertices(alpha, depth), aug.level_vertices(alpha, 0)):
            for radius in range(5):
                sub, ids = neighborhood_subgraph(aug, sources, radius)
                cut, cut_ids = neighborhood_subgraph(aug.carrier, sources, radius)
                ref_ids, ref_edges = glued_neighborhood(aug, sources, radius)
                assert ids.tolist() == cut_ids.tolist() == ref_ids, (alpha, radius)
                assert sub.edges.tolist() == cut.edges.tolist() == [list(e) for e in ref_edges], (alpha, radius)


def test_convexify_experiment_never_glues_a_carrier(monkeypatch):
    """The convexification experiment reads its carrier sizes off the layout
    and cuts every neighborhood out of it: gluing would raise."""
    monkeypatch.setattr(horolab.horoball, "_glue", mock.Mock(side_effect=AssertionError("a carrier was glued")))
    ball = cayley_ball(free_product(free_abelian(2), free_abelian(2)), 3)
    diagnostics = []
    rows = convexify_experiment(ball, [1, 2, 3], diagnostics=diagnostics)
    copied = int(parabolic_family(ball)[0].offsets[-1])
    assert [row["carrier_vertices"] for row in rows] == [ball.graph.num_vertices + n * copied for n in (1, 2, 3)]
    assert all(entry["local_carrier_vertices"] > 0 for entry in diagnostics)


# -- carrier documents against the references -----------------------------------

# Labels with characters that ``json`` escapes, a ``%`` that a template must not
# read, and an ``@`` like the one a copy's label gets.
_LABEL_PARTS = ("e", "a", 'q"', "\\", "é", "%s", "x@1", "\u2028", "\U0001F600")


def _random_family(base: Graph, rng: random.Random) -> list[tuple]:
    """One to four overlapping connected members, as (vertices, edges).  Each grows from a random
    vertex by taking a random neighbour of what it has, keeps those tree
    edges and about half of its other induced base edges, and lists its
    vertices in a random order."""
    family = []
    for _ in range(rng.randint(1, 4)):
        taken = [rng.randrange(base.num_vertices)]
        tree = []
        for _ in range(rng.randrange(base.num_vertices)):
            frontier = [(u, v) for u in taken for v in base.neighbors(u).tolist() if v not in taken]
            if not frontier:
                break
            u, v = rng.choice(frontier)
            taken.append(v)
            tree.append((u, v))
        inside = set(taken)
        tree_keys = {(min(e), max(e)) for e in tree}
        extra = [(u, v) for u, v in base.edges.tolist()
                 if u in inside and v in inside and (u, v) not in tree_keys and rng.random() < 0.5]
        rng.shuffle(taken)
        family.append((tuple(taken), tuple(tree + extra)))
    return family


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), labelled=st.booleans(), depth=st.integers(1, 3),
       block=st.sampled_from([1, 2, 3, 5, 4096]))
def test_written_carriers_equal_the_reference_documents(seed, labelled, depth, block):
    """Augmented carriers over random overlapping families and restricted
    horoballs, on random small connected bases with and without labels: the
    written bytes are the canonical text of the reference document, at any
    block size, and reading the file and writing it back through the
    generic ``write_graph`` gives the same bytes."""
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    base = random_connected_graph(n, rng.randint(0, n), rng)
    if labelled:
        base = Graph(n, base.edges, labels=[rng.choice(_LABEL_PARTS) + str(i) for i in range(n)])
    family = _random_family(base, rng)
    ref = augmented_carrier(n, base.edges.tolist(), family, depth, base.labels)
    cases = [(glue_horoballs(base, family_of(family), depth), ref["document"]),
             (build_restricted_horoball(base, depth), restricted_horoball(base, depth))]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(horolab.io, "_BLOCK", block):
        f = pathlib.Path(tmp) / "carrier.json"
        for space, doc in cases:
            expected = canonical_json(doc).encode("utf-8")
            assert written(space, f) == expected
            write_graph(read_graph(f), f)
            assert f.read_bytes() == expected


def test_written_carrier_with_a_run_boundary_inside_a_block(tmp_path):
    """More vertices than one block, and the last base vertex and the first
    horoball copy fall in the same block, away from its start."""
    base = path_graph(horolab.io._BLOCK + 100, labels=True)
    n = base.num_vertices
    family = [(tuple(range(a, a + 5)), tuple((v, v + 1) for v in range(a, a + 4))) for a in (0, 3, n - 5)]
    aug = glue_horoballs(base, family_of(family), 2)
    assert horolab.io._BLOCK < n < aug.carrier.num_vertices < 2 * horolab.io._BLOCK
    ref = augmented_carrier(n, base.edges.tolist(), family, 2, base.labels)
    expected = canonical_json(ref["document"]).encode("utf-8")
    assert written(aug, tmp_path / "aug.json") == expected
    write_graph(read_graph(tmp_path / "aug.json"), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == expected


# -- the carrier budget ------------------------------------------------------------


def test_carrier_budget_is_checked_before_gluing(monkeypatch):
    """|V| + depth * (member vertices) is compared with the budget in Python
    integers: a depth past int64 is refused like any other, and a carrier
    of exactly the budget is built."""
    base = path_graph(4)  # 5 vertices; the whole-base member has 5 too
    monkeypatch.setitem(horolab.errors.BUDGETS, "carrier", 15)
    assert build_restricted_horoball(base, 2).carrier.num_vertices == 15
    assert glue_horoballs(base, SubgraphFamily.whole(base), 2).carrier.num_vertices == 15
    for depth in (3, 2**62, 2**70):
        with pytest.raises(ResourceLimitError, match="exceeds the carrier budget of 15 vertices"):
            build_restricted_horoball(base, depth)
        with pytest.raises(ResourceLimitError, match="carrier budget"):
            glue_horoballs(base, SubgraphFamily.whole(base), depth)
        # members without vertices glue nothing, however deep
        assert glue_horoballs(base, family_of([((), ())]), depth).carrier.num_vertices == 5


def test_carrier_edges_are_counted_exactly_before_gluing():
    """The edge count from the shape matrices, kept as the space's
    ``num_edges``, is the glued carrier's edge count: a carrier of exactly the edge budget is built, one edge more is
    refused before ``_glue`` runs.  Without the shapes, the floor from the
    member sizes is refused before any distance row."""
    base, arc = arc_on_a_cycle()
    for base, family in [(base, arc), (grid_graph(5, 4), SubgraphFamily.whole(grid_graph(5, 4)))]:
        for depth in (1, 2, 3, 6):
            space = glue_horoballs(base, family, depth)
            edges = space.carrier.num_edges
            assert space.num_edges == edges
            with mock.patch.dict(horolab.errors.BUDGETS, {"carrier edge": edges}):
                assert glue_horoballs(base, family, depth).carrier.num_edges == edges
            with (mock.patch.dict(horolab.errors.BUDGETS, {"carrier edge": edges - 1}),
                  mock.patch.object(horolab.horoball, "_glue", side_effect=AssertionError("glued")),
                  pytest.raises(ResourceLimitError, match=f"carrier of {edges} edges at depth {depth} exceeds "
                                                          f"the carrier edge budget of {edges - 1} edges")):
                glue_horoballs(base, family, depth)
    # 20 vertices: levels from 5 on (2^5 >= 19) join all 190 pairs
    with (mock.patch.dict(horolab.errors.BUDGETS, {"carrier edge": 31 + 6 * 20 + 2 * 190 - 1}),
          mock.patch.object(horolab.graph, "distance_rows", side_effect=AssertionError("a distance row")),
          pytest.raises(ResourceLimitError, match="carrier of at least 531 edges at depth 6")):
        build_restricted_horoball(grid_graph(5, 4), 6)


def test_z2z2_radius4_coset_shapes():
    ball = cayley_ball(free_product(free_abelian(2), free_abelian(2)), 4)
    family, _, _ = parabolic_family(ball)
    shape_of, dmats = family.shapes
    assert len(family) == 1970
    assert len(dmats) == 5
    assert sorted(set(shape_of)) == list(range(5))


@pytest.mark.parametrize("spec,radius", [
    (free_product(free_abelian(2), free_abelian(2)), 4),
    (free_product(free_abelian(2), free_abelian(1)), 5),
    (free_product(free(2), heisenberg()), 3),
], ids=["Z2*Z2-r4", "Z2*Z-r5", "F2*Heis-r3"])
def test_array_family_has_the_shape_table_of_its_subgraph_copies(spec, radius):
    """The ball's family is the reference coset families, factor after
    factor.  Its shape table, one shape per (factor, radius) template,
    equals the one ``SubgraphFamily.shapes`` computes over copies of the same
    members with a template each."""
    ball = cayley_ball(spec, radius)
    family, factor_of, identity = parabolic_family(ball)
    reference = [(i, c) for i in range(len(spec.factors)) for c in reference_coset_family(ball, i)]
    copies = [(m.vertices, m.edges) for m in subgraphs(family)]
    assert copies == [(c.members, c.edges) for _, c in reference]
    assert factor_of.tolist() == [i for i, _ in reference]
    assert identity == [a for a, (_, c) in enumerate(reference) if c.representative == ()]

    expected_shape_of, expected = family_of(copies).shapes
    shape_of, dmats = family.shapes
    assert shape_of.tolist() == expected_shape_of.tolist()
    assert len(dmats) == len(expected) < len(family)
    for dmat, ref in zip(dmats, expected):
        assert dmat.dtype == ref.dtype and np.array_equal(dmat, ref)


# -- the closed form of a whole-ball horoball -----------------------------------


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("spec,radius", [
    (free_abelian(2), 6),
    (free_abelian(3), 3),
    (heisenberg(), 3),
    (free(2), 3),
], ids=["Z2", "Z3", "Heis", "F2"])
def test_crossing_distance_matrix_equals_carrier_bfs(spec, radius, depth):
    """At levels (0, 0) over the word-metric table, the formula gives the
    element-to-element distances of the carrier over the whole-ball member."""
    ball = cayley_ball(spec, radius)
    n = ball.graph.num_vertices
    family, _, _ = parabolic_family(ball)
    assert len(family) == 1 and len(subgraph(family, 0).vertices) == n
    carrier = glue_horoballs(ball.graph, family, depth).carrier
    expected = distance_rows(carrier, range(n), columns=np.arange(n))
    closed = crossing_distance(distance_rows(ball.graph, range(n)), 0, 0, depth)
    assert closed.dtype == np.int32
    assert np.array_equal(closed, expected)


def test_crossing_distance_scalar_matches_every_level_pair():
    h = build_restricted_horoball(path_graph(20), 3)
    d = DistanceOracle(h.carrier)
    for v1 in (0, 7, 21 + 3, 63 + 20):
        for v2 in range(h.carrier.num_vertices):
            assert horoball_distance(h, v1, v2) == d.rows([v1])[0, v2]


def test_milnor_svarc_builds_no_carrier_for_a_whole_ball_parabolic(monkeypatch):
    def no_carrier(*args, **kwargs):
        raise AssertionError("the whole-ball parabolic needs no carrier")

    monkeypatch.setattr(horolab.experiments, "glue_horoballs", no_carrier)
    rows = milnor_svarc_experiment(cayley_ball(free_abelian(2), 6), depth=2, t_list=[1, 2])
    assert [(r["t"], r["S_t_size"]) for r in rows] == [(1, 5), (2, 13)]
    with pytest.raises(AssertionError, match="no carrier"):
        milnor_svarc_experiment(cayley_ball(free_product(free_abelian(1), free_abelian(1)), 3),
                                depth=2, t_list=[1])


def test_convexify_builds_the_shape_table_once(monkeypatch):
    """A 3-depth convexify run builds the family's shape table once, and each
    shape's matrix once: as many template distance-row calls as a 1-depth
    run, one per shape.  The table's builder is wrapped in place, as a
    cached property cannot be replaced from outside its class."""
    table = SubgraphFamily.__dict__["shapes"]
    build, building, builds, template_rows = table.func, [], [], []

    def counting(family):
        builds.append(len(family))
        building.append(family)
        try:
            return build(family)
        finally:
            building.pop()

    def recording(g, sources, *args, **kwargs):
        if building:
            template_rows.append(g.num_vertices)
        return distance_rows(g, sources, *args, **kwargs)

    monkeypatch.setattr(table, "func", counting)
    monkeypatch.setattr(horolab.graph, "distance_rows", recording)
    per_run = []
    for depths in ([1], [1, 2, 3]):
        builds.clear()
        template_rows.clear()
        ball = cayley_ball(free_product(free_abelian(1), free_abelian(1)), 3)
        rows = convexify_experiment(ball, depths=depths)
        assert [r["n"] for r in rows] == depths
        per_run.append((len(builds), len(template_rows)))
    shapes = len(parabolic_family(ball)[0].shapes[1])
    assert per_run == [(1, shapes), (1, shapes)]


def test_convexify_computes_no_row_over_a_whole_carrier(monkeypatch):
    sizes = []

    def recording(g, sources, columns=None):
        sizes.append(g.num_vertices)
        return distance_rows(g, sources, columns)

    def recording_to_set(g, sources):
        sizes.append(g.num_vertices)
        return distance_to_set(g, sources)

    for module in (horolab.graph, horolab.experiments):
        monkeypatch.setattr(module, "distance_rows", recording)
    monkeypatch.setattr(horolab.analysis, "distance_to_set", recording_to_set)
    ball = cayley_ball(free_product(free_abelian(2), free_abelian(2)), 3)
    rows = convexify_experiment(ball, depths=[1, 2, 3])
    assert [r["n"] for r in rows] == [1, 2, 3]
    # not even as big as the ball, which every carrier contains
    assert sizes and max(sizes) < ball.graph.num_vertices, max(sizes)
