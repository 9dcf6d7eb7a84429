"""Horoballs, geodesic normal forms, shape laws, augmented spaces."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from horolab import (
    DistanceOracle,
    Graph,
    InputError,
    Path,
    cayley_ball,
    coset_family,
    enumerate_geodesics,
    free,
    free_abelian,
    free_product,
    hausdorff_distance,
    heisenberg,
)
from horolab.graph import cycle_graph, path_graph
from horolab.horoball import (
    ASCENDING,
    DESCENDING,
    HORIZONTAL,
    Subgraph,
    build_augmented,
    build_restricted_horoball,
    classify_segments,
    horoball_distance,
    member_shapes,
    normal_form_geodesic,
    verify_geodesic_shape,
)

from horolab.experiments import parabolic_family

from oracles import augmented_carrier, bfs_distances


def all_pairs(n):
    return itertools.combinations(range(n), 2)


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
        row = oracle.row(u)
        for v in range(u, n):
            assert horoball_distance(h, u, v) == row[v]


def test_formula_on_cycle_base():
    h = build_restricted_horoball(cycle_graph(12), 3)
    oracle = DistanceOracle(h.carrier)
    for u in range(h.carrier.num_vertices):
        row = oracle.row(u)
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
            Path.in_graph(h.carrier, beta.path.vertices)  # valid carrier path
            assert beta.length == oracle.distance(u, v)
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
    p = Path.in_graph(
        h.carrier,
        [h.vertex_id(0, 1), h.vertex_id(0, 0), h.vertex_id(1, 0),
         h.vertex_id(2, 0), h.vertex_id(2, 1)],
    )
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
    h = build_restricted_horoball(path_graph(8), 2)
    n = h.carrier.num_vertices
    for u, v in all_pairs(n):
        beta = set(normal_form_geodesic(h, u, v).path.vertices)
        paths, _ = enumerate_geodesics(h.carrier, u, v, cap=10_000)
        for p in paths:
            assert hausdorff_distance(h.carrier, list(p.vertices), sorted(beta)) <= 4


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
    aug = build_augmented(base, [], 3)
    assert aug.carrier.num_vertices == 6
    assert np.array_equal(aug.carrier.edges, base.edges)


def test_whole_base_family_count_and_edges():
    base = path_graph(8)
    member = Subgraph(tuple(range(9)), tuple((i, i + 1) for i in range(8)))
    aug = build_augmented(base, [member], 3)
    assert aug.carrier.num_vertices == 9 * 4
    # same ids as the standalone horoball: edge sets must agree exactly
    h = build_restricted_horoball(base, 3)
    assert np.array_equal(aug.carrier.edges, h.carrier.edges)


def test_family_validation_errors():
    base = path_graph(4)
    with pytest.raises(InputError):
        build_augmented(base, [Subgraph((0, 9), ())], 1)
    with pytest.raises(InputError):
        build_augmented(base, [Subgraph((0, 2), ((0, 2),))], 1)  # not a base edge
    with pytest.raises(InputError):
        build_augmented(base, [Subgraph((0, 2), ())], 1)  # disconnected member


def test_provenance_partition_on_coset_family():
    ball = cayley_ball(free_product(free_abelian(2), free_abelian(2)), 3)
    cosets = coset_family(ball, 0)
    family = [Subgraph(c.members, c.edges) for c in cosets]
    aug = build_augmented(ball.graph, family, 3)

    expected = ball.graph.num_vertices + sum(len(m.vertices) for m in family) * 3
    assert aug.carrier.num_vertices == expected

    seen = set()
    gamma = 0
    for vid in range(aug.carrier.num_vertices):
        tag = aug.provenance(vid)
        assert tag not in seen
        seen.add(tag)
        if tag[0] == "gamma":
            gamma += 1
    assert gamma == ball.graph.num_vertices
    # declared disjoint union: each (alpha, member vertex, level>=1) once
    horo_tags = {t for t in seen if t[0] == "horo"}
    declared = {
        ("horo", a, v, k)
        for a, m in enumerate(family)
        for v in m.vertices
        for k in range(1, 4)
    }
    assert horo_tags == declared


def test_horo_vertex_lookup_and_levels():
    ball = cayley_ball(free_product(free_abelian(2), free_abelian(2)), 2)
    cosets = coset_family(ball, 1)
    family = [Subgraph(c.members, c.edges) for c in cosets]
    aug = build_augmented(ball.graph, family, 2)
    for a, m in enumerate(family):
        assert aug.level_vertices(a, 0) == list(m.vertices)
        top = aug.level_vertices(a, 2)
        assert len(top) == len(m.vertices)
        for v, vid in zip(m.vertices, top):
            assert aug.horo_vertex(a, v, 2) == vid
            assert aug.provenance(vid) == ("horo", a, v, 2)


def test_rough_isometry_bound_between_bottom_and_top():
    # |d((x,0),(y,0)) - d((x,n),(y,n))| <= 2n for members of one family piece
    ball = cayley_ball(free_product(free_abelian(2), free_abelian(2)), 3)
    cosets = coset_family(ball, 0)
    family = [Subgraph(c.members, c.edges) for c in cosets]
    n = 2
    aug = build_augmented(ball.graph, family, n)
    oracle = DistanceOracle(aug.carrier)
    member = family[0]
    for x, y in itertools.combinations(member.vertices[:8], 2):
        d0 = oracle.distance(x, y)
        dn = oracle.distance(aug.horo_vertex(0, x, n), aug.horo_vertex(0, y, n))
        assert abs(d0 - dn) <= 2 * n


def test_augmented_vertex_meta_roundtrip(tmp_path):
    from horolab.io import read_graph, write_graph

    base = path_graph(3)
    member = Subgraph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)))
    aug = build_augmented(base, [member], 2, with_meta=True)
    meta = aug.carrier.metadata["vertex_meta"]
    assert meta[0] == {"kind": "gamma", "alpha": None, "base": 0, "level": 0}
    assert meta[-1]["kind"] == "horo" and meta[-1]["level"] == 2
    f = tmp_path / "aug.json"
    write_graph(aug.carrier, f)
    again = read_graph(f)
    assert again.metadata["vertex_meta"] == meta


# -- shape templates against the member-by-member reference --------------------


def assert_matches_member_reference(base, family, depth):
    ref = augmented_carrier(base.num_vertices, base.edges.tolist(),
                            [(m.vertices, m.edges) for m in family], depth, base.labels)
    aug = build_augmented(base, family, depth, with_meta=True)
    assert aug.carrier.edges.tolist() == [list(e) for e in ref["edges"]]
    assert aug.carrier.labels == ref["labels"]
    assert aug.carrier.metadata["vertex_meta"] == ref["vertex_meta"]
    assert aug._kind.tolist() == ref["kind"]
    assert aug._alpha.tolist() == ref["alpha"]
    assert aug._base_vertex.tolist() == ref["base_vertex"]
    assert aug._level.tolist() == ref["level"]
    assert aug._block_starts == ref["block_starts"]
    plain = build_augmented(base, family, depth)
    assert np.array_equal(plain.carrier.edges, aug.carrier.edges)
    assert plain.carrier.labels is None and plain.carrier.metadata == {}
    assert plain._block_starts == ref["block_starts"]


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("spec,radius", [
    (free_product(free_abelian(2), free_abelian(2)), 3),
    (free_product(free_abelian(2), free_abelian(1)), 3),
    (free_product(free(2), heisenberg()), 2),
], ids=["Z2*Z2", "Z2*Z", "F2*Heis"])
def test_coset_family_matches_member_reference(spec, radius, depth):
    ball = cayley_ball(spec, radius)
    family, _, _ = parabolic_family(ball)
    assert len(member_shapes(ball.graph, family)[1]) < len(family)
    assert_matches_member_reference(ball.graph, family, depth)


def test_reordered_vertex_lists_are_different_shapes():
    base = path_graph(4)
    family = [
        Subgraph((0, 1, 2), ((0, 1), (1, 2))),
        Subgraph((2, 0, 1), ((1, 2), (0, 1))),  # same set, other local order
        Subgraph((2, 3, 4), ((3, 2), (3, 4))),  # translate of the first
    ]
    shape_of, dmats = member_shapes(base, family)
    assert shape_of == [0, 1, 0]
    assert dmats[1].tolist() == [[0, 2, 1], [2, 0, 1], [1, 1, 0]]
    for depth in (1, 2, 3):
        assert_matches_member_reference(base, family, depth)


def test_same_size_members_with_different_edges():
    base = cycle_graph(4)
    family = [
        Subgraph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3), (3, 0))),
        Subgraph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3))),
    ]
    shape_of, dmats = member_shapes(base, family)
    assert shape_of == [0, 1]
    assert dmats[0][0, 3] == 1 and dmats[1][0, 3] == 3
    for depth in (1, 2):
        assert_matches_member_reference(base, family, depth)


def test_z2z2_radius4_coset_shapes():
    ball = cayley_ball(free_product(free_abelian(2), free_abelian(2)), 4)
    family, _, _ = parabolic_family(ball)
    shape_of, dmats = member_shapes(ball.graph, family)
    assert len(family) == 1970
    assert len(dmats) == 5
    assert sorted(set(shape_of)) == list(range(5))
