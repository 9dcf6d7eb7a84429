"""Hyperbolicity constants, convexity scans, QI fits."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import horolab.graph
from horolab import (INF, InputError, ResourceLimitError, analysis, cayley_ball, free, free_abelian, free_product,
                     heisenberg)
from horolab.analysis import (
    ConvexityReport,
    InteriorFilter,
    convexity_defect,
    displacement_generating_set,
    four_point_delta,
    qi_distortion,
)
from horolab.graph import Graph, cycle_graph, distance_rows, enumerate_geodesics, grid_graph, path_graph
from horolab.experiments import convexify_experiment
from horolab.horoball import build_restricted_horoball

from oracles import (
    binary_tree,
    block_four_point_delta,
    complete_graph,
    floyd_warshall,
    geodesic_counts,
    naive_four_point_delta,
    random_connected_graph,
    reference_convexity_defect,
    reference_displacement_set,
    reference_sampled_delta,
    star_graph,
)


# -- four point delta ------------------------------------------------------------


@pytest.mark.parametrize("tree", [path_graph(6), star_graph(5), binary_tree(3)])
def test_trees_are_zero_hyperbolic(tree):
    est = four_point_delta(tree)
    assert est.delta == 0 and est.exhaustive


def test_single_edge_zero():
    est = four_point_delta(path_graph(1))
    assert est.delta == 0 and est.quadruples_checked == 0 and est.exhaustive


def test_c12_matches_naive_quadruple_scan():
    g = cycle_graph(12)
    est = four_point_delta(g)
    fw = floyd_warshall(12, [tuple(e) for e in g.edges])
    assert est.delta == naive_four_point_delta(fw)
    assert est.exhaustive


def test_exhaustive_matches_naive_on_random_instances():
    rng = random.Random(123)
    for _ in range(8):
        g = random_connected_graph(rng.randrange(4, 12), rng.randrange(0, 6), rng)
        est = four_point_delta(g)
        fw = floyd_warshall(g.num_vertices, [tuple(e) for e in g.edges])
        assert est.delta == naive_four_point_delta(fw)


def test_sampled_mode_flags_and_reproducibility():
    g = cycle_graph(30)
    a = four_point_delta(g, sample=500, seed=4)
    b = four_point_delta(g, sample=500, seed=4)
    exact = four_point_delta(g)
    assert not a.exhaustive and a.quadruples_checked == 500
    assert a.far_apart_pairs == a.pair_tests == 0 and exact.far_apart_pairs > 0
    assert a.delta == b.delta
    assert a.delta <= exact.delta
    with pytest.raises(InputError):
        four_point_delta(g, sample=0)
    with pytest.raises(InputError):
        four_point_delta(g, sample=True)


@pytest.mark.parametrize("n", [0, 1, 3, 4, 10, 25, 40])
def test_exhaustive_blocks_match_naive_across_slab_edges(monkeypatch, n):
    # a tiny block bound splits the far-apart pair scan into many row blocks
    # and the neighbour maxima into many column blocks; the oracle's slabs
    # split the same way
    monkeypatch.setattr(analysis, "_BLOCK_MAX_ELEMENTS", 40)
    g = Graph(0, []) if n == 0 else random_connected_graph(n, n // 2, random.Random(n))
    est = four_point_delta(g)
    fw = floyd_warshall(n, [tuple(e) for e in g.edges])
    assert est.delta == naive_four_point_delta(fw) == block_four_point_delta(fw, max_elements=40)
    assert est.quadruples_checked == math.comb(n, 4) and est.exhaustive


@pytest.mark.parametrize("n", [4, 5, 8, 13])
def test_complete_graph_scan_tests_every_pair_of_pairs(n):
    """In K_n every pair is far-apart and every defect is 0, so nothing
    stops the scan early."""
    g = complete_graph(n)
    est = four_point_delta(g)
    fw = floyd_warshall(n, [tuple(e) for e in g.edges])
    assert est.delta == naive_four_point_delta(fw) == 0
    assert est.far_apart_pairs == math.comb(n, 2)
    assert est.pair_tests >= est.far_apart_pairs * (est.far_apart_pairs + 1) // 2


@pytest.mark.parametrize("g", [cycle_graph(9), cycle_graph(10), cycle_graph(31), cycle_graph(32), grid_graph(5, 7),
                               grid_graph(6, 6), star_graph(9), binary_tree(4)],
                         ids=["C9", "C10", "C31", "C32", "grid5x7", "grid6x6", "star9", "tree4"])
def test_far_apart_scan_matches_the_block_oracle_on_cycles_grids_and_trees(g):
    est = four_point_delta(g)
    assert est.delta == block_four_point_delta(distance_rows(g, range(g.num_vertices)))
    assert est.quadruples_checked == math.comb(g.num_vertices, 4) and est.exhaustive
    if est.delta == 0:  # a tree: no pair is ever short enough to stop the scan
        assert est.pair_tests >= est.far_apart_pairs * (est.far_apart_pairs + 1) // 2


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_fewer_than_four_vertices_scan_nothing(n):
    for g in (Graph(0, []) if n == 0 else path_graph(n - 1), complete_graph(n)):
        est = four_point_delta(g)
        assert (est.delta, est.quadruples_checked, est.exhaustive) == (0, 0, True)
        assert est.far_apart_pairs == est.pair_tests == 0


def test_far_apart_scan_matches_the_block_oracle_on_seeded_graphs():
    rng = random.Random(27)
    for _ in range(200):
        n = rng.randrange(20, 61)
        g = random_connected_graph(n, rng.randrange(0, 2 * n), rng)
        est = four_point_delta(g)
        assert est.delta == block_four_point_delta(distance_rows(g, range(n))), g.edges.tolist()


@pytest.mark.parametrize("n", [4, 5, 9])
def test_an_isolated_last_vertex_is_refused_before_any_neighbour_maximum(n):
    # the last vertex's empty neighbour segment would otherwise read as a
    # neighbour of someone else
    g = Graph(n, [(i, i + 1) for i in range(n - 2)])
    with pytest.raises(InputError, match="four-point scan needs a connected graph"):
        four_point_delta(g)


@pytest.mark.parametrize("g, pairs", [(cycle_graph(12), 6), (grid_graph(6, 6), 2)], ids=["C12", "grid6x6"])
def test_pair_tests_are_counted_and_far_below_the_quadruples(monkeypatch, g, pairs):
    """C_12's far-apart pairs are its 6 antipodal pairs and the 6 x 6 grid's
    its 2 pairs of opposite corners.  One block holds them all, so the scan
    tests each pair against every pair: F(F + 1)/2 pairs up to it and the
    block's overhang of F(F - 1)/2 more."""
    est = four_point_delta(g)
    assert est.far_apart_pairs == pairs and est.pair_tests == pairs * pairs
    assert 10 * est.pair_tests < est.quadruples_checked
    monkeypatch.setattr(analysis, "_BLOCK_MAX_ELEMENTS", 1)  # one pair a block: no overhang
    one = four_point_delta(g)
    assert one.delta == est.delta and one.pair_tests <= pairs * (pairs + 1) // 2


@pytest.mark.parametrize("seed", range(10))
def test_sampled_delta_matches_scalar_loop(seed):
    rng = random.Random(1000 + seed)
    g = random_connected_graph(rng.randrange(1, 30), rng.randrange(0, 20), rng)
    fw = floyd_warshall(g.num_vertices, [tuple(e) for e in g.edges])
    sample = rng.randrange(1, 400)
    est = four_point_delta(g, sample=sample, seed=seed)
    assert (est.quadruples_checked, est.delta) == reference_sampled_delta(fw, sample, seed)
    assert not est.exhaustive


def test_sampled_delta_computes_its_rows_in_one_call(monkeypatch):
    """Every sampled quadruple is drawn first, and the rows of vertex 0 and
    of every drawn w, x and y come from one ``distance_rows`` call."""
    calls = []
    rows = horolab.graph.distance_rows

    def counted(g, sources, *args, **kwargs):
        calls.append(len(sources))
        return rows(g, sources, *args, **kwargs)

    for module in (horolab.graph, analysis):
        monkeypatch.setattr(module, "distance_rows", counted)
    est = four_point_delta(cycle_graph(30), sample=500, seed=4)
    assert calls == [30] and est.quadruples_checked == 500


# -- convexity ----------------------------------------------------------------------


def test_subtree_of_tree_is_convex():
    g = binary_tree(3)
    report = convexity_defect(g, [0, 1, 3, 4])
    assert report.convex and report.quasiconvexity_constant == 0 and not report.witnesses


def test_c4_arc_has_the_expected_witness():
    report = convexity_defect(cycle_graph(4), [0, 1, 2])
    assert report.defect > 0
    assert (0, 2, 3) in report.witnesses


def test_top_level_of_small_horoball_is_convex():
    h = build_restricted_horoball(path_graph(16), 3)
    report = convexity_defect(h.carrier, list(h.level_vertices(3)))
    assert report.convex


def test_deep_sets_are_convex_in_horoball():
    h = build_restricted_horoball(path_graph(12), 3)
    for k in range(h.depth + 1):
        report = convexity_defect(h.carrier, h.deep_vertices(k), geodesic_cap=0)
        assert report.convex, f"levels >= {k}"


def test_betweenness_agrees_with_geodesic_enumeration():
    rng = random.Random(77)
    for _ in range(12):
        g = random_connected_graph(rng.randrange(4, 14), rng.randrange(0, 8), rng)
        n = g.num_vertices
        size = rng.randrange(2, n)
        s = sorted(rng.sample(range(n), size))
        report = convexity_defect(g, s)
        s_set = set(s)
        leaves = False
        for i in range(len(s)):
            for j in range(i + 1, len(s)):
                paths, _ = enumerate_geodesics(g, s[i], s[j], cap=100_000)
                if any(set(p.vertices) - s_set for p in paths):
                    leaves = True
        assert report.convex == (not leaves)


def test_pair_filter_restricts_scan():
    g = cycle_graph(12)
    s = [0, 1, 2, 3, 4, 5, 6]
    unfiltered = convexity_defect(g, s)
    filtered = convexity_defect(g, s, pair_filter=InteriorFilter(basepoint=0, radius=3))
    assert filtered.pairs_checked < unfiltered.pairs_checked
    explicit = convexity_defect(g, s, pairs=[(0, 1), (1, 2)])
    assert explicit.pairs_checked == 2 and explicit.convex
    with pytest.raises(InputError):
        convexity_defect(g, s, pairs=[(0, 11)])
    with pytest.raises(InputError):
        convexity_defect(g, [])


def test_pairs_that_hit_the_geodesic_cap_are_counted():
    # corner to corner of the 3x3 grid has 6 geodesics; along a side, 1
    g = grid_graph(3, 3)
    assert convexity_defect(g, [0, 2, 8], geodesic_cap=4).truncated_pairs == 1
    assert convexity_defect(g, [0, 2, 8], geodesic_cap=5).truncated_pairs == 1
    assert convexity_defect(g, [0, 2, 8], geodesic_cap=6).truncated_pairs == 0
    assert convexity_defect(g, [0, 2, 8], geodesic_cap=0).truncated_pairs == 0


def test_quasiconvexity_constant_of_cycle_arc():
    # geodesics from 0 to 4 the short way stay in S; the witness path through
    # 5 strays distance 1 from the arc {0..4} in C_6... use C_8 arc instead
    g = cycle_graph(8)
    s = [0, 1, 2, 3, 4]
    report = convexity_defect(g, s)
    assert report.defect == 2  # vertex 6 sits at distance 2 from the arc
    assert report.quasiconvexity_constant == 2


def _report_dict(report) -> dict:
    return {"defect": report.defect, "witnesses": list(report.witnesses),
            "quasiconvexity": report.quasiconvexity_constant,
            "pairs_checked": report.pairs_checked, "truncated_pairs": report.truncated_pairs}


@pytest.mark.parametrize("seed", range(40))
def test_convexity_defect_matches_the_reference(seed):
    """Every field against the by-definition scan: default, explicit (with
    repeats and u = v) and ball-interior pairs, small and huge caps."""
    rng = random.Random(seed)
    n = rng.randrange(3, 15)
    g = random_connected_graph(n, rng.randrange(0, 2 * n), rng)
    edges = g.edges.tolist()
    s = rng.sample(range(n), rng.randrange(1, n + 1))
    pairs = [(rng.choice(s), rng.choice(s)) for _ in range(rng.randrange(0, 10))]
    pairs += pairs[:2] + [(s[0], s[0])]
    interior = (rng.randrange(n), rng.randrange(0, 6))
    for cap in (0, 1, 2, 3, 5, 64, 2**70):
        witness_cap = rng.choice([0, 1, 4, 100])
        for kw, ref_kw in (({}, {}), ({"pairs": pairs}, {"pairs": pairs}),
                           ({"pair_filter": InteriorFilter(*interior)}, {"interior": interior}),
                           ({"pairs": pairs, "pair_filter": InteriorFilter(*interior)},
                            {"pairs": pairs, "interior": interior})):
            report = convexity_defect(g, s, geodesic_cap=cap, witness_cap=witness_cap, **kw)
            expected = reference_convexity_defect(n, edges, s, geodesic_cap=cap,
                                                  witness_cap=witness_cap, **ref_kw)
            assert _report_dict(report) == expected, (cap, kw)


@pytest.mark.parametrize("cap,truncated", [(0, 0), (1, 2), (5, 2), (6, 0), (7, 0), (2**70, 0)])
def test_geodesic_cap_at_the_corners_of_the_3x3_grid(cap, truncated):
    # corner to opposite corner has sigma = 6 geodesics; the pair is listed
    # twice and in both directions, beside a u = v pair
    g = grid_graph(3, 3)
    pairs = [(0, 8), (8, 0), (0, 0), (2, 8)]
    report = convexity_defect(g, [0, 2, 8], pairs=pairs, geodesic_cap=cap)
    assert report.truncated_pairs == truncated
    assert _report_dict(report) == reference_convexity_defect(9, g.edges.tolist(), [0, 2, 8], pairs=pairs,
                                                              geodesic_cap=cap)


def _diamond_chain(k: int) -> Graph:
    """k diamonds in a row: 2^k geodesics from vertex 0 to vertex 3k."""
    edges = []
    for i in range(k):
        a = 3 * i
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3)]
    return Graph(3 * k + 1, edges)


def test_count_pass_matches_the_geodesic_counts():
    """``_over_cap`` says sigma > limit exactly, for every limit up to one
    past the largest count, on random graphs and across the float64 range."""
    rng = random.Random(5)
    for _ in range(12):
        n = rng.randrange(2, 16)
        g = random_connected_graph(n, rng.randrange(0, 3 * n), rng)
        sources = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
        rows = distance_rows(g, sources)
        src = np.repeat(np.arange(len(sources)), n)
        dst = np.tile(np.arange(n), len(sources))
        sigma = np.concatenate([geodesic_counts(n, g.edges.tolist(), s) for s in sources])
        for limit in range(1, int(sigma.max()) + 2):
            assert np.array_equal(analysis._over_cap(g, rows, src, dst, limit), sigma > limit)
    for k, limit, over in [(52, 2**52 - 1, True), (52, 2**52, False), (60, 2**52, True)]:
        g = _diamond_chain(k)
        rows = distance_rows(g, [0])
        assert analysis._over_cap(g, rows, np.array([0]), np.array([3 * k]), limit).tolist() == [over]


def test_convexity_defect_needs_one_component_only_for_geodesics():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(InputError, match="different components"):
        convexity_defect(g, [0, 2, 3])
    assert convexity_defect(g, [0, 2, 3], geodesic_cap=0) == ConvexityReport(
        defect=1, witnesses=((0, 2, 1),), quasiconvexity_constant=0, pairs_checked=3, truncated_pairs=0)


@pytest.mark.parametrize("vertex_set", [[0], [0, 3]], ids=["no-pairs", "one-pair"])
def test_negative_geodesic_cap_is_refused_up_front(vertex_set):
    """A cap below 0 is refused whether or not the set has a pair to scan,
    and cap 0, which skips the geodesics, is accepted."""
    with pytest.raises(InputError, match=r"^geodesic cap must be >= 0$"):
        convexity_defect(cycle_graph(6), vertex_set, geodesic_cap=-1)
    assert convexity_defect(cycle_graph(6), vertex_set, geodesic_cap=0).pairs_checked == len(vertex_set) - 1


def test_explicit_pairs_outside_the_set_name_the_first_one():
    g = cycle_graph(12)
    with pytest.raises(InputError, match=r"pair \(3, 11\) leaves"):
        convexity_defect(g, [0, 1, 3], pairs=[(0, 1), (3, 11), (12, 0)])
    with pytest.raises(InputError, match=r"pair \(-1, 0\) leaves"):
        convexity_defect(g, [0, 1, 11], pairs=[(-1, 0)])


def test_convexity_scans_are_held_to_their_budgets(monkeypatch):
    """A set's C(|S|, 2) pairs, or the pairs given, are refused before they
    are listed and before any row: over the table budget at 8 bytes a pair,
    and over the scan budget in pairs x |V| cells.  An interior filter's
    pairs are counted once its basepoint's row has cut the set to its ball,
    before any other row."""
    g = path_graph(20)
    s = range(21)  # 210 pairs, 4,410 cells
    interior = InteriorFilter(basepoint=0, radius=4)  # its 10 pairs, 210 cells
    expected = convexity_defect(g, s, pair_filter=interior)
    real = horolab.graph.distance_rows
    monkeypatch.setitem(horolab.errors.BUDGETS, "scan", 4409)
    assert convexity_defect(g, s, pair_filter=interior) == expected

    def no_rows(*args, **kwargs):
        raise AssertionError("a distance row was computed before the budget check")

    monkeypatch.setattr(horolab.graph, "distance_rows", no_rows)
    monkeypatch.setattr(analysis, "distance_rows", no_rows)
    for pairs in (None, [(u, v) for u in s for v in s if u < v]):
        with pytest.raises(ResourceLimitError, match="a convexity scan of 210 pairs x 21 vertices exceeds the "
                                                     "scan budget of 4409 cells"):
            convexity_defect(g, s, pairs=pairs)
    monkeypatch.setitem(horolab.errors.BUDGETS, "table", 8 * 209)
    with pytest.raises(ResourceLimitError, match=f"a list of 210 vertex pairs exceeds the table budget of {8 * 209}"):
        convexity_defect(g, s)

    sources = []

    def recorded(h, ids, *args, **kwargs):
        sources.append(np.asarray(ids).tolist())
        return real(h, ids, *args, **kwargs)

    monkeypatch.setattr(horolab.graph, "distance_rows", recorded)
    assert convexity_defect(g, s, pair_filter=interior) == expected
    sources.clear()
    # the radius-5 ball's 15 pairs pass 8 x 14 bytes; its basepoint's row (4 x 21 bytes) does not
    monkeypatch.setitem(horolab.errors.BUDGETS, "table", 8 * 14)
    with pytest.raises(ResourceLimitError, match=f"a list of 15 vertex pairs exceeds the table budget of {8 * 14}"):
        convexity_defect(g, s, pair_filter=InteriorFilter(basepoint=0, radius=5))
    assert sources == [[0]]


def test_interior_filter_reads_rows_only_inside_its_ball(monkeypatch):
    """Both ends of an interior pair lie within the filter's radius of its
    basepoint, so on all 900 vertices of a 30 x 30 grid, with radius 4 about
    a corner, the scan takes the rows of that corner's 15-vertex ball and no
    others."""
    g = grid_graph(30, 30)
    ball = np.flatnonzero(distance_rows(g, [0])[0] <= 4).tolist()
    interior = [(u, v) for u in ball for v in ball if u < v and min(u // 30 + u % 30, v // 30 + v % 30)
                + abs(u // 30 - v // 30) + abs(u % 30 - v % 30) <= 4]
    sources = []
    real = horolab.graph.distance_rows

    def recorded(h, ids, *args, **kwargs):
        sources.extend(np.asarray(ids).tolist())
        return real(h, ids, *args, **kwargs)

    monkeypatch.setattr(horolab.graph, "distance_rows", recorded)
    report = convexity_defect(g, range(900), pair_filter=InteriorFilter(basepoint=0, radius=4))
    assert sorted(set(sources)) == ball and len(ball) == 15
    assert (report.defect, report.pairs_checked) == (0, len(interior))


def test_geodesic_enumeration_is_held_to_the_count_budget(monkeypatch):
    """Each pair over the cap is enumerated up to cap + 1 paths, and those
    paths are counted against the count budget before the first: two far
    corners of a 60 x 60 grid at a cap of 2**70 are refused at the default
    budget, and random vertices of an 8 x 8 grid at cap 4 pass at (pairs
    over the cap) x 5 paths and are refused one below."""
    def no_paths(*args, **kwargs):
        raise AssertionError("geodesics were enumerated before the count budget check")

    g = grid_graph(8, 8)
    s = random.Random(0).sample(range(64), 20)
    expected = convexity_defect(g, s, geodesic_cap=4)
    over = expected.truncated_pairs
    assert over > 0
    monkeypatch.setitem(horolab.errors.BUDGETS, "count", over * 5)
    assert convexity_defect(g, s, geodesic_cap=4) == expected

    monkeypatch.setattr(analysis, "enumerate_geodesics", no_paths)
    monkeypatch.setitem(horolab.errors.BUDGETS, "count", over * 5 - 1)
    with pytest.raises(ResourceLimitError, match=rf"enumerating up to {over * 5} geodesics \({over} pairs over "
                                                 rf"the cap of 4\) exceeds the count budget of {over * 5 - 1}"):
        convexity_defect(g, s, geodesic_cap=4)
    monkeypatch.undo()
    monkeypatch.setattr(analysis, "enumerate_geodesics", no_paths)
    with pytest.raises(ResourceLimitError, match=rf"enumerating up to {2**70 + 1} geodesics \(1 pairs over"):
        convexity_defect(grid_graph(60, 60), [0, 3599], geodesic_cap=2**70)


def test_enumeration_runs_only_for_pairs_over_the_cap(monkeypatch):
    calls = []
    real = analysis.enumerate_geodesics

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "enumerate_geodesics", counted)
    ball = cayley_ball(free_product(free_abelian(2), free_abelian(2)), 3)
    diagnostics = []
    convexify_experiment(ball, [1, 2, 3], geodesic_cap=32, diagnostics=diagnostics)
    assert calls == [] and all(d["geodesic_cap_hits"] == 0 for d in diagnostics)
    # at cap 1 every enumerated pair has two or more geodesics, so each is cut short
    diagnostics = []
    convexify_experiment(ball, [1, 2], geodesic_cap=1, diagnostics=diagnostics)
    assert len(calls) == sum(d["geodesic_cap_hits"] for d in diagnostics) > 0


# -- displacement sets -----------------------------------------------------------------


def z2_orbit(radius):
    """The word-length displacement of the Z^2 ball and its inverse ids."""
    ball = cayley_ball(free_abelian(2), radius)
    inverse = np.array([ball.index[tuple(-a for a in g)] for g in ball.keys])
    return np.array(ball.word_lengths), inverse


def test_unit_ball_of_z2():
    s1 = displacement_generating_set(*z2_orbit(3), 1)
    assert len(s1) == 5  # e, a^+-1, b^+-1


def test_radius_two_ball_of_z2():
    assert len(displacement_generating_set(*z2_orbit(3), 2)) == 13


def test_displacement_sets_nest_and_close_under_inverse():
    displacement, inverse = z2_orbit(4)
    prev = set()
    for t in (1, 2, 3, 4):
        st_set = set(displacement_generating_set(displacement, inverse, t).tolist())
        assert prev <= st_set
        assert all(inverse[g] in st_set for g in st_set)
        prev = st_set


def test_error_below_minimal_displacement():
    displacement, inverse = z2_orbit(2)
    displacement[1:] += 5
    with pytest.raises(InputError, match="does not generate"):
        displacement_generating_set(displacement, inverse, 3)


@pytest.mark.parametrize("spec,radius", [
    (free_abelian(2), 4), (free(2), 3), (free_product(free_abelian(2), free_abelian(1)), 3), (heisenberg(), 3),
], ids=["Z2-r4", "F2-r3", "Z2*Z-r3", "Heis-r3"])
def test_displacement_sets_match_the_reference(spec, radius):
    """Against a brute-force search over keys, on the word-length
    displacement and on a seeded random one, which is not symmetric, so the
    inverse check drops elements there."""
    ball = cayley_ball(spec, radius)
    inverse = np.array([ball.index[spec.inverse(g)] for g in ball.keys])
    rng = np.random.default_rng(7)
    random_disp = rng.integers(0, 6, len(ball.keys))
    random_disp[0] = 0
    for displacement in (np.array(ball.word_lengths), random_disp):
        for t in (1, 2, 4):
            expected = reference_displacement_set(spec, ball.keys, displacement.tolist(), t)
            assert displacement_generating_set(displacement, inverse, t).tolist() == expected


# -- qi distortion -----------------------------------------------------------------------


def test_identity_map_fits_k_one():
    fit = qi_distortion([1, 2, 3, 4], [1, 2, 3, 4], scale=1, additive_budget=0)
    assert fit.multiplicative == 1 and fit.pairs_checked == 4


def test_uniform_scaling_absorbed_by_lambda():
    fit = qi_distortion([1, 2, 3], [3, 6, 9], scale=3, additive_budget=0)
    assert fit.multiplicative == 1


def test_mismatched_zero_is_infinite():
    fit = qi_distortion([0], [5], scale=1, additive_budget=1)
    assert fit.multiplicative == math.inf
    fit = qi_distortion([4], [0], scale=1, additive_budget=0)
    assert fit.multiplicative == math.inf


def test_exact_rational_fit():
    # domain 3 maps to 7 with lam=2: upper side needs K >= (7-1)/6 = 1,
    # lower side K >= 6/(7+1) < 1 -> K = 1;  with C=0: K = 7/6
    assert qi_distortion([3], [7], scale=2, additive_budget=1).multiplicative == 1
    assert qi_distortion([3], [7], scale=2, additive_budget=0).multiplicative == Fraction(7, 6)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 999),
    c1=st.integers(0, 4),
    c2=st.integers(0, 4),
)
def test_qi_fit_monotone_in_budget(seed, c1, c2):
    rng = random.Random(seed)
    dx = [rng.randrange(0, 9) for _ in range(12)]
    dy = [rng.randrange(0, 9) for _ in range(12)]
    lo, hi = sorted((c1, c2))
    f_lo = qi_distortion(dx, dy, scale=1, additive_budget=lo).multiplicative
    f_hi = qi_distortion(dx, dy, scale=1, additive_budget=hi).multiplicative
    assert f_hi <= f_lo


def test_qi_input_validation():
    with pytest.raises(InputError):
        qi_distortion([1], [1], scale=0)
    with pytest.raises(InputError):
        qi_distortion([1, 2], [1], scale=1)
    with pytest.raises(InputError, match="hop counts"):
        qi_distortion([1, -1], [1, 1], scale=1)
    with pytest.raises(InputError, match="hop counts"):
        qi_distortion(np.array([1, 1]), np.array([1, INF + 1]), scale=1)
    with pytest.raises(InputError, match="hop counts"):
        qi_distortion([2**70], [1], scale=1)


def naive_qi_fit(dx, dy, lam, c):
    """The fit as a max over every pair, duplicates included."""
    k = Fraction(1)
    for x, y in zip(dx, dy):
        x = lam * x
        if y > c:
            if x == 0:
                return math.inf
            k = max(k, Fraction(y - c, x))
        if x > 0:
            if y + c == 0:
                return math.inf
            k = max(k, Fraction(x, y + c))
    return k


@pytest.mark.parametrize("dx, dy, c", [
    ([1, 2, 3, 4, 2, 2, 0], [1, 3, 3, 9, 3, 1, 0], 0),
    ([0, 3, 3], [5, 3, 3], 1),  # dy > C at dx = 0: no finite K
    ([4, 1, 4], [0, 1, 0], 0),  # dx > 0 at dy + C = 0: no finite K
    ([2, INF, 5, INF], [INF, 7, 5, INF], 3),  # the unreachable sentinel
    ([], [], 2),
], ids=["finite", "inf-upper", "inf-lower", "sentinel", "empty"])
def test_qi_fit_of_arrays_equals_fit_of_lists(dx, dy, c):
    fit = qi_distortion(dx, dy, scale=2, additive_budget=c)
    assert fit.multiplicative == naive_qi_fit(dx, dy, 2, c)
    assert fit.pairs_checked == len(dx)
    for dtype in (np.int32, np.int64):
        assert qi_distortion(np.array(dx, dtype=dtype), np.array(dy, dtype=dtype),
                             scale=2, additive_budget=c) == fit


def test_qi_fit_of_random_arrays_matches_every_pair():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dx = rng.integers(0, 12, size=300, dtype=np.int32)
        dy = rng.integers(0, 12, size=300, dtype=np.int32)
        c = int(rng.integers(0, 3))
        expected = naive_qi_fit(dx.tolist(), dy.tolist(), 3, c)
        assert qi_distortion(dx, dy, scale=3, additive_budget=c).multiplicative == expected
        assert qi_distortion(dx.tolist(), dy.tolist(), scale=3, additive_budget=c).multiplicative == expected
