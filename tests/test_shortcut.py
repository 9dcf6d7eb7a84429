"""Bilipschitz cycle searches and shortcut profiles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from horolab import DistanceOracle, Graph, InputError, shortcut
from horolab.graph import cycle_graph, grid_graph, path_graph
from horolab.shortcut import (
    FOUND,
    NONE,
    NOT_SEARCHED,
    UNKNOWN,
    LambdaGrid,
    ShortcutQuery,
    bilipschitz_cycle_search,
    embedding_distortion,
    shortcut_profile,
)

from oracles import (
    binary_tree,
    complete_graph,
    naive_cycle_embedding_exists,
    random_connected_graph,
    reference_cycle_search,
    reference_embedding_distortion,
    star_graph,
)


def run(target, n, k, lo, hi, step="1/4", **kw):
    return bilipschitz_cycle_search(ShortcutQuery(
        cycle_length=n,
        bilipschitz=Fraction(k),
        lambdas=LambdaGrid.of(lo, hi, step),
        target=target,
        **kw,
    ))


def test_identity_embedding_of_cycle():
    out = run(cycle_graph(8), 8, 1, 1, 1)
    assert out.status == FOUND and out.exhaustive
    assert out.embedding.lam == 1 and out.embedding.k_achieved == 1
    assert out.embedding.images == tuple(range(8))


def test_path_has_no_near_isometric_hexagon():
    out = run(path_graph(9), 6, "6/5", 2, 4)  # 10-vertex path
    assert out.status == NONE and out.exhaustive


def test_grid_contains_a_scaled_square():
    out = run(grid_graph(9, 9), 4, 2, 2, 2)
    assert out.status == FOUND
    assert out.embedding.k_achieved <= 2
    # the expected witness style: a lattice square, e.g. corners of a 2x2 box
    square = (0, 2, 2 * 9 + 2, 2 * 9)
    oracle = DistanceOracle(grid_graph(9, 9))
    assert embedding_distortion(oracle, square, Fraction(2), Fraction(2)) <= 2


def test_witnesses_are_reverified():
    oracle = DistanceOracle(cycle_graph(8))
    with pytest.raises(InputError):
        embedding_distortion(oracle, (0, 1, 2, 3), Fraction(2), Fraction(1))


def test_empty_grid_reports_not_searched():
    out = run(cycle_graph(6), 4, 2, 3, 2)
    assert out.status == NOT_SEARCHED and not out.exhaustive


def test_node_cap_yields_unknown_never_none():
    out = run(grid_graph(5, 5), 6, 2, 1, 3, node_cap=5)
    assert out.status == UNKNOWN and not out.exhaustive


def test_exhaustive_is_set_exactly_for_found_and_none():
    outcomes = [run(cycle_graph(8), 8, 1, 1, 1), run(path_graph(9), 6, "6/5", 2, 4),
                run(grid_graph(5, 5), 6, 2, 1, 3, node_cap=5), run(cycle_graph(6), 4, 2, 3, 2)]
    assert {o.status: o.exhaustive for o in outcomes} == {
        FOUND: True, NONE: True, UNKNOWN: False, NOT_SEARCHED: False}


def test_query_validation():
    with pytest.raises(InputError):
        ShortcutQuery(2, Fraction(2), LambdaGrid.of(1, 2), cycle_graph(4))
    with pytest.raises(InputError):
        ShortcutQuery(4, Fraction(1, 2), LambdaGrid.of(1, 2), cycle_graph(4))
    with pytest.raises(InputError):
        LambdaGrid.of(1, 2, 0)
    for roots in ((4,), (-1,)):
        with pytest.raises(InputError, match="f0_candidates"):
            ShortcutQuery(4, Fraction(1), LambdaGrid.of(1, 2), cycle_graph(4), f0_candidates=roots)


@pytest.mark.parametrize("lo, hi, step, size", [
    (1, 2, "1/4", 5), (2, 3, "1/3", 4), (1, "7/4", "1/2", 2), (1, 1, 1, 1), (2, 1, 1, 0), ("3/2", 1, "1/4", 0),
    (1, 10**9, "1/1000", 999_999_999_001),
])
def test_lambda_grid_is_counted_without_listing(lo, hi, step, size):
    """``size`` is floor((hi - lo) / step) + 1, the length of ``values``."""
    grid = LambdaGrid.of(lo, hi, step)
    assert grid.size() == size
    if size < 100:
        values = grid.values()
        assert len(values) == size and all(grid.lo <= v <= grid.hi for v in values)
        assert values == sorted(values) and (not values or values[-1] + grid.step > grid.hi)


def test_restriction_masks_images():
    g = cycle_graph(12)
    free_run = run(g, 3, 2, 1, 1)
    assert free_run.status == FOUND
    # pairwise distance 4 exceeds the K*lam = 2 bracket
    spread = run(g, 3, 2, 1, 1, restrict=(0, 4, 8))
    assert spread.status == NONE
    # doubling the scale admits even-vertex triangles, and images obey the mask
    half = run(g, 3, 2, 2, 2, restrict=(0, 2, 4, 6, 8, 10))
    assert half.status == FOUND
    assert all(v % 2 == 0 for v in half.embedding.images)


def test_orbit_representatives_do_not_change_existence():
    g = cycle_graph(10)
    for n, k, lo, hi in ((4, 2, 1, 2), (5, "3/2", 1, 2), (6, "6/5", 1, 3)):
        full = run(g, n, k, lo, hi)
        reps = run(g, n, k, lo, hi, f0_candidates=(0,))  # rotation orbit
        assert full.status == reps.status
        if full.status == FOUND:
            assert full.embedding.lam == reps.embedding.lam


@pytest.mark.parametrize("target", [
    cycle_graph(6),
    path_graph(4),
    complete_graph(4),
    star_graph(4),
], ids=["C6", "P5", "K4", "star4"])
def test_agreement_with_naive_enumeration(target):
    oracle = DistanceOracle(target)
    dist = [[int(oracle.rows([i])[0, j]) for j in range(target.num_vertices)]
            for i in range(target.num_vertices)]
    k = Fraction(5, 4)
    for n in (3, 4, 5):
        for lam in (Fraction(1), Fraction(3, 2), Fraction(2)):
            out = run(target, n, k, lam, lam)
            expected = naive_cycle_embedding_exists(
                dist, n, k.numerator, k.denominator, lam.numerator, lam.denominator
            )
            assert (out.status == FOUND) == expected, (n, lam)


def test_bracket_products_do_not_wrap_for_large_constants():
    # cross-multiplied brackets outgrow int32 from e = 30 and int64 from e = 61
    target = cycle_graph(8)
    oracle = DistanceOracle(target)
    dist = [[int(oracle.rows([i])[0, j]) for j in range(8)] for i in range(8)]
    for e in (30, 61, 62, 70):
        k = Fraction(2**e + 1, 2**e)
        for n in (4, 5, 8):
            for lam in (Fraction(1), Fraction(2)):
                out = run(target, n, k, lam, lam)
                expected = naive_cycle_embedding_exists(
                    dist, n, k.numerator, k.denominator, lam.numerator, lam.denominator
                )
                assert (out.status == FOUND) == expected, (e, n, lam)
        assert run(target, 8, k, 1, 1).status == FOUND, e


def assert_matches_reference(target, n, k, grid, **kw):
    dist = DistanceOracle(target).rows(range(target.num_vertices)).tolist()
    out = run(target, n, k, grid.lo, grid.hi, grid.step, **kw)
    got = (out.status, out.nodes_expanded, out.exhaustive,
           out.embedding.images if out.embedding else None)
    assert got == reference_cycle_search(dist, n, Fraction(k), grid.values(), **kw), (n, k, kw)
    return out


@pytest.mark.parametrize("k, lam", [
    (2**62, 2),          # K*lam*c >= 2^63: the upper bracket passes int64
    (2**63 + 1, 1),      # K*lam*c between 2^63 and 2^64 at c = 1
    (2**70, 2**40),      # both brackets past int64
    (1, 2**40),          # lam*c/K past int32: no embedding at all
])
def test_brackets_past_int64_match_reference(k, lam):
    grid = LambdaGrid.of(lam, lam, "1")
    for target in (cycle_graph(8), path_graph(5)):
        for n in (3, 4, 8):
            assert_matches_reference(target, n, k, grid)
    assert run(cycle_graph(8), 8, k, lam, lam, "1").status == (NONE if k == 1 else FOUND)


@pytest.mark.parametrize("seed", range(4))
def test_search_matches_reference_on_random_graphs(seed):
    rng = random.Random(seed)
    nv = rng.randrange(8, 15)
    target = random_connected_graph(nv, rng.randrange(0, 2 * nv), rng)
    restrict = tuple(sorted(rng.sample(range(nv), 2 * nv // 3)))
    grid = LambdaGrid.of(1, 3, "1/2")
    statuses = set()
    for k in ("1", "6/5", "3/2", "2"):
        for n in (3, 4, 5, 6):
            for kw in ({}, {"restrict": restrict}, {"node_cap": 7}, {"f0_candidates": (0, nv - 1)}):
                statuses.add(assert_matches_reference(target, n, k, grid, **kw).status)
    assert UNKNOWN in statuses and FOUND in statuses


def test_search_matches_reference_on_the_benchmark_grid():
    # 7x7 grid, K = 6/5, lambda in [2, 3] by 1/4: every row is an exhaustive none
    target = grid_graph(7, 7)
    grid = LambdaGrid.of(2, 3, "1/4")
    nodes = [assert_matches_reference(target, n, "6/5", grid).nodes_expanded for n in range(5, 11)]
    assert sum(nodes) == 76_012


@pytest.mark.parametrize("target, n, k, lo, hi", [
    ("grid", 5, "6/5", 2, 3),   # 81 vertices: two words per set; an exhaustive none
    ("grid", 6, "3/2", 2, 3),
    ("grid", 5, "5/4", 3, 4),   # found after 4,288 nodes
    ("cycle", 7, "6/5", 2, 3),  # 130 vertices: three words per set; an exhaustive none
    ("cycle", 6, "6/5", 20, 24),
    ("cycle", 10, "6/5", 12, 14),
    ("cycle", 13, "1", 10, 10),
])
def test_multiword_targets_match_reference(target, n, k, lo, hi):
    graph = grid_graph(9, 9) if target == "grid" else cycle_graph(130)
    assert_matches_reference(graph, n, k, LambdaGrid.of(lo, hi, "1/2"))


@pytest.mark.parametrize("seed", range(3))
def test_restrict_and_unsorted_repeated_roots_match_reference(seed):
    """f(0) runs over ``f0_candidates`` in the order given, repeats
    included, and within ``restrict``, which need not be sorted."""
    rng = random.Random(100 + seed)
    target = random_connected_graph(20, 12, rng) if seed else grid_graph(4, 5)
    restrict = tuple(rng.sample(range(20), 14))
    roots = (19, 3, 19, 0, 11, 3, 7)
    grid = LambdaGrid.of(1, 3, "1/2")
    statuses = set()
    for k in ("6/5", "3/2"):
        for n in (4, 5, 6):
            for kw in ({"restrict": restrict}, {"f0_candidates": roots},
                       {"restrict": restrict, "f0_candidates": roots}):
                statuses.add(assert_matches_reference(target, n, k, grid, **kw).status)
    assert statuses == {FOUND, NONE}


def test_every_node_cap_matches_reference():
    """On the 12-cycle, n = 7 and K = 3/2, the scale 1 finds nothing in 96
    nodes and the witness at 3/2 is node 106: every cap below 106 stops the
    search, in the first scale or the second, and no cap moves the charge."""
    target, grid = cycle_graph(12), LambdaGrid.of(1, 2, "1/2")
    total = run(target, 7, "3/2", 1, 2, "1/2").nodes_expanded
    assert total == 106
    statuses = [assert_matches_reference(target, 7, "3/2", grid, node_cap=cap).status
                for cap in range(1, total + 2)]
    assert statuses == [UNKNOWN] * (total - 1) + [FOUND] * 2


@pytest.mark.parametrize("kernel_bytes", [1, 1000])
def test_small_slices_match_reference(monkeypatch, kernel_bytes):
    """With ``KERNEL_BYTES`` at 1 every slice, root slices included, holds
    one state; at 1,000 a slice holds a few states and a level's children
    are built a few parents at a time.  Counts and witnesses do not
    change."""
    monkeypatch.setattr(shortcut, "KERNEL_BYTES", kernel_bytes)
    sizes = []
    popcount = shortcut._popcount
    monkeypatch.setattr(shortcut, "_popcount", lambda words: sizes.append(len(words)) or popcount(words))
    statuses = set()
    for target, n, k, lo, hi, kw in [
        (grid_graph(7, 7), 6, "6/5", 2, 3, {}),
        (grid_graph(9, 9), 5, "5/4", 3, 4, {}),
        (cycle_graph(12), 7, "3/2", 1, 2, {"node_cap": 100}),
        (cycle_graph(130), 10, "6/5", 12, 14, {}),
        (grid_graph(4, 5), 5, "3/2", 1, 3, {"restrict": (19, 0, 4, 7, 12, 2, 10, 15, 1)}),
        (random_connected_graph(12, 8, random.Random(1)), 7, "2", 2, 3, {}),  # leaf-only parents start chunks
    ]:
        statuses.add(assert_matches_reference(target, n, k, LambdaGrid.of(lo, hi, "1/2"), **kw).status)
    assert statuses == {FOUND, NONE, UNKNOWN}
    assert set(sizes) == {1} if kernel_bytes == 1 else max(sizes) > 1


def test_scales_with_equal_brackets_are_searched_once(monkeypatch):
    """On the benchmark grid, lambda = 11/4 has the integer brackets of 5/2
    for n = 5, 6 and 7: 27 of the 30 scales are searched, and the rows
    keep their node counts (``test_search_matches_reference_on_the_benchmark_grid``)."""
    searched = []
    search = shortcut._search_one_lambda

    def recording(query, brackets, *rest):
        searched.append((query.cycle_length, brackets[0].tobytes() + brackets[1].tobytes()))
        return search(query, brackets, *rest)

    monkeypatch.setattr(shortcut, "_search_one_lambda", recording)
    grid = LambdaGrid.of(2, 3, "1/4")
    profile = shortcut_profile(grid_graph(7, 7), Fraction(6, 5), range(5, 11), grid)
    assert [o.nodes_expanded for _, o, _ in profile.searches] == [7620, 12212, 14240, 14324, 16140, 11476]
    expected, skipped = [], []
    for n in range(5, 11):
        for lam in grid.values():
            lo, hi = shortcut._cycle_brackets(n, lam, Fraction(6, 5))
            if (n, lo.tobytes() + hi.tobytes()) in expected:
                skipped.append((n, lam))
            else:
                expected.append((n, lo.tobytes() + hi.tobytes()))
    assert searched == expected and len(searched) == 27
    assert skipped == [(n, Fraction(11, 4)) for n in (5, 6, 7)]


@pytest.mark.parametrize("cap", [5951, 5952, 7619, 7620])
def test_a_repeated_scale_is_charged_against_the_cap(cap):
    """n = 5 on the benchmark grid: the scales up to 5/2 cost 4,492 nodes,
    11/4 is charged 1,460 more without a search, and 3 brings 7,620."""
    assert_matches_reference(grid_graph(7, 7), 5, "6/5", LambdaGrid.of(2, 3, "1/4"), node_cap=cap)
    assert run(grid_graph(7, 7), 5, "6/5", 2, 3, node_cap=cap).status == (NONE if cap == 7620 else UNKNOWN)


@pytest.mark.parametrize("seed", range(3))
def test_distortion_matches_the_pairwise_reference(seed):
    """The same value, or the same error naming the same first pair.
    Equal images fail the bracket at lambda = 1 and have no constant at
    lambda = 0."""
    rng = random.Random(seed)
    target = random_connected_graph(12, 10, rng)
    oracle = DistanceOracle(target)
    dist = oracle.rows(range(target.num_vertices)).tolist()
    outcomes = []
    draws = [([seed] * 5, Fraction(lam), Fraction(k)) for lam in (0, 1) for k in ("1", "16")]  # equal images
    for _ in range(60):
        n = rng.randrange(3, 9)
        draws.append(([rng.randrange(12) for _ in range(n)], Fraction(rng.randrange(0, 7), rng.choice([1, 2, 3])),
                      Fraction(rng.choice(["1", "6/5", "3/2", "4", "16"]))))
    for images, lam, k in draws:
        results = []
        for check in (lambda: reference_embedding_distortion(dist, images, lam, k),
                      lambda: embedding_distortion(oracle, images, lam, k)):
            try:
                results.append(check())
            except InputError as exc:
                results.append(str(exc))
        assert results[0] == results[1], (images, lam, k)
        outcomes.append(results[0])
    assert outcomes[:4] == ["scale must be positive"] * 2 + ["pair (0, 1): distance 0 outside bracket for lam=1"] * 2
    assert {type(o) for o in outcomes} == {Fraction, str}


def test_deep_binary_tree_has_no_k13_cycles():
    tree = binary_tree(5)
    profile = shortcut_profile(
        tree, Fraction(13, 10), n_list=[8, 10, 12], lambdas=LambdaGrid.of(1, 3, "1/2")
    )
    for _, outcome, _ in profile.searches:
        assert outcome.status == NONE and outcome.exhaustive


def test_c24_isometric_profile_matches_equally_spaced_construction():
    g = cycle_graph(24)
    profile = shortcut_profile(
        g, Fraction(1), n_list=[5, 6, 8, 12, 24], lambdas=LambdaGrid.of(1, 4, "1/4")
    )
    by_n = {n: outcome for n, outcome, _ in profile.searches}
    # lam = 24/n whenever that hits the grid; n=5 needs 24/5 which does not
    assert by_n[5].status == NONE
    for n in (6, 8, 12):
        assert by_n[n].status == FOUND and by_n[n].embedding.lam == Fraction(24, n)
        images = by_n[n].embedding.images
        gaps = {(images[(i + 1) % n] - images[i]) % 24 for i in range(n)}
        assert len(gaps) == 1  # equally spaced
    assert by_n[24].status == FOUND and by_n[24].embedding.lam == 1


def test_profile_csv_and_json_shapes():
    profile = shortcut_profile(
        cycle_graph(8), Fraction(1), n_list=[4, 8], lambdas=LambdaGrid.of(1, 2, 1)
    )
    csv_text = profile.to_csv()
    assert csv_text.splitlines()[0] == "n,K,lambda,status,nodes,seconds"
    assert len(csv_text.splitlines()) == 3
    rows = profile.to_json_rows()
    assert rows[1]["status"] == FOUND and "witness" in rows[1]
    assert rows[0]["n"] == 4 and rows[0]["lambda"] == "2"


def test_profile_computes_each_distance_row_once(monkeypatch):
    """The benchmark's shortcut op: one oracle and one connectivity check
    serve every cycle length, so each source row of the 7x7 grid is computed
    at most once, and the rows and the CSV (but its timing column) are those
    of one search per cycle length, each with an oracle of its own."""
    import horolab.graph

    target = grid_graph(7, 7)
    grid = LambdaGrid.of(2, 3, "1/4")
    n_list = [5, 6, 7, 8, 9, 10]
    separate = [bilipschitz_cycle_search(ShortcutQuery(n, Fraction(6, 5), grid, target)) for n in n_list]

    sources = []
    rows = horolab.graph.distance_rows

    def recording(g, srcs, *args, **kwargs):
        sources.extend(int(s) for s in srcs)
        return rows(g, srcs, *args, **kwargs)

    monkeypatch.setattr(horolab.graph, "distance_rows", recording)
    profile = shortcut_profile(target, Fraction(6, 5), n_list, grid)
    assert sources and len(sources) == len(set(sources)) <= target.num_vertices

    assert [(n, o) for n, o, _ in profile.searches] == list(zip(n_list, separate))
    csv_rows = [line.rsplit(",", 1)[0] for line in profile.to_csv().splitlines()]
    assert csv_rows == ["n,K,lambda,status,nodes"] + [
        f"{n},6/5,{'' if o.embedding is None else o.embedding.lam},{o.status},{o.nodes_expanded}"
        for n, o in zip(n_list, separate)]


def test_a_shared_oracle_still_checks_connectivity():
    split = Graph(4, [(0, 1), (2, 3)])
    oracle = DistanceOracle(split)
    oracle.rows([3])
    with pytest.raises(InputError, match="connected"):
        bilipschitz_cycle_search(ShortcutQuery(4, Fraction(1), LambdaGrid.of(1, 1), split), oracle)
