"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with ``-s`` to see
them live).  Heavy shared instances are session fixtures.  Tolerances are
exact: every assertion here is on integers or exact rationals.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from horolab import DistanceOracle, cayley_ball, distance_rows, enumerate_geodesics
from horolab.analysis import convexity_defect, four_point_delta
from horolab.experiments import (
    _sample_cosets,
    convexify_experiment,
    convexify_gate,
    family_distance_matrices,
    milnor_svarc_experiment,
    parabolic_family,
    scan_parabolic,
)
from horolab.graph import (
    Graph,
    binary_tree,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    star_graph,
    rips_graph,
)
from horolab.groups import free_abelian, free_product
from horolab.horoball import (
    build_augmented,
    build_restricted_horoball,
    normal_form_geodesic,
    verify_geodesic_shape,
)
from horolab.io import canonical_json
from horolab.shortcut import FOUND, NONE, LambdaGrid, ShortcutQuery, bilipschitz_cycle_search

from oracles import floyd_warshall, naive_cycle_embedding_exists, naive_four_point_delta

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "reports" / "golden"

Z2 = free_abelian(2)
Z2_FREE_Z2 = free_product(free_abelian(2), free_abelian(2))


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} FAIL  {label}")
        raise
    print(f"\nACCEPTANCE {number:02d} PASS  {label}")


@pytest.fixture(scope="module")
def z2z2_radius6():
    ball = cayley_ball(Z2_FREE_Z2, 6, max_vertices=200_000)
    family, factor_of, identity_indices = parabolic_family(ball)
    dmats = family_distance_matrices(ball.graph, family)
    return ball, family, factor_of, identity_indices, dmats


def test_criterion_01_rips_identity():
    with criterion(1, "Rips distance identity on 50 random graphs, t in {1,2,3,4,8}"):
        rng = random.Random(20260808)
        for _ in range(50):
            g = random_connected_graph(rng.randrange(2, 41), rng.randrange(0, 30), rng)
            d = DistanceOracle(g).matrix()
            for t in (1, 2, 3, 4, 8):
                dr = DistanceOracle(rips_graph(g, t)).matrix()
                assert np.array_equal(dr, -(-d // t)), f"|V|={g.num_vertices}, t={t}"


def test_criterion_02_horoball_distance_formula():
    with criterion(2, "crossing-level distance formula equals BFS on all pairs, < 60 s"):
        from horolab.horoball import horoball_distance

        t0 = time.perf_counter()
        for length in (8, 16, 32):
            for depth in range(1, 6):
                h = build_restricted_horoball(path_graph(length), depth)
                d = DistanceOracle(h.carrier).matrix()
                n = h.carrier.num_vertices
                for u in range(n):
                    row = d[u]
                    for v in range(u + 1, n):
                        assert horoball_distance(h, u, v) == row[v], (length, depth, u, v)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_03_level_halving():
    with criterion(3, "within-level distances follow ceil(d/2^k), incl. the 8 -> 4 datapoint"):
        for length in (8, 16, 32):
            base = path_graph(length)
            d_base = DistanceOracle(base).matrix()
            for depth in range(1, 6):
                h = build_restricted_horoball(base, depth)
                nv = base.num_vertices
                for k in range(depth + 1):
                    level = list(h.level_vertices(k))
                    local_edges = [
                        (int(u) - level[0], int(v) - level[0])
                        for u, v in h.carrier.edges
                        if level[0] <= int(u) <= level[-1] and level[0] <= int(v) <= level[-1]
                    ]
                    d_level = DistanceOracle(Graph(nv, local_edges)).matrix()
                    assert np.array_equal(d_level, -(-d_base // 2**k)), (length, depth, k)
        # concrete datapoint: base distance 8 at one level, 4 one level up
        h = build_restricted_horoball(path_graph(8), 2)
        level_graph = lambda k: Graph(9, [
            (int(u) - 9 * k, int(v) - 9 * k) for u, v in h.carrier.edges
            if h.level_of(int(u)) == k and h.level_of(int(v)) == k
        ])
        assert distance_rows(level_graph(0), [0])[0][8] == 8
        assert distance_rows(level_graph(1), [0])[0][8] == 4


def test_criterion_04_geodesic_shape_laws():
    with criterion(4, "normal forms are geodesics; all geodesics of H_3(P_16) obey the shape laws"):
        h = build_restricted_horoball(path_graph(16), 3)
        d = DistanceOracle(h.carrier).matrix()
        n = h.carrier.num_vertices
        checked_paths = 0
        for u, v in itertools.combinations(range(n), 2):
            beta = normal_form_geodesic(h, u, v)
            assert beta.length == d[u][v], f"normal form not geodesic for ({u}, {v})"
            beta_ids = np.array(sorted(set(beta.path.vertices)))
            paths, _ = enumerate_geodesics(h.carrier, u, v, cap=10_000, dist_to_target=d[v])
            for p in paths:
                report = verify_geodesic_shape(h, p)
                assert report.passed, (u, v, p.vertices, report.violations)
                sub = d[np.ix_(np.array(p.vertices), beta_ids)]
                hausdorff = max(sub.min(axis=1).max(), sub.min(axis=0).max())
                assert hausdorff <= 4, (u, v, p.vertices, hausdorff)
                checked_paths += 1
        assert checked_paths > 2278  # strictly more geodesics than pairs


def test_criterion_05_deep_level_convexity():
    with criterion(5, "levels >= k are convex in H_n(P_32) for every k <= n <= 5"):
        base = path_graph(32)
        for depth in range(1, 6):
            h = build_restricted_horoball(base, depth)
            oracle = DistanceOracle(h.carrier)
            for k in range(depth + 1):
                report = convexity_defect(
                    h.carrier, h.deep_vertices(k), oracle=oracle, geodesic_cap=0
                )
                assert report.defect == 0, (depth, k, report.witnesses[:3])


def test_criterion_06_bottom_to_top_rough_isometry(z2z2_radius6):
    with criterion(6, "|d_bottom - d_top| <= 2n over interior parabolic pairs at radius 6"):
        ball, family, factor_of, identity_indices, dmats = z2z2_radius6
        depth = 3
        aug = build_augmented(ball.graph, family, depth)
        scanned = list(identity_indices) + _sample_cosets(family, factor_of, identity_indices, 3)
        total_pairs = 0
        for alpha in scanned:
            scan = scan_parabolic(
                aug, ball, alpha, dmats[alpha], radius=6,
                geodesic_cap=0, check_level_drop=True,
            )
            assert scan.level_drop_excess <= 0, f"coset {alpha}: excess {scan.level_drop_excess}"
            total_pairs += scan.pairs_checked
        assert total_pairs > 1800


def test_criterion_07_convexification_experiment():
    with criterion(7, "defect column non-increasing in n and 0 by n0 <= 5 (radius 6)"):
        rows = convexify_experiment(Z2_FREE_Z2, radius=6, depths=[1, 2, 3, 4, 5])
        convexify_gate(rows)  # raises PropertyViolation = CLI exit 4
        defects = [r["defect"] for r in rows]
        assert all(a >= b for a, b in zip(defects, defects[1:])), defects
        n0 = next(r["n"] for r in rows if r["defect"] == 0)
        assert n0 <= 5, defects
        assert all(r["translation_check"] == "ok" for r in rows)
        assert all(r["pairs_checked"] > 0 for r in rows)


def test_criterion_08_shortcut_searches():
    with criterion(8, "cycle searches: identity witnesses, exhaustive refutation, oracle agreement"):
        # (i) isometric self-embeddings
        for n in range(3, 13):
            out = bilipschitz_cycle_search(ShortcutQuery(
                n, Fraction(1), LambdaGrid.of(1, 1), cycle_graph(n)))
            assert out.status == FOUND and out.embedding.k_achieved == 1, n
        # (ii) no near-isometric hexagon in a 10-vertex path, any scale in [2, 4]
        out = bilipschitz_cycle_search(ShortcutQuery(
            6, Fraction(6, 5), LambdaGrid.of(2, 4, "1/4"), path_graph(9)))
        assert out.status == NONE and out.exhaustive
        # (iii) agreement with the all-assignments oracle on small targets
        targets = [cycle_graph(6), path_graph(4), complete_graph(4),
                   star_graph(4), grid_graph(3, 3), cycle_graph(12)]
        k = Fraction(5, 4)
        for g in targets:
            assert g.num_vertices <= 12
            oracle = DistanceOracle(g)
            dist = [[oracle.distance(i, j) for j in range(g.num_vertices)]
                    for i in range(g.num_vertices)]
            for n in (3, 4, 5, 6):
                for lam in (Fraction(1), Fraction(3, 2), Fraction(2)):
                    found = bilipschitz_cycle_search(ShortcutQuery(
                        n, k, LambdaGrid(lam, lam, Fraction(1)), g)).status == FOUND
                    expected = naive_cycle_embedding_exists(
                        dist, n, k.numerator, k.denominator, lam.numerator, lam.denominator)
                    assert found == expected, (g.num_vertices, n, lam)


def test_criterion_09_delta_estimator():
    with criterion(9, "four-point delta: trees exactly 0, C_12 equals the naive scan, flags honest"):
        for tree in (path_graph(7), star_graph(6), binary_tree(3)):
            est = four_point_delta(tree)
            assert est.delta == 0 and est.exhaustive
        g = cycle_graph(12)
        est = four_point_delta(g)
        fw = floyd_warshall(12, [tuple(e) for e in g.edges])
        assert est.delta == naive_four_point_delta(fw)
        assert est.exhaustive
        sampled = four_point_delta(g, sample=300, seed=5)
        assert not sampled.exhaustive and sampled.quadruples_checked == 300
        assert sampled.delta <= est.delta


def test_criterion_10_milnor_svarc_trend():
    with criterion(10, "K_t non-increasing with K_8 < K_1 on Z^2 (radius 32), byte-stable golden rows"):
        runs = [
            milnor_svarc_experiment(Z2, depth=3, t_list=[1, 2, 4, 8], radius=32)
            for _ in range(2)
        ]
        assert canonical_json(runs[0]) == canonical_json(runs[1])  # rerun-stable
        rows = runs[0]
        ks = [Fraction(r["K_t"]) for r in rows]
        assert ks == sorted(ks, reverse=True), ks
        assert ks[3] < ks[0], ks
        golden = json.loads((GOLDEN_DIR / "milnor_svarc_z2.json").read_text())
        assert canonical_json(rows) == canonical_json(golden["rows"])
