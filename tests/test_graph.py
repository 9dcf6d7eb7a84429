"""graph core: metric, rips graphs, geodesic enumeration, io."""

from __future__ import annotations

import itertools
import json
import pathlib
import random
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from horolab import (
    INF,
    DistanceOracle,
    Graph,
    InputError,
    Path,
    ResourceLimitError,
    distance_rows,
    enumerate_geodesics,
    is_interior_pair,
    rips_graph,
)
import horolab.graph
import horolab.io
from horolab.graph import (
    cycle_graph,
    distance_to_set,
    grid_graph,
    neighborhood_subgraph,
    path_graph,
)
from horolab.io import canonical_json, graph_from_json, graph_to_json, read_graph, to_dot, write_graph

from oracles import BIG, bfs_distances, floyd_warshall, random_connected_graph, star_graph


def test_graph_rejects_self_loops_and_bad_ids():
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])


def _unique_rows_reference(n, edges):
    """Canonical edges and CSR arrays via a row-wise np.unique and lexsort."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    canon = np.unique(np.stack([e.min(axis=1), e.max(axis=1)], axis=1), axis=0)
    both = np.concatenate([canon, canon[:, ::-1]])
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(both[:, 0], minlength=n))])
    return canon, indptr, both[:, 1]


@pytest.mark.parametrize("seed", range(5))
def test_edge_order_and_duplicates_do_not_change_the_graph(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 60)
    edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(0, 3 * n))]
    canon, indptr, indices = _unique_rows_reference(n, edges)
    shuffled = edges[:]
    rng.shuffle(shuffled)
    for variant in (edges, shuffled, [(v, u) for u, v in edges], edges + shuffled[: len(edges) // 2]):
        g = Graph(n, variant)
        assert g.edges.dtype == np.int32
        assert np.array_equal(g.edges, canon.reshape(-1, 2))
        assert np.array_equal(g._indptr, indptr) and np.array_equal(g._indices, indices)
        adj = np.zeros((n, n), dtype=bool)
        adj[np.repeat(np.arange(n), np.diff(g._indptr)), g._indices] = True
        assert np.array_equal(adj, adj.T)


def test_parallel_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges == 1


def test_adjacency_symmetric_and_sorted():
    g = Graph(4, [(2, 0), (0, 1), (3, 0)])
    assert list(g.neighbors(0)) == [1, 2, 3]
    assert list(g.neighbors(2)) == [0]
    assert g.has_edge(3, 0) and g.has_edge(0, 3)


# The three kernels of distance_rows.  ``use_kernel`` forces one through
# the picker: the picker still runs and prices the call, and its level bound
# is kept, but its choice is replaced.
KERNELS = ["frontier", "bits", "bfs"]


def use_kernel(monkeypatch, kernel):
    pick = horolab.graph._pick_kernel
    monkeypatch.setattr(horolab.graph, "_pick_kernel",
                        lambda *args: (kernel, pick(*args)[1]))


def random_graph(n, edge_count, rng):
    """Uniform random edges; usually disconnected when sparse."""
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(edge_count)}
    return Graph(n, [(u, v) for u, v in edges if u != v])


def as_inf(row):
    return [INF if d == BIG else d for d in row]


def test_bfs_cycle_antipode():
    assert distance_rows(cycle_graph(8), [0])[0][4] == 4


def test_bfs_path_end_to_end():
    # path on vertices 0..4
    assert distance_rows(path_graph(4), [0])[0][4] == 4


def test_bfs_unknown_source():
    with pytest.raises(InputError):
        distance_rows(path_graph(2), [7])
    with pytest.raises(InputError):
        distance_rows(path_graph(2), [0, -1])
    with pytest.raises(InputError):
        DistanceOracle(path_graph(2)).rows([7])
    with pytest.raises(InputError, match=f"unknown vertex id {2**70}"):
        distance_rows(path_graph(2), [0, 2**70])


def test_bfs_disconnected_sentinel(monkeypatch):
    g = Graph(4, [(0, 1), (2, 3)])
    for kernel in KERNELS:
        use_kernel(monkeypatch, kernel)
        d = distance_rows(g, [0, 3])
        assert d.dtype == np.int32
        assert d.tolist() == [[0, 1, INF, INF], [INF, INF, 1, 0]]
        # two sentinels still add up without wrapping
        assert int((d[0] + d[0]).max()) == 2 * INF


@pytest.mark.parametrize("g", [
    path_graph(3000), star_graph(40), Graph(7, [(0, 1), (1, 2), (4, 5), (5, 6), (6, 4)]), Graph(1, []),
], ids=["path-3001", "star", "disconnected", "single-vertex"])
def test_per_source_bfs_row_matches_the_queue_bfs(g):
    """The per-source BFS: one level per vertex on a long path, two levels
    on a star, unreached vertices left at INF."""
    n = g.num_vertices
    edges = g.edges.tolist()
    sources = {0, n // 2, n - 1} | ({1, 3} if n == 7 else set())
    for s in sorted(sources):
        row = horolab.graph._frontier_bfs(g, [s])
        assert row.dtype == np.int32
        assert row.tolist() == as_inf(bfs_distances(n, edges, s))


def test_per_source_rows_match_the_references(monkeypatch):
    """Per-source rows, probe included, against Floyd-Warshall on random
    and disconnected graphs, and against the queue BFS on a long path, from
    both ends and the middle."""
    use_kernel(monkeypatch, "bfs")
    check_random_graphs_against_references(random.Random(8))
    g = path_graph(3000)
    assert distance_rows(g, [0, 1500, 3000]).tolist() == [
        as_inf(bfs_distances(3001, g.edges.tolist(), s)) for s in (0, 1500, 3000)]


def test_bfs_matches_floyd_warshall_on_random_graphs(monkeypatch):
    for kernel in KERNELS:
        use_kernel(monkeypatch, kernel)
        check_random_graphs_against_references(random.Random(7))


def check_random_graphs_against_references(rng):
    for i in range(40):
        n = rng.randrange(1, 15)
        if i % 2:
            g = random_connected_graph(n, rng.randrange(0, 8), rng)
        else:
            g = random_graph(n, rng.randrange(0, 2 * n), rng)
        edges = [tuple(e) for e in g.edges]
        fw = [as_inf(row) for row in floyd_warshall(n, edges)]
        assert distance_rows(g, range(n)).tolist() == fw
        oracle = DistanceOracle(g)
        for s in range(n):
            assert as_inf(bfs_distances(n, edges, s)) == fw[s]
            assert oracle.rows([s])[0].tolist() == fw[s]
        cols = sorted(rng.sample(range(n), rng.randrange(0, n + 1)))
        assert distance_rows(g, [n - 1, 0, n - 1], columns=cols).tolist() == [
            [fw[n - 1][c] for c in cols], [fw[0][c] for c in cols], [fw[n - 1][c] for c in cols]]


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernels_at_word_boundaries_and_edge_cases(monkeypatch, kernel):
    """63, 64, 65 and 129 sources straddle the 64-source words of the
    bit-parallel kernel; duplicate sources get rows of their own; isolated
    vertices stay at INF; graphs of one vertex and of none."""
    use_kernel(monkeypatch, kernel)
    rng = random.Random(5)
    g = Graph(80, [e for e in rng.sample(list(itertools.combinations(range(75), 2)), 160)])
    edges = [tuple(e) for e in g.edges]
    fw = [as_inf(row) for row in floyd_warshall(80, edges)]
    for k in (63, 64, 65, 129):
        sources = [rng.randrange(80) for _ in range(k)]
        sources[-1] = sources[0]  # a duplicate in another word
        assert distance_rows(g, sources).tolist() == [fw[s] for s in sources]
        cols = [79, 0, 40, 40]
        assert distance_rows(g, sources, columns=cols).tolist() == [[fw[s][c] for c in cols] for s in sources]
    assert distance_rows(Graph(3, []), [2, 0, 2]).tolist() == [[INF, INF, 0], [0, INF, INF], [INF, INF, 0]]
    assert distance_rows(Graph(1, []), [0, 0]).tolist() == [[0], [0]]
    assert distance_rows(Graph(0, []), []).shape == (0, 0)


def test_bit_parallel_counts_past_255_levels(monkeypatch):
    """The bit-sliced counter needs more than 8 planes on a long path."""
    use_kernel(monkeypatch, "bits")
    g = path_graph(700)
    assert distance_rows(g, [0, 700, 350, 0]).tolist() == [
        list(range(701)), list(range(700, -1, -1)), [abs(v - 350) for v in range(701)], list(range(701))]


def test_the_level_bound_covers_every_source():
    """L from one probe row bounds the BFS levels from every source, in the
    probe's component (2·ecc + 1) and in the others (the unreached count)."""
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randrange(1, 30)
        g = random_graph(n, rng.randrange(0, 2 * n), rng)
        fw = [as_inf(row) for row in floyd_warshall(n, [tuple(e) for e in g.edges])]
        levels = horolab.graph._pick_kernel(g, n)[1]
        assert max(d for row in fw for d in row if d < INF) < levels <= n


def test_the_byte_budget_is_a_kernel_choice(monkeypatch):
    """Over budget the frontier product is no candidate and the bit-parallel
    kernel takes its sources one word per pass; the rows do not change."""
    g = random_connected_graph(120, 2000, random.Random(2))
    sources = list(range(120)) * 2
    levels = horolab.graph._pick_kernel(g, 240)[1]
    expected = distance_rows(g, sources)
    assert horolab.graph._pick_kernel(g, 240)[0] == "frontier"
    fixed, per_word = horolab.graph._bit_bytes(g, 120, levels)
    monkeypatch.setattr(horolab.graph, "KERNEL_BYTES", fixed + per_word)
    assert horolab.graph._bit_chunk_words(g, 120, levels) == 1
    info = {}
    assert np.array_equal(distance_rows(g, sources, info=info), expected)
    assert info == {"kernel": "bits", "levels": levels}
    monkeypatch.setattr(horolab.graph, "KERNEL_BYTES", 0)
    assert horolab.graph._pick_kernel(g, 240)[0] == "bfs"
    assert np.array_equal(distance_rows(g, sources), expected)


def kernel_switch(graphs, picks):
    """The first graph (and source count) where the picker's choice moves
    from ``picks[0]`` to ``picks[1]``, and the one before it."""
    before = None
    for g, k in graphs:
        kernel = horolab.graph._pick_kernel(g, k)[0]
        if kernel == picks[1]:
            assert before is not None
            return before, (g, k)
        assert kernel == picks[0]
        before = (g, k)
    raise AssertionError(f"no switch from {picks[0]} to {picks[1]}")


def check_rows_and_kernel(g, k, kernel):
    info = {}
    sources = [(7 * i) % g.num_vertices for i in range(k)]
    rows = distance_rows(g, sources, info=info)
    assert info["kernel"] == kernel
    edges = [tuple(e) for e in g.edges]
    for s, row in zip(sources, rows):
        assert row.tolist() == as_inf(bfs_distances(g.num_vertices, edges, s))


def test_distance_rows_at_the_source_count_switch():
    """On a 2,000-vertex carrier-like graph, per-source BFS up to some
    source count, the bit-parallel kernel from the next one on."""
    rng = random.Random(11)
    g = random_connected_graph(2000, 2000, rng)
    before, after = kernel_switch(((g, k) for k in range(1, 200)), ("bfs", "bits"))
    assert before[1] + 1 == after[1] > 2
    check_rows_and_kernel(*before, "bfs")
    check_rows_and_kernel(*after, "bits")


def test_distance_rows_at_the_size_switch():
    """All sources of a growing dense graph: the frontier product while the
    graph is small, the bit-parallel kernel once n^3 work per level loses
    to the word-parallel edge passes.  Vertex n - 1 is isolated, so the
    rows hold INF."""
    rng = random.Random(3)
    pool = list(itertools.combinations(range(400), 2))
    rng.shuffle(pool)

    def dense(n):
        return Graph(n, [(u, v) for u, v in pool if v < n - 1][: 8 * n])

    before, after = kernel_switch(((dense(n), n) for n in range(40, 400, 8)), ("frontier", "bits"))
    check_rows_and_kernel(*before, "frontier")
    check_rows_and_kernel(*after, "bits")


@pytest.mark.parametrize("n", [999, 1000])
def test_distance_rows_at_the_kernel_switch(n):
    """Graphs of 999 and 1,000 vertices, where a fixed vertex-count switch
    once sat: the kernel the cost rule picks gives the BFS rows there."""
    rng = random.Random(n)
    for g in (random_connected_graph(n, n // 4, rng), random_graph(n, n, rng)):
        edges = [tuple(e) for e in g.edges]
        sources = rng.sample(range(n), 5)
        info = {}
        rows = distance_rows(g, sources, info=info)
        assert rows.dtype == np.int32
        assert info["kernel"] in KERNELS
        for s, row in zip(sources, rows):
            assert row.tolist() == as_inf(bfs_distances(n, edges, s))


@pytest.mark.parametrize("extra_edges", [-1, 0])
def test_distance_rows_at_the_degree_switch(monkeypatch, extra_edges):
    """Average degree 2E/n just under and exactly at 32, where a fixed
    degree switch once sat: the picked kernel and each forced kernel give
    the Floyd-Warshall rows.  The last vertex is isolated, so some rows
    hold INF."""
    n = 60
    rng = random.Random(extra_edges)
    e = 32 * n // 2 + extra_edges
    g = Graph(n, rng.sample(list(itertools.combinations(range(n - 1), 2)), e))
    edges = [tuple(x) for x in g.edges]
    fw = [as_inf(row) for row in floyd_warshall(n, edges)]
    sources = [n - 1, 3, 0, 3, n - 1]
    cols = sorted(rng.sample(range(n), 20)) + [n - 1]
    for s in sources:
        assert as_inf(bfs_distances(n, edges, s)) == fw[s]
    for kernel in [None] + KERNELS:
        if kernel is not None:
            use_kernel(monkeypatch, kernel)
        assert distance_rows(g, range(n)).tolist() == fw
        assert distance_rows(g, sources, columns=cols).tolist() == [[fw[s][c] for c in cols] for s in sources]


def milnor_svarc_graphs(radius, depth=3):
    """The word ball of Z^2 and its S_1, S_2, S_4, S_8 graphs, built as
    ``milnor_svarc_experiment`` builds them, from one distance row."""
    from horolab.analysis import displacement_generating_set
    from horolab.groups import cayley_ball, free_abelian
    from horolab.horoball import crossing_distance

    ball = cayley_ball(free_abelian(2), radius)
    n = ball.graph.num_vertices
    displacement = crossing_distance(distance_rows(ball.graph, [0])[0], 0, 0, depth)
    inverse = np.array([ball.index[ball.spec.inverse(g)] for g in ball.keys])
    graphs = {"word": ball.graph}
    vid = np.arange(n)
    for t in (1, 2, 4, 8):
        s_t = displacement_generating_set(displacement, inverse, t)
        targets = ball.right_translations(s_t[s_t != 0])
        keep = targets > vid
        edges = np.stack([np.broadcast_to(vid, targets.shape)[keep], targets[keep]], axis=1)
        graphs[f"S_{t}"] = Graph(n, edges)
    return graphs


@pytest.mark.parametrize("radius", [16, 32])
def test_pick_kernel_on_the_milnor_svarc_graphs(radius):
    """All sources: bit-parallel on the sparse graphs; on S_8, the frontier
    product at radius 16 (545 vertices, 3 levels) and the bit-parallel
    kernel at radius 32, where the frontier buffers (80 MB) exceed the
    budget and the BLAS work grows as n^3.  Only the picker runs."""
    graphs = milnor_svarc_graphs(radius)
    picks = {name: horolab.graph._pick_kernel(g, g.num_vertices) for name, g in graphs.items()}
    assert picks == {
        "word": ("bits", 2 * radius + 1), "S_1": ("bits", 2 * radius + 1),
        "S_2": ("bits", radius + 1), "S_4": ("bits", radius // 2 + 1),
        "S_8": ("frontier" if radius == 16 else "bits", radius // 8 + 1),
    }


def test_pick_kernel_keeps_per_source_bfs_on_long_paths_and_big_carriers():
    """A geodesic's two endpoints on a 3,001-vertex path (L = n levels),
    and one source on the 21,659-vertex depth-5 carrier of Z^2*Z^2 at
    radius 4."""
    from horolab.experiments import parabolic_family
    from horolab.groups import cayley_ball, free_abelian, free_product
    from horolab.horoball import glue_horoballs

    assert horolab.graph._pick_kernel(path_graph(3000), 2) == ("bfs", 3001)
    ball = cayley_ball(free_product(free_abelian(2), free_abelian(2)), 4)
    family, _, _ = parabolic_family(ball)
    carrier = glue_horoballs(ball.graph, family, 5).carrier
    assert carrier.num_vertices == 21659
    assert horolab.graph._pick_kernel(carrier, 1)[0] == "bfs"


def test_no_sources_give_an_empty_table():
    g = path_graph(3)
    assert distance_rows(g, []).shape == (0, 4)
    assert distance_rows(g, [], columns=[1, 2]).shape == (0, 2)
    assert DistanceOracle(g).rows([]).shape == (0, 4)
    empty = DistanceOracle(Graph(0, [])).rows(range(0))
    assert empty.shape == (0, 0) and empty.dtype == np.int32


def test_oracle_holds_its_rows_to_the_table_budget(monkeypatch):
    """Under a table budget of k rows, k distinct sources are fetched in one
    call whose table is returned as it is; one more new source is refused
    before its row is computed, and the refused call caches nothing.  Cached
    sources, repeated sources and an empty call compute no row."""
    g = grid_graph(4, 5)
    n, k = g.num_vertices, 6
    full = distance_rows(g, range(n))
    tables = []

    def recording(graph, sources, *args):
        tables.append(distance_rows(graph, sources, *args))
        return tables[-1]

    monkeypatch.setitem(horolab.errors.BUDGETS, "table", 4 * n * k)
    monkeypatch.setattr(horolab.graph, "distance_rows", recording)
    oracle = DistanceOracle(g)
    first = oracle.rows([9, 2, 14])
    assert first is tables[-1] and np.array_equal(first, full[[9, 2, 14]])
    assert np.array_equal(oracle.rows([0, 2, 19, 0, 5]), full[[0, 2, 19, 0, 5]])

    def no_rows(graph, sources, *args):
        assert not len(sources), "a distance row was computed"
        return recording(graph, sources, *args)

    monkeypatch.setattr(horolab.graph, "distance_rows", no_rows)
    for sources in ([19], [5, 9, 5], [2, 0, 14, 19, 9, 5]):
        assert np.array_equal(oracle.rows(sources), full[sources])
    assert oracle.rows([]).shape == (0, n)
    for sources in ([7], [2, 7], [7, 7]):
        with pytest.raises(ResourceLimitError, match=f"a distance table of {k + 1} x {n} vertices exceeds "
                                                     f"the table budget of {4 * n * k} bytes"):
            oracle.rows(sources)
    assert np.array_equal(oracle.rows([9, 14]), full[[9, 14]])
    with pytest.raises(InputError, match="unknown vertex id 20"):
        oracle.rows([3, 20])


def test_long_path_geodesic_is_not_recursive():
    paths, truncated = enumerate_geodesics(path_graph(5000), 0, 5000, cap=3)
    assert not truncated and [p.vertices for p in paths] == [tuple(range(5001))]


def test_metric_axioms_on_sampled_triples():
    rng = random.Random(11)
    g = random_connected_graph(30, 25, rng)
    d = DistanceOracle(g).rows(range(g.num_vertices))
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)
    n = g.num_vertices
    for _ in range(10_000):
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        assert d[a][c] <= d[a][b] + d[b][c]


def test_distance_to_set_matches_min_of_rows():
    """One multi-source BFS gives, at each vertex, the least Floyd-Warshall
    distance to the set: on a grid, and on random graphs, disconnected ones
    included (INF where no source reaches), with repeated sources."""
    g = grid_graph(4, 5)
    oracle = DistanceOracle(g)
    sources = [0, 7, 19]
    expected = np.min(oracle.rows(sources), axis=0)
    assert np.array_equal(distance_to_set(g, sources), expected)
    rng = random.Random(4)
    for i in range(40):
        n = rng.randrange(1, 25)
        g = random_connected_graph(n, rng.randrange(0, 8), rng) if i % 2 else random_graph(n, rng.randrange(0, 2 * n), rng)
        fw = floyd_warshall(n, [tuple(e) for e in g.edges])
        sources = [rng.randrange(n) for _ in range(rng.randrange(1, 6))]
        to_set = distance_to_set(g, sources)
        assert to_set.dtype == np.int32
        assert to_set.tolist() == as_inf([min(fw[s][v] for s in sources) for v in range(n)])
    with pytest.raises(InputError):
        distance_to_set(g, [])
    with pytest.raises(InputError, match="unknown vertex id"):
        distance_to_set(g, [0, n])


def _induced_reference(g, sources, radius):
    """N_radius(sources) from the queue BFS of ``tests/oracles.py``, and the
    edges of g with both ends inside, renumbered by rank."""
    edges = g.edges.tolist()
    rows = [bfs_distances(g.num_vertices, edges, s) for s in sorted(set(sources))]
    ids = [v for v in range(g.num_vertices) if min(row[v] for row in rows) <= radius]
    rank = {v: i for i, v in enumerate(ids)}
    edges = sorted((rank[u], rank[v]) for u, v in g.edges.tolist() if u in rank and v in rank)
    return ids, edges


@pytest.mark.parametrize("seed", range(12))
def test_neighborhood_subgraph_matches_distance_to_set(seed):
    rng = random.Random(seed)
    parts = [random_connected_graph(rng.randrange(1, 30), rng.randrange(0, 20), rng)
             for _ in range(1 + seed % 3)]  # seeds 1, 2 mod 3 are disconnected
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges.tolist()]
        offset += part.num_vertices
    g = Graph(offset, edges)
    for radius in (0, 1, 2, 5, 40):
        sources = [rng.randrange(offset) for _ in range(rng.randrange(1, 6))]
        sources += sources[:2]  # duplicates
        sub, ids = neighborhood_subgraph(g, sources, radius)
        ref_ids, ref_edges = _induced_reference(g, sources, radius)
        assert ids.tolist() == ref_ids, (seed, radius)
        assert sub.edges.tolist() == [list(e) for e in ref_edges], (seed, radius)
    assert neighborhood_subgraph(g, [3 % offset], 0)[1].tolist() == [3 % offset]


def test_neighborhood_subgraph_rejects_bad_input():
    g = path_graph(4)
    for sources, radius in (([], 1), ([5], 1), ([-1], 1), ([0], -1)):
        with pytest.raises(InputError):
            neighborhood_subgraph(g, sources, radius)


# -- rips ------------------------------------------------------------------


def test_rips_p9_halves_path_distance():
    # path on vertices 0..8, t=2: d(0,8) becomes ceil(8/2) = 4
    r = rips_graph(path_graph(8), 2)
    assert distance_rows(r, [0])[0][8] == 4


def test_rips_identity_at_t1():
    g = grid_graph(3, 3)
    r = rips_graph(g, 1)
    assert np.array_equal(r.edges, g.edges)


def test_rips_complete_beyond_diameter():
    r = rips_graph(path_graph(8), 8)
    assert r.num_edges == 9 * 8 // 2


def test_rips_rejects_bad_input():
    with pytest.raises(InputError):
        rips_graph(path_graph(3), 0)
    for t in (1, 2):
        with pytest.raises(InputError, match="disconnected"):
            rips_graph(Graph(4, [(0, 1), (2, 3)]), t)


def test_rips_checks_the_table_budget_before_any_row(monkeypatch):
    """Past t = 1 the whole distance table is read, so its budget is
    checked first, before the row that decides connectivity."""
    monkeypatch.setitem(horolab.errors.BUDGETS, "table", 4 * 16)  # 4 x 4 vertices
    assert rips_graph(path_graph(3), 2).num_edges == 5

    def no_rows(*args, **kwargs):
        raise AssertionError("a distance row was computed before the budget check")

    monkeypatch.setattr(horolab.graph, "distance_rows", no_rows)
    with pytest.raises(ResourceLimitError, match="5 x 5 vertices exceeds the table budget of 64 bytes"):
        rips_graph(Graph(5, [(0, 1), (2, 3)]), 2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.sampled_from([1, 2, 3, 4, 8]))
def test_rips_metric_identity_property(seed, t):
    rng = random.Random(seed)
    g = random_connected_graph(rng.randrange(2, 25), rng.randrange(0, 10), rng)
    d = DistanceOracle(g).rows(range(g.num_vertices))
    dr = DistanceOracle(rips_graph(g, t)).rows(range(g.num_vertices))
    n = g.num_vertices
    for u in range(n):
        for v in range(n):
            assert dr[u][v] == -(-d[u][v] // t)  # ceil division
            assert abs(t * dr[u][v] - d[u][v]) <= t - 1


# -- geodesic enumeration ----------------------------------------------------


def test_two_arcs_of_even_cycle():
    paths, truncated = enumerate_geodesics(cycle_graph(4), 0, 2, cap=100)
    assert not truncated
    assert [p.vertices for p in paths] == [(0, 1, 2), (0, 3, 2)]


def test_grid_corner_to_corner_count():
    paths, truncated = enumerate_geodesics(grid_graph(3, 3), 0, 8, cap=100)
    assert not truncated and len(paths) == 6  # binomial(4, 2) monotone routes


def test_single_zero_length_geodesic():
    paths, truncated = enumerate_geodesics(grid_graph(3, 3), 4, 4, cap=5)
    assert not truncated and len(paths) == 1 and paths[0].length == 0


def test_enumeration_cap_and_flag():
    paths, truncated = enumerate_geodesics(grid_graph(3, 3), 0, 8, cap=4)
    assert truncated and len(paths) == 4
    paths, truncated = enumerate_geodesics(grid_graph(3, 3), 0, 8, cap=5)
    assert truncated and len(paths) == 5
    paths, truncated = enumerate_geodesics(grid_graph(3, 3), 0, 8, cap=6)
    assert not truncated and len(paths) == 6


def test_a_pair_with_exactly_cap_geodesics_is_not_truncated():
    # opposite vertices of C_4 have exactly two geodesics
    paths, truncated = enumerate_geodesics(cycle_graph(4), 0, 2, cap=2)
    assert not truncated and [p.vertices for p in paths] == [(0, 1, 2), (0, 3, 2)]
    paths, truncated = enumerate_geodesics(cycle_graph(4), 0, 2, cap=1)
    assert truncated and [p.vertices for p in paths] == [(0, 1, 2)]
    paths, truncated = enumerate_geodesics(path_graph(4), 0, 3, cap=1)
    assert not truncated and len(paths) == 1


def test_enumeration_errors():
    with pytest.raises(InputError):
        enumerate_geodesics(cycle_graph(4), 0, 2, cap=0)
    with pytest.raises(InputError):
        enumerate_geodesics(Graph(4, [(0, 1), (2, 3)]), 0, 3, cap=5)


def test_every_between_vertex_appears_on_some_geodesic():
    rng = random.Random(3)
    for _ in range(10):
        g = random_connected_graph(rng.randrange(2, 12), rng.randrange(0, 6), rng)
        d = DistanceOracle(g).rows(range(g.num_vertices))
        n = g.num_vertices
        u, v = rng.randrange(n), rng.randrange(n)
        paths, truncated = enumerate_geodesics(g, u, v, cap=100_000)
        assert not truncated
        on_some = set()
        for p in paths:
            assert p.length == d[u][v]
            on_some.update(p.vertices)
        between = {w for w in range(n) if d[u][w] + d[w][v] == d[u][v]}
        assert between == on_some


# -- paths, interior pairs ----------------------------------------------------


def test_path_validation():
    p = Path((0, 1, 2))
    assert p.length == 2 and p.start == 0 and p.end == 2 and list(p) == [0, 1, 2]
    with pytest.raises(InputError):
        Path(())


def test_interior_pair_predicate():
    assert is_interior_pair(2, 5, 3, 6)       # anchored at the closer endpoint
    assert is_interior_pair(5, 2, 3, 6)       # symmetric
    assert not is_interior_pair(4, 5, 3, 6)


# -- file format ---------------------------------------------------------------


def test_json_roundtrip_and_byte_stability(tmp_path):
    g = Graph(4, [(0, 1), (1, 2), (0, 3)], labels=["e", "a", "b", "c"],
              metadata={"note": "unit", "vertex_meta": [{"level": i} for i in range(4)]})
    f = tmp_path / "g.json"
    write_graph(g, f)
    h = read_graph(f)
    assert h.num_vertices == 4 and h.labels == g.labels and h.metadata == g.metadata
    assert np.array_equal(h.edges, g.edges)
    first = f.read_bytes()
    write_graph(h, f)
    assert f.read_bytes() == first


def test_streamed_graph_file_equals_canonical_text(tmp_path):
    g = Graph(5, [(3, 1), (0, 4), (2, 0), (1, 0)], labels=["e", "α", "b⁻¹", "c", "d"],
              metadata={"note": "ünï", "vertex_meta": [{"level": i, "kind": "horo"} for i in range(5)]})
    doc = graph_to_json(g)
    assert doc["edges"] == [[0, 1], [0, 2], [0, 4], [1, 3]]
    f = tmp_path / "g.json"
    write_graph(g, f)
    assert f.read_bytes() == canonical_json(doc).encode("utf-8")
    empty = Graph(1, [])
    write_graph(empty, f)
    assert f.read_bytes() == canonical_json(graph_to_json(empty)).encode("utf-8")


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(alphabet=st.sampled_from('"\\%\x00\x1f\x7f\u2028\u2029é\U0001F600a')) | st.text())
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
# few distinct keys, so that runs of records share a key set
_RECORD_KEYS = st.sampled_from(["alpha", "base", "kind", "level", "%s", 'q"', "é"])


@st.composite
def _graphs(draw):
    n = draw(st.integers(0, 14))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=30)) if n > 1 else []
    labels = draw(st.none() | st.lists(st.text(), min_size=n, max_size=n))
    metadata = draw(st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=3))
    if draw(st.booleans()):
        metadata["vertex_meta"] = draw(st.lists(
            st.dictionaries(_RECORD_KEYS, _JSON_SCALARS | _JSON_VALUES, max_size=4), max_size=n + 3))
    return Graph(n, edges, labels=labels, metadata=metadata)


@settings(max_examples=25, deadline=None)
@given(g=_graphs())
@example(g=Graph(0, []))
@example(g=Graph(5, []))
@example(g=Graph(3, [(0, 1)], labels=['"\\', "\x00\n\u2028", "\U0001F600%s"],
                 metadata={"vertex_meta": [{"alpha": None, "base": 0, "kind": "gamma", "level": 0},
                                           {"alpha": 1, "base": 0, "kind": "horo", "level": 1},
                                           {"x": float("nan"), "y": float("-inf"), "z": True}, {}]}))
@example(g=Graph(2, [(0, 1)], metadata={2: [1, {"b": []}], 1: {}}))
def test_written_graph_equals_canonical_text(g):
    """``write_graph`` gives the bytes of the canonical text of the
    document."""
    expected = canonical_json(graph_to_json(g)).encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        f = pathlib.Path(tmp) / "g.json"
        write_graph(g, f)
        assert f.read_bytes() == expected


def test_carriers_never_reach_the_pure_python_encoder(tmp_path, monkeypatch):
    """Augmented carriers and restricted horoballs are written from their
    columns without ``json``'s pure-Python encoder, with the bytes of the
    reference documents (labels and vertex_meta included)."""
    from horolab.experiments import parabolic_family
    from horolab.groups import cayley_ball, free_abelian, free_product
    from horolab.horoball import build_restricted_horoball, glue_horoballs
    from horolab.io import write_carrier
    from oracles import augmented_carrier, restricted_horoball, subgraphs

    ball = cayley_ball(free_product(free_abelian(2), free_abelian(1)), 3)
    family, _, _ = parabolic_family(ball)
    grid = grid_graph(12, 12)
    carriers = {
        "augmented": glue_horoballs(ball.graph, family, 2),
        "horoball": build_restricted_horoball(grid, 3),
    }
    ref = augmented_carrier(ball.graph.num_vertices, ball.graph.edges.tolist(),
                            [(m.vertices, m.edges) for m in subgraphs(family)], 2, ball.graph.labels)
    docs = {"augmented": ref["document"], "horoball": restricted_horoball(grid, 3)}
    assert all(doc["metadata"]["vertex_meta"] for doc in docs.values())
    assert "label" in docs["augmented"]["vertices"][-1]
    assert carriers["horoball"].carrier.num_edges > 2 * horolab.io._BLOCK  # the edges span three blocks
    expected = {name: canonical_json(doc).encode("utf-8") for name, doc in docs.items()}

    def no_python_encoder(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", no_python_encoder)
    with pytest.raises(AssertionError, match="pure-Python"):
        canonical_json({"vertex_meta": [{"level": 0}]})
    for name, space in carriers.items():
        f = tmp_path / f"{name}.json"
        write_carrier(f, space.carrier.edges, space.base.labels, *space.columns)
        assert f.read_bytes() == expected[name]


def test_json_validation_errors():
    with pytest.raises(InputError):
        graph_from_json({"version": 2, "vertices": [], "edges": []})
    with pytest.raises(InputError):
        graph_from_json({"version": 1, "vertices": [{"id": 1}], "edges": []})
    with pytest.raises(InputError):
        graph_from_json({"version": 1, "vertices": [{"id": 0}, {"id": 1}], "edges": [[1, 0]]})


def test_dot_export_mentions_labels_and_levels():
    dot = to_dot(Graph(3, [(0, 1), (1, 2)], labels=["x", "y", "z"]), name="H", levels=[0, 1, 1])
    assert "graph H {" in dot
    assert 'label="y"' in dot
    assert "level=1" in dot
    assert "0 -- 1;" in dot
    explicit = to_dot(Graph(3, [(0, 1), (1, 2)]), name="H", levels=[0, 1, 1], labels=["x", "y", "z"])
    assert explicit == dot


def test_dot_edges_are_written_in_pair_order():
    dot = to_dot(Graph(5, [(3, 1), (4, 0), (1, 3), (2, 1), (0, 2), (0, 4), (1, 0)]))
    assert [line for line in dot.splitlines() if "--" in line] == [
        "  0 -- 1;", "  0 -- 2;", "  0 -- 4;", "  1 -- 2;", "  1 -- 3;"]


def test_canonical_json_is_sorted():
    assert canonical_json({"b": 1, "a": 2}).index('"a"') < canonical_json({"b": 1, "a": 2}).index('"b"')
