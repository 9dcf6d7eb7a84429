"""Finite undirected graphs with an exact hop-count metric.

Everything downstream (horoballs, Cayley balls, convexity scans) sits on top
of this module, and every distance it uses comes from ``distance_rows``.
Distances are exact nonnegative integers, returned as int32 rows; there is
no floating point in the metric itself.  Unreachable pairs carry the single
sentinel ``INF = 2**30 - 1``, so the sum of two sentinels still fits in an
int32 and row sums such as d(u, w) + d(w, v) never wrap.

Three kernels compute the rows, chosen from the graph itself.  Below
``_BATCH_MAX_VERTICES`` vertices all sources are served at once: a dense
graph, with average degree 2E/n of at least ``_DENSE_MIN_DEGREE``, runs a
level-synchronous BFS in which each level is one float32 BLAS product of the
frontier rows with the dense adjacency matrix (the S_t graphs of
Milnor-Svarc, whose diameter is a few hops); a sparser one gets one batched
scipy ``dijkstra`` call, which wins on the many small graphs (coset members,
word balls) where per-call overhead dominates.  From ``_BATCH_MAX_VERTICES``
on, each row is one scipy ``breadth_first_order`` traversal split into
levels, which wins on big carriers where the batched call's float work
dominates.  Tests check all three against a pure-Python BFS and
Floyd-Warshall in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from .errors import InputError

# Sentinel for unreachable pairs: every real hop count is smaller, and two
# sentinels add up to 2**31 - 2, still an int32.
INF: int = 2**30 - 1

# Vertex count from which distance_rows runs one BFS traversal per source
# instead of one batched call for all sources.
_BATCH_MAX_VERTICES = 1000

# Average degree 2E/n from which a graph under _BATCH_MAX_VERTICES gets the
# dense frontier-product BFS instead of batched dijkstra.  Each BFS level
# costs one n x n product whatever the degree, so it pays off once the graph
# is dense enough for few levels and heavy dijkstra relaxation.  On the S_t
# graphs of Z^2 at radius 16 (545 vertices, all sources; 2 cores, one BLAS
# thread), degree 35 took 16 ms against dijkstra's 30 ms, degree 11 took
# 32 ms against 20 ms.
_DENSE_MIN_DEGREE = 32


def is_unreachable(d: int) -> bool:
    return d >= INF


class Graph:
    """Immutable undirected graph on dense vertex ids ``0..n-1``.

    No self-loops, no parallel edges.  Neighbor lists are sorted by vertex id,
    which fixes the traversal order of every deterministic algorithm built on
    top (geodesic enumeration, ball numbering, search witnesses).
    """

    __slots__ = ("_n", "_edges", "_indptr", "_indices", "labels", "metadata", "_csr")

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
        metadata: dict | None = None,
    ):
        if num_vertices < 0:
            raise InputError("num_vertices must be nonnegative")
        self._n = int(num_vertices)

        e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise InputError("edges must be pairs of vertex ids")
        if e.size and (e.min() < 0 or e.max() >= self._n):
            raise InputError("edge endpoint out of range")
        if np.any(e[:, 0] == e[:, 1]):
            raise InputError("self-loops are not allowed")

        # Canonical edges (lo, hi), deduplicated and ordered through the 1-D
        # key lo * n + hi, which sorts exactly like the pair.  A sort plus a
        # mask, not np.unique: numpy 2's np.unique hashes 1-D integers, which
        # measured ~30x slower on 600k keys and raised the peak RSS.
        n = max(self._n, 1)
        key = np.sort(np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1]))
        key = key[np.diff(key, prepend=-1) != 0]
        self._edges = np.stack([key // n, key % n], axis=1).astype(np.int32)
        self._edges.setflags(write=False)

        # CSR over the symmetrized edge set; rows sorted ascending.
        both = np.sort(np.concatenate([key, (key % n) * n + key // n]))
        counts = np.bincount(both // n, minlength=self._n)
        self._indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._indices = (both % n).astype(np.int32)
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)

        if labels is not None:
            labels = list(labels)
            if len(labels) != self._n:
                raise InputError("labels length must equal vertex count")
        self.labels = labels
        self.metadata = dict(metadata) if metadata else {}
        self._csr = None

    # -- basic queries -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return int(self._edges.shape[0])

    @property
    def edges(self) -> np.ndarray:
        """Canonical edge list, shape (E, 2), each row (u, v) with u < v."""
        return self._edges

    def neighbors(self, v: int) -> np.ndarray:
        if not 0 <= v < self._n:
            raise InputError(f"unknown vertex id {v}")
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self._indptr[v + 1] - self._indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    def csr(self) -> csr_matrix:
        """Unit-weight adjacency matrix, built once.  Its data is float64,
        the dtype scipy's graph kernels work in, so they use it without a
        converted copy and check its canonical format only once."""
        if self._csr is None:
            data = np.ones(len(self._indices), dtype=np.float64)
            self._csr = csr_matrix((data, self._indices, self._indptr), shape=(self._n, self._n))
        return self._csr

    def is_connected(self) -> bool:
        if self._n <= 1:
            return True
        return not np.any(distance_rows(self, [0]) >= INF)

    def __repr__(self) -> str:
        return f"Graph(|V|={self._n}, |E|={self.num_edges})"


@dataclass(frozen=True)
class Path:
    """A walk given by its vertex sequence; length is the edge count."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise InputError("a path needs at least one vertex")

    @classmethod
    def in_graph(cls, g: Graph, vertices: Sequence[int]) -> "Path":
        """Validate consecutive adjacency against ``g`` and build the path."""
        vs = tuple(int(v) for v in vertices)
        for v in vs:
            if not 0 <= v < g.num_vertices:
                raise InputError(f"unknown vertex id {v}")
        for a, b in zip(vs, vs[1:]):
            if not g.has_edge(a, b):
                raise InputError(f"vertices {a} and {b} are not adjacent")
        return cls(vs)

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)


def distance_rows(g: Graph, sources: Sequence[int], columns: Sequence[int] | None = None) -> np.ndarray:
    """Exact hop distances from each source, one int32 row per source.

    Unreachable entries are ``INF``.  ``columns`` keeps only those columns of
    every row, so a tall table over a big graph never exists in full.  No
    sources give a ``(0, width)`` array.
    """
    srcs = np.asarray(sources, dtype=np.int64)
    n = g.num_vertices
    bad = srcs[(srcs < 0) | (srcs >= n)]
    if bad.size:
        raise InputError(f"unknown vertex id {bad[0]}")
    width = n if columns is None else len(columns)
    if srcs.size == 0:
        return np.empty((0, width), dtype=np.int32)
    if n < _BATCH_MAX_VERTICES:
        if 2 * g.num_edges >= _DENSE_MIN_DEGREE * n:
            d = _frontier_product_rows(g, srcs)
            return d if columns is None else d[:, columns]
        d = dijkstra(g.csr(), unweighted=True, indices=srcs)
        if columns is not None:
            d = d[:, columns]
        d[np.isinf(d)] = INF
        return d.astype(np.int32)
    out = np.empty((len(srcs), width), dtype=np.int32)
    for i, s in enumerate(srcs):
        row = _bfs_order_row(g, int(s))
        out[i] = row if columns is None else row[columns]
    return out


def _frontier_product_rows(g: Graph, srcs: np.ndarray) -> np.ndarray:
    """BFS from every source at once, one level per BLAS product.

    Row i of ``frontier`` marks the vertices source i reached last level;
    its product with the 0/1 adjacency matrix counts, per vertex, the
    frontier neighbours.  Those counts are integers below n, exact in
    float32, so ``> 0`` is exactly "has a neighbour in the frontier".  A
    vertex's distance is the number of levels after which it is still
    unreached, which the loop adds up in place.
    """
    n, k = g.num_vertices, len(srcs)
    adj = np.zeros((n, n), dtype=np.float32)
    adj[np.repeat(np.arange(n), np.diff(g._indptr)), g._indices] = 1
    frontier = np.zeros((k, n), dtype=np.float32)
    frontier[np.arange(k), srcs] = 1
    unreached = frontier == 0
    dist = unreached.astype(np.int32)
    step = np.empty_like(frontier)
    new = np.empty_like(unreached)
    while True:
        np.matmul(frontier, adj, out=step)
        np.greater(step, 0, out=new)
        new &= unreached
        if not new.any():
            break
        unreached ^= new
        dist += unreached
        np.copyto(frontier, new)
    dist[unreached] = INF
    return dist


def _bfs_order_row(g: Graph, source: int) -> np.ndarray:
    order, pred = breadth_first_order(g.csr(), source, directed=True, return_predecessors=True)
    # The traversal is FIFO, so the visit positions of the parents never
    # decrease along the visit order.  Each BFS level is therefore one
    # contiguous run of ``order``, and the run of level k+1 ends where the
    # parent positions reach the end of level k.
    position = np.empty(g.num_vertices, dtype=np.int64)
    position[order] = np.arange(len(order))
    parent_pos = position[pred[order[1:]]]
    ends = [1]
    while ends[-1] < len(order):
        ends.append(1 + int(np.searchsorted(parent_pos, ends[-1])))
    dist = np.full(g.num_vertices, INF, dtype=np.int32)
    dist[order] = np.repeat(np.arange(len(ends), dtype=np.int32), np.diff(ends, prepend=0))
    return dist


class DistanceOracle:
    """Per-source cache of ``distance_rows``."""

    def __init__(self, g: Graph):
        self.graph = g
        self._rows: dict[int, np.ndarray] = {}

    def row(self, source: int) -> np.ndarray:
        cached = self._rows.get(source)
        if cached is None:
            cached = self._rows[source] = distance_rows(self.graph, [source])[0]
        return cached

    def prefetch(self, sources: Iterable[int]) -> None:
        """Cache the rows of every source not cached yet, from one
        ``distance_rows`` call (one batched kernel call on a small graph)."""
        missing = [s for s in dict.fromkeys(map(int, sources)) if s not in self._rows]
        for s, r in zip(missing, distance_rows(self.graph, missing)):
            self._rows[s] = r

    def rows(self, sources: Sequence[int]) -> np.ndarray:
        sources = [int(s) for s in sources]
        self.prefetch(sources)
        if not sources:
            return np.empty((0, self.graph.num_vertices), dtype=np.int32)
        return np.stack([self._rows[s] for s in sources])

    def distance(self, u: int, v: int) -> int:
        return int(self.row(u)[v])

    def matrix(self) -> np.ndarray:
        return self.rows(range(self.graph.num_vertices))

    def distance_to_set(self, sources: Sequence[int]) -> np.ndarray:
        """Row of distances to the nearest vertex of ``sources``."""
        if not len(sources):
            raise InputError("source set must be nonempty")
        d = dijkstra(self.graph.csr(), unweighted=True, indices=list(sources), min_only=True)
        d[np.isinf(d)] = INF
        return d.astype(np.int32)


def neighborhood_subgraph(g: Graph, sources: Sequence[int], radius: int) -> tuple[Graph, np.ndarray]:
    """The subgraph induced on N_radius(sources), the vertices within
    ``radius`` hops of a source, and its local -> global id map (sorted).

    Local ids follow global id order, so neighbor lists keep their order and
    an id-ordered traversal such as ``enumerate_geodesics`` meets shared
    vertices in the same order as in ``g``.  Distances in the subgraph are
    never shorter than in ``g``, and equal for pairs joined by some shortest
    path that stays inside.  A frontier grows one BFS level at a time over
    the CSR arrays, so the work grows with the neighborhood, not with ``g``.
    """
    if radius < 0:
        raise InputError("radius must be >= 0")
    reached = np.unique(np.asarray(sources, dtype=np.int64))
    if not reached.size:
        raise InputError("source set must be nonempty")
    bad = reached[(reached < 0) | (reached >= g.num_vertices)]
    if bad.size:
        raise InputError(f"unknown vertex id {bad[0]}")
    frontier = reached
    for _ in range(radius):
        step = np.unique(_csr_neighbors(g, frontier)[1])
        frontier = step[~_sorted_contains(reached, step)]
        if not frontier.size:
            break
        reached = np.union1d(reached, frontier)
    owner, nb = _csr_neighbors(g, reached)
    inside = _sorted_contains(reached, nb)
    edges = np.stack([owner[inside], np.searchsorted(reached, nb[inside])], axis=1)
    return Graph(len(reached), edges), reached


def _csr_neighbors(g: Graph, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position in ``vertices``, neighbor) for every edge end at
    ``vertices``, read from the CSR arrays without a per-vertex loop."""
    starts = g._indptr[vertices]
    counts = g._indptr[vertices + 1] - starts
    owner = np.repeat(np.arange(len(vertices)), counts)
    slot = np.arange(int(counts.sum())) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return owner, g._indices[slot]


def _sorted_contains(sorted_ids: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise ``x in sorted_ids`` for a nonempty sorted id array."""
    pos = np.minimum(np.searchsorted(sorted_ids, x), len(sorted_ids) - 1)
    return sorted_ids[pos] == x


def rips_graph(g: Graph, t: int) -> Graph:
    """Thicken ``g``: same vertices, edge (u, v) iff 0 < d_g(u, v) <= t."""
    if t < 1:
        raise InputError("rips scale t must be >= 1")
    if not g.is_connected():
        raise InputError("rips graph of a disconnected graph is undefined")
    if t == 1:
        return Graph(g.num_vertices, g.edges, labels=g.labels, metadata=g.metadata)
    d = DistanceOracle(g).matrix()
    iu, iv = np.nonzero(np.triu((d > 0) & (d <= t), k=1))
    return Graph(g.num_vertices, np.stack([iu, iv], axis=1), labels=g.labels, metadata=g.metadata)


def enumerate_geodesics(
    g: Graph, u: int, v: int, cap: int, dist_to_target: np.ndarray | None = None
) -> tuple[list[Path], bool]:
    """All geodesics from u to v in DFS order over id-sorted neighbor lists.

    Returns (paths, truncated).  The list holds at most ``cap`` paths;
    ``truncated`` is set exactly when u and v have more than ``cap``
    geodesics, which the search confirms by finding one more before it stops.
    ``dist_to_target`` may carry a precomputed distance row of ``v``.
    """
    if cap < 1:
        raise InputError("cap must be >= 1")
    dist_to_v = distance_rows(g, [v])[0] if dist_to_target is None else dist_to_target
    if is_unreachable(int(dist_to_v[u])):
        raise InputError("u and v are in different components")
    if u == v:
        return [Path((u,))], False

    def closer(x: int) -> Iterator[int]:
        nb = g.neighbors(x)
        return iter(nb[dist_to_v[nb] == dist_to_v[x] - 1].tolist())

    # Iterative DFS: ``stack`` is the current path, ``pending[i]`` the
    # unexplored next steps from ``stack[i]``.
    out: list[Path] = []
    stack: list[int] = [u]
    pending = [closer(u)]
    while pending:
        w = next(pending[-1], None)
        if w is None:
            pending.pop()
            stack.pop()
        elif w == v:
            if len(out) == cap:
                return out, True
            out.append(Path(tuple(stack) + (v,)))
        else:
            stack.append(w)
            pending.append(closer(w))
    return out, False


def hausdorff_distance(g: Graph, a: Sequence[int], b: Sequence[int]) -> int:
    """max(sup_{x in A} d(x, B), sup_{y in B} d(y, A)) over one component."""
    a = list(dict.fromkeys(int(x) for x in a))
    b = list(dict.fromkeys(int(x) for x in b))
    if not a or not b:
        raise InputError("hausdorff distance needs two nonempty vertex sets")
    oracle = DistanceOracle(g)
    to_a = oracle.distance_to_set(a)
    to_b = oracle.distance_to_set(b)
    d_ab = int(max(to_b[x] for x in a))
    d_ba = int(max(to_a[y] for y in b))
    if is_unreachable(d_ab) or is_unreachable(d_ba):
        raise InputError("vertex sets do not lie in one component")
    return max(d_ab, d_ba)


def is_interior_pair(d_o_u: int, d_o_v: int, d_uv: int, radius: int) -> bool:
    """Ball-interior test for a pair inside a radius-``radius`` ball around o.

    If min(d(o,u), d(o,v)) + d(u,v) <= radius then every geodesic between u
    and v stays inside the ball, so ball-restricted distances are exact for
    the pair.  Applied with either endpoint as anchor; the min makes the
    predicate symmetric.
    """
    return min(d_o_u, d_o_v) + d_uv <= radius


# -- small builders used throughout tests and experiments ----------------


def path_graph(length: int, labels: bool = False) -> Graph:
    """Path with vertices 0..length (length + 1 vertices, length edges)."""
    if length < 0:
        raise InputError("path length must be >= 0")
    edges = [(i, i + 1) for i in range(length)]
    lab = [str(i) for i in range(length + 1)] if labels else None
    return Graph(length + 1, edges, labels=lab)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs >= 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise InputError("grid needs positive dimensions")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def binary_tree(depth: int) -> Graph:
    n = 2 ** (depth + 1) - 1
    return Graph(n, [(i, 2 * i + 1) for i in range((n - 1) // 2)] + [(i, 2 * i + 2) for i in range((n - 1) // 2)])


def random_connected_graph(n: int, extra_edges: int, rng) -> Graph:
    """Random spanning tree plus ``extra_edges`` uniform extra edges."""
    if n < 1:
        raise InputError("need at least one vertex")
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((min(perm[i], perm[j]), max(perm[i], perm[j])))
    attempts = 0
    while len(edges) < n - 1 + extra_edges and attempts < 50 * (extra_edges + 1):
        u, v = rng.randrange(n), rng.randrange(n)
        attempts += 1
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))
