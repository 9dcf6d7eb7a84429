"""Finite undirected graphs with an exact hop-count metric.

Everything downstream (horoballs, Cayley balls, convexity scans) sits on top
of this module, and every distance it uses comes from ``distance_rows``.
Distances are exact nonnegative integers, returned as int32 rows; there is
no floating point in the metric itself.  Unreachable pairs carry the single
sentinel ``INF = 2**30 - 1``, so the sum of two sentinels still fits in an
int32 and row sums such as d(u, w) + d(w, v) never wrap.

Three kernels compute the rows, and ``_pick_kernel`` picks one per call by
a fitted cost model, under one byte budget for working buffers
(``KERNEL_BYTES``).  One BFS row from the first source, which every call
computes anyway, bounds the level count L of every source's BFS.  The
bit-parallel BFS runs 64 sources per uint64 word, one gather-OR pass over
the edges per level, and keeps each distance bit-sliced until the end; it
serves most multi-source calls.  The frontier product runs the BFS from all
sources as one float32 BLAS product per level; it wins on small dense graphs
of a few levels (the S_8 graph of Milnor-Svarc at radius 16).  Per-source
BFS, a numpy level-synchronous BFS over the CSR arrays, wins for one or a
few sources; its first row is the probe itself.  The choice depends only on
the graph and the call.  Tests check every kernel against a pure-Python BFS
and Floyd-Warshall in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, check_budget

# Sentinel for unreachable pairs: every real hop count is smaller, and two
# sentinels add up to 2**31 - 2, still an int32.
INF: int = 2**30 - 1

# Byte budget for one distance kernel's working buffers, not counting the
# rows it returns.  A kernel whose buffers do not fit is not picked; the
# bit-parallel one takes its sources in as many 64-source words as fit.
KERNEL_BYTES = 64 * 2**20

# The cost model of _pick_kernel, in seconds per unit of work.  The
# bit-parallel and frontier constants were fitted by least squares on
# relative error to 136 timings of the kernels (2-core host, one BLAS
# thread): the word ball and S_1, S_2, S_4, S_8 of Z^2 at radii 8, 16 and 32,
# cycles, a path, grids, random, complete, star and tree graphs, and horoball
# carriers of 2,359 and 21,659 vertices, each from 1, 8, 64, 200 and all
# sources.  The adjacency read is set by hand: the fit took 5.4e-11 from
# cached matrices, which picked the frontier product for 8 sources on S_8 at
# radius 32 (43 ms against 8 ms per source).  The per-source constants were
# fitted the same way to single rows from three sources each of cycles,
# grids, random, complete, star and tree graphs, Z^2 balls of radius 8, 16
# and 32, two restricted horoballs and Z^2*Z^2 carriers of depth 3 and 5
# (2,359 to 736,131 vertices), within 6% on the median.  Paths were left
# out: their one-vertex levels take a cheaper branch, which the model prices
# up to 3.5x high.
_NUMPY_VERTEX_S = 29e-9     # per-source BFS: per vertex and row,
_NUMPY_EDGE_S = 6.8e-9      # per edge end and row,
_NUMPY_LEVEL_S = 14e-6      # per level and row;
_BITS_WORD_S = 2e-9         # bit-parallel: per edge end, 64-source word and level,
_BITS_LEVEL_S = 1.3e-6      # per level and chunk,
_BITS_SLOT_S = 6.2e-6       # per level, chunk and neighbour slot (max degree),
_BITS_UNPACK_S = 2.2e-9     # per output cell and bit plane
_FRONTIER_MAC_S = 2.7e-11   # frontier product: per multiply-add,
_FRONTIER_READ_S = 5e-10    # per adjacency cell and level


def unique_ints(x: np.ndarray) -> np.ndarray:
    """The distinct values of the integer array ``x``, sorted: a sort plus a
    mask.  Not a plain ``np.unique``: numpy 2 hashes 1-D integers there,
    which measured ~30x slower on 600k keys and raised the peak RSS, and
    its first call imports ``numpy.ma`` (12-19 ms)."""
    x = np.sort(x)
    keep = np.empty(len(x), dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


class Graph:
    """Immutable undirected graph on dense vertex ids ``0..n-1``.

    No self-loops, no parallel edges.  Neighbor lists are sorted by vertex id,
    which fixes the traversal order of every deterministic algorithm built on
    top (geodesic enumeration, ball numbering, search witnesses).
    """

    __slots__ = ("_n", "_edges", "_indptr", "_indices", "labels", "metadata")

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
        # key lo * n + hi, which sorts exactly like the pair.
        n = max(self._n, 1)
        key = unique_ints(np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1]))
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

    def adjacent(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The edge ends at ``vertices``, an int64 array of ids, as (owner,
        neighbour): ``owner[j]`` is the position in ``vertices`` of the
        vertex that ``neighbour[j]`` is adjacent to."""
        counts, slots = _csr_slots(self, vertices)
        return np.repeat(np.arange(len(vertices)), counts), self._indices[slots]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    def __repr__(self) -> str:
        return f"Graph(|V|={self._n}, |E|={self.num_edges})"


@dataclass(frozen=True)
class Path:
    """A walk given by its vertex sequence; length is the edge count."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise InputError("a path needs at least one vertex")

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


@dataclass(frozen=True, eq=False)
class SubgraphFamily:
    """Subgraphs of one graph held as arrays, each a copy of one of a few
    templates.

    Member ``a`` has the vertices ``vertices[offsets[a]:offsets[a + 1]]``
    and the edges of template ``template[a]``: ``templates[t]`` is a sorted
    (k, 2) array of local index pairs (i, j) with i < j, where local index i
    names the member's i-th vertex, so all members of one template have one
    size.  Nothing is checked against the graph: the builder vouches for the
    members, as a Cayley ball does for its cosets.  Members of one shape
    share one distance matrix, ``shapes``.
    """

    offsets: np.ndarray
    vertices: np.ndarray
    template: np.ndarray
    templates: tuple[np.ndarray, ...]

    @classmethod
    def whole(cls, g: Graph) -> "SubgraphFamily":
        """The one member that is all of ``g``: every vertex in id order
        and every edge."""
        n = g.num_vertices
        return cls(np.array([0, n]), np.arange(n), np.zeros(1, dtype=np.int64), (g.edges,))

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @functools.cached_property
    def slots_by_vertex(self) -> tuple[np.ndarray, np.ndarray]:
        """(``vertices`` sorted, and the slot in ``vertices`` of each), so
        that the members through a vertex are one sorted search away."""
        order = np.argsort(self.vertices, kind="stable")
        return self.vertices[order], order

    @functools.cached_property
    def shapes(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """The shape table: the shape index of each member (int64) and, per
        shape, its int32 distance matrix over local indices.

        A member's shape is its size plus its sorted local edge list;
        members of one shape have the same graph on their local indices.
        Each template is looked at once, in the order of its first member,
        and templates with equal local graphs share a shape.  A shape whose
        matrix exceeds the table budget raises ``ResourceLimitError`` before
        the matrix exists, and a disconnected shape raises ``InputError``
        naming the first member of its shape.
        """
        used, first, inverse = np.unique(self.template, return_index=True, return_inverse=True)
        index: dict[tuple, int] = {}
        shape_of_used = np.empty(len(used), dtype=np.int64)
        dmats: list[np.ndarray] = []
        for j in np.argsort(first).tolist():
            a, s = int(first[j]), int(self.sizes[first[j]])
            pairs = np.asarray(self.templates[used[j]], dtype=np.int64)
            key = (s, pairs.tobytes())
            shape = index.get(key)
            if shape is None:
                check_table(s)
                dmat = distance_rows(Graph(s, pairs), range(s))
                if np.any(dmat >= INF):
                    raise InputError(f"family member {a}: member is not connected")
                shape = index[key] = len(dmats)
                dmats.append(dmat)
            shape_of_used[j] = shape
        return shape_of_used[inverse], dmats

    def __len__(self) -> int:
        return len(self.template)


def distance_rows(g: Graph, sources: Sequence[int], columns: Sequence[int] | None = None,
                  info: dict | None = None) -> np.ndarray:
    """Exact hop distances from each source, one int32 row per source.

    Unreachable entries are ``INF``.  ``columns`` keeps only those columns of
    every row, so a tall table over a big graph never exists in full.  No
    sources give a ``(0, width)`` array.  ``info``, when given, receives the
    kernel that ``_pick_kernel`` chose and its level bound.
    """
    srcs = _checked_ids(g, sources)
    n = g.num_vertices
    cols = None if columns is None else np.asarray(columns, dtype=np.int64)
    width = n if cols is None else len(cols)
    if srcs.size == 0:
        return np.empty((0, width), dtype=np.int32)
    probe = _frontier_bfs(g, srcs[:1])
    kernel, levels = _pick_kernel(g, len(srcs), width, probe)
    if info is not None:
        info.update(kernel=kernel, levels=levels)
    if kernel == "frontier":
        d = _frontier_product_rows(g, srcs)
        return d if cols is None else d[:, cols]
    if kernel == "bits":
        return _bit_parallel_rows(g, srcs, cols, levels)
    out = np.empty((len(srcs), width), dtype=np.int32)
    for i in range(len(srcs)):
        row = _frontier_bfs(g, srcs[i:i + 1]) if i else probe
        out[i] = row if cols is None else row[cols]
    return out


def _checked_ids(g: Graph, ids) -> np.ndarray:
    """``ids`` as an int64 array, each a vertex of ``g``."""
    try:
        ids = np.asarray(ids, dtype=np.int64)
    except OverflowError:
        raise InputError(f"unknown vertex id {next(s for s in ids if not -2**63 <= s < 2**63)}") from None
    bad = ids[(ids < 0) | (ids >= g.num_vertices)]
    if bad.size:
        raise InputError(f"unknown vertex id {bad[0]}")
    return ids


def _pick_kernel(g: Graph, n_sources: int, width: int | None = None,
                 probe: np.ndarray | None = None) -> tuple[str, int]:
    """The cheapest kernel for ``n_sources`` rows of ``width`` columns, and
    the level bound L it was priced at, as ``("frontier" | "bits" | "bfs", L)``.

    ``probe`` is the distance row of one vertex s0 (vertex 0 when not
    given).  Every eccentricity in the component of s0 is at most
    2·ecc(s0), and a BFS from another component reaches none of the vertices
    the probe reached, so no BFS from any source runs more than
    L = min(n, max(2·ecc(s0) + 1, n - reached)) levels.  The probe is also
    the first row of the per-source kernel, so that kernel is priced for
    the other ``n_sources - 1`` rows, and one source always takes it.  A
    kernel whose working buffers exceed ``KERNEL_BYTES`` is not a
    candidate; per-source BFS always is.
    """
    n, two_e = g.num_vertices, 2 * g.num_edges
    width = n if width is None else width
    if probe is None:
        probe = _frontier_bfs(g, [0])
    reached = probe[probe < INF]
    levels = min(n, max(2 * int(reached.max()) + 1, n - len(reached)))
    k, planes = n_sources, levels.bit_length()
    if k == 1:  # the probe is the row
        return "bfs", levels
    costs = {"bfs": (k - 1) * (n * _NUMPY_VERTEX_S + two_e * _NUMPY_EDGE_S + levels * _NUMPY_LEVEL_S)}
    chunk_words = _bit_chunk_words(g, width, levels)
    if chunk_words:
        words = -(-k // 64)
        chunks = -(-words // chunk_words)
        dmax = int(np.diff(g._indptr).max())
        costs["bits"] = (levels * (words * two_e * _BITS_WORD_S
                                   + chunks * (_BITS_LEVEL_S + dmax * _BITS_SLOT_S))
                         + k * width * planes * _BITS_UNPACK_S)
    # float32 adjacency, float32 frontier and product rows, int32 counts and
    # two bool masks
    if 4 * n * n + 14 * k * n <= KERNEL_BYTES:
        costs["frontier"] = levels * n * n * (k * _FRONTIER_MAC_S + _FRONTIER_READ_S)
    return min(costs, key=costs.get), levels


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
        if not unreached.any():
            break
        dist += unreached
        np.copyto(frontier, new)
    dist[unreached] = INF
    return dist


def _bit_chunk_words(g: Graph, width: int, levels: int) -> int:
    """How many 64-source words one pass of the bit-parallel kernel takes
    under ``KERNEL_BYTES``; 0 when not even one fits."""
    fixed, per_word = _bit_bytes(g, width, levels)
    return max(0, (KERNEL_BYTES - fixed) // per_word)


def _bit_bytes(g: Graph, width: int, levels: int) -> tuple[int, int]:
    """The bit-parallel kernel's working bytes, as (fixed, per word).  Fixed:
    the jagged-diagonal slots and the vertex order.  Per word: frontier,
    next, unseen and gather rows plus one plane per bit of the level count
    (8 bytes per vertex each), and the unpacking buffers, 64 cells per
    column (uint8, or int32 counts past 255 levels)."""
    n, planes = g.num_vertices, levels.bit_length()
    cell = 1 if planes <= 8 else 4
    return 8 * (2 * g.num_edges + 2 * n), 8 * n * (4 + planes) + 64 * width * (3 + 2 * cell)


def _bit_parallel_rows(g: Graph, srcs: np.ndarray, cols: np.ndarray | None, levels: int) -> np.ndarray:
    """BFS from every source at once, 64 sources per uint64 word.

    Bit i of a vertex's words stands for source i (duplicate sources get
    bits of their own).  One level ORs every vertex's neighbours' frontier
    words into its own: the vertices are stored by descending degree, so
    the j-th neighbours of all vertices of degree > j are one contiguous
    gather, the jagged-diagonal layout.  Each bit's distance is the level
    that first reaches it, written bit-sliced: the bits reached at level l
    are ORed into plane i for each set bit i of l, so a level costs a few
    word operations per vertex, and the planes are unpacked into integer
    rows once, at the end, only for the wanted columns.
    """
    n, k = g.num_vertices, len(srcs)
    layout = _jagged_layout(g)
    rank = layout[1]
    rows = rank if cols is None else rank[cols]

    out = np.empty((k, len(rows)), dtype=np.int32)
    step = 64 * _bit_chunk_words(g, len(rows), levels)
    for lo in range(0, k, step):
        chunk = srcs[lo:lo + step]
        words = -(-len(chunk) // 64)
        frontier = np.zeros((n, words), dtype="<u8")
        bit = np.arange(len(chunk), dtype="<u8")
        np.bitwise_or.at(frontier, (rank[chunk], bit // 64), np.left_shift(1, bit % 64, dtype="<u8"))
        unseen = ~frontier
        nxt, gathered = np.empty_like(frontier), np.empty_like(frontier)
        planes: list[np.ndarray] = []
        level = 0
        while True:
            level += 1
            _gather(frontier, layout, np.bitwise_or, nxt, gathered)
            nxt &= unseen
            if not nxt.any():
                break
            unseen ^= nxt
            frontier, nxt = nxt, frontier
            for i in range(level.bit_length()):
                if i == len(planes):
                    planes.append(np.zeros_like(frontier))
                if level >> i & 1:
                    planes[i] |= frontier
        acc = np.zeros((len(rows), 64 * words), dtype=np.uint8 if len(planes) <= 8 else np.int32)
        for i, plane in enumerate(planes):
            acc |= np.left_shift(_unpack(plane[rows]), i, dtype=acc.dtype)
        block = out[lo:lo + len(chunk)]
        block[:] = acc[:, :len(chunk)].T
        block[_unpack(unseen[rows])[:, :len(chunk)].T.astype(bool)] = INF
    return out


def _jagged_layout(g: Graph) -> tuple[np.ndarray, ...]:
    """The adjacency in jagged-diagonal layout, as (order, rank, counts,
    offsets, slots).  Vertices are stored by descending degree: ``order``
    maps position -> vertex and ``rank`` vertex -> position.  The first
    ``counts[j]`` positions, those of degree > j, have their j-th
    neighbours' positions at ``slots[offsets[j]:offsets[j + 1]]``, so one
    neighbour slot of every vertex is one contiguous gather."""
    n = g.num_vertices
    deg = np.diff(g._indptr)
    order = np.argsort(-deg, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    counts = np.searchsorted(-deg[order], -np.arange(int(deg.max(initial=0))), side="left")
    offsets = np.concatenate([[0], np.cumsum(counts)])
    owner = np.repeat(np.arange(n), deg)
    slots = np.empty(len(g._indices), dtype=np.int64)
    slots[offsets[np.arange(len(owner)) - g._indptr[owner]] + rank[owner]] = rank[g._indices]
    return order, rank, counts, offsets, slots


def _gather(rows: np.ndarray, layout: tuple[np.ndarray, ...], op: np.ufunc, out: np.ndarray,
            scratch: np.ndarray) -> None:
    """``out[p]`` = ``op`` over the neighbours q of position p of
    ``rows[q]``, starting from zeros, for rows stored by ``layout``'s
    positions; ``scratch`` is a buffer of ``rows``' shape."""
    _, _, counts, offsets, slots = layout
    out[:] = 0
    for j, c in enumerate(counts):
        np.take(rows, slots[offsets[j]:offsets[j + 1]], axis=0, out=scratch[:c])
        op(out[:c], scratch[:c], out=out[:c])


def _unpack(words: np.ndarray) -> np.ndarray:
    """Bit j of word w of each row, at column 64·w + j, as uint8 0/1."""
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")


def _frontier_bfs(g: Graph, sources) -> np.ndarray:
    """Distances to the nearest of ``sources`` by a level-synchronous BFS
    over the CSR arrays, one pass of array operations per level: the
    frontier's neighbours, less those already reached, deduplicated, are
    the next level.  The work grows with the edges reached and the level
    count."""
    dist = np.full(g.num_vertices, INF, dtype=np.int32)
    frontier = unique_ints(np.asarray(sources, dtype=np.int64))
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        if len(frontier) == 1:  # a slice, not a gather: long thin graphs have many such levels
            v = frontier[0]
            nb = g._indices[g._indptr[v]:g._indptr[v + 1]]
        else:
            nb = g._indices[_csr_slots(g, frontier)[1]]
        nb = nb[dist[nb] == INF]
        if len(nb) > 1:
            nb = unique_ints(nb)
        dist[nb] = level
        frontier = nb
    return dist


def check_table(n: int, rows: int | None = None) -> None:
    """Refuse a dense int32 distance table of ``rows`` rows (n when not
    given) over n vertices, over the table budget, before it is allocated."""
    rows = n if rows is None else rows
    check_budget("table", 4 * rows * n, f"a distance table of {rows} x {n} vertices exceeds")


class DistanceOracle:
    """Per-source cache of ``distance_rows``, held to the table budget."""

    def __init__(self, g: Graph):
        self.graph = g
        self._rows: dict[int, np.ndarray] = {}

    def rows(self, sources: Sequence[int]) -> np.ndarray:
        """The rows of ``sources`` as one table.  The distinct sources not
        cached yet come from one ``distance_rows`` call, refused before it
        when the cache would pass the table budget with them.  When none is
        cached and none repeats, the table is that call's, shared rather
        than copied: do not write to it."""
        ids = _checked_ids(self.graph, sources).tolist()
        new = [s for s in dict.fromkeys(ids) if s not in self._rows]
        check_table(self.graph.num_vertices, len(self._rows) + len(new))
        table = distance_rows(self.graph, new)
        self._rows.update(zip(new, table))
        return table if len(new) == len(ids) else np.stack([self._rows[s] for s in ids])


def distance_to_set(g: Graph, sources: Sequence[int]) -> np.ndarray:
    """Row of distances to the nearest vertex of ``sources``."""
    if not len(sources):
        raise InputError("source set must be nonempty")
    return _frontier_bfs(g, _checked_ids(g, sources))


def neighborhood_subgraph(g, sources: Sequence[int], radius: int) -> tuple[Graph, np.ndarray]:
    """The subgraph induced on N_radius(sources), the vertices within
    ``radius`` hops of a source, and its local -> global id map (sorted).

    ``g`` is a ``Graph``, or any graph that gives its ``num_vertices`` and
    the edge ends at an array of vertices as ``Graph.adjacent`` does, such
    as a ``horoball.AugmentedSpace``, whose carrier is then never built.
    Local ids follow global id order, so neighbor lists keep their order and
    an id-ordered traversal such as ``enumerate_geodesics`` meets shared
    vertices in the same order as in ``g``.  Distances in the subgraph are
    never shorter than in ``g``, and equal for pairs joined by some shortest
    path that stays inside.  A frontier grows one BFS level at a time, so the
    work grows with the neighborhood, not with ``g``.
    """
    if radius < 0:
        raise InputError("radius must be >= 0")
    reached = unique_ints(_checked_ids(g, sources))
    if not reached.size:
        raise InputError("source set must be nonempty")
    frontier = reached
    for _ in range(radius):
        step = unique_ints(g.adjacent(frontier)[1])
        frontier = step[~_sorted_contains(reached, step)]
        if not frontier.size:
            break
        reached = np.sort(np.concatenate([reached, frontier]))
    owner, nb = g.adjacent(reached)
    inside = _sorted_contains(reached, nb)
    edges = np.stack([owner[inside], np.searchsorted(reached, nb[inside])], axis=1)
    return Graph(len(reached), edges), reached


def _csr_slots(g: Graph, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(degree of each of ``vertices``, the position in ``g._indices`` of
    each of their edge ends, vertex by vertex), without a per-vertex loop."""
    starts = g._indptr[vertices]
    counts = g._indptr[1:][vertices] - starts
    return counts, concatenated_ranges(starts, counts)


def concatenated_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``range(starts[i], starts[i] + counts[i])`` for every i, one after
    another, as one int64 array."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if len(ends) else 0)


def _sorted_contains(sorted_ids: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise ``x in sorted_ids`` for a nonempty sorted id array."""
    pos = np.minimum(np.searchsorted(sorted_ids, x), len(sorted_ids) - 1)
    return sorted_ids[pos] == x


def rips_graph(g: Graph, t: int) -> Graph:
    """Thicken ``g``: same vertices, edge (u, v) iff 0 < d_g(u, v) <= t."""
    if t < 1:
        raise InputError("rips scale t must be >= 1")
    n = g.num_vertices
    # t > 1 reads the whole table, refused over its budget before any row is
    # computed; connectivity is read off the row of vertex 0 either way
    d = DistanceOracle(g).rows(range(n if t > 1 else min(n, 1)))
    if n > 1 and np.any(d[0] >= INF):
        raise InputError("rips graph of a disconnected graph is undefined")
    if t == 1:
        return Graph(n, g.edges, labels=g.labels, metadata=g.metadata)
    iu, iv = np.nonzero(np.triu((d > 0) & (d <= t), k=1))
    return Graph(n, np.stack([iu, iv], axis=1), labels=g.labels, metadata=g.metadata)


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
    if dist_to_v[u] >= INF:
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


def is_interior_pair(d_o_u, d_o_v, d_uv, radius: int):
    """Ball-interior test for a pair inside a radius-``radius`` ball around o.

    If min(d(o,u), d(o,v)) + d(u,v) <= radius then every geodesic between u
    and v stays inside the ball, so ball-restricted distances are exact for
    the pair.  Applied with either endpoint as anchor; the min makes the
    predicate symmetric.  Distances may be ints or int arrays (elementwise).
    """
    return np.minimum(d_o_u, d_o_v) + d_uv <= radius


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
