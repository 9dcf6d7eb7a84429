"""Coarse-geometry measurements on finite graphs.

Four-point hyperbolicity constants, betweenness-based convexity defects,
displacement generating sets, and multiplicative quasi-isometry fits.
Fitted constants are exact rationals (resolution is therefore finer than any
fixed grid); distances are exact integers throughout.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, check_budget
from .graph import (INF, KERNEL_BYTES, DistanceOracle, Graph, _gather, _jagged_layout, _sorted_contains,
                    check_table, distance_rows, distance_to_set, enumerate_geodesics, is_interior_pair,
                    unique_ints)


@dataclass(frozen=True)
class HyperbolicityEstimate:
    delta: Fraction  # half-integer >= 0
    quadruples_checked: int
    exhaustive: bool
    far_apart_pairs: int = 0  # exhaustive scan of 4 or more vertices only
    pair_tests: int = 0  # pairs of far-apart pairs whose defect was computed


# Largest number of int32 entries in one block of the exhaustive four-point
# scan (a block of far-apart pairs against every pair up to the block's end,
# or a block of columns of the neighbour maxima), unless one row needs more.
_BLOCK_MAX_ELEMENTS = 1 << 18


def _defects(s1: np.ndarray, s2: np.ndarray, s3: np.ndarray) -> np.ndarray:
    """max(s) - mid(s) elementwise, for the three pair sums of quadruples."""
    hi = np.maximum(np.maximum(s1, s2), s3)
    lo = np.minimum(np.minimum(s1, s2), s3)
    return 2 * hi + lo - (s1 + s2 + s3)


def four_point_delta(g: Graph, sample: str | int = "all", seed: int | None = None) -> HyperbolicityEstimate:
    """Largest four-point defect, halved.

    ``sample="all"`` gives the exact constant of the instance over every
    unordered 4-subset (``quadruples_checked`` is C(n, 4)) by the far-apart
    pair scan of Cohen, Coudert and Lancin (On computing the Gromov
    hyperbolicity, ACM JEA 2015).  A pair x < y is far-apart when no
    neighbour of x is farther from y and no neighbour of y is farther from
    x; some quadruple of greatest defect has its largest pair sum on two
    far-apart pairs, and a defect is at most the smaller of those two
    distances.  So the far-apart pairs, longest first (stable), are each
    tested against every pair up to them, in blocks of at most
    max(_BLOCK_MAX_ELEMENTS, one row) pair tests, and the scan stops before
    a block whose first pair is no longer than the best defect so far.
    ``far_apart_pairs`` and ``pair_tests`` count that work (both 0 below 4
    vertices, where every defect is 0).

    An integer samples that many quadruples uniformly: ``random.Random(seed)``
    draws the four vertices of each in turn, all quadruples first, and rows
    are computed for vertex 0 and every drawn w, x and y.  Either way the
    rows come from one ``distance_rows`` call, whose table is checked
    against the table budget before any row is computed; connectivity is
    read off its row of vertex 0.  An exhaustive scan of more than
    the quadruple budget is refused after the table check, also before any
    row.
    """
    n = g.num_vertices
    if sample == "all":
        _check_exhaustive(n)
        sources = np.arange(n)
    elif isinstance(sample, bool) or not isinstance(sample, int) or sample < 1:
        raise InputError("sample must be 'all' or a positive count")
    else:
        rng = random.Random(seed)
        quads = np.fromiter((rng.randrange(n) for _ in range(4 * sample)), dtype=np.int64,
                            count=4 * sample).reshape(sample, 4)
        sources = unique_ints(np.append(quads[:, :3], 0))
        check_table(n, len(sources))
    d = distance_rows(g, sources)  # sources ascending: vertex 0 is row 0
    # before any neighbour maximum: reduceat reads a neighbourless vertex's
    # empty segment as the next vertex's first neighbour
    if n > 1 and np.any(d[0] >= INF):
        raise InputError("four-point scan needs a connected graph")
    if sample != "all":
        w, x, y = np.searchsorted(sources, quads[:, :3]).T
        _, qx, qy, qz = quads.T
        defects = _defects(d[w, qx] + d[y, qz], d[w, qy] + d[x, qz], d[w, qz] + d[x, qy])
        return HyperbolicityEstimate(Fraction(int(defects.max()), 2), sample, False)
    if n < 4:
        return HyperbolicityEstimate(Fraction(0), 0, True)
    far = np.empty_like(d)  # far[v, y]: the largest d(u, y) over neighbours u of v
    step = max(1, _BLOCK_MAX_ELEMENTS // len(g._indices))
    for c in range(0, n, step):
        far[:, c:c + step] = np.maximum.reduceat(d[g._indices, c:c + step], g._indptr[:-1], axis=0)
    ok = far <= d
    x, y = np.nonzero(np.triu(ok & ok.T, 1))
    dxy = d[x, y]
    order = np.argsort(-dxy, kind="stable")
    x, y, dxy = x[order], y[order], dxy[order]
    best = tests = i0 = 0
    while i0 < len(x) and dxy[i0] > best:
        # (i1 - i0) * i1 <= _BLOCK_MAX_ELEMENTS unless one row needs more
        i1 = min(len(x), i0 + max(1, (math.isqrt(i0 * i0 + 4 * _BLOCK_MAX_ELEMENTS) - i0) // 2))
        dx, dy = d[x[i0:i1]], d[y[i0:i1]]
        s1 = dxy[i0:i1, None] + dxy[None, :i1]
        s2 = dx[:, x[:i1]] + dy[:, y[:i1]]
        s3 = dx[:, y[:i1]] + dy[:, x[:i1]]
        best = max(best, int(_defects(s1, s2, s3).max()))
        tests += (i1 - i0) * i1
        i0 = i1
    return HyperbolicityEstimate(Fraction(best, 2), math.comb(n, 4), True, len(x), tests)


def _check_exhaustive(n: int) -> None:
    """Refuse an exhaustive four-point scan of ``n`` vertices: its n x n
    table over the table budget, then its C(n, 4) quadruples over the
    quadruple budget."""
    check_table(n)
    check_budget("quadruple", math.comb(n, 4), f"an exhaustive four-point scan of {math.comb(n, 4)} "
                 "quadruples exceeds")


# -- convexity ------------------------------------------------------------------


@dataclass(frozen=True)
class InteriorFilter:
    """Keep only pairs (u, v) with min(d(o,u), d(o,v)) + d(u,v) <= radius."""

    basepoint: int
    radius: int


@dataclass(frozen=True)
class ConvexityReport:
    defect: int
    witnesses: tuple[tuple[int, int, int], ...]  # (u, v, w), capped
    quasiconvexity_constant: int
    pairs_checked: int
    truncated_pairs: int  # pairs with more than geodesic_cap geodesics

    @property
    def convex(self) -> bool:
        return self.defect == 0


def convexity_defect(
    g: Graph,
    vertex_set: Sequence[int],
    pair_filter: InteriorFilter | None = None,
    pairs: Iterable[tuple[int, int]] | np.ndarray | None = None,
    oracle: DistanceOracle | None = None,
    witness_cap: int = 100,
    geodesic_cap: int = 64,
) -> ConvexityReport:
    """Betweenness convexity scan of ``vertex_set``.

    w witnesses the pair (u, v) when w is outside the set and
    d(u,w) + d(w,v) = d(u,v); such a w lies on a geodesic between u and v, so
    the set is convex exactly when no witness exists.  The defect is the
    largest distance from any witness back to the set.  Witnesses come in
    pair order, then by id.  The rows of all pair endpoints come from one
    ``distance_rows`` call, and each source's pairs are tested as one block.

    The quasiconvexity constant is the largest distance to the set from a
    vertex on one of the first ``geodesic_cap`` geodesics of a pair, in the
    DFS order of ``enumerate_geodesics``.  Every vertex of the interval
    {w : d(u,w) + d(w,v) = d(u,v)} lies on a geodesic, so a pair with at
    most ``geodesic_cap`` geodesics adds its largest witness distance, with
    no enumeration.  A geodesic takes one vertex from each level d(u, .) of
    the interval, so 2^b bounds the count, b the sum of ceil(log2(size)) over
    the levels; pairs this leaves open are counted (``_over_cap``).  Only
    pairs with more than min(cap, 2^52) geodesics are enumerated, and then
    the constant is a lower bound (``truncated_pairs``).

    An interior ``pair_filter`` first cuts the set (or the pairs given) to
    the ball of its radius around its basepoint, which holds both ends of
    every interior pair, and then tests the pairs left on the scan's rows.

    The pairs left are counted before they are listed, and the cells (pairs
    x |V|) before any row but the basepoint's: ``_check_scan`` refuses them
    over their budgets.
    The enumeration, up to cap + 1 paths for each pair over the cap, is
    refused over the count budget in paths before it starts.
    """
    if geodesic_cap < 0:
        raise InputError("geodesic cap must be >= 0")
    s_list = sorted(dict.fromkeys(int(v) for v in vertex_set))
    if not s_list:
        raise InputError("vertex set must be nonempty")
    for v in (s_list[0], s_list[-1]):
        if not 0 <= v < g.num_vertices:
            raise InputError(f"vertex set: unknown vertex id {v}")
    oracle = oracle or DistanceOracle(g)
    outside = np.ones(g.num_vertices, dtype=bool)
    outside[s_list] = False

    members = np.asarray(s_list, dtype=np.int32)
    if pairs is not None:
        both = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64).reshape(-1, 2)
        bad = np.flatnonzero(~_sorted_contains(members, both).all(axis=1))
        if bad.size:
            raise InputError(f"pair ({both[bad[0], 0]}, {both[bad[0], 1]}) leaves the vertex set")

    if pair_filter is not None:
        # min(o(u), o(v)) + d(u, v) <= radius puts both u and v within the radius of o
        o = oracle.rows([pair_filter.basepoint])[0]
        near = o <= pair_filter.radius
        members = members[near[members]]
        if pairs is not None:
            both = both[near[both].all(axis=1)]
    _check_scan(math.comb(len(members), 2) if pairs is None else len(both), g.num_vertices)
    pu, pv = np.take(members, np.triu_indices(len(members), 1)) if pairs is None else both.T

    # table rows: the pairs' ends in id order
    ends = unique_ints(np.concatenate([pu, pv]))
    iu, iv = np.searchsorted(ends, pu), np.searchsorted(ends, pv)
    rows = oracle.rows(ends)
    if pair_filter is not None:
        keep = is_interior_pair(o[pu], o[pv], rows[iu, pv], pair_filter.radius)
        pu, pv, iu, iv = pu[keep], pv[keep], iu[keep], iv[keep]
    d_uv = rows[iu, pv]
    by_source = np.argsort(iu, kind="stable")
    bounds = np.searchsorted(iu[by_source], np.arange(len(ends) + 1))
    if geodesic_cap and len(pu) and d_uv.max() >= INF:
        raise InputError("u and v are in different components")
    limit = min(geodesic_cap, 2**52)

    def between(sel: np.ndarray, src) -> np.ndarray:
        """Interval masks of the pairs ``sel``, with source rows ``rows[src]``."""
        through = rows[iv[sel]]
        through += rows[src]
        return through == d_uv[sel, None]

    far = np.zeros(len(pu), dtype=np.int32)  # largest witness distance to the set
    wide = np.zeros(len(pu), dtype=bool)  # 2^b > limit: may have more geodesics than the cap
    bits = int(limit).bit_length()
    to_set = None
    for r in range(len(ends)):
        for sel in _blocks(by_source[bounds[r]:bounds[r + 1]], g.num_vertices, 12):
            inside = between(sel, r)
            hit = inside & outside
            if hit.any():
                if to_set is None:
                    to_set = distance_to_set(g, s_list)
                far[sel] = np.where(hit, to_set, 0).max(axis=1)
            if not geodesic_cap:
                continue
            # size <= 2^(size - 1) on each level: a looser bound, cheaper to test first
            loose = inside.sum(axis=1) - d_uv[sel] > bits
            if loose.any():
                by_level = np.argsort(rows[r], kind="stable")
                starts = np.searchsorted(rows[r, by_level], np.arange(d_uv[sel].max() + 1))
                sizes = np.add.reduceat(inside[loose][:, by_level], starts, axis=1, dtype=np.int32)
                wide[sel[loose]] = np.searchsorted(1 << np.arange(32), sizes).sum(axis=1) >= bits

    witnesses: list[tuple[int, int, int]] = []
    cap = max(witness_cap, 0)
    for sel in _blocks(np.flatnonzero(far)[:cap], g.num_vertices, 22):
        p, w = np.nonzero(between(sel, iu[sel]) & outside)
        p, w = p[:cap - len(witnesses)], w[:cap - len(witnesses)]
        witnesses += zip(pu[sel[p]].tolist(), pv[sel[p]].tolist(), w.tolist())

    quasi = 0
    truncated = 0
    if geodesic_cap:
        counted = by_source[wide[by_source]]
        over = np.zeros(len(pu), dtype=bool)
        if counted.size:
            over[counted] = _over_cap(g, rows, iu[counted], pv[counted], limit)
        enumerated = int(over.sum())
        check_budget("count", enumerated * (geodesic_cap + 1), f"enumerating up to {enumerated * (geodesic_cap + 1)} "
                     f"geodesics ({enumerated} pairs over the cap of {geodesic_cap}) exceeds")
        quasi = int(far[~over].max(initial=0))
        for p in np.flatnonzero(over).tolist():
            paths, capped = enumerate_geodesics(g, int(pu[p]), int(pv[p]), cap=geodesic_cap,
                                                dist_to_target=rows[iv[p]])
            truncated += capped
            on = unique_ints(np.concatenate([path.vertices for path in paths]))
            off = on[outside[on]]
            if off.size:  # witnesses of pair p, so to_set is known
                quasi = max(quasi, int(to_set[off].max()))

    return ConvexityReport(
        defect=int(far.max(initial=0)),
        witnesses=tuple(witnesses),
        quasiconvexity_constant=quasi,
        pairs_checked=len(pu),
        truncated_pairs=truncated,
    )


def _check_scan(pairs: int, vertices: int) -> None:
    """Refuse a list of ``pairs`` pairs, 8 bytes each, over the table budget,
    and their scan against ``vertices`` vertices over the scan budget."""
    check_budget("table", 8 * pairs, f"a list of {pairs} vertex pairs exceeds")
    check_budget("scan", pairs * vertices, f"a convexity scan of {pairs} pairs x {vertices} vertices exceeds")


def _blocks(items: np.ndarray, width: int, cell_bytes: int) -> Iterator[np.ndarray]:
    """``items`` in consecutive pieces, each of at least one item and, when
    more, small enough that ``width`` cells per item fit in ``KERNEL_BYTES``."""
    step = max(1, KERNEL_BYTES // (cell_bytes * max(width, 1)))
    return (items[i:i + step] for i in range(0, len(items), step))


def _over_cap(g: Graph, rows: np.ndarray, src: np.ndarray, dst: np.ndarray, limit: int) -> np.ndarray:
    """Whether σ(u, v) > ``limit`` (at most 2^52) for each pair i: u is the
    source of distance row ``rows[src[i]]``, ``src`` sorted, v = ``dst[i]``.

    σ counts geodesics level by level over the adjacency matrix A
    (Brandes 2001), saturated at s = limit + 1: σ_0 is the source's
    indicator and σ_t = [d = t] · min(σ_{t-1} A, s).  Each product is the
    bit-parallel kernel's jagged-diagonal gather, adding where that kernel
    ORs.  float64 sums are exact below 2^53 and cannot round below s above
    it, so σ reaches s exactly when it exceeds ``limit``.  Sources go in
    blocks that fit in ``KERNEL_BYTES``.
    """
    layout = _jagged_layout(g)
    order, rank = layout[:2]
    saturation = limit + 1
    over = np.zeros(len(dst), dtype=bool)
    for block in _blocks(src[np.flatnonzero(np.diff(src, prepend=-1))], g.num_vertices, 40):
        lo, hi = np.searchsorted(src, [block[0], block[-1] + 1])
        d = rows[block][:, order].T  # vertex position x source
        v, c = rank[dst[lo:hi]], np.searchsorted(block, src[lo:hi])
        front = np.ascontiguousarray(d == 0, dtype=np.float64)
        step, scratch = np.empty_like(front), np.empty_like(front)
        full = np.zeros(d.shape, dtype=bool)
        for t in range(1, int(d[v, c].max(initial=0)) + 1):
            _gather(front, layout, np.add, step, scratch)
            front, step = step, front
            np.minimum(front, saturation, out=front)
            front *= d == t
            full |= front == saturation
        over[lo:hi] = full[v, c]
    return over


# -- displacement generating sets -------------------------------------------------


def displacement_generating_set(displacement: np.ndarray, inverse: np.ndarray, t: int) -> np.ndarray:
    """The ball ids, ascending, of the elements whose basepoint
    ``displacement`` is at most ``t``, and whose inverse's is too (the
    element at ball id g has its inverse at ``inverse[g]``).

    Closed under inversion by construction; exact displacement data is
    symmetric, so the inverse check drops nothing there.
    """
    kept = np.flatnonzero((displacement <= t) & (displacement[inverse] <= t))
    if not (displacement[kept] > 0).any():
        raise InputError(f"S_t does not generate within the analyzed ball (t={t})")
    return kept


# -- quasi-isometry fits ----------------------------------------------------------


@dataclass(frozen=True)
class QiFit:
    """Fit of a map between metric samples: with multiplicative constant K,
    scale lam on the domain side and additive budget C,
    (1/K)*lam*d_X - C <= d_Y <= K*lam*d_X + C on every checked pair."""

    scale: Fraction
    additive_budget: Fraction
    multiplicative: Fraction | float  # math.inf when no finite K fits
    pairs_checked: int


def qi_distortion(
    domain_distances: Sequence[int],
    image_distances: Sequence[int],
    scale: Fraction | int,
    additive_budget: Fraction | int = 0,
) -> QiFit:
    """Minimal multiplicative constant for index-aligned distance samples.

    ``domain_distances[i]`` and ``image_distances[i]`` are the distances of
    the i-th pair in the domain and under the declared map: lists or int
    arrays of hop counts in 0..INF.  The scale multiplies the domain side,
    so a map that scales every distance by lam fits with K = 1.
    """
    lam = Fraction(scale)
    c = Fraction(additive_budget)
    if lam <= 0:
        raise InputError("scale must be positive")
    if c < 0:
        raise InputError("additive budget must be >= 0")
    if len(domain_distances) != len(image_distances):
        raise InputError("samples must be aligned index-wise")
    try:
        dxs = np.asarray(domain_distances, dtype=np.int64)
        dys = np.asarray(image_distances, dtype=np.int64)
        hop_counts = not dxs.size or (min(dxs.min(), dys.min()) >= 0
                                      and max(dxs.max(), dys.max()) <= INF)
    except OverflowError:
        hop_counts = False
    if not hop_counts:
        raise InputError(f"distances must be hop counts in 0..{INF}")

    # the fit is a max over pairs, so repeated (dx, dy) values cost nothing;
    # dy < 2**30, so the key dx * 2**30 + dy sorts exactly like the pair
    distinct = unique_ints(dxs << 30 | dys).tolist()

    k = Fraction(1)
    for key in distinct:
        dx_raw, dy = key >> 30, key & (2**30 - 1)
        dx = lam * dx_raw
        # upper side: dy <= K*dx + C
        if dy > c:
            if dx == 0:
                return QiFit(lam, c, math.inf, len(domain_distances))
            k = max(k, (Fraction(dy) - c) / dx)
        # lower side: dx <= K*(dy + C)
        if dx > 0:
            if dy + c == 0:
                return QiFit(lam, c, math.inf, len(domain_distances))
            k = max(k, dx / (Fraction(dy) + c))
    return QiFit(lam, c, k, len(domain_distances))
