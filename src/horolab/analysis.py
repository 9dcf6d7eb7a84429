"""Coarse-geometry measurements on finite graphs.

Four-point hyperbolicity constants, betweenness-based convexity defects,
local-geodesic and quasigeodesic checks, displacement generating sets, and
multiplicative quasi-isometry fits.  Fitted constants are exact rationals
(resolution is therefore finer than any fixed grid); distances are exact
integers throughout.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .graph import DistanceOracle, Graph, Path, enumerate_geodesics, is_interior_pair
from .groups import GroupElement


@dataclass(frozen=True)
class HyperbolicityEstimate:
    delta: Fraction  # half-integer >= 0
    quadruples_checked: int
    exhaustive: bool


def _quad_defect(d, w, x, y, z) -> int:
    s1 = d[w, x] + d[y, z]
    s2 = d[w, y] + d[x, z]
    s3 = d[w, z] + d[x, y]
    hi = max(s1, s2, s3)
    mid = s1 + s2 + s3 - hi - min(s1, s2, s3)
    return int(hi - mid)


def four_point_delta(g: Graph, sample: str | int = "all", seed: int | None = None) -> HyperbolicityEstimate:
    """Largest four-point defect, halved.

    ``sample="all"`` scans every vertex quadruple (exact constant of the
    instance); an integer samples that many quadruples uniformly with the
    given seed.  Quadruples with repeated vertices never dominate, so the
    exhaustive scan runs over unordered 4-subsets.
    """
    if not g.is_connected():
        raise InputError("four-point scan needs a connected graph")
    d = DistanceOracle(g).matrix()
    n = g.num_vertices
    best = 0
    if sample == "all":
        count = 0
        for w, x, y, z in itertools.combinations(range(n), 4):
            count += 1
            defect = _quad_defect(d, w, x, y, z)
            if defect > best:
                best = defect
        return HyperbolicityEstimate(Fraction(best, 2), count, True)
    if not isinstance(sample, int) or sample < 1:
        raise InputError("sample must be 'all' or a positive count")
    rng = random.Random(seed)
    for _ in range(sample):
        w, x, y, z = (rng.randrange(n) for _ in range(4))
        defect = _quad_defect(d, w, x, y, z)
        if defect > best:
            best = defect
    return HyperbolicityEstimate(Fraction(best, 2), sample, False)


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

    @property
    def convex(self) -> bool:
        return self.defect == 0


def convexity_defect(
    g: Graph,
    vertex_set: Sequence[int],
    pair_filter: InteriorFilter | None = None,
    pairs: Iterable[tuple[int, int]] | None = None,
    oracle: DistanceOracle | None = None,
    witness_cap: int = 100,
    geodesic_cap: int = 64,
) -> ConvexityReport:
    """Betweenness convexity scan of ``vertex_set``.

    w witnesses the pair (u, v) when w is outside the set and
    d(u,w) + d(w,v) = d(u,v); such a w lies on a geodesic between u and v, so
    the set is convex exactly when no witness exists.  The defect is the
    largest distance from any witness back to the set.  The quasiconvexity
    constant is measured on capped geodesic enumeration over the same pairs.
    """
    s_list = sorted(dict.fromkeys(int(v) for v in vertex_set))
    if not s_list:
        raise InputError("vertex set must be nonempty")
    for v in (s_list[0], s_list[-1]):
        if not 0 <= v < g.num_vertices:
            raise InputError(f"vertex set: unknown vertex id {v}")
    oracle = oracle or DistanceOracle(g)
    in_set = np.zeros(g.num_vertices, dtype=bool)
    in_set[s_list] = True

    if pairs is None:
        pair_list = list(itertools.combinations(s_list, 2))
    else:
        pair_list = [(int(u), int(v)) for u, v in pairs]
        for u, v in pair_list:
            if not (in_set[u] and in_set[v]):
                raise InputError(f"pair ({u}, {v}) leaves the vertex set")

    if pair_filter is not None:
        o_row = oracle.row(pair_filter.basepoint)
        pair_list = [
            (u, v) for u, v in pair_list
            if is_interior_pair(int(o_row[u]), int(o_row[v]), oracle.distance(u, v), pair_filter.radius)
        ]

    witnesses: list[tuple[int, int, int]] = []
    witness_ids: set[int] = set()
    for u, v in pair_list:
        row_u = oracle.row(u)
        row_v = oracle.row(v)
        hits = np.nonzero((row_u + row_v == row_u[v]) & ~in_set)[0]
        for w in hits:
            witness_ids.add(int(w))
            if len(witnesses) < witness_cap:
                witnesses.append((u, v, int(w)))

    to_set = None

    def dist_to_set(w: int) -> int:
        nonlocal to_set
        if to_set is None:
            to_set = oracle.distance_to_set(s_list)
        return int(to_set[w])

    defect = 0
    if witness_ids:
        defect = max(dist_to_set(w) for w in witness_ids)

    quasi = 0
    if geodesic_cap:
        for u, v in pair_list:
            paths, _ = enumerate_geodesics(g, u, v, cap=geodesic_cap, dist_to_target=oracle.row(v))
            for p in paths:
                outside = [w for w in p.vertices if not in_set[w]]
                if outside:
                    quasi = max(quasi, max(dist_to_set(w) for w in outside))

    return ConvexityReport(
        defect=defect,
        witnesses=tuple(witnesses),
        quasiconvexity_constant=quasi,
        pairs_checked=len(pair_list),
    )


# -- local geodesics and quasigeodesics ----------------------------------------


def is_r_local_geodesic(
    g: Graph, p: Path, r: int, oracle: DistanceOracle | None = None
) -> tuple[bool, tuple[int, int] | None]:
    """Every window of ``r`` consecutive edges must realize the distance of
    its endpoints.  Returns (ok, first violating window as index pair)."""
    if r < 1:
        raise InputError("window length must be >= 1")
    oracle = oracle or DistanceOracle(g)
    w = min(r, p.length)
    for i in range(p.length - w + 1):
        a, b = p.vertices[i], p.vertices[i + w]
        if oracle.distance(a, b) != w:
            return False, (i, i + w)
    return True, None


def quasigeodesic_fit(
    g: Graph, p: Path, additive_budget: int | Fraction = 0, oracle: DistanceOracle | None = None
) -> Fraction | float:
    """Smallest multiplicative constant L with
    (1/L)|i-j| - C <= d(p_i, p_j) <= L|i-j| + C over all index pairs.

    Unit-speed paths satisfy the upper bound with L = 1, so the fit is the
    largest ratio |i-j| / (d + C).  Returns math.inf when some pair has
    d + C = 0, e.g. a closed walk with no additive budget.
    """
    c = Fraction(additive_budget)
    if c < 0:
        raise InputError("additive budget must be >= 0")
    oracle = oracle or DistanceOracle(g)
    best = Fraction(1)
    for i, j in itertools.combinations(range(len(p.vertices)), 2):
        d = oracle.distance(p.vertices[i], p.vertices[j])
        gap = j - i
        if d + c == 0:
            return math.inf
        best = max(best, Fraction(gap) / (d + c))
    return best


# -- displacement generating sets -------------------------------------------------


def displacement_generating_set(
    orbit: Sequence[tuple[GroupElement, int]], t: int
) -> tuple[GroupElement, ...]:
    """Elements whose basepoint displacement is at most ``t``.

    Closed under inversion by construction: an element stays only if its
    inverse is also present with displacement <= t (exact displacement data
    is symmetric, so this drops nothing there).
    """
    disp = {g: d for g, d in orbit}
    kept = []
    for g, d in orbit:
        if d > t:
            continue
        gi = g.inverse()
        di = disp.get(gi)
        if di is not None and di <= t:
            kept.append(g)
    if not any(0 < disp[g] for g in kept):
        raise InputError(f"S_t does not generate within the analyzed ball (t={t})")
    return tuple(kept)


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
    the i-th pair in the domain and under the declared map.  The scale
    multiplies the domain side, so a map that scales every distance by
    lam fits with K = 1.
    """
    lam = Fraction(scale)
    c = Fraction(additive_budget)
    if lam <= 0:
        raise InputError("scale must be positive")
    if c < 0:
        raise InputError("additive budget must be >= 0")
    if len(domain_distances) != len(image_distances):
        raise InputError("samples must be aligned index-wise")

    # the fit is a max over pairs, so repeated (dx, dy) values cost nothing
    distinct = sorted(set(zip(map(int, domain_distances), map(int, image_distances))))

    k = Fraction(1)
    for dx_raw, dy in distinct:
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
