"""Search for bilipschitz embeddings of scaled cycles into a graph.

A scaled n-cycle embeds with constant K when some f: {0..n-1} -> V satisfies

    (lam/K) * d_C(i,j)  <=  d(f(i), f(j))  <=  K * lam * d_C(i,j)

for every index pair, where d_C is the cycle metric.  A graph in which, for
some K > 1, only boundedly many cycle lengths admit such embeddings (for all
large scales lam) has bounded "circle approximation" behavior; the searches
here probe that on finite targets.

The search assigns f(0), f(1), ... by depth-first backtracking.  The rational
bracket becomes an integer one per cycle distance c, ceil(lam*c/K) <= d <=
floor(K*lam*c), computed exactly once per scale, so the comparisons are exact
for every constant.  Each image w contributes, per c, the bitset of vertices
inside its bracket (one distance row, one broadcast compare); every future
slot keeps the AND of the sets of the images assigned so far, and its
candidates are read off that set in ascending id.  Every accepted candidate
costs one node of the budget.  A capped search reports "unknown", never a
false "none".
"""

from __future__ import annotations

import csv
import io as _io
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputError
from .graph import INF, KERNEL_BYTES, DistanceOracle, Graph

FOUND = "found"
NONE = "none"
UNKNOWN = "unknown"
NOT_SEARCHED = "not_searched"


@dataclass(frozen=True)
class LambdaGrid:
    """Inclusive rational interval with step, e.g. [2, 4] by 1/4."""

    lo: Fraction
    hi: Fraction
    step: Fraction

    def __post_init__(self):
        if self.step <= 0:
            raise InputError("lambda step must be positive")

    def size(self) -> int:
        """The number of values, floor((hi - lo) / step) + 1 (0 when hi < lo),
        counted without listing them."""
        return max(0, math.floor((self.hi - self.lo) / self.step) + 1)

    def values(self) -> list[Fraction]:
        return [self.lo + i * self.step for i in range(self.size())]

    @classmethod
    def of(cls, lo, hi, step="1/4") -> "LambdaGrid":
        return cls(Fraction(lo), Fraction(hi), Fraction(step))


@dataclass(frozen=True)
class ShortcutQuery:
    cycle_length: int
    bilipschitz: Fraction
    lambdas: LambdaGrid
    target: Graph
    restrict: tuple[int, ...] | None = None
    f0_candidates: tuple[int, ...] | None = None  # orbit representatives
    node_cap: int = 2_000_000

    def __post_init__(self):
        if self.cycle_length < 3:
            raise InputError("cycle length must be >= 3")
        if self.bilipschitz < 1:
            raise InputError("bilipschitz constant must be >= 1")
        if self.node_cap < 1:
            raise InputError("node cap must be positive")
        if self.restrict is not None and not all(0 <= v < self.target.num_vertices for v in self.restrict):
            raise InputError("restrict: vertex id outside the target graph")


@dataclass(frozen=True)
class CycleEmbedding:
    images: tuple[int, ...]
    lam: Fraction
    k_achieved: Fraction


@dataclass(frozen=True)
class SearchOutcome:
    """``exhaustive`` means the status is definitive: the search ran to its
    natural end (witness found, or full grid refuted) without hitting the
    node cap."""

    status: str  # found | none | unknown | not_searched
    embedding: CycleEmbedding | None
    nodes_expanded: int
    exhaustive: bool


def cycle_metric(n: int) -> list[list[int]]:
    return [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]


def embedding_distortion(
    oracle: DistanceOracle, images: Sequence[int], lam: Fraction, bilipschitz: Fraction
) -> Fraction:
    """Re-verify an embedding pair by pair; the largest per-pair distortion.

    Raises InputError if any pair violates the bilipschitz bracket for
    ``bilipschitz`` (used as the post-hoc soundness check on every witness).
    """
    n = len(images)
    dc = cycle_metric(n)
    worst = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            d = oracle.distance(images[i], images[j])
            ref = lam * dc[i][j]
            if bilipschitz * d < ref or Fraction(d) > bilipschitz * ref:
                raise InputError(
                    f"pair ({i}, {j}): distance {d} outside bracket for lam={lam}"
                )
            if d:
                worst = max(worst, Fraction(d) / ref, ref / Fraction(d))
    return worst


class _CapExceeded(Exception):
    pass


def _cycle_brackets(n: int, lam: Fraction, bilipschitz: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """Integer distance brackets per cycle distance c in [0, n//2].

    An integer d satisfies lam*c/K <= d <= K*lam*c exactly when
    lo[c] <= d <= hi[c], with lo[c] = ceil(lam*c/K) and hi[c] = floor(K*lam*c)
    taken in exact rational arithmetic.  Both are capped at INF + 1 before
    they become int32: distance rows never exceed INF, so the cap changes no
    comparison.
    """
    cap = INF + 1
    cs = range(n // 2 + 1)
    lo = np.array([min(math.ceil(lam * c / bilipschitz), cap) for c in cs], dtype=np.int32)
    hi = np.array([min(math.floor(bilipschitz * lam * c), cap) for c in cs], dtype=np.int32)
    return lo, hi


def _search_one_lambda(
    query: ShortcutQuery,
    lam: Fraction,
    oracle: DistanceOracle,
    budget: list[int],
) -> tuple[int, ...] | None:
    """First embedding at one scale, or None.  ``budget`` holds the shared
    remaining node allowance (mutated in place).

    Sets of vertices are Python-int bitsets over the target's ids.  Slot j
    keeps an "alive" set: the vertices inside the bracket of every assigned
    image, so the candidates of the next slot are exactly its alive bits,
    taken lowest id first."""
    n = query.cycle_length
    dc = cycle_metric(n)
    lo, hi = _cycle_brackets(n, lam, query.bilipschitz)

    allowed = None
    if query.restrict is not None:
        allowed = np.zeros(query.target.num_vertices, dtype=bool)
        allowed[list(query.restrict)] = True

    masks: dict[int, list[int]] = {}

    def bracket_masks(w: int) -> list[int]:
        """Entry c: the vertices v (within ``restrict``) whose distance
        d(w, v) lies in the bracket of cycle distance c."""
        got = masks.get(w)
        if got is None:
            row = oracle.row(w)
            inside = (row >= lo[:, None]) & (row <= hi[:, None])
            if allowed is not None:
                inside &= allowed
            packed = np.packbits(inside, axis=1, bitorder="little")
            got = masks[w] = [int.from_bytes(b.tobytes(), "little") for b in packed]
        return got

    f0_pool = query.f0_candidates
    if f0_pool is None:
        f0_pool = tuple(range(query.target.num_vertices))
    if query.restrict is not None:
        f0_pool = tuple(v for v in f0_pool if allowed[v])

    chosen: list[int] = []

    def extend(i: int, alive: list[int]) -> tuple[int, ...] | None:
        if i == n:
            return tuple(chosen)
        dci = dc[i]
        todo = alive[i]
        while todo:
            low = todo & -todo
            todo ^= low
            w = low.bit_length() - 1
            budget[0] -= 1
            if budget[0] < 0:
                raise _CapExceeded
            mask_w = bracket_masks(w)
            nxt = alive[:]
            for j in range(i + 1, n):
                nxt[j] &= mask_w[dci[j]]
            chosen.append(w)
            hit = extend(i + 1, nxt)
            if hit is not None:
                return hit
            chosen.pop()
        return None

    for f0 in f0_pool:
        mask0 = bracket_masks(f0)
        alive = [0] + [mask0[dc[0][i]] for i in range(1, n)]
        if not all(alive[1:]):
            continue
        chosen[:] = [f0]
        hit = extend(1, alive)
        if hit is not None:
            return hit
    return None


def bilipschitz_cycle_search(query: ShortcutQuery, oracle: DistanceOracle | None = None) -> SearchOutcome:
    """Scan the scale grid in ascending order; the first witness wins.

    The outcome's ``exhaustive`` flag is set only when every scale in the
    grid was fully searched.  ``oracle`` may hold rows of ``query.target``
    that other searches computed; the connectivity check reads its row of
    vertex 0, so searches that share an oracle share that check too.
    """
    if oracle is None:
        oracle = DistanceOracle(query.target)
    if query.target.num_vertices and np.any(oracle.row(0) >= INF):
        raise InputError("target graph must be connected")
    lams = query.lambdas.values()
    if not lams:
        return SearchOutcome(NOT_SEARCHED, None, 0, False)

    budget = [query.node_cap]
    for lam in lams:
        try:
            hit = _search_one_lambda(query, lam, oracle, budget)
        except _CapExceeded:
            return SearchOutcome(UNKNOWN, None, query.node_cap, False)
        if hit is not None:
            k_achieved = embedding_distortion(oracle, hit, lam, query.bilipschitz)
            emb = CycleEmbedding(images=hit, lam=lam, k_achieved=k_achieved)
            return SearchOutcome(FOUND, emb, query.node_cap - budget[0], True)
    return SearchOutcome(NONE, None, query.node_cap - budget[0], True)


# -- profiles ---------------------------------------------------------------


@dataclass(frozen=True)
class ProfileRow:
    cycle_length: int
    bilipschitz: Fraction
    lam: Fraction | None
    status: str
    nodes_expanded: int
    exhaustive: bool
    seconds: float


@dataclass(frozen=True)
class ShortcutProfile:
    rows: tuple[ProfileRow, ...]

    def to_csv(self) -> str:
        buf = _io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "K", "lambda", "status", "nodes", "seconds"])
        for r in self.rows:
            writer.writerow([
                r.cycle_length, str(r.bilipschitz),
                "" if r.lam is None else str(r.lam),
                r.status, r.nodes_expanded, f"{r.seconds:.6f}",
            ])
        return buf.getvalue()

    def to_json_rows(self, embeddings: dict[int, CycleEmbedding] | None = None) -> list[dict]:
        out = []
        for r in self.rows:
            row = {
                "n": r.cycle_length,
                "K": str(r.bilipschitz),
                "lambda": None if r.lam is None else str(r.lam),
                "status": r.status,
                "nodes": r.nodes_expanded,
                "exhaustive": r.exhaustive,
            }
            if embeddings and r.cycle_length in embeddings:
                e = embeddings[r.cycle_length]
                row["witness"] = {
                    "images": list(e.images),
                    "lambda": str(e.lam),
                    "K_achieved": str(e.k_achieved),
                }
            out.append(row)
        return out


def shortcut_profile(
    target: Graph,
    bilipschitz: Fraction,
    n_list: Sequence[int],
    lambdas: LambdaGrid,
    node_cap: int = 2_000_000,
    restrict: Sequence[int] | None = None,
) -> tuple[ShortcutProfile, dict[int, CycleEmbedding]]:
    """One search row per cycle length.  Every scale of an unsuccessful row is
    searched; nothing learned at one (n, lam) cell prunes another, but all
    rows share one distance oracle, so no distance row is computed twice.
    When the V×V int32 table fits ``KERNEL_BYTES``, one ``distance_rows``
    call fills the oracle with every vertex's row up front."""
    oracle = DistanceOracle(target)
    if 4 * target.num_vertices**2 <= KERNEL_BYTES:
        oracle.prefetch(range(target.num_vertices))

    def run_one(n: int) -> tuple[ProfileRow, CycleEmbedding | None]:
        t0 = time.perf_counter()
        query = ShortcutQuery(
            cycle_length=n,
            bilipschitz=Fraction(bilipschitz),
            lambdas=lambdas,
            target=target,
            restrict=None if restrict is None else tuple(restrict),
            node_cap=node_cap,
        )
        outcome = bilipschitz_cycle_search(query, oracle)
        row = ProfileRow(
            cycle_length=n,
            bilipschitz=Fraction(bilipschitz),
            lam=outcome.embedding.lam if outcome.embedding else None,
            status=outcome.status,
            nodes_expanded=outcome.nodes_expanded,
            exhaustive=outcome.exhaustive,
            seconds=time.perf_counter() - t0,
        )
        return row, outcome.embedding

    results = [run_one(n) for n in n_list]

    witnesses = {row.cycle_length: emb for row, emb in results if emb is not None}
    return ShortcutProfile(tuple(row for row, _ in results)), witnesses
