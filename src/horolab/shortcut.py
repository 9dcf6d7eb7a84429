"""Search for bilipschitz embeddings of scaled cycles into a graph.

A scaled n-cycle embeds with constant K when some f: {0..n-1} -> V satisfies

    (lam/K) * d_C(i,j)  <=  d(f(i), f(j))  <=  K * lam * d_C(i,j)

for every index pair, where d_C is the cycle metric.  A graph in which, for
some K > 1, only boundedly many cycle lengths admit such embeddings (for all
large scales lam) has bounded "circle approximation" behavior; the searches
here probe that on finite targets.

The search assigns f(0), f(1), ... in the order of depth-first
backtracking, but expands its tree a level at a time.  The rational bracket
becomes an integer one per cycle distance c, ceil(lam*c/K) <= d <=
floor(K*lam*c), computed exactly once per scale, so the comparisons are exact
for every constant.  Each image w contributes, per c, the bitset of vertices
inside its bracket (one distance row, one broadcast compare).  A node that
assigns slots 0..i holds, for each later slot, the AND of the sets of its
images as uint64 words, and its children are the bits of slot i + 1.  The
nodes of a level are expanded together, a few numpy operations per slice of
them, and the slices are taken in lexicographic order from an explicit
stack, so the first witness found is the depth-first one.  Every node costs
one node of the budget, charged as the depth-first search would charge it:
a witness costs its preorder index.  A capped search reports "unknown",
never a false "none".
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

from .analysis import qi_distortion
from .errors import InputError
from .graph import INF, KERNEL_BYTES, DistanceOracle, Graph, _unpack, unique_ints

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
        if self.lo <= 0:
            raise InputError("lambda grid must start above 0")

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
        for name in ("restrict", "f0_candidates"):
            ids = getattr(self, name)
            if ids is not None and not all(0 <= v < self.target.num_vertices for v in ids):
                raise InputError(f"{name}: vertex id outside the target graph")


@dataclass(frozen=True)
class CycleEmbedding:
    images: tuple[int, ...]
    lam: Fraction
    k_achieved: Fraction


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # found | none | unknown | not_searched
    embedding: CycleEmbedding | None
    nodes_expanded: int

    @property
    def exhaustive(self) -> bool:
        """The status is definitive: the search ran to its natural end
        (witness found, or full grid refuted) without hitting the node cap."""
        return self.status in (FOUND, NONE)


def embedding_distortion(
    oracle: DistanceOracle, images: Sequence[int], lam: Fraction, bilipschitz: Fraction
) -> Fraction:
    """Re-verify an embedding; its distortion constant.

    Raises InputError naming the first pair (i, j), i < j in row-major
    order, whose distance lies outside the search's own integer bracket
    (``_cycle_brackets``) for ``bilipschitz`` (used as the post-hoc
    soundness check on every witness).  The constant is the exact fit
    ``qi_distortion`` of the pairs' distances against their cycle
    distances at scale ``lam``.
    """
    n = len(images)
    i, j = np.triu_indices(n, 1)
    d = oracle.rows(images)[:, np.asarray(images, dtype=np.int64)][i, j].astype(np.int64)
    c = np.minimum(j - i, n - j + i)
    lo, hi = _cycle_brackets(n, lam, bilipschitz)
    bad = np.flatnonzero((d < lo[c]) | (d > hi[c]))
    if len(bad):
        first = bad[0]
        raise InputError(f"pair ({i[first]}, {j[first]}): distance {d[first]} outside bracket for lam={lam}")
    return qi_distortion(c, d, scale=lam).multiplicative


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


# Most bytes of states in one slice of a search level, below the
# ``KERNEL_BYTES / n`` that keeps n levels under ``KERNEL_BYTES``.  Larger
# slices only hold more memory: on 12x12, 20x20 and 30x30 grids (K = 6/5,
# lambda in [2, 3] by 1/4, 2-core host) slices of 1 MiB ran as fast as
# slices of 4 MiB or of KERNEL_BYTES / n, and the CLI run peaked at 42-46 MB
# instead of 50-74 MB.
SLICE_BYTES = 2**20

# Set bits of each byte value: a bitset's size is one table lookup per byte
# (``np.bitwise_count`` needs numpy 2).
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each row of a (rows, W) uint64 array."""
    return _POPCOUNT[words.view(np.uint8)].sum(axis=1, dtype=np.int64)


def _search_one_lambda(
    query: ShortcutQuery,
    brackets: tuple[np.ndarray, np.ndarray],
    oracle: DistanceOracle,
    budget: list[int],
) -> tuple[int, ...] | None:
    """First embedding at one scale, or None.  ``budget`` holds the shared
    remaining node allowance; it is charged what the depth-first search
    charges, and ``_CapExceeded`` is raised where that search runs out.

    A node at level i assigns slots 0..i.  Its state is the alive set of
    each slot still to fill, one bitset of ``words`` uint64 words per slot,
    and its children are the bits of its slot i + 1.  Each level is
    expanded by a generator that yields its children in slices of at most
    ``SLICE_BYTES`` and ``KERNEL_BYTES / n`` bytes, in lexicographic order;
    the generators form an explicit stack, so the first node to reach
    level n - 2 (with its slot n - 1 nonempty) is the depth-first witness.
    Every node has a position among the nodes of its level in that order,
    and ``cost`` sums position + 1 over the node and its ancestors: for the
    witness that is its depth-first preorder index.  A node whose cost,
    plus the nodes already seen below its level, passes the budget is where
    the depth-first search would run out unless it found a witness first:
    it is dropped, and so is every later node, whose bound is larger.  No
    root slice starts after a drop."""
    n = query.cycle_length
    nv = query.target.num_vertices
    words = max(1, -(-nv // 64))
    lo, hi = brackets[0][1:], brackets[1][1:]
    remaining = budget[0]
    slice_bytes = max(1, min(KERNEL_BYTES // n, SLICE_BYTES))
    d = np.arange(1, n)
    later = np.minimum(d, n - d) - 1  # later[d - 1]: the mask of slots d apart

    allowed = None
    pool = np.arange(nv) if query.f0_candidates is None else np.asarray(query.f0_candidates, dtype=np.int64)
    if query.restrict is not None:
        allowed = np.zeros(nv, dtype=bool)
        allowed[list(query.restrict)] = True
        pool = pool[allowed[pool]]

    def bracket_masks(vertices: np.ndarray) -> np.ndarray:
        """(len(vertices), n // 2, words): entry [a, c - 1] is the set of
        the vertices v (within ``restrict``) with d(vertices[a], v) inside
        the bracket of cycle distance c."""
        rows = oracle.rows(vertices)[:, None, :]
        inside = (rows >= lo[:, None]) & (rows <= hi[:, None])
        if allowed is not None:
            inside &= allowed
        packed = np.packbits(inside, axis=2, bitorder="little")
        out = np.zeros((len(vertices), len(lo), 8 * words), dtype=np.uint8)
        out[:, :, :packed.shape[2]] = packed
        return out.view("<u8")

    # The masks of every vertex fit one slice: build each vertex's once, on
    # first touch.  Otherwise each expansion builds those of the vertices
    # it touches.
    table = filled = None
    if nv * len(lo) * 8 * words <= slice_bytes:
        table = np.empty((nv, len(lo), words), dtype="<u8")
        filled = np.zeros(nv, dtype=bool)

    def masks_of(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A mask table and the row of each of the vertices ``w`` in it."""
        if table is None:
            touched = unique_ints(w)
            return bracket_masks(touched), np.searchsorted(touched, w)
        new = w[~filled[w]]
        if len(new):
            new = unique_ints(new)
            table[new] = bracket_masks(new)
            filled[new] = True
        return table, w

    seen = [0] * n  # nodes generated so far at each level
    cut = False  # some node was dropped for the budget

    def expand(i: int, states: np.ndarray, cost: np.ndarray, anc: tuple):
        """The children of ``states``, nodes at level i, as slices of
        (states, cost, ancestry).  All are counted, from the popcount of
        slot i + 1, but only the children of nodes whose slot i + 2 is
        nonempty are built, and of those only the ones whose own slot
        i + 2 stays nonempty are kept: the others are leaves."""
        nonlocal cut
        k, m = i + 1, len(states)
        most = max(1, slice_bytes // (8 * words * (states.shape[1] - 1)))
        counts = _popcount(states[:, 0])
        live = states[:, 1].any(axis=1)
        # The children of the nodes before each node: all of them, and those
        # of the nodes whose slot i + 2 is empty, which are all leaves.
        before = np.concatenate(([0], np.cumsum(counts)))
        leaves = np.concatenate(([0], np.cumsum(np.where(live, 0, counts))))
        built = before - leaves
        cidx = later[:n - 1 - k]
        a = 0
        while a < m:  # parents a..b-1: children to build for one slice, one parent at least
            b = max(a + 1, int(np.searchsorted(built, built[a] + most, "right")) - 1)
            offset = seen[k] - leaves[a]
            seen[k] += int(before[b] - before[a])
            par = np.flatnonzero(live[a:b]) + a
            a = b
            if not len(par):
                continue
            pi, w = np.nonzero(_unpack(states[par, 0]))
            p = par[pi]
            masks, wl = masks_of(w)
            kept = np.flatnonzero((states[p, 1] & masks[wl, 0]).any(axis=1))
            p, w, wl = p[kept], w[kept], wl[kept]
            c = cost[p] + leaves[p] + kept + (offset + 1)
            fits = int(np.searchsorted(c + sum(seen[k + 1:]), remaining, "right"))
            if fits < len(c):
                cut, a = True, m
            for s in range(0, fits, most):
                t = slice(s, s + most)
                child = [states[p[t], 1:] & masks[wl[t, None], cidx]]
                if a == m and s + most >= fits:
                    del states, masks  # the last slice: free this level before its subtree runs
                yield child.pop(), c[t], (w[t], p[t], anc)  # popped: no reference stays here

    def witness(states: np.ndarray, cost: np.ndarray, anc: tuple) -> tuple[int, ...]:
        """The first node of the first slice at level n - 2 and the first bit
        of its slot n - 1, charged that leaf's preorder index."""
        nodes = int(cost[0]) + 1
        if nodes > remaining:
            raise _CapExceeded
        budget[0] = remaining - nodes
        images, at = [int(np.flatnonzero(_unpack(states[:1, 0])[0])[0])], 0
        while anc is not None:
            ids, parents, anc = anc
            images.append(int(ids[at]))
            if parents is not None:
                at = parents[at]
        return tuple(reversed(images))

    def roots():
        """Level 0: f(0) over the pool in order, in slices of 1, 64,
        4096, ... roots (as many as fit a slice), so that an early witness
        fetches few rows and the slices of a search stay few.  A root with
        an empty slot has no children and costs nothing."""
        start, size = 0, 1
        most = max(1, slice_bytes // (8 * words * (n - 1)))
        while start < len(pool) and not cut:
            ids = pool[start:start + size]
            start, size = start + size, min(64 * size, most)
            masks, at = masks_of(ids)
            states = masks[at[:, None], later]
            live = states.any(axis=2).all(axis=1)
            if live.any():
                yield states[live], np.zeros(live.sum(), dtype=np.int64), (ids[live], None, None)

    stack = [(0, roots())]
    while stack:
        level, gen = stack[-1]
        frame = next(gen, None)
        if frame is None:
            stack.pop()
        elif level < n - 2:
            stack.append((level + 1, expand(level, *frame)))
        else:
            return witness(*frame)
    total = sum(seen)
    if cut or total > remaining:
        raise _CapExceeded
    budget[0] = remaining - total
    return None


def bilipschitz_cycle_search(query: ShortcutQuery, oracle: DistanceOracle | None = None) -> SearchOutcome:
    """Scan the scale grid in ascending order; the first witness wins.

    The outcome is ``exhaustive`` unless the node cap stopped the search
    or the grid is empty.  A scale whose integer brackets equal an
    earlier scale's runs the same search, which found nothing: it is
    charged that search's node count instead of being run again.
    ``oracle`` may hold rows of ``query.target`` that other searches
    computed; the connectivity check reads its row of vertex 0, so
    searches that share an oracle share that check too.
    """
    if oracle is None:
        oracle = DistanceOracle(query.target)
    if query.target.num_vertices and np.any(oracle.rows([0]) >= INF):
        raise InputError("target graph must be connected")
    lams = query.lambdas.values()
    if not lams:
        return SearchOutcome(NOT_SEARCHED, None, 0)

    budget = [query.node_cap]
    searched: dict[bytes, int] = {}
    for lam in lams:
        brackets = _cycle_brackets(query.cycle_length, lam, query.bilipschitz)
        key = brackets[0].tobytes() + brackets[1].tobytes()
        before = budget[0]
        try:
            if key in searched:
                budget[0] -= searched[key]
                if budget[0] < 0:
                    raise _CapExceeded
                continue
            hit = _search_one_lambda(query, brackets, oracle, budget)
        except _CapExceeded:
            return SearchOutcome(UNKNOWN, None, query.node_cap)
        if hit is not None:
            k_achieved = embedding_distortion(oracle, hit, lam, query.bilipschitz)
            emb = CycleEmbedding(images=hit, lam=lam, k_achieved=k_achieved)
            return SearchOutcome(FOUND, emb, query.node_cap - budget[0])
        searched[key] = before - budget[0]
    return SearchOutcome(NONE, None, query.node_cap - budget[0])


# -- profiles ---------------------------------------------------------------


@dataclass(frozen=True)
class ShortcutProfile:
    """Searches at one constant K: per cycle length, in order, (cycle
    length, its ``SearchOutcome``, seconds)."""

    bilipschitz: Fraction
    searches: tuple[tuple[int, SearchOutcome, float], ...]

    def to_csv(self) -> str:
        buf = _io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "K", "lambda", "status", "nodes", "seconds"])
        for n, outcome, seconds in self.searches:
            e = outcome.embedding
            writer.writerow([
                n, str(self.bilipschitz),
                "" if e is None else str(e.lam),
                outcome.status, outcome.nodes_expanded, f"{seconds:.6f}",
            ])
        return buf.getvalue()

    def to_json_rows(self) -> list[dict]:
        out = []
        for n, outcome, _ in self.searches:
            e = outcome.embedding
            row = {
                "n": n,
                "K": str(self.bilipschitz),
                "lambda": None if e is None else str(e.lam),
                "status": outcome.status,
                "nodes": outcome.nodes_expanded,
                "exhaustive": outcome.exhaustive,
            }
            if e is not None:
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
) -> ShortcutProfile:
    """One search per cycle length.  Every scale of an unsuccessful search is
    searched; nothing learned at one (n, lam) cell prunes another, but all
    searches share one distance oracle, so no distance row is computed twice.
    When the V×V int32 table fits ``KERNEL_BYTES``, one ``distance_rows``
    call fills the oracle with every vertex's row up front."""
    oracle = DistanceOracle(target)
    if 4 * target.num_vertices**2 <= KERNEL_BYTES:
        oracle.rows(range(target.num_vertices))

    searches = []
    for n in n_list:
        t0 = time.perf_counter()
        query = ShortcutQuery(
            cycle_length=n,
            bilipschitz=Fraction(bilipschitz),
            lambdas=lambdas,
            target=target,
            restrict=None if restrict is None else tuple(restrict),
            node_cap=node_cap,
        )
        searches.append((n, bilipschitz_cycle_search(query, oracle), time.perf_counter() - t0))
    return ShortcutProfile(Fraction(bilipschitz), tuple(searches))
