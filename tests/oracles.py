"""Independent reference implementations used only to check the main code.

Everything here is deliberately naive: different algorithms, different data
layouts, no shared helpers with the package.  There are three exceptions.
``whole_carrier_scan`` is the package's betweenness scan run on the whole
carrier: it is the reference for where the parabolic scan may look, not for
the scan itself.  The Cayley ball and coset family references multiply
factor keys with the package's group law: they are the reference for how
balls and families are built from products, not for the factors' products.
``block_four_point_delta`` is the package's former exhaustive four-point
kernel, a vectorised walk over every quadruple that the far-apart pair
scan replaced: fast enough to check that scan on graphs too big for
``naive_four_point_delta``.

At the end are fixtures that build package objects for the tests: small
graphs, ``family_of``, an irregular family as a ``SubgraphFamily``, the
member view ``subgraph``/``subgraphs``, and the one-member families of the
local-scan tests.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from horolab.errors import InputError
from horolab.graph import Graph, SubgraphFamily

BIG = 10**9


def bfs_distances(n: int, edges, source: int) -> list[int]:
    """Hop distances from ``source`` by a queue over adjacency lists;
    unreachable entries are ``BIG``."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    dist = [BIG] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] == BIG:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def geodesic_counts(n: int, edges, source: int) -> list[int]:
    """Number of geodesics from ``source`` to every vertex, by a queue that
    adds up the counts of each vertex's predecessors one level closer."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    dist = [BIG] * n
    count = [0] * n
    dist[source], count[source] = 0, 1
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] == BIG:
                dist[v] = dist[u] + 1
                queue.append(v)
            if dist[v] == dist[u] + 1:
                count[v] += count[u]
    return count


def floyd_warshall(n: int, edges) -> list[list[int]]:
    d = [[0 if i == j else BIG for j in range(n)] for i in range(n)]
    for u, v in edges:
        d[u][v] = 1
        d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik >= BIG:
                continue
            row = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return d


def naive_four_point_delta(dist) -> Fraction:
    """Max Gromov four-point defect over every ordered quadruple."""
    n = len(dist)
    best = 0
    for w, x, y, z in itertools.product(range(n), repeat=4):
        s1 = dist[w][x] + dist[y][z]
        s2 = dist[w][y] + dist[x][z]
        s3 = dist[w][z] + dist[x][y]
        a, b, _ = sorted((s1, s2, s3), reverse=True)
        if a - b > best:
            best = a - b
    return Fraction(best, 2)


def block_four_point_delta(dist, max_elements: int = 1 << 18) -> Fraction:
    """Max four-point defect over every 4-subset, halved, per basepoint w on
    int32 blocks over (x, y, z) > w.

    The defect is symmetric in the four points and 0 when two coincide, so
    the cube has the same maximum as the 4-subsets.  Slab j of x values
    pairs with y, z >= its first x, which still covers every subset once
    its least point is in slab j; a block holds at most
    max(``max_elements``, n^2) entries."""
    d = np.asarray(dist, dtype=np.int32).reshape(len(dist), len(dist))
    n = len(d)
    best = 0
    for w in range(n - 3):
        tail = d[w + 1:, w + 1:]
        dw = d[w, w + 1:]
        m = n - w - 1
        x0 = 0
        while x0 < m:
            width = m - x0
            x1 = min(m, x0 + max(1, max_elements // (width * width)))
            yz = tail[x0:, x0:]
            xy = tail[x0:x1, x0:]
            s1 = dw[x0:x1, None, None] + yz[None, :, :]
            s2 = dw[None, x0:, None] + xy[:, None, :]
            s3 = dw[None, None, x0:] + xy[:, :, None]
            hi = np.maximum(np.maximum(s1, s2), s3)
            lo = np.minimum(np.minimum(s1, s2), s3)
            best = max(best, int((2 * hi + lo - (s1 + s2 + s3)).max()))
            x0 = x1
    return Fraction(best, 2)


def heis_matrix(p: int, q: int, r: int):
    """Normal form a^p b^q c^r as an upper unitriangular integer matrix."""
    return ((1, p, p * q + r), (0, 1, q), (0, 0, 1))


def heis_matmul(m1, m2):
    return tuple(
        tuple(sum(m1[i][k] * m2[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def heis_from_matrix(m):
    x, z, y = m[0][1], m[0][2], m[1][2]
    return (x, y, z - x * y)


def naive_cycle_embedding_exists(dist, n_cycle: int, k_num: int, k_den: int,
                                 lam_num: int, lam_den: int) -> bool:
    """Try every assignment f: C_n -> V, rejecting as soon as a constraint
    fails.  Integer cross-multiplied comparisons; no pruning by brackets."""
    nv = len(dist)
    dc = [[min(abs(i - j), n_cycle - abs(i - j)) for j in range(n_cycle)] for i in range(n_cycle)]

    def ok(i, w, chosen):
        for j, x in enumerate(chosen):
            d = dist[w][x]
            dcij = dc[i][j]
            # lam/K * dc <= d  <=>  lam_num * k_den * dc <= d * lam_den * k_num
            if lam_num * k_den * dcij > d * lam_den * k_num:
                return False
            # d <= K * lam * dc
            if d * lam_den * k_den > k_num * lam_num * dcij:
                return False
        return True

    def rec(i, chosen):
        if i == n_cycle:
            return True
        for w in range(nv):
            if ok(i, w, chosen):
                chosen.append(w)
                if rec(i + 1, chosen):
                    return True
                chosen.pop()
        return False

    return rec(0, [])


def reference_cycle_search(dist, n_cycle: int, k: Fraction, lambdas, restrict=None,
                           f0_candidates=None, node_cap: int = 2_000_000):
    """Scalar backtracking with the node accounting of
    ``shortcut.bilipschitz_cycle_search``; Python ints throughout.

    f(0) runs over ``f0_candidates`` (default: every vertex) within
    ``restrict``; each slot's candidates are the vertices whose distance to
    f(0) is in its bracket, tried in ascending id and checked against every
    other assigned image.  Every accepted candidate costs one node.  Returns
    (status, nodes, exhaustive, images or None)."""
    nv = len(dist)
    dc = [[min(abs(i - j), n_cycle - abs(i - j)) for j in range(n_cycle)] for i in range(n_cycle)]
    kn, kd = k.numerator, k.denominator
    lams = list(lambdas)
    if not lams:
        return "not_searched", 0, False, None
    allowed = set(range(nv)) if restrict is None else set(restrict)
    pool = [v for v in (range(nv) if f0_candidates is None else f0_candidates) if v in allowed]
    budget = node_cap

    class Cap(Exception):
        pass

    def search(lam):
        nonlocal budget
        ln, ld = lam.numerator, lam.denominator

        def pair_ok(d, c):
            return ln * kd * c <= d * ld * kn and d * ld * kd <= kn * ln * c

        for f0 in pool:
            candidates = [[f0]]
            for i in range(1, n_cycle):
                cand = [v for v in range(nv) if v in allowed and pair_ok(dist[f0][v], dc[0][i])]
                if not cand:
                    break
                candidates.append(cand)
            else:
                chosen = [f0]

                def extend(i):
                    nonlocal budget
                    if i == n_cycle:
                        return tuple(chosen)
                    for w in candidates[i]:
                        if not all(pair_ok(dist[chosen[j]][w], dc[j][i]) for j in range(1, i)):
                            continue
                        budget -= 1
                        if budget < 0:
                            raise Cap
                        chosen.append(w)
                        hit = extend(i + 1)
                        if hit is not None:
                            return hit
                        chosen.pop()
                    return None

                hit = extend(1)
                if hit is not None:
                    return hit
        return None

    for lam in lams:
        try:
            hit = search(lam)
        except Cap:
            return "unknown", node_cap, False, None
        if hit is not None:
            return "found", node_cap - budget, True, hit
    return "none", node_cap - budget, True, None


def reference_embedding_distortion(dist, images, lam: Fraction, k: Fraction) -> Fraction:
    """``shortcut.embedding_distortion`` pair by pair: every pair i < j in
    row-major order is checked in ``Fraction``s, and the first violation
    raises InputError with the package's message.  A scale of 0 or less
    has no distortion constant: past the pairs, it raises the package's
    "scale must be positive"."""
    n = len(images)
    worst = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            d = dist[images[i]][images[j]]
            ref = lam * min(j - i, n - (j - i))
            if k * d < ref or Fraction(d) > k * ref:
                raise InputError(f"pair ({i}, {j}): distance {d} outside bracket for lam={lam}")
            if d:
                worst = max(worst, Fraction(d) / ref, ref / Fraction(d))
    if lam <= 0:
        raise InputError("scale must be positive")
    return worst


def reference_sampled_delta(dist, sample: int, seed) -> tuple[int, Fraction]:
    """Sampled four-point defect by one scalar loop over ``random.Random(seed)``
    draws, four ``randrange`` calls per quadruple in (w, x, y, z) order."""
    n = len(dist)
    rng = random.Random(seed)
    best = 0
    for _ in range(sample):
        w, x, y, z = (rng.randrange(n) for _ in range(4))
        s1 = dist[w][x] + dist[y][z]
        s2 = dist[w][y] + dist[x][z]
        s3 = dist[w][z] + dist[x][y]
        a, b, _ = sorted((s1, s2, s3), reverse=True)
        best = max(best, a - b)
    return sample, Fraction(best, 2)


def augmented_carrier(num_base: int, base_edges, family, depth: int, base_labels=None) -> dict:
    """Member-by-member reference for ``SubgraphFamily.shapes`` and
    ``glue_horoballs``.

    ``family`` is a list of (vertices, edges) in base ids.  Member ``a``
    owns the ids ``block_starts[a] + (k-1)*s + i`` for the level-k copy of
    its i-th vertex; level k joins copies at member distance in (0, 2^k].
    Returns the canonical edge list, the per-vertex provenance lists, and
    the graph document ``io.write_carrier`` writes for the carrier."""
    kind = [0] * num_base
    alpha = [-1] * num_base
    base_vertex = list(range(num_base))
    level = [0] * num_base
    labels = list(base_labels) if base_labels is not None else None
    vertex_meta = [{"kind": "gamma", "alpha": None, "base": v, "level": 0} for v in range(num_base)]
    edges = {(min(int(u), int(v)), max(int(u), int(v))) for u, v in base_edges}
    block_starts = []
    for a, (vertices, member_edges) in enumerate(family):
        s = len(vertices)
        local = {v: i for i, v in enumerate(vertices)}
        local_edges = [(local[u], local[v]) for u, v in member_edges]
        dist = [bfs_distances(s, local_edges, i) for i in range(s)]
        start = len(kind)
        block_starts.append(start)
        for k in range(1, depth + 1):
            off = start + (k - 1) * s
            for i, v in enumerate(vertices):
                kind.append(1)
                alpha.append(a)
                base_vertex.append(v)
                level.append(k)
                vertex_meta.append({"kind": "horo", "alpha": a, "base": v, "level": k})
                if labels is not None:
                    labels.append(f"{base_labels[v]}@{k}")
                below = v if k == 1 else off - s + i
                edges.add((below, off + i))
                for j in range(i + 1, s):
                    if 0 < dist[i][j] <= 2**k:
                        edges.add((off + i, off + j))
    vertices = [{"id": v} if labels is None else {"id": v, "label": labels[v]} for v in range(len(kind))]
    return {
        "edges": sorted(edges),
        "document": {"version": 1, "vertices": vertices, "edges": [list(e) for e in sorted(edges)],
                     "metadata": {"vertex_meta": vertex_meta}},
        "kind": kind,
        "alpha": alpha,
        "base_vertex": base_vertex,
        "level": level,
        "labels": labels,
        "vertex_meta": vertex_meta,
        "block_starts": block_starts,
    }


def restricted_horoball(base, depth: int) -> dict:
    """Vertex-by-vertex reference for ``build_restricted_horoball``, as the
    graph document ``io.write_carrier`` writes for its carrier.

    (x, k) has id k*|V| + x for 0 <= k <= depth; vertical edges join (x, k)
    to (x, k+1), and level k joins x and y at base distance in (0, 2^k].
    Every vertex is labelled ``label@k`` and tagged as a horoball vertex of
    member 0, level 0 included."""
    n = base.num_vertices
    base_edges = base.edges.tolist()
    dist = [bfs_distances(n, base_edges, x) for x in range(n)]
    vertices = []
    vertex_meta = []
    edges = []
    for k in range(depth + 1):
        for x in range(n):
            vid = k * n + x
            entry = {"id": vid}
            if base.labels is not None:
                entry["label"] = f"{base.labels[x]}@{k}"
            vertices.append(entry)
            vertex_meta.append({"kind": "horo", "alpha": 0, "base": x, "level": k})
            if k < depth:
                edges.append([vid, vid + n])
            for y in range(x + 1, n):
                if 0 < dist[x][y] <= 2**k:
                    edges.append([vid, k * n + y])
    return {"version": 1, "vertices": vertices, "edges": sorted(edges),
            "metadata": {"vertex_meta": vertex_meta}}


def reference_convexity_defect(n: int, edges, vertex_set, pairs=None, interior=None,
                               witness_cap: int = 100, geodesic_cap: int = 64) -> dict:
    """Reference for ``analysis.convexity_defect``, by definition.

    Floyd-Warshall distances; w witnesses (u, v) when it is outside the set
    and d(u,w) + d(w,v) = d(u,v), scanned pair by pair and w by w; the
    defect is the largest distance from a witness to the set.  Every pair's
    geodesics are enumerated by a depth-first search over id-sorted
    neighbours, stopping at the (cap + 1)-th; the quasiconvexity constant is
    the largest distance to the set over the vertices of the first ``cap``
    of them, and a pair that reached the (cap + 1)-th is truncated.
    ``interior`` is (basepoint, radius) of the ball-interior pair filter.
    Pairs must lie in one component when ``geodesic_cap`` is nonzero."""
    d = floyd_warshall(n, edges)
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    adj = [sorted(nb) for nb in adj]
    s = sorted(set(vertex_set))
    to_set = [min(d[w][x] for x in s) for w in range(n)]
    pair_list = list(itertools.combinations(s, 2)) if pairs is None else [tuple(p) for p in pairs]
    if interior is not None:
        o, radius = interior
        pair_list = [(u, v) for u, v in pair_list if min(d[o][u], d[o][v]) + d[u][v] <= radius]

    witnesses, defect = [], 0
    for u, v in pair_list:
        for w in range(n):
            if w not in s and d[u][w] + d[w][v] == d[u][v]:
                defect = max(defect, to_set[w])
                if len(witnesses) < witness_cap:
                    witnesses.append((u, v, w))

    quasi = truncated = 0
    for u, v in pair_list if geodesic_cap else []:
        assert d[u][v] < BIG, "pair across components"
        found = []

        def search(path):
            x = path[-1]
            if x == v:
                found.append(path)
                return len(found) > geodesic_cap
            return any(search(path + [y]) for y in adj[x] if d[y][v] == d[x][v] - 1)

        truncated += search([u])
        for path in found[:geodesic_cap]:
            quasi = max([quasi] + [to_set[w] for w in path if w not in s])
    return {"defect": defect, "witnesses": witnesses, "quasiconvexity": quasi,
            "pairs_checked": len(pair_list), "truncated_pairs": truncated}


def whole_carrier_scan(aug, basepoint_row, radius: int, alpha: int, geodesic_cap: int) -> dict:
    """Reference for ``experiments.scan_parabolic``: the same interior pairs
    of member ``alpha``, scanned with rows over the whole carrier.

    Pairs are picked one by one from the member metric; d_0 and d_n for the
    level drop come from whole-carrier rows of every pair's endpoints."""
    from horolab.analysis import convexity_defect
    from horolab.graph import DistanceOracle

    members = list(subgraph(aug.family, alpha).vertices)
    dmat = aug.member_metric(alpha)
    top = aug.level_vertices(alpha, aug.depth)
    pairs = [(i, j) for i, j in itertools.combinations(range(len(members)), 2)
             if min(basepoint_row[members[i]], basepoint_row[members[j]]) + dmat[i][j] <= radius]
    out = {"defect": 0, "witnesses": [], "pairs_checked": 0, "quasiconvexity": 0,
           "level_drop": 0, "truncated_pairs": 0}
    if not pairs:
        return out
    oracle = DistanceOracle(aug.carrier)
    report = convexity_defect(aug.carrier, top, pairs=[(top[i], top[j]) for i, j in pairs],
                              oracle=oracle, geodesic_cap=geodesic_cap)
    drop = max(abs(oracle.rows([members[i]])[0, members[j]] - oracle.rows([top[i]])[0, top[j]])
               for i, j in pairs)
    out.update(defect=report.defect, witnesses=[tuple(map(int, w)) for w in report.witnesses],
               pairs_checked=report.pairs_checked, quasiconvexity=report.quasiconvexity_constant,
               level_drop=int(drop), truncated_pairs=report.truncated_pairs)
    return out


def glued_neighborhood(aug, sources, radius: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Glue-then-cut reference for ``graph.neighborhood_subgraph`` on an
    augmented space: N_radius(sources) in the glued carrier by a plain BFS,
    as its sorted carrier ids and its induced edges in local ids (positions
    in that list), sorted."""
    adjacency = [[] for _ in range(aug.carrier.num_vertices)]
    for u, v in aug.carrier.edges.tolist():
        adjacency[u].append(v)
        adjacency[v].append(u)
    dist = {int(s): 0 for s in sources}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        if dist[u] < radius:
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
    ids = sorted(dist)
    local = {v: i for i, v in enumerate(ids)}
    return ids, sorted((local[u], local[w]) for u in ids for w in adjacency[u] if w in local and u < w)


def reference_product(spec, xk, yk):
    """Product of two normal-form keys.  Free products by list surgery:
    pop the syllables that meet at the seam, merge them with the factor's own
    product, and stop at the first merge that is not the identity.  Other
    groups use the package's product."""
    if spec.kind != "free_product":
        return spec._mul(xk, yk)
    xs, ys = list(xk), list(yk)
    while xs and ys and xs[-1][0] == ys[0][0]:
        i = xs[-1][0]
        merged = spec.factors[i]._mul(xs.pop()[1], ys.pop(0)[1])
        if merged != spec.factors[i].identity():
            xs.append((i, merged))
            break
    return tuple(xs + ys)


def reference_cayley_ball(spec, radius: int) -> dict:
    """Reference for ``groups.cayley_ball``: BFS over normal-form keys,
    each new layer sorted by its normal-form text, then a second pass of
    products for the edges.  Returns the keys, word lengths, labels and the
    sorted edge list."""
    gens = [s for _, s in spec.generators()]
    layers = [[spec.identity()]]
    seen = {spec.identity()}
    for _ in range(radius):
        frontier = []
        for g in layers[-1]:
            for s in gens:
                h = reference_product(spec, g, s)
                if h not in seen:
                    seen.add(h)
                    frontier.append(h)
        frontier.sort(key=spec.format)
        layers.append(frontier)
    keys = [g for layer in layers for g in layer]
    index = {g: i for i, g in enumerate(keys)}
    edges = set()
    for i, g in enumerate(keys):
        for s in gens:
            j = index.get(reference_product(spec, g, s))
            if j is not None and j != i:
                edges.add((min(i, j), max(i, j)))
    return {"keys": tuple(keys),
            "word_lengths": tuple(k for k, layer in enumerate(layers) for _ in layer),
            "labels": [spec.format(g) for g in keys],
            "edges": sorted(edges)}


def reference_generator_table(spec, keys) -> list[list[int]]:
    """Reference for ``CayleyBall.generator_table`` over a ball's ``keys``:
    row g, column j is the index of g·s_j, the product taken by
    ``reference_product``, or -1 outside the ball, for the generators s_j of
    ``spec.generators()``."""
    index = {g: i for i, g in enumerate(keys)}
    gens = [s for _, s in spec.generators()]
    return [[index.get(reference_product(spec, g, s), -1) for s in gens] for g in keys]


def reference_displacement_set(spec, keys, displacement, t: int) -> list[int]:
    """Reference for ``analysis.displacement_generating_set`` over a ball's
    ``keys``: the ball ids g with displacement at most ``t`` whose inverse,
    found by searching the ball for the h with g·h = e under
    ``reference_product``, has displacement at most ``t`` too."""
    e = spec.identity()
    return [g for g, key in enumerate(keys) if displacement[g] <= t
            and any(reference_product(spec, key, h) == e and displacement[i] <= t for i, h in enumerate(keys))]


def coset_representative(key, factor_index: int):
    """Strip the trailing factor-``factor_index`` syllable: the shortest
    element of g·H_i, which identifies the coset."""
    if key and key[-1][0] == factor_index:
        key = key[:-1]
    return key


@dataclass(frozen=True)
class Coset:
    """One left coset g·H_i intersected with a ball, with its factor edges."""

    factor_index: int
    representative: object
    members: tuple
    edges: tuple


def reference_coset_family(ball, factor_index: int) -> list[Coset]:
    """Reference for the factor-``factor_index`` members of
    ``CayleyBall.cosets``: members grouped by their representative, families
    ordered by the representative's (word length, normal form), and edges
    from per-element products by the factor's generators and their
    inverses."""
    spec = ball.spec
    groups: dict = {}
    for vid, g in enumerate(ball.keys):
        groups.setdefault(coset_representative(g, factor_index), []).append(vid)
    gens = [s for _, s in spec.generators() if s[0][0] == factor_index]
    out = []
    for rep in sorted(groups, key=lambda r: (ball.word_lengths[ball.index[r]], spec.format(r))):
        members = groups[rep]
        member_set = set(members)
        edges = set()
        for v in members:
            for s in gens:
                w = ball.index.get(reference_product(spec, ball.keys[v], s))
                if w is not None and w > v and w in member_set:
                    edges.add((v, w))
        out.append(Coset(factor_index=factor_index, representative=rep,
                         members=tuple(members), edges=tuple(sorted(edges))))
    return out


# -- fixtures --------------------------------------------------------------------


def family_of(members) -> SubgraphFamily:
    """An irregular family, (vertices, edges) pairs in base ids, as a
    ``SubgraphFamily`` with one template per member.  Like the package's
    families it is not checked against any graph."""
    templates = []
    for vertices, edges in members:
        local = {v: i for i, v in enumerate(vertices)}
        pairs = sorted({(min(local[u], local[v]), max(local[u], local[v])) for u, v in edges})
        templates.append(np.array(pairs, dtype=np.int64).reshape(-1, 2))
    sizes = [len(vertices) for vertices, _ in members]
    return SubgraphFamily(offsets=np.cumsum([0] + sizes, dtype=np.int64),
                          vertices=np.array([v for vertices, _ in members for v in vertices], dtype=np.int64),
                          template=np.arange(len(members)), templates=tuple(templates))


@dataclass(frozen=True)
class Subgraph:
    """A subgraph of an ambient graph, by vertex ids and explicit edges.

    The edge list may be a strict subset of the induced edges (coset
    subgraphs keep only their own factor's edges)."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def subgraph(family: SubgraphFamily, a: int) -> Subgraph:
    """Member ``a`` of ``family`` as a ``Subgraph``, in base ids."""
    a = range(len(family))[a]  # IndexError past the end, as for a list
    vs = family.vertices[family.offsets[a]:family.offsets[a + 1]]
    return Subgraph(tuple(vs.tolist()), tuple(map(tuple, vs[family.templates[family.template[a]]].tolist())))


def subgraphs(family: SubgraphFamily) -> list[Subgraph]:
    """Every member of ``family`` as a ``Subgraph``, in member order."""
    return [subgraph(family, a) for a in range(len(family))]


def arc_on_a_cycle() -> tuple[Graph, SubgraphFamily]:
    """C_40 with a 40-vertex path hanging off vertex 35, and one member: the
    arc 0..29."""
    base = Graph(80, [(i, (i + 1) % 40) for i in range(40)] + [(35, 40)] + [(i, i + 1) for i in range(40, 79)])
    return base, family_of([(range(30), [(i, i + 1) for i in range(29)])])


def u_path_in_a_grid(rows: int = 14, cols: int = 12) -> tuple[Graph, SubgraphFamily]:
    """A ``rows`` x ``cols`` grid and one member: the path down column 1
    (rows 0..6), along row 6 and up column ``cols - 2``, 22 vertices in the
    14 x 12 grid."""
    base = Graph(rows * cols, [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
                 + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)])
    cells = ([(r, 1) for r in range(7)] + [(6, c) for c in range(2, cols - 2)]
             + [(r, cols - 2) for r in range(6, -1, -1)])
    path = [r * cols + c for r, c in cells]
    return base, family_of([(path, list(zip(path, path[1:])))])


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
