"""Independent reference implementations used only to check the main code.

Everything here is deliberately naive: different algorithms, different data
layouts, no shared helpers with the package.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

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


def augmented_carrier(num_base: int, base_edges, family, depth: int, base_labels=None) -> dict:
    """Member-by-member reference for ``build_augmented``.

    ``family`` is a list of (vertices, edges) in base ids.  Member ``a``
    owns the ids ``block_starts[a] + (k-1)*s + i`` for the level-k copy of
    its i-th vertex; level k joins copies at member distance in (0, 2^k].
    Returns the canonical edge list and the per-vertex provenance lists."""
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
    return {
        "edges": sorted(edges),
        "kind": kind,
        "alpha": alpha,
        "base_vertex": base_vertex,
        "level": level,
        "labels": labels,
        "vertex_meta": vertex_meta,
        "block_starts": block_starts,
    }
