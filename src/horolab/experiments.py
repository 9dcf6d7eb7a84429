"""Experiment pipelines and the JSON report they produce.

A config is a single versioned JSON object; unknown fields are rejected so a
stale config never silently drifts.  Reports echo the config, stamp the
instance, and keep result rows separate from timings: identical (config,
seed) must reproduce byte-identical rows.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import __version__
from .analysis import (
    InteriorFilter,
    convexity_defect,
    displacement_generating_set,
    four_point_delta,
    qi_distortion,
)
from .errors import ConfigError, InputError, PropertyViolation
from .graph import (
    DistanceOracle,
    Graph,
    cycle_graph,
    distance_rows,
    enumerate_geodesics,
    grid_graph,
    is_interior_pair,
    path_graph,
)
from .groups import DEFAULT_BALL_BUDGET, CayleyBall, GroupElement, GroupSpec, cayley_ball, coset_family
from .horoball import Subgraph, build_augmented, build_restricted_horoball
from .io import canonical_json, graph_to_json, read_graph, sha256_of, to_dot
from .shortcut import LambdaGrid, shortcut_profile

EXPERIMENT_KINDS = (
    "build-horoball",
    "augment",
    "delta",
    "convexity",
    "shortcut",
    "milnor-svarc",
    "convexify-experiment",
)

_PARAM_KEYS = {
    "build-horoball": {"depth"},
    "augment": {"depth"},
    "delta": {"sample", "depth"},
    "convexity": {"depth", "set", "interior", "geodesic_cap"},
    "shortcut": {"K", "n_list", "lambda", "node_cap", "restrict"},
    "convexify-experiment": {"depths", "budget", "verify_cosets", "geodesic_cap"},
    "milnor-svarc": {"depth", "t_list", "budget"},
}

_INSTANCE_BUILDERS = {"graph_file", "path", "cycle", "grid", "group"}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    instance: dict
    params: dict
    seed: int

    def echo(self) -> dict:
        return {
            "version": 1,
            "experiment": self.kind,
            "instance": self.instance,
            "params": self.params,
            "seed": self.seed,
        }


@dataclass
class Report:
    config: ExperimentConfig
    environment: dict
    rows: list[dict]
    timings: dict
    artifacts: list[str]

    def to_json(self) -> dict:
        return {
            "config": self.config.echo(),
            "environment": self.environment,
            "rows": self.rows,
            "timings": self.timings,
            "artifacts": self.artifacts,
        }


def validate_config(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    allowed_top = {"version", "experiment", "instance", "params", "seed"}
    for key in obj:
        if key not in allowed_top:
            raise ConfigError(key, "unknown config field")
    if obj.get("version") != 1:
        raise ConfigError("version", f"expected 1, got {obj.get('version')!r}")
    kind = obj.get("experiment")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError("experiment", f"unknown experiment kind {kind!r}")

    instance = obj.get("instance")
    if not isinstance(instance, dict):
        raise ConfigError("instance", "must be an object")
    builders = set(instance) & _INSTANCE_BUILDERS
    if len(builders) != 1:
        raise ConfigError("instance", f"need exactly one of {sorted(_INSTANCE_BUILDERS)}")
    extra = set(instance) - _INSTANCE_BUILDERS - {"radius"}
    if extra:
        raise ConfigError(f"instance.{sorted(extra)[0]}", "unknown instance field")
    if "group" in instance:
        if not isinstance(instance.get("radius"), int) or instance["radius"] < 1:
            raise ConfigError("instance.radius", "group instances need a positive radius")
        try:
            GroupSpec.from_json(instance["group"])
        except InputError as exc:
            raise ConfigError("instance.group", str(exc)) from exc
    elif "radius" in instance:
        raise ConfigError("instance.radius", "only valid with a group instance")

    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params", "must be an object")
    for key in params:
        if key not in _PARAM_KEYS[kind]:
            raise ConfigError(f"params.{key}", f"unknown parameter for {kind}")

    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed", "must be a nonnegative integer")
    return ExperimentConfig(kind=kind, instance=instance, params=params, seed=seed)


def build_instance_graph(instance: dict) -> tuple[Graph, CayleyBall | None, str]:
    """Realize the instance; returns (graph, ball or None, stable hash)."""
    if "graph_file" in instance:
        g = read_graph(instance["graph_file"])
        if g.num_vertices == 0:
            raise InputError("graph file has no vertices")
        digest = sha256_of(pathlib.Path(instance["graph_file"]).read_text(encoding="utf-8"))
        return g, None, digest
    digest = sha256_of(canonical_json(instance))
    if "path" in instance:
        return path_graph(instance["path"]), None, digest
    if "cycle" in instance:
        return cycle_graph(instance["cycle"]), None, digest
    if "grid" in instance:
        r, c = instance["grid"]
        return grid_graph(r, c), None, digest
    spec = GroupSpec.from_json(instance["group"])
    ball = cayley_ball(spec, instance["radius"])
    return ball.graph, ball, digest


def parabolic_family(ball: CayleyBall) -> tuple[list[Subgraph], list[int], list[int]]:
    """The coset family a Cayley ball is augmented over.

    Free products use every coset of every factor; any other group is its own
    single parabolic (relative hyperbolicity is trivial there, which is
    exactly what e.g. the Milnor-Svarc baseline wants).  Returns (family,
    factor index per member, family indices of the identity cosets).
    """
    if ball.spec.kind != "free_product":
        whole = Subgraph(
            tuple(range(ball.graph.num_vertices)),
            tuple((int(u), int(v)) for u, v in ball.graph.edges),
        )
        return [whole], [0], [0]
    family: list[Subgraph] = []
    factor_of: list[int] = []
    identity_members: list[int] = []
    for i in range(len(ball.spec.factors)):
        for coset in coset_family(ball, i):
            if coset.representative.is_identity():
                identity_members.append(len(family))
            family.append(Subgraph(coset.members, coset.edges))
            factor_of.append(i)
    return family, factor_of, identity_members


def family_distance_matrices(base: Graph, family: Sequence[Subgraph]) -> list[np.ndarray]:
    out = []
    for member in family:
        local = {v: i for i, v in enumerate(member.vertices)}
        edges = [(local[u], local[v]) for u, v in member.edges]
        out.append(distance_rows(Graph(len(member.vertices), edges), range(len(member.vertices))))
    return out


@dataclass
class ParabolicScan:
    """Betweenness-convexity measurements for one parabolic (a coset's top
    level) over its ball-interior pairs."""

    defect: int
    witnesses: list[tuple[int, int, int]]
    pairs_checked: int
    quasiconvexity: int
    level_drop_excess: int  # max over pairs of |d_bottom - d_top| - 2n


def scan_parabolic(
    aug,
    ball: CayleyBall,
    alpha: int,
    local_dmat: np.ndarray,
    radius: int,
    geodesic_cap: int = 32,
    witness_cap: int = 10,
    check_level_drop: bool = False,
) -> ParabolicScan:
    """Exact scan of one coset horoball's top level inside the carrier.

    Interior pairs use word lengths from the ball and the coset's own metric:
    min(|u|, |v|) + d(u, v) <= radius guarantees the relevant geodesics stay
    inside the carrier.  This is the same betweenness computation as
    ``analysis.convexity_defect``, organized around batched distance rows so
    carriers with ~10^6 vertices stay cheap.
    """
    member = aug.family[alpha]
    members = list(member.vertices)
    n = aug.depth
    wl = ball.word_lengths

    pairs = []  # (local index, local index)
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            d_word = int(local_dmat[i][j])
            if is_interior_pair(wl[members[i]], wl[members[j]], d_word, radius):
                pairs.append((i, j))
    if not pairs:
        return ParabolicScan(0, [], 0, 0, 0)

    endpoints = sorted({i for p in pairs for i in p})
    top_ids = [aug.horo_vertex(alpha, members[i], n) for i in range(len(members))]
    local_of = {i: k for k, i in enumerate(endpoints)}

    rows_top = distance_rows(aug.carrier, [top_ids[i] for i in endpoints])
    in_set = np.zeros(aug.carrier.num_vertices, dtype=bool)
    in_set[top_ids] = True

    to_set = None

    def dist_to_set(w: int) -> int:
        nonlocal to_set
        if to_set is None:
            to_set = DistanceOracle(aug.carrier).distance_to_set(top_ids)
        return int(to_set[w])

    defect = 0
    witnesses: list[tuple[int, int, int]] = []
    quasi = 0
    for i, j in pairs:
        ru = rows_top[local_of[i]]
        rv = rows_top[local_of[j]]
        d = int(ru[top_ids[j]])
        hits = np.nonzero((ru + rv == d) & ~in_set)[0]
        for w in hits:
            defect = max(defect, dist_to_set(int(w)))
            if len(witnesses) < witness_cap:
                witnesses.append((top_ids[i], top_ids[j], int(w)))
        if geodesic_cap:
            paths, _ = enumerate_geodesics(
                aug.carrier, top_ids[i], top_ids[j], cap=geodesic_cap, dist_to_target=rv
            )
            for p in paths:
                strays = [w for w in p.vertices if not in_set[w]]
                if strays:
                    quasi = max(quasi, max(dist_to_set(w) for w in strays))

    drop_excess = 0
    if check_level_drop:
        rows_bottom = distance_rows(aug.carrier, [members[i] for i in endpoints])
        for i, j in pairs:
            d0 = int(rows_bottom[local_of[i]][members[j]])
            dn = int(rows_top[local_of[i]][top_ids[j]])
            drop_excess = max(drop_excess, abs(d0 - dn) - 2 * n)

    return ParabolicScan(
        defect=defect,
        witnesses=witnesses,
        pairs_checked=len(pairs),
        quasiconvexity=quasi,
        level_drop_excess=drop_excess,
    )


def _sample_cosets(family, factor_of, identity_indices, per_factor: int) -> list[int]:
    """Deterministic translation cross-check sample per factor: the first
    non-identity coset (shortest representative, the most expensive kind) and
    the last few (deepest representatives, the cheapest)."""
    picked: list[int] = []
    if per_factor < 1:
        return picked
    skip = set(identity_indices)
    for f in sorted(set(factor_of)):
        # family order within a factor is (rep word length, rep normal form);
        # only cosets with at least two members can have pairs to check
        candidates = [
            a for a in range(len(family))
            if factor_of[a] == f and a not in skip and len(family[a].vertices) >= 2
        ]
        if not candidates:
            continue
        picked.append(candidates[0])
        if per_factor > 1:
            picked.extend(candidates[-(per_factor - 1):])
    return sorted(dict.fromkeys(picked))


def convexify_experiment(
    spec: GroupSpec,
    radius: int,
    depths: Sequence[int],
    budget: int = DEFAULT_BALL_BUDGET,
    verify_cosets: int = 3,
    geodesic_cap: int = 32,
) -> list[dict]:
    """Defect of the top-level parabolics of the depth-n augmentation, one
    row per n.

    Measured exactly on the identity coset of each factor, whose interior
    pair set covers (by translation) every interior configuration of every
    other coset; a deterministic sample of translated cosets is re-scanned
    as a cross-check and folded into the reported maximum.
    """
    if spec.kind != "free_product":
        raise InputError("the convexification experiment needs a free product")
    ball = cayley_ball(spec, radius, max_vertices=budget)
    family, factor_of, identity_indices = parabolic_family(ball)
    dmats = family_distance_matrices(ball.graph, family)
    sampled = _sample_cosets(family, factor_of, identity_indices, verify_cosets)

    rows = []
    for n in sorted(depths):
        aug = build_augmented(ball.graph, family, n, family_distances=dmats)
        defect = 0
        pairs = 0
        quasi = 0
        witnesses: list[tuple[int, int, int]] = []
        translation_ok = True
        identity_defect = 0
        for alpha in identity_indices:
            scan = scan_parabolic(aug, ball, alpha, dmats[alpha], radius, geodesic_cap=geodesic_cap)
            identity_defect = max(identity_defect, scan.defect)
            defect = max(defect, scan.defect)
            pairs += scan.pairs_checked
            quasi = max(quasi, scan.quasiconvexity)
            witnesses.extend(scan.witnesses[: 10 - len(witnesses)])
        for alpha in sampled:
            scan = scan_parabolic(aug, ball, alpha, dmats[alpha], radius, geodesic_cap=geodesic_cap)
            if scan.defect > identity_defect:
                translation_ok = False
            defect = max(defect, scan.defect)
            pairs += scan.pairs_checked
        rows.append({
            "n": n,
            "defect": defect,
            "witnesses": [list(w) for w in witnesses],
            "pairs_checked": pairs,
            "quasiconvexity": quasi,
            "carrier_vertices": aug.carrier.num_vertices,
            "translation_check": "ok" if translation_ok else "exceeded",
            "generating_set": list(spec.generator_names),
        })
    return rows


def convexify_gate(rows: Sequence[dict]) -> None:
    """The structural gate on a convexification table: the defect column must
    be non-increasing in n and must reach 0 within the scanned range."""
    defects = [r["defect"] for r in rows]
    for a, b in zip(defects, defects[1:]):
        if b > a:
            raise PropertyViolation(f"defect column increased: {defects}")
    if all(d > 0 for d in defects):
        raise PropertyViolation(f"defect never reached 0 within the depth range: {defects}")


def milnor_svarc_experiment(
    spec: GroupSpec,
    depth: int,
    t_list: Sequence[int],
    radius: int,
    budget: int = DEFAULT_BALL_BUDGET,
) -> list[dict]:
    """Displacement generating sets S_t and the multiplicative fit K_t of
    g -> g·x0 from (G, t·d_{S_t}) into the depth-``depth`` augmentation.

    One row per t, measured over ball-interior element pairs with additive
    budget C = t.
    """
    ball = cayley_ball(spec, radius, max_vertices=budget)
    family, _, _ = parabolic_family(ball)
    dmats = family_distance_matrices(ball.graph, family)
    aug = build_augmented(ball.graph, family, depth, family_distances=dmats)

    n_el = ball.graph.num_vertices
    element_ids = np.arange(n_el)
    # carrier distances between group elements (element vertices keep ids 0..n_el-1)
    d_aug = distance_rows(aug.carrier, range(n_el), columns=element_ids)
    displacement = [int(d_aug[0][i]) for i in range(n_el)]
    orbit = [(g, displacement[i]) for i, g in enumerate(ball.elements)]

    # interior pairs in the word metric of the ball itself
    wl = np.asarray(ball.word_lengths, dtype=np.int32)
    d_word = distance_rows(ball.graph, range(n_el))
    iu, iv = np.nonzero(np.triu(np.minimum.outer(wl, wl) + d_word <= radius, k=1))
    pair_idx = (iu.astype(np.int64), iv.astype(np.int64))

    factor_generators = []
    if spec.kind == "free_product":
        factor_generators = [g for _, g in spec.generators()]

    rows = []
    for t in t_list:
        try:
            s_t = displacement_generating_set(orbit, t)
        except InputError as exc:
            rows.append({
                "t": t, "S_t_size": 0, "K_t": None, "C": t, "pairs_checked": 0,
                "flagged": str(exc), "factor_generators_present": False,
            })
            continue
        s_nontrivial = [g for g in s_t if not g.is_identity()]
        edges = []
        for i, g in enumerate(ball.elements):
            for s in s_nontrivial:
                j = ball.index.get(GroupElement(spec, spec._mul(g.key, s.key)))
                if j is not None and j > i:
                    edges.append((i, j))
        d_st = distance_rows(Graph(n_el, edges), range(n_el))

        domain = d_st[pair_idx]
        image = d_aug[pair_idx]
        fit = qi_distortion(domain.tolist(), image.tolist(), scale=t, additive_budget=t)
        present = all(ball.index.get(g) is not None and displacement[ball.index[g]] <= t
                      for g in factor_generators)
        rows.append({
            "t": t,
            "S_t_size": len(s_t),
            "K_t": str(fit.multiplicative),
            "C": t,
            "pairs_checked": fit.pairs_checked,
            "flagged": None,
            "factor_generators_present": bool(present) if factor_generators else None,
        })
    return rows


# -- the runner ---------------------------------------------------------------


def run_experiment(config: ExperimentConfig, out_dir, export_dot: bool = False) -> Report:
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    artifacts: list[str] = []
    rows: list[dict]

    def write_artifact(name: str, text: str) -> None:
        path = out / name
        path.write_text(text, encoding="utf-8")
        artifacts.append(name)

    graph, ball, digest = build_instance_graph(config.instance)
    kind = config.kind
    params = config.params

    if kind == "build-horoball":
        depth = _int_param(params, "depth")
        h = build_restricted_horoball(graph, depth)
        rows = []
        for k in range(depth + 1):
            level = [v for v in h.level_vertices(k)]
            horizontal = sum(
                1 for u, v in h.carrier.edges
                if h.level_of(int(u)) == k and h.level_of(int(v)) == k
            )
            rows.append({"level": k, "vertices": len(level), "horizontal_edges": horizontal})
        rows.append({"level": "total", "vertices": h.carrier.num_vertices,
                     "horizontal_edges": int(h.carrier.num_edges)})
        write_artifact("horoball.json", canonical_json(graph_to_json(h.carrier)))
        if export_dot:
            write_artifact("horoball.dot", to_dot(h.carrier, name="horoball"))

    elif kind == "augment":
        depth = _int_param(params, "depth")
        if ball is None:
            raise ConfigError("instance", "augment needs a group instance")
        family, factor_of, identity_indices = parabolic_family(ball)
        aug = build_augmented(ball.graph, family, depth,
                              with_meta=ball.graph.num_vertices * (depth + 1) <= 50_000)
        rows = [{
            "family_members": len(family),
            "identity_cosets": len(identity_indices),
            "carrier_vertices": aug.carrier.num_vertices,
            "carrier_edges": int(aug.carrier.num_edges),
            "depth": depth,
        }]
        if aug.carrier.metadata:
            write_artifact("augmented.json", canonical_json(graph_to_json(aug.carrier)))
            if export_dot:
                write_artifact("augmented.dot", to_dot(aug.carrier, name="augmented"))

    elif kind == "delta":
        sample = params.get("sample", "all")
        if sample != "all" and (not isinstance(sample, int) or sample < 1):
            raise ConfigError("params.sample", "must be 'all' or a positive integer")
        target = graph
        if "depth" in params:
            depth = _int_param(params, "depth")
            if ball is None:
                raise ConfigError("params.depth", "augmented delta needs a group instance")
            family, _, _ = parabolic_family(ball)
            target = build_augmented(ball.graph, family, depth).carrier
        est = four_point_delta(target, sample=sample, seed=config.seed)
        rows = [{
            "delta": str(est.delta),
            "quadruples_checked": est.quadruples_checked,
            "exhaustive": est.exhaustive,
            "vertices": target.num_vertices,
        }]

    elif kind == "convexity":
        target = graph
        spec_set = params.get("set")
        if not isinstance(spec_set, dict):
            raise ConfigError("params.set", "must be an object")
        if "depth" in params:
            h = build_restricted_horoball(graph, _int_param(params, "depth"))
            target = h.carrier
            if "level_at_least" in spec_set:
                vertex_set = h.deep_vertices(int(spec_set["level_at_least"]))
            elif "vertices" in spec_set:
                vertex_set = list(spec_set["vertices"])
            else:
                raise ConfigError("params.set", "need level_at_least or vertices")
        elif "vertices" in spec_set:
            vertex_set = list(spec_set["vertices"])
        else:
            raise ConfigError("params.set", "need vertices (or a horoball depth)")
        pair_filter = None
        if "interior" in params:
            inter = params["interior"]
            pair_filter = InteriorFilter(int(inter["basepoint"]), int(inter["radius"]))
        report = convexity_defect(
            target, vertex_set, pair_filter=pair_filter,
            geodesic_cap=int(params.get("geodesic_cap", 64)),
        )
        rows = [{
            "defect": report.defect,
            "convex": report.convex,
            "witnesses": [list(w) for w in report.witnesses[:10]],
            "quasiconvexity": report.quasiconvexity_constant,
            "pairs_checked": report.pairs_checked,
        }]

    elif kind == "shortcut":
        k = Fraction(str(params.get("K", "1")))
        n_list = params.get("n_list")
        if not isinstance(n_list, list) or not n_list:
            raise ConfigError("params.n_list", "must be a nonempty list")
        lam = params.get("lambda")
        if not isinstance(lam, dict):
            raise ConfigError("params.lambda", "must be {lo, hi, step}")
        grid = LambdaGrid.of(str(lam["lo"]), str(lam["hi"]), str(lam.get("step", "1/4")))
        profile, witnesses = shortcut_profile(
            graph, k, n_list, grid,
            node_cap=int(params.get("node_cap", 2_000_000)),
            restrict=params.get("restrict"),
        )
        rows = profile.to_json_rows(witnesses)
        write_artifact("profile.csv", profile.to_csv())

    elif kind == "convexify-experiment":
        if ball is None:
            raise ConfigError("instance", "convexify experiment needs a group instance")
        depths = params.get("depths")
        if not isinstance(depths, list) or not depths:
            raise ConfigError("params.depths", "must be a nonempty list")
        rows = convexify_experiment(
            ball.spec, config.instance["radius"], depths,
            budget=int(params.get("budget", DEFAULT_BALL_BUDGET)),
            verify_cosets=int(params.get("verify_cosets", 3)),
            geodesic_cap=int(params.get("geodesic_cap", 32)),
        )
        convexify_gate(rows)

    elif kind == "milnor-svarc":
        if ball is None:
            raise ConfigError("instance", "milnor-svarc needs a group instance")
        t_list = params.get("t_list")
        if not isinstance(t_list, list) or not t_list:
            raise ConfigError("params.t_list", "must be a nonempty list")
        rows = milnor_svarc_experiment(
            ball.spec, _int_param(params, "depth"), t_list, config.instance["radius"],
            budget=int(params.get("budget", DEFAULT_BALL_BUDGET)),
        )

    else:  # unreachable after validation
        raise ConfigError("experiment", f"unhandled kind {kind}")

    report = Report(
        config=config,
        environment={"tool": "horolab", "version": __version__, "instance_hash": digest},
        rows=rows,
        timings={"total_seconds": round(time.perf_counter() - t0, 6)},
        artifacts=artifacts,
    )
    (out / "report.json").write_text(canonical_json(report.to_json()), encoding="utf-8")
    return report


def _int_param(params: dict, key: str) -> int:
    value = params.get(key)
    if not isinstance(value, int) or value < 1:
        raise ConfigError(f"params.{key}", "must be a positive integer")
    return value
