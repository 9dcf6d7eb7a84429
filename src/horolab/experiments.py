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
    SubgraphFamily,
    cycle_graph,
    distance_rows,
    grid_graph,
    neighborhood_subgraph,
    path_graph,
)
from .groups import DEFAULT_BALL_BUDGET, CayleyBall, GroupSpec, cayley_ball
from .horoball import (
    AugmentedSpace,
    build_restricted_horoball,
    crossing_distance,
    glue_horoballs,
    member_shapes,
)
from .io import carrier_labels, canonical_json, read_graph, sha256_of, to_dot, write_carrier, write_json
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
    diagnostics: dict  # how much work the rows took and which numbers are bounds

    def to_json(self) -> dict:
        return {
            "config": self.config.echo(),
            "environment": self.environment,
            "rows": self.rows,
            "diagnostics": self.diagnostics,
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
        if not _is_count(instance.get("radius"), 1):
            raise ConfigError("instance.radius", "group instances need a positive radius")
        try:
            GroupSpec.from_json(instance["group"])
        except InputError as exc:
            raise ConfigError("instance.group", str(exc)) from exc
    elif "radius" in instance:
        raise ConfigError("instance.radius", "only valid with a group instance")
    if "path" in instance and not _is_count(instance["path"], 0):
        raise ConfigError("instance.path", "must be a nonnegative integer")
    if "cycle" in instance and not _is_count(instance["cycle"], 3):
        raise ConfigError("instance.cycle", "must be an integer >= 3")
    if "grid" in instance:
        grid = instance["grid"]
        if not (isinstance(grid, list) and len(grid) == 2 and all(_is_count(x, 1) for x in grid)):
            raise ConfigError("instance.grid", "must be [rows, cols] with positive integers")

    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params", "must be an object")
    for key in params:
        if key not in _PARAM_KEYS[kind]:
            raise ConfigError(f"params.{key}", f"unknown parameter for {kind}")

    seed = obj.get("seed", 0)
    if not _is_count(seed, 0):
        raise ConfigError("seed", "must be a nonnegative integer")
    return ExperimentConfig(kind=kind, instance=instance, params=params, seed=seed)


def build_instance_graph(
    instance: dict, max_vertices: int = DEFAULT_BALL_BUDGET
) -> tuple[Graph, CayleyBall | None, str]:
    """Realize the instance; returns (graph, ball or None, stable hash).
    A group instance's ball may hold at most ``max_vertices`` elements."""
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
    ball = cayley_ball(spec, instance["radius"], max_vertices=max_vertices)
    return ball.graph, ball, digest


def parabolic_family(ball: CayleyBall) -> tuple[SubgraphFamily, list[int], list[int]]:
    """The coset family a Cayley ball is augmented over.

    Free products use every coset of every factor, ``ball.cosets``; any other
    group is its own single parabolic (relative hyperbolicity is trivial
    there, which is exactly what e.g. the Milnor-Svarc baseline wants).
    Returns (family, factor index per member, family indices of the
    identity cosets).
    """
    if ball.spec.kind != "free_product":
        return SubgraphFamily.whole(ball.graph), [0], [0]
    family = ball.cosets
    factor_of = ball.coset_factors.tolist()
    # a coset's first member is its representative, and e is ball index 0
    identity_members = np.nonzero(family.vertices[family.offsets[:-1]] == 0)[0].tolist()
    return family, factor_of, identity_members


def _shaped_family(ball: CayleyBall, timings: dict | None) -> tuple:
    """``parabolic_family`` and the ``member_shapes`` table of its members,
    timed as ``family_s`` in ``timings`` (when given)."""
    t = time.perf_counter()
    family, factor_of, identity_members = parabolic_family(ball)
    shapes = member_shapes(ball.graph, family)
    if timings is not None:
        timings["family_s"] = _since(t)
    return family, factor_of, identity_members, shapes


def _since(t: float) -> float:
    return round(time.perf_counter() - t, 6)


@dataclass
class ParabolicScan:
    """Betweenness-convexity measurements for one parabolic (a coset's top
    level) over its ball-interior pairs."""

    defect: int
    witnesses: list[tuple[int, int, int]]  # carrier ids
    pairs_checked: int
    quasiconvexity: int
    level_drop_excess: int  # max over pairs of |d_bottom - d_top| - 2n, at least 0
    level_drop: int = 0  # max over pairs of |d_bottom - d_top|
    local_vertices: int = 0  # vertices of the neighborhood the scan ran on
    truncated_pairs: int = 0  # pairs with more geodesics than the cap


def scan_parabolic(
    aug: AugmentedSpace,
    basepoint_row: Sequence[int],
    radius: int,
    alpha: int,
    geodesic_cap: int = 32,
    check_level_drop: bool = False,
) -> ParabolicScan:
    """Exact scan of one coset horoball's top level S, inside a neighborhood
    of S rather than the whole carrier.

    Interior pairs (u, v) of member ``alpha`` satisfy min(o(u), o(v)) + D <=
    ``radius``, with o the basepoint row over base vertices (word lengths in
    a Cayley ball) and D the member metric; in a ball of that radius the
    relevant geodesics stay inside the carrier.  Level n joins copies at
    member distance <= 2^n, so the top copies of a pair are at most
    R = max ceil(D / 2^n) apart.  Every betweenness witness and every vertex
    of a geodesic between the copies is then within floor(R/2) of the pair,
    and so is every shortest path from a witness back to S.  The scan
    (``analysis.convexity_defect``) therefore runs on the subgraph induced on
    N_floor(R/2)(S): its distances are never shorter than the carrier's, so
    it adds no witness, and equal along all of those paths, so it loses
    none.  A pair's geodesics are the same paths there, so are its interval
    and its geodesic count, and with them the quasiconvexity term of every
    pair with at most ``geodesic_cap`` geodesics.  Only the pairs over the
    cap are enumerated; local ids follow carrier order, which keeps that
    capped enumeration the same.  Witnesses are mapped back to carrier ids.
    The check of the level drop takes the bottom distances (d_0 <= D) from a
    second neighborhood, of radius floor(max D / 2) around the bottom copies
    of the pairs, and the top ones from the scan's rows in one gather.
    """
    members = np.asarray(aug.family[alpha].vertices, dtype=np.int64)
    n = aug.depth
    dmat = aug.member_metric(alpha)
    wl = np.array([basepoint_row[v] for v in members.tolist()])
    iu, iv = np.nonzero(np.triu(np.minimum.outer(wl, wl) + dmat <= radius, k=1))
    if not len(iu):
        return ParabolicScan(0, [], 0, 0, 0)

    top = np.asarray(aug.level_vertices(alpha, n))
    d_max = int(dmat[iu, iv].max())
    sub, ids = neighborhood_subgraph(aug.carrier, top, -(-d_max // 2**n) // 2)  # floor(R/2)
    local = np.searchsorted(ids, top)
    oracle = DistanceOracle(sub)
    report = convexity_defect(sub, local, pairs=np.stack([local[iu], local[iv]], axis=1),
                              oracle=oracle, geodesic_cap=geodesic_cap)

    drop = 0
    if check_level_drop:
        ends = np.unique(np.concatenate([iu, iv]))
        sub0, ids0 = neighborhood_subgraph(aug.carrier, members[ends], d_max // 2)
        local0 = np.searchsorted(ids0, members)
        sources, row_of = np.unique(iu, return_inverse=True)
        d0 = distance_rows(sub0, local0[sources])[row_of, local0[iv]]
        dn = oracle.rows(local[sources])[row_of, local[iv]]
        drop = int(np.abs(d0 - dn).max())

    return ParabolicScan(
        defect=report.defect,
        witnesses=[(int(ids[u]), int(ids[v]), int(ids[w])) for u, v, w in report.witnesses],
        pairs_checked=report.pairs_checked,
        quasiconvexity=report.quasiconvexity_constant,
        level_drop_excess=max(0, drop - 2 * n),
        level_drop=drop,
        local_vertices=sub.num_vertices,
        truncated_pairs=report.truncated_pairs,
    )


def _sample_cosets(family, factor_of, identity_indices, per_factor: int) -> list[int]:
    """Deterministic translation cross-check sample per factor: the first
    non-identity coset (shortest representative, the most expensive kind) and
    the last few (deepest representatives, the cheapest)."""
    picked: list[int] = []
    if per_factor < 1:
        return picked
    skip = set(identity_indices)
    sizes = family.sizes.tolist()
    for f in sorted(set(factor_of)):
        # family order within a factor is (rep word length, rep normal form);
        # only cosets with at least two members can have pairs to check
        candidates = [
            a for a in range(len(family))
            if factor_of[a] == f and a not in skip and sizes[a] >= 2
        ]
        if not candidates:
            continue
        picked.append(candidates[0])
        if per_factor > 1:
            picked.extend(candidates[-(per_factor - 1):])
    return sorted(dict.fromkeys(picked))


def convexify_experiment(
    ball: CayleyBall,
    depths: Sequence[int],
    verify_cosets: int = 3,
    geodesic_cap: int = 32,
    diagnostics: list[dict] | None = None,
    timings: dict | None = None,
) -> list[dict]:
    """Defect of the top-level parabolics of the depth-n augmentation of
    ``ball``, one row per n.

    Measured exactly on the identity coset of each factor, whose interior
    pair set covers (by translation) every interior configuration of every
    other coset; a deterministic sample of translated cosets is re-scanned
    as a cross-check and folded into the reported maximum.  A
    ``diagnostics`` list receives one entry per n: the vertices of the
    neighborhoods scanned, summed, and the pairs with more than
    ``geodesic_cap`` geodesics (where quasiconvexity is only a lower bound).
    A ``timings`` dict receives ``family_s`` (see ``_shaped_family``).
    """
    spec = ball.spec
    if spec.kind != "free_product":
        raise InputError("the convexification experiment needs a free product")
    family, factor_of, identity_indices, shapes = _shaped_family(ball, timings)
    sampled = _sample_cosets(family, factor_of, identity_indices, verify_cosets)

    rows = []
    for n in sorted(depths):
        aug = glue_horoballs(ball.graph, family, shapes, n)
        scans = {alpha: scan_parabolic(aug, ball.word_lengths, ball.radius, alpha,
                                       geodesic_cap=geodesic_cap)
                 for alpha in identity_indices + sampled}
        identity = [scans[alpha] for alpha in identity_indices]
        identity_defect = max((scan.defect for scan in identity), default=0)
        witnesses = [w for scan in identity for w in scan.witnesses][:10]
        rows.append({
            "n": n,
            "defect": max((scan.defect for scan in scans.values()), default=0),
            "witnesses": [list(w) for w in witnesses],
            "pairs_checked": sum(scan.pairs_checked for scan in scans.values()),
            "quasiconvexity": max((scan.quasiconvexity for scan in identity), default=0),
            "carrier_vertices": aug.carrier.num_vertices,
            "translation_check": ("ok" if all(scans[alpha].defect <= identity_defect
                                              for alpha in sampled) else "exceeded"),
            "generating_set": list(spec.generator_names),
        })
        if diagnostics is not None:
            diagnostics.append({
                "n": n,
                "local_carrier_vertices": sum(scan.local_vertices for scan in scans.values()),
                "geodesic_cap_hits": sum(scan.truncated_pairs for scan in scans.values()),
            })
        del aug  # so that the next depth's carrier is not built beside this one
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


def milnor_svarc_experiment(ball: CayleyBall, depth: int, t_list: Sequence[int],
                            timings: dict | None = None,
                            diagnostics: list[dict] | None = None) -> list[dict]:
    """Displacement generating sets S_t and the multiplicative fit K_t of
    g -> g·x0 from (G, t·d_{S_t}) into the depth-``depth`` augmentation of
    ``ball``.

    One row per t, measured over ball-interior element pairs with additive
    budget C = t.

    The augmented distances between group elements come from the paper's
    formula where it applies.  A group that is not a free product is its
    own single parabolic, so the whole ball is the one family member and the
    carrier is one horoball over the ball; its level-0 distances are the
    crossing-level formula ``horoball.crossing_distance`` at levels (0, 0)
    over the word-metric table, and no carrier is built.  Free products
    build the carrier and take its BFS rows.  The tests check the formula
    against carrier BFS.

    The S_t graph joins g to g·s for s in S_t.  Every S_t is found first, so
    that one ``CayleyBall.right_translations`` call gives the translation
    rows of all their elements, and one numpy mask over an S_t's rows gives
    its edges.  An S_t graph whose canonical edges equal the word ball's or
    the previous S_t graph's reuses that distance table.

    ``timings`` (when given) receives ``word_rows_s``, ``translations_s``
    and ``st_rows_s``, and for free products the ``family_s`` of their coset
    family.  ``diagnostics`` (when given) receives one entry per distance
    table: the graph, the ``distance_rows`` kernel (or ``"reused"``) and
    its level bound.
    """
    spec, radius = ball.spec, ball.radius
    n_el = ball.graph.num_vertices
    timings = {} if timings is None else timings
    diagnostics = [] if diagnostics is None else diagnostics

    t0 = time.perf_counter()
    word = {"graph": "word"}
    d_word = distance_rows(ball.graph, range(n_el), info=word)
    diagnostics.append(word)
    timings["word_rows_s"] = _since(t0)

    if spec.kind != "free_product":
        d_aug = crossing_distance(d_word, 0, 0, depth)
    else:
        family, _, _, shapes = _shaped_family(ball, timings)
        aug = glue_horoballs(ball.graph, family, shapes, depth)
        # element vertices keep ids 0..n_el-1 in the carrier
        carrier = {"graph": "carrier"}
        d_aug = distance_rows(aug.carrier, range(n_el), columns=np.arange(n_el), info=carrier)
        diagnostics.append(carrier)
    displacement = d_aug[0].tolist()
    orbit = list(zip(ball.elements, displacement))

    # interior pairs in the word metric of the ball itself
    wl = np.asarray(ball.word_lengths, dtype=np.int32)
    pair_idx = np.nonzero(np.triu(np.minimum.outer(wl, wl) + d_word <= radius, k=1))

    factor_generators = []
    if spec.kind == "free_product":
        factor_generators = [g for _, g in spec.generators()]

    s_sets: dict[int, tuple | InputError] = {}
    for t in t_list:
        try:
            s_sets[t] = displacement_generating_set(orbit, t)
        except InputError as exc:
            s_sets[t] = exc
    t0 = time.perf_counter()
    shifts = {s.key: s for s_t in s_sets.values() if not isinstance(s_t, InputError)
              for s in s_t if not s.is_identity()}
    row_of = {key: r for r, key in enumerate(shifts)}
    translations = ball.right_translations(list(shifts.values()))
    timings["translations_s"] = _since(t0)

    vid = np.arange(n_el, dtype=np.int32)
    word_table = previous = (ball.graph.edges, d_word, word)
    st_seconds = 0.0
    rows = []
    for t in t_list:
        s_t = s_sets[t]
        if isinstance(s_t, InputError):
            rows.append({
                "t": t, "S_t_size": 0, "K_t": None, "C": t, "pairs_checked": 0,
                "flagged": str(s_t), "factor_generators_present": False,
            })
            continue
        t0 = time.perf_counter()
        targets = translations[[row_of[s.key] for s in s_t if not s.is_identity()]]
        keep = targets > vid  # j > i, which also drops the -1 of a product outside the ball
        g_t = Graph(n_el, np.stack([np.broadcast_to(vid, targets.shape)[keep], targets[keep]], axis=1))
        info = {"graph": f"S_{t}"}
        same = next((table for table in (word_table, previous) if np.array_equal(g_t.edges, table[0])), None)
        if same is None:
            d_st = distance_rows(g_t, range(n_el), info=info)
        else:
            d_st = same[1]
            info.update(kernel="reused", levels=same[2]["levels"])
        diagnostics.append(info)
        previous = (g_t.edges, d_st, info)
        st_seconds += time.perf_counter() - t0

        fit = qi_distortion(d_st[pair_idx], d_aug[pair_idx], scale=t, additive_budget=t)
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
    timings["st_rows_s"] = round(st_seconds, 6)
    return rows


# -- the runner ---------------------------------------------------------------

# Largest carrier, in vertices, that ``augment`` writes out as augmented.json.
# Above it the report's diagnostics say the artifact was skipped, and why.
_AUGMENT_ARTIFACT_MAX_VERTICES = 50_000


def run_experiment(config: ExperimentConfig, out_dir, export_dot: bool = False) -> Report:
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    artifacts: list[str] = []
    diagnostics: dict = {}
    timings: dict = {}
    rows: list[dict]

    def artifact(name: str) -> pathlib.Path:
        artifacts.append(name)
        return out / name

    def carrier_artifacts(space, stem: str) -> None:
        """``<stem>.json`` (and ``<stem>.dot``) of a carrier, written from its
        provenance columns and timed as ``artifacts_s``."""
        t = time.perf_counter()
        kind, alpha, base_vertex, level = space.columns
        write_carrier(artifact(f"{stem}.json"), space.carrier.edges, space.base.labels,
                      kind, alpha, base_vertex, level)
        if export_dot:
            labels = carrier_labels(space.base.labels, kind, base_vertex, level)
            artifact(f"{stem}.dot").write_text(to_dot(space.carrier, name=stem, levels=level, labels=labels),
                                               encoding="utf-8")
        timings["artifacts_s"] = _since(t)

    kind = config.kind
    params = config.params
    t = time.perf_counter()
    graph, ball, digest = build_instance_graph(
        config.instance, max_vertices=_int_param(params, "budget", DEFAULT_BALL_BUDGET))
    timings["instance_s"] = _since(t)

    if kind == "build-horoball":
        depth = _int_param(params, "depth")
        h = build_restricted_horoball(graph, depth)
        lv = h.carrier.edges // graph.num_vertices
        horizontal = np.bincount(lv[lv[:, 0] == lv[:, 1], 0], minlength=depth + 1)
        rows = [{"level": k, "vertices": len(h.level_vertices(k)),
                 "horizontal_edges": int(horizontal[k])} for k in range(depth + 1)]
        rows.append({"level": "total", "vertices": h.carrier.num_vertices,
                     "horizontal_edges": int(h.carrier.num_edges)})
        carrier_artifacts(h, "horoball")

    elif kind == "augment":
        depth = _int_param(params, "depth")
        if ball is None:
            raise ConfigError("instance", "augment needs a group instance")
        family, _, identity_indices, shapes = _shaped_family(ball, timings)
        # the carrier holds the base plus depth copies of every member
        carrier_vertices = ball.graph.num_vertices + depth * len(family.vertices)
        aug = glue_horoballs(ball.graph, family, shapes, depth)
        rows = [{
            "family_members": len(family),
            "identity_cosets": len(identity_indices),
            "carrier_vertices": aug.carrier.num_vertices,
            "carrier_edges": int(aug.carrier.num_edges),
            "depth": depth,
        }]
        if carrier_vertices <= _AUGMENT_ARTIFACT_MAX_VERTICES:
            carrier_artifacts(aug, "augmented")
        else:
            diagnostics["artifact_skipped"] = {
                "name": "augmented.json", "carrier_vertices": carrier_vertices,
                "max_vertices": _AUGMENT_ARTIFACT_MAX_VERTICES}

    elif kind == "delta":
        sample = params.get("sample", "all")
        if sample != "all" and not _is_count(sample, 1):
            raise ConfigError("params.sample", "must be 'all' or a positive integer")
        target = graph
        if "depth" in params:
            depth = _int_param(params, "depth")
            if ball is None:
                raise ConfigError("params.depth", "augmented delta needs a group instance")
            family, _, _, shapes = _shaped_family(ball, timings)
            target = glue_horoballs(ball.graph, family, shapes, depth).carrier
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
                vertex_set = h.deep_vertices(_int_param(spec_set, "level_at_least", where="set."))
            elif "vertices" in spec_set:
                vertex_set = _int_list_param(spec_set, "vertices", least=None, where="set.")
            else:
                raise ConfigError("params.set", "need level_at_least or vertices")
        elif "vertices" in spec_set:
            vertex_set = _int_list_param(spec_set, "vertices", least=None, where="set.")
        else:
            raise ConfigError("params.set", "need vertices (or a horoball depth)")
        pair_filter = None
        if "interior" in params:
            inter = params["interior"]
            if not isinstance(inter, dict):
                raise ConfigError("params.interior", "must be {basepoint, radius}")
            pair_filter = InteriorFilter(_int_param(inter, "basepoint", least=0, where="interior."),
                                         _int_param(inter, "radius", least=0, where="interior."))
        report = convexity_defect(
            target, vertex_set, pair_filter=pair_filter,
            geodesic_cap=_int_param(params, "geodesic_cap", 64, least=0),
        )
        rows = [{
            "defect": report.defect,
            "convex": report.convex,
            "witnesses": [list(w) for w in report.witnesses[:10]],
            "quasiconvexity": report.quasiconvexity_constant,
            "pairs_checked": report.pairs_checked,
        }]
        diagnostics["geodesic_cap_hits"] = report.truncated_pairs

    elif kind == "shortcut":
        k = _fraction_param("K", params.get("K", "1"))
        n_list = _int_list_param(params, "n_list", least=3)
        lam = params.get("lambda")
        if not isinstance(lam, dict) or "lo" not in lam or "hi" not in lam:
            raise ConfigError("params.lambda", "must be {lo, hi, step}")
        grid = LambdaGrid(*(_fraction_param(f"lambda.{key}", lam.get(key, "1/4"))
                            for key in ("lo", "hi", "step")))
        restrict = params.get("restrict")
        if restrict is not None and not (isinstance(restrict, list) and all(map(_is_int, restrict))):
            raise ConfigError("params.restrict", "must be a list of vertex ids")
        profile, witnesses = shortcut_profile(
            graph, k, n_list, grid,
            node_cap=_int_param(params, "node_cap", 2_000_000),
            restrict=restrict,
        )
        rows = profile.to_json_rows(witnesses)
        artifact("profile.csv").write_text(profile.to_csv(), encoding="utf-8")

    elif kind == "convexify-experiment":
        if ball is None:
            raise ConfigError("instance", "convexify experiment needs a group instance")
        rows = convexify_experiment(
            ball, _int_list_param(params, "depths"),
            verify_cosets=_int_param(params, "verify_cosets", 3, least=0),
            geodesic_cap=_int_param(params, "geodesic_cap", 32, least=0),
            diagnostics=diagnostics.setdefault("depths", []),
            timings=timings,
        )
        convexify_gate(rows)

    elif kind == "milnor-svarc":
        if ball is None:
            raise ConfigError("instance", "milnor-svarc needs a group instance")
        rows = milnor_svarc_experiment(
            ball, _int_param(params, "depth"), _int_list_param(params, "t_list", least=0), timings,
            diagnostics.setdefault("distance_tables", []))

    else:  # unreachable after validation
        raise ConfigError("experiment", f"unhandled kind {kind}")

    report = Report(
        config=config,
        environment={"tool": "horolab", "version": __version__, "instance_hash": digest},
        rows=rows,
        timings={"total_seconds": _since(t0), **timings},
        artifacts=artifacts,
        diagnostics=diagnostics,
    )
    write_json(report.to_json(), out / "report.json")
    return report


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value, least: int) -> bool:
    return _is_int(value) and value >= least


def _fraction_param(key: str, value) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"params.{key}", f"not a rational number: {value!r}") from None


def _int_param(params: dict, key: str, default: int | None = None, least: int = 1,
               where: str = "") -> int:
    """``params[key]`` (or ``default`` when absent) as an integer >= ``least``."""
    value = params.get(key, default)
    if not _is_count(value, least):
        raise ConfigError(f"params.{where}{key}", f"must be an integer >= {least}")
    return value


def _int_list_param(params: dict, key: str, least: int | None = 1, where: str = "") -> list[int]:
    """``params[key]`` as a nonempty list of integers, each >= ``least``
    unless ``least`` is None."""
    value = params.get(key)
    if not (isinstance(value, list) and value
            and all(_is_int(x) and (least is None or x >= least) for x in value)):
        bound = "" if least is None else f" >= {least}"
        raise ConfigError(f"params.{where}{key}", f"must be a nonempty list of integers{bound}")
    return value
