"""Experiment pipelines and the JSON report they produce.

A config is a single versioned JSON object; unknown fields are rejected so a
stale config never silently drifts.  Reports echo the config as given,
stamp the instance, and keep result rows separate from timings: identical
(config, seed) must reproduce byte-identical rows.

Two tables drive the runner.  ``INSTANCES`` maps each instance kind to its
parser, its vertex count where that is known before building, and its
builder.  ``KINDS`` maps each experiment kind to its parameter schema (a
parser and a default per field; the ``set``, ``interior`` and ``lambda``
objects have parsers that read their own fields), whether it needs a group
instance, its runner, and a check across its parameters.
``validate_config`` parses the instance and every parameter once, before
any work starts, and refuses counts over their budgets; the runners take
the parsed values and raise no ``ConfigError``.
"""

from __future__ import annotations

import math
import pathlib
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .analysis import (
    ConvexityReport,
    InteriorFilter,
    _check_exhaustive,
    _check_scan,
    convexity_defect,
    displacement_generating_set,
    four_point_delta,
    qi_distortion,
)
from .errors import ConfigError, InputError, PropertyViolation, ResourceLimitError, check_budget
from .graph import (
    DistanceOracle,
    Graph,
    SubgraphFamily,
    check_table,
    cycle_graph,
    distance_rows,
    grid_graph,
    is_interior_pair,
    neighborhood_subgraph,
    path_graph,
    unique_ints,
)
from .groups import DEFAULT_BALL_BUDGET, CayleyBall, GroupSpec, cayley_ball
from .horoball import (
    AugmentedSpace,
    build_restricted_horoball,
    crossing_distance,
    glue_horoballs,
)
from .io import carrier_labels, canonical_json, graph_from_json, read_json, sha256_of, to_dot, write_carrier, write_json
from .shortcut import LambdaGrid, shortcut_profile


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    instance: dict  # as given, echoed in the report
    params: dict  # as given, echoed in the report
    seed: int
    values: dict  # params parsed by ``validate_config``, defaults filled in

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
    """Check a config object, and parse its instance and every parameter."""
    if not isinstance(obj, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    extra = sorted(set(obj) - {"version", "experiment", "instance", "params", "seed"})
    if extra:
        raise ConfigError(extra[0], "unknown config field")
    if not _is_int(obj.get("version")) or obj["version"] != 1:
        raise ConfigError("version", f"expected 1, got {obj.get('version')!r}")
    name = obj.get("experiment")
    if not isinstance(name, str) or name not in KINDS:
        raise ConfigError("experiment", f"unknown experiment kind {name!r}")
    kind, instance, seed = KINDS[name], obj.get("instance"), obj.get("seed", 0)
    key, _ = _parse_instance(instance)
    if not _is_count(seed, 0):
        raise ConfigError("seed", "must be a nonnegative integer")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params", "must be an object")
    values = _parse_fields(kind.params, params, "params", f"unknown parameter for {name}")
    if kind.needs_group and key != "group":
        raise ConfigError("instance", f"{name} needs a group instance")
    if kind.check is not None:
        kind.check(values)
    return ExperimentConfig(name, instance, params, seed, values)


# -- parsers --------------------------------------------------------------------
#
# A parser takes (value, path) and returns the parsed value, or raises
# ``ConfigError`` at the path (``ResourceLimitError`` for a count over its
# budget).  Instance parsers also get the instance object.

REQUIRED = object()  # the default of a field that must be given


def _parse_fields(fields: dict[str, tuple], obj: dict, where: str, unknown: str = "unknown field") -> dict:
    """The fields of ``obj`` at path ``where``, parsed with the (parser,
    default) of each field.  A missing field takes its default as it
    stands, and a missing ``REQUIRED`` one goes to its parser as None."""
    for key in obj:
        if key not in fields:
            raise ConfigError(f"{where}.{key}", unknown)
    return {key: parse(obj.get(key), f"{where}.{key}") if key in obj or default is REQUIRED else default
            for key, (parse, default) in fields.items()}


def _object(fields: dict[str, tuple], value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "must be {" + ", ".join(fields) + "}")
    return _parse_fields(fields, value, path)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value, least: int) -> bool:
    return _is_int(value) and value >= least


def _checked(ok: Callable[[Any], bool], message: str) -> Callable:
    """A parser that returns a value ``ok`` accepts and refuses any other."""
    def parse(value, path: str, *_):
        if not ok(value):
            raise ConfigError(path, message)
        return value
    return parse


def _integer(least: int) -> Callable:
    return _checked(lambda v: _is_count(v, least), f"must be an integer >= {least}")


def _integers(least: int | None = None) -> Callable:
    """A nonempty list of integers, each >= ``least`` unless it is None."""
    return _checked(lambda v: isinstance(v, list) and v != [] and all(
                        _is_int(x) and (least is None or x >= least) for x in v),
                    "must be a nonempty list of integers" + ("" if least is None else f" >= {least}"))


def _sample(value, path: str):
    if value != "all" and not _is_count(value, 1):
        raise ConfigError(path, "must be 'all' or a positive integer")
    check_budget("count", 0 if value == "all" else value, f"{path}: {value} sampled quadruples exceed")
    return value


def _cycle_lengths(value, path: str) -> list[int]:
    value = _integers(3)(value, path)
    check_budget("count", max(value) ** 2, f"{path}: {max(value) ** 2} cycle-table cells exceed")
    return value


# Most bits a rational parameter's numerator or denominator may have: rows
# spell them out in decimal, which Python refuses past 4,300 digits, and
# ``Fraction`` expands an exponent such as 1e10000000 before any check.
_RATIONAL_BITS = 10_000


def _rational(value, path: str) -> Fraction:
    # the exponent as ``Fraction`` reads it: surrounding space and
    # underscores between digits allowed
    exponent = str(value).strip().lower().partition("e")[2].lstrip("+-").replace("_", "")
    if exponent.isdecimal() and (len(exponent) > 5 or int(exponent) > _RATIONAL_BITS):
        raise ResourceLimitError(f"{path}: the exponent of {value!r} is over {_RATIONAL_BITS}")
    try:
        q = Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(path, f"not a rational number: {value!r}") from None
    if max(q.numerator.bit_length(), q.denominator.bit_length()) > _RATIONAL_BITS:
        raise ResourceLimitError(f"{path}: {value!r} has more than {_RATIONAL_BITS} bits")
    return q


_SET = {"level_at_least": (_integer(1), None), "vertices": (_integers(), None)}
_INTERIOR = {"basepoint": (_integer(0), REQUIRED), "radius": (_integer(0), REQUIRED)}
_LAMBDA = {"lo": (_rational, REQUIRED), "hi": (_rational, REQUIRED), "step": (_rational, Fraction(1, 4))}


def _lambda_grid(value, path: str) -> LambdaGrid:
    grid = LambdaGrid(**_object(_LAMBDA, value, path))
    check_budget("count", grid.size(), f"{path}: {grid.size()} lambda values exceed")
    return grid


# -- instances ------------------------------------------------------------------


def _parse_instance(instance) -> tuple[str, Any]:
    """(instance kind, parsed value) of an instance object."""
    if not isinstance(instance, dict):
        raise ConfigError("instance", "must be an object")
    keys = [key for key in instance if key in INSTANCES]
    if len(keys) != 1:
        raise ConfigError("instance", f"need exactly one of {sorted(INSTANCES)}")
    key = keys[0]
    extra = sorted(set(instance) - {key} - ({"radius"} if key == "group" else set()))
    if extra:
        raise ConfigError(f"instance.{extra[0]}", "unknown instance field")
    return key, INSTANCES[key][0](instance[key], f"instance.{key}", instance)


def _parse_group(value, path: str, instance: dict) -> tuple[GroupSpec, int]:
    if not _is_count(instance.get("radius"), 1):
        raise ConfigError("instance.radius", "group instances need a positive radius")
    try:
        return GroupSpec.from_json(value), instance["radius"]
    except InputError as exc:
        raise ConfigError(path, str(exc)) from exc


def _read_instance(path: str, _) -> tuple[Graph, str]:
    """The graph in a graph file and the text it was parsed from, which the
    instance hash is taken of: the file is read once."""
    obj, text = read_json(path, "graph file")
    g = graph_from_json(obj)
    if g.num_vertices == 0:
        raise InputError("graph file has no vertices")
    return g, text


# instance kind -> (parser (value, path, instance object), vertex count of a
# parsed value where it is known before building, builder (value, ball
# budget) -> graph, Cayley ball, or a graph file's (graph, text))
INSTANCES: dict[str, tuple[Callable, Callable | None, Callable]] = {
    "graph_file": (_checked(lambda v: isinstance(v, str), "must be a file path"), None, _read_instance),
    "path": (_integer(0), lambda n: n + 1, lambda n, _: path_graph(n)),
    "cycle": (_integer(3), lambda n: n, lambda n, _: cycle_graph(n)),
    "grid": (_checked(lambda v: isinstance(v, list) and len(v) == 2 and all(_is_count(x, 1) for x in v),
                      "must be [rows, cols] with positive integers"), lambda rc: rc[0] * rc[1],
             lambda rc, _: grid_graph(*rc)),
    "group": (_parse_group, None, lambda group, budget: cayley_ball(*group, budget)),
}


def build_instance_graph(instance: dict, max_vertices: int = DEFAULT_BALL_BUDGET
                         ) -> tuple[Graph, CayleyBall | None, str]:
    """Realize an instance object: (graph, ball or None, stable hash), with
    at most ``max_vertices`` vertices, which a path, cycle or grid is
    checked against unbuilt."""
    key, value = _parse_instance(instance)
    _, size, build = INSTANCES[key]
    if size is not None and size(value) > max_vertices:
        raise ResourceLimitError(f"{key} of {size(value)} vertices exceeds the budget of "
                                 f"{max_vertices} vertices")
    built = build(value, max_vertices)
    # a graph file is hashed by its text, any other instance by its config
    built, text = built if key == "graph_file" else (built, canonical_json(instance))
    ball = built if isinstance(built, CayleyBall) else None
    return (ball.graph if ball else built), ball, sha256_of(text)


def parabolic_family(ball: CayleyBall, timings: dict | None = None
                     ) -> tuple[SubgraphFamily, np.ndarray, list[int]]:
    """The coset family a Cayley ball is augmented over.

    Free products use every coset of every factor, ``ball.cosets``; any other
    group is its own single parabolic (relative hyperbolicity is trivial
    there, which is exactly what e.g. the Milnor-Svarc baseline wants).
    Returns (family, factor index per member as an int64 array, family
    indices of the identity cosets).  A ``timings`` dict receives
    ``family_s``: the family and its shape table, ``SubgraphFamily.shapes``.
    """
    t = time.perf_counter()
    if ball.spec.kind != "free_product":
        family, factor_of, identity_members = SubgraphFamily.whole(ball.graph), np.zeros(1, dtype=np.int64), [0]
    else:
        family, factor_of = ball.cosets, ball.coset_factors
        # a coset's first member is its representative, and e is ball index 0
        identity_members = np.nonzero(family.vertices[family.offsets[:-1]] == 0)[0].tolist()
    if timings is not None:
        family.shapes  # computed here, so that family_s times it
        timings["family_s"] = _since(t)
    return family, factor_of, identity_members


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
    settled_pairs: int = 0  # pairs with adjacent top copies (D <= 2^n), never scanned


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
    R = max ceil(D / 2^n) apart.  A pair with D <= 2^n is settled with no
    row: its one geodesic is the edge joining its top copies, in S, and with
    R <= 1 no neighborhood is built.  For the others, every betweenness
    witness and every vertex of a geodesic between the copies is within
    floor(R/2) of the pair, and so is every shortest path from a witness
    back to S.  The scan
    (``analysis.convexity_defect``) therefore runs on the subgraph induced on
    N_floor(R/2)(S), which ``graph.neighborhood_subgraph`` cuts out of the
    space's layout without gluing the carrier: its distances are never
    shorter than the carrier's, so it adds no witness, and equal along all
    of those paths, so it loses none.  A pair's geodesics are the same paths there, so are its interval
    and its geodesic count, and with them the quasiconvexity term of every
    pair with at most ``geodesic_cap`` geodesics.  Only the pairs over the
    cap are enumerated; local ids follow carrier order, which keeps that
    capped enumeration the same.  Witnesses are mapped back to carrier ids.
    The check of the level drop takes the bottom distances (d_0 <= D) from a
    second neighborhood, of radius floor(max D / 2) around the bottom copies
    of the pairs, and the top ones from the scan's rows in one gather (1 for
    a settled pair).
    """
    members = aug.level_vertices(alpha, 0)
    n = aug.depth
    dmat = aug.member_metric(alpha)
    wl = np.asarray(basepoint_row)[members]
    iu, iv = np.nonzero(np.triu(is_interior_pair(wl[:, None], wl, dmat, radius), k=1))
    if not len(iu):
        return ParabolicScan(0, [], 0, 0, 0)

    top = aug.level_vertices(alpha, n)
    d_max = int(dmat[iu, iv].max())
    settled = dmat[iu, iv] <= min(2**n, d_max)  # top copies adjacent; min keeps 2^n in int32
    ou, ov = iu[~settled], iv[~settled]
    report, ids, local_vertices = ConvexityReport(0, (), 0, 0, 0), top, len(top)
    if len(ou):
        sub, ids = neighborhood_subgraph(aug, top, -(-d_max // 2**n) // 2)  # floor(R/2)
        local = np.searchsorted(ids, top)
        oracle = DistanceOracle(sub)
        report = convexity_defect(sub, local, pairs=np.stack([local[ou], local[ov]], axis=1),
                                  oracle=oracle, geodesic_cap=geodesic_cap)
        local_vertices = sub.num_vertices

    drop = 0
    if check_level_drop:
        ends = unique_ints(np.concatenate([iu, iv]))
        sub0, ids0 = neighborhood_subgraph(aug, members[ends], d_max // 2)
        local0 = np.searchsorted(ids0, members)
        sources, row_of = np.unique(iu, return_inverse=True)
        d0 = distance_rows(sub0, local0[sources])[row_of, local0[iv]]
        dn = np.ones_like(d0)
        if len(ou):
            sources, row_of = np.unique(ou, return_inverse=True)
            dn[~settled] = oracle.rows(local[sources])[row_of, local[ov]]
        drop = int(np.abs(d0 - dn).max())

    return ParabolicScan(
        defect=report.defect,
        witnesses=[(int(ids[u]), int(ids[v]), int(ids[w])) for u, v, w in report.witnesses],
        pairs_checked=len(iu),
        quasiconvexity=report.quasiconvexity_constant,
        level_drop_excess=max(0, drop - 2 * n),
        level_drop=drop,
        local_vertices=local_vertices,
        truncated_pairs=report.truncated_pairs,
        settled_pairs=int(settled.sum()),
    )


def _sample_cosets(family, factor_of: np.ndarray, identity_indices, per_factor: int) -> list[int]:
    """Deterministic translation cross-check sample per factor: the first
    non-identity coset (shortest representative, the most expensive kind) and
    the last few (deepest representatives, the cheapest)."""
    if per_factor < 1:
        return []
    # family order within a factor is (rep word length, rep normal form);
    # only cosets with at least two members can have pairs to check
    eligible = family.sizes >= 2
    eligible[identity_indices] = False
    picked = []
    for f in unique_ints(factor_of).tolist():
        candidates = np.flatnonzero(eligible & (factor_of == f))
        picked += [candidates[:1], candidates[max(len(candidates) - per_factor + 1, 1):]]
    return unique_ints(np.concatenate(picked)).tolist()


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
    A ``timings`` dict receives ``family_s`` (see ``parabolic_family``).  No
    carrier is glued: each depth is a layout (``glue_horoballs``), its
    vertex count a closed form, and each scan cuts its neighborhoods out of
    the layout.
    """
    spec = ball.spec
    if spec.kind != "free_product":
        raise InputError("the convexification experiment needs a free product")
    family, factor_of, identity_indices = parabolic_family(ball, timings)
    sampled = _sample_cosets(family, factor_of, identity_indices, verify_cosets)
    word_lengths = np.asarray(ball.word_lengths)

    rows = []
    for n in sorted(depths):
        aug = glue_horoballs(ball.graph, family, n)
        scans = {alpha: scan_parabolic(aug, word_lengths, ball.radius, alpha,
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
            "carrier_vertices": aug.num_vertices,
            "translation_check": ("ok" if all(scans[alpha].defect <= identity_defect
                                              for alpha in sampled) else "exceeded"),
            "generating_set": list(spec.generator_names),
        })
        if diagnostics is not None:
            diagnostics.append({
                "n": n,
                "local_carrier_vertices": sum(scan.local_vertices for scan in scans.values()),
                "settled_pairs": sum(scan.settled_pairs for scan in scans.values()),
                "geodesic_cap_hits": sum(scan.truncated_pairs for scan in scans.values()),
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

    The S_t graph joins g to g·s for s in S_t.  Every S_t is found first,
    as ascending ball ids, so that one ``CayleyBall.right_translations``
    call over their union gives the translation rows of all their elements;
    an S_t reads its rows by a sorted search, and one numpy mask over them
    gives its edges.  An S_t graph whose canonical edges equal the word
    ball's or the previous S_t graph's reuses that distance table.

    ``timings`` (when given) receives ``word_rows_s``, ``translations_s``
    and ``st_rows_s``, and for free products the ``family_s`` of their coset
    family.  ``diagnostics`` (when given) receives one entry per distance
    table: the graph, the ``distance_rows`` kernel (or ``"reused"``) and
    its level bound.
    """
    spec, radius = ball.spec, ball.radius
    n_el = ball.graph.num_vertices
    # the word rows, the carrier rows over the elements and every S_t table
    # are n_el x n_el: one check refuses them all before any row
    check_table(n_el)
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
        family, _, _ = parabolic_family(ball, timings)
        aug = glue_horoballs(ball.graph, family, depth)
        # element vertices keep ids 0..n_el-1 in the carrier
        carrier = {"graph": "carrier"}
        d_aug = distance_rows(aug.carrier, range(n_el), columns=np.arange(n_el), info=carrier)
        diagnostics.append(carrier)
    displacement = d_aug[0]
    inverse = np.fromiter((ball.index[spec._inv(k)] for k in ball.keys), dtype=np.int64, count=n_el)

    # interior pairs in the word metric of the ball itself
    wl = np.asarray(ball.word_lengths, dtype=np.int32)
    pair_idx = np.nonzero(np.triu(is_interior_pair(wl[:, None], wl, d_word, radius), k=1))

    s_sets: dict[int, np.ndarray | InputError] = {}
    for t in t_list:
        try:
            s_sets[t] = displacement_generating_set(displacement, inverse, t)
        except InputError as exc:
            s_sets[t] = exc
    t0 = time.perf_counter()
    found = [s_t for s_t in s_sets.values() if not isinstance(s_t, InputError)]
    shifts = unique_ints(np.concatenate([[0], *found]))[1:]  # every S_t's ids but the identity's, 0
    translations = ball.right_translations(shifts)
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
        targets = translations[np.searchsorted(shifts, s_t[s_t != 0])]
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
        rows.append({
            "t": t,
            "S_t_size": len(s_t),
            "K_t": str(fit.multiplicative),
            "C": t,
            "pairs_checked": fit.pairs_checked,
            "flagged": None,
            "factor_generators_present": (bool((displacement[ball.generator_table[0]] <= t).all())
                                          if spec.kind == "free_product" else None),
        })
    timings["st_rows_s"] = round(st_seconds, 6)
    return rows


# -- the runner ---------------------------------------------------------------

# Largest carrier, in vertices, that ``augment`` writes out as augmented.json.
# Above it the report's diagnostics say the artifact was skipped, and why.
_AUGMENT_ARTIFACT_MAX_VERTICES = 50_000


@dataclass
class _Run:
    """What a runner gets: the instance, the parsed parameters and the seed,
    and the report's timings, diagnostics and artifacts to add to."""

    graph: Graph
    ball: CayleyBall | None
    values: dict
    seed: int
    out: pathlib.Path
    export_dot: bool
    timings: dict
    diagnostics: dict = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)

    def artifact(self, name: str) -> pathlib.Path:
        self.artifacts.append(name)
        return self.out / name

    def carrier_artifacts(self, space, stem: str) -> None:
        """``<stem>.json`` (and ``<stem>.dot``) of a carrier, written from its
        provenance columns and timed as ``artifacts_s``."""
        t = time.perf_counter()
        kind, alpha, base_vertex, level = space.columns
        write_carrier(self.artifact(f"{stem}.json"), space.carrier.edges, space.base.labels,
                      kind, alpha, base_vertex, level)
        if self.export_dot:
            labels = carrier_labels(space.base.labels, kind, base_vertex, level)
            self.artifact(f"{stem}.dot").write_text(
                to_dot(space.carrier, name=stem, levels=level, labels=labels), encoding="utf-8")
        self.timings["artifacts_s"] = _since(t)


def run_experiment(config: ExperimentConfig, out_dir, export_dot: bool = False) -> Report:
    out = pathlib.Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot make the output directory {out}: {exc}") from None
    t0 = time.perf_counter()
    graph, ball, digest = build_instance_graph(config.instance, config.values.get("budget", DEFAULT_BALL_BUDGET))
    run = _Run(graph, ball, config.values, config.seed, out, export_dot, {"instance_s": _since(t0)})
    rows = KINDS[config.kind].run(run)
    report = Report(
        config=config,
        environment={"tool": "horolab", "version": __version__, "instance_hash": digest},
        rows=rows,
        timings={"total_seconds": _since(t0), **run.timings},
        artifacts=run.artifacts,
        diagnostics=run.diagnostics,
    )
    write_json(report.to_json(), out / "report.json")
    return report


def _run_build_horoball(run: _Run) -> list[dict]:
    depth = run.values["depth"]
    h = build_restricted_horoball(run.graph, depth)
    lv = h.columns[3][h.carrier.edges]
    horizontal = np.bincount(lv[lv[:, 0] == lv[:, 1], 0], minlength=depth + 1)
    rows = [{"level": k, "vertices": len(h.level_vertices(k)),
             "horizontal_edges": int(horizontal[k])} for k in range(depth + 1)]
    rows.append({"level": "total", "vertices": h.carrier.num_vertices,
                 "horizontal_edges": int(h.carrier.num_edges)})
    run.carrier_artifacts(h, "horoball")
    return rows


def _run_augment(run: _Run) -> list[dict]:
    """The carrier's counts come from its layout; it is glued only to be
    written out, up to ``_AUGMENT_ARTIFACT_MAX_VERTICES``."""
    depth = run.values["depth"]
    family, _, identity_indices = parabolic_family(run.ball, run.timings)
    aug = glue_horoballs(run.graph, family, depth)
    if aug.num_vertices <= _AUGMENT_ARTIFACT_MAX_VERTICES:
        run.carrier_artifacts(aug, "augmented")
    else:
        run.diagnostics["artifact_skipped"] = {
            "name": "augmented.json", "carrier_vertices": aug.num_vertices,
            "max_vertices": _AUGMENT_ARTIFACT_MAX_VERTICES}
    return [{
        "family_members": len(family),
        "identity_cosets": len(identity_indices),
        "carrier_vertices": aug.num_vertices,
        "carrier_edges": aug.num_edges,
        "depth": depth,
    }]


def _run_delta(run: _Run) -> list[dict]:
    """Four-point delta of the instance, or with a ``depth`` of its
    augmentation: over ``parabolic_family`` for a group instance, and over
    the whole graph (the restricted horoball) for any other, whose
    exhaustive scan is counted before the horoball is built."""
    target, depth = run.graph, run.values["depth"]
    if depth is not None and run.ball is None:
        check = _check_exhaustive if run.values["sample"] == "all" else None
        target = build_restricted_horoball(run.graph, depth, check).carrier
    elif depth is not None:
        family, _, _ = parabolic_family(run.ball, run.timings)
        target = glue_horoballs(run.graph, family, depth).carrier
    est = four_point_delta(target, sample=run.values["sample"], seed=run.seed)
    run.diagnostics["four_point"] = {"far_apart_pairs": est.far_apart_pairs, "pair_tests": est.pair_tests}
    return [{
        "delta": str(est.delta),
        "quadruples_checked": est.quadruples_checked,
        "exhaustive": est.exhaustive,
        "vertices": target.num_vertices,
    }]


def _run_convexity(run: _Run) -> list[dict]:
    """The convexity scan of the set; with a ``depth``, in the restricted
    horoball, where a scan without an interior filter is counted before
    the horoball is built."""
    values = run.values
    target, vertex_set, level = run.graph, values["set"]["vertices"], values["set"]["level_at_least"]
    if values["depth"] is not None:
        depth = values["depth"]
        # the set's size; the levels from ``level`` up hold (depth + 1 - level) * |V|
        size = len(set(vertex_set)) if level is None else max(0, depth + 1 - level) * run.graph.num_vertices
        check = None if values["interior"] is not None else lambda n: _check_scan(math.comb(size, 2), n)
        h = build_restricted_horoball(run.graph, depth, check)
        target = h.carrier
        if level is not None:
            vertex_set = h.deep_vertices(level)
    report = convexity_defect(target, vertex_set, pair_filter=values["interior"],
                              geodesic_cap=values["geodesic_cap"])
    run.diagnostics["geodesic_cap_hits"] = report.truncated_pairs
    return [{
        "defect": report.defect,
        "convex": report.convex,
        "witnesses": [list(w) for w in report.witnesses[:10]],
        "quasiconvexity": report.quasiconvexity_constant,
        "pairs_checked": report.pairs_checked,
    }]


def _run_shortcut(run: _Run) -> list[dict]:
    values = run.values
    profile = shortcut_profile(run.graph, values["K"], values["n_list"], values["lambda"],
                               node_cap=values["node_cap"], restrict=values["restrict"])
    run.artifact("profile.csv").write_text(profile.to_csv(), encoding="utf-8")
    return profile.to_json_rows()


def _run_convexify(run: _Run) -> list[dict]:
    rows = convexify_experiment(
        run.ball, run.values["depths"],
        verify_cosets=run.values["verify_cosets"],
        geodesic_cap=run.values["geodesic_cap"],
        diagnostics=run.diagnostics.setdefault("depths", []),
        timings=run.timings,
    )
    convexify_gate(rows)
    return rows


# -- the kind table -------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """An experiment kind: its parameter schema, field -> (parser, default)
    (see ``_parse_fields``), whether it needs a group instance, its runner,
    and a check across its parsed parameters."""

    params: dict[str, tuple]
    needs_group: bool
    run: Callable[[_Run], list[dict]]
    check: Callable[[dict], None] | None = None


def _check_convexity(values: dict) -> None:
    """A set is ``vertices`` of the graph, or with a horoball ``depth`` its
    levels from ``level_at_least`` up; a field the run would ignore is
    refused."""
    vertices, level = values["set"]["vertices"], values["set"]["level_at_least"]
    if level is not None and vertices is not None:
        raise ConfigError("params.set", "give level_at_least or vertices, not both")
    if level is not None and values["depth"] is None:
        raise ConfigError("params.set.level_at_least", "needs a horoball depth")
    if level is None and vertices is None:
        raise ConfigError("params.set", "need level_at_least or vertices")


_DEPTH = (_integer(1), REQUIRED)
_BUDGET = (_integer(1), DEFAULT_BALL_BUDGET)

KINDS: dict[str, Kind] = {
    "build-horoball": Kind({"depth": _DEPTH}, False, _run_build_horoball),
    "augment": Kind({"depth": _DEPTH}, True, _run_augment),
    "delta": Kind({"sample": (_sample, "all"), "depth": (_integer(1), None)}, False, _run_delta),
    "convexity": Kind({
        "set": (lambda value, path: _object(_SET, value, path), REQUIRED),
        "depth": (_integer(1), None),
        "interior": (lambda value, path: InteriorFilter(**_object(_INTERIOR, value, path)), None),
        "geodesic_cap": (_integer(0), 64),
    }, False, _run_convexity, _check_convexity),
    "shortcut": Kind({
        "K": (_rational, Fraction(1)),
        "n_list": (_cycle_lengths, REQUIRED),
        "lambda": (_lambda_grid, REQUIRED),
        "restrict": (_checked(lambda v: v is None or isinstance(v, list) and all(map(_is_int, v)),
                              "must be a list of vertex ids"), None),
        "node_cap": (_integer(1), 2_000_000),
    }, False, _run_shortcut),
    "milnor-svarc": Kind({"depth": _DEPTH, "t_list": (_integers(0), REQUIRED), "budget": _BUDGET}, True,
                         lambda run: milnor_svarc_experiment(
                             run.ball, run.values["depth"], run.values["t_list"], run.timings,
                             run.diagnostics.setdefault("distance_tables", []))),
    "convexify-experiment": Kind({
        "depths": (_integers(1), REQUIRED),
        "verify_cosets": (_integer(0), 3),
        "geodesic_cap": (_integer(0), 32),
        "budget": _BUDGET,
    }, True, _run_convexify),
}
