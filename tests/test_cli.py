"""Config validation, experiment pipelines, CLI exit codes, report hygiene."""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from horolab import PropertyViolation, cayley_ball, free_abelian, free_product
from horolab.cli import EXIT_CONFIG, EXIT_OK, EXIT_RESOURCE, EXIT_VIOLATION, main
import horolab.analysis
import horolab.errors
import horolab.graph
import horolab.groups
import horolab.horoball
import horolab.io
from horolab import experiments
from horolab.errors import ConfigError
from horolab.experiments import (
    build_instance_graph,
    convexify_experiment,
    convexify_gate,
    milnor_svarc_experiment,
    parabolic_family,
    run_experiment,
    scan_parabolic,
    validate_config,
)
from horolab.graph import path_graph
from horolab.horoball import build_restricted_horoball
from horolab.io import canonical_json

from oracles import floyd_warshall, naive_four_point_delta, subgraph


def write_config(tmp_path, obj, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


# -- config validation -------------------------------------------------------


def test_unknown_fields_are_rejected_with_paths():
    base = {"version": 1, "experiment": "delta", "instance": {"cycle": 12}, "params": {}}
    with pytest.raises(ConfigError, match="bogus"):
        validate_config({**base, "bogus": 1})
    with pytest.raises(ConfigError, match="params.fancy"):
        validate_config({**base, "params": {"fancy": True}})
    with pytest.raises(ConfigError, match="instance"):
        validate_config({**base, "instance": {"cycle": 12, "path": 2}})
    with pytest.raises(ConfigError, match="version"):
        validate_config({**base, "version": 7})
    with pytest.raises(ConfigError, match="experiment"):
        validate_config({**base, "experiment": "frobnicate"})
    with pytest.raises(ConfigError, match="instance.radius"):
        validate_config({**base, "instance": {"group": {"free_abelian": 2}}})


def test_readme_has_a_parameter_table_per_kind():
    """Each kind's README table lists exactly its schema fields (nested ones
    as ``object.field``), with the schema's default where it is a value."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    nested = {"set": experiments._SET, "interior": experiments._INTERIOR, "lambda": experiments._LAMBDA}
    for name, kind in experiments.KINDS.items():
        section = readme.split(f"#### `{name}`", 1)[1].split("\n#", 1)[0]
        rows = {line.split("|")[1].strip().strip("`"): line for line in section.splitlines()
                if line.startswith("| `")}
        fields = {}
        for key, (_, default) in kind.params.items():
            fields[key] = default
            fields.update({f"{key}.{sub}": spec[1] for sub, spec in nested.get(key, {}).items()})
        assert set(rows) == set(fields), name
        for key, default in fields.items():
            if default is not None and default is not experiments.REQUIRED:
                shown = str(default) if isinstance(default, Fraction) else default
                assert f"`{json.dumps(shown)}`" in rows[key], (name, key)


def test_instance_builders(tmp_path):
    g, ball, _ = build_instance_graph({"cycle": 12})
    assert g.num_vertices == 12 and ball is None
    g, ball, _ = build_instance_graph({"group": {"free_abelian": 2}, "radius": 2})
    assert g.num_vertices == 13 and ball is not None
    g, _, _ = build_instance_graph({"grid": [3, 4]})
    assert g.num_vertices == 12


# -- pipelines ----------------------------------------------------------------


def test_delta_experiment_matches_oracle(tmp_path):
    cfg = validate_config({
        "version": 1, "experiment": "delta",
        "instance": {"cycle": 12}, "params": {"sample": "all"},
    })
    report = run_experiment(cfg, tmp_path / "out")
    row = report.rows[0]
    g, _, _ = build_instance_graph({"cycle": 12})
    fw = floyd_warshall(12, [tuple(e) for e in g.edges])
    assert row["delta"] == str(naive_four_point_delta(fw))
    assert row["exhaustive"] is True


def test_exported_dot_files_equal_the_dot_of_the_reference_documents(tmp_path):
    """``--export-dot`` writes, for each carrier, the DOT text of the graph
    document the references build: labels and per-level colors included."""
    from horolab.io import graph_from_json, read_graph, to_dot
    from oracles import augmented_carrier, restricted_horoball, subgraphs

    graph_file = tmp_path / "g.json"
    graph_file.write_text(json.dumps({
        "version": 1, "vertices": [{"id": v, "label": f"v{v}"} for v in range(5)],
        "edges": [[0, 1], [1, 2], [1, 3], [3, 4]], "metadata": {}}), encoding="utf-8")
    run_experiment(validate_config({"version": 1, "experiment": "build-horoball",
                                    "instance": {"graph_file": str(graph_file)}, "params": {"depth": 3}}),
                   tmp_path / "h", export_dot=True)
    doc = restricted_horoball(read_graph(graph_file), 3)
    levels = [m["level"] for m in doc["metadata"]["vertex_meta"]]
    assert (tmp_path / "h" / "horoball.dot").read_text() == to_dot(graph_from_json(doc), name="horoball",
                                                                   levels=levels)

    run_experiment(validate_config({"version": 1, "experiment": "augment", "instance": Z_FREE_Z,
                                    "params": {"depth": 2}}), tmp_path / "a", export_dot=True)
    ball = cayley_ball(free_product(free_abelian(1), free_abelian(1)), 3)
    family, _, _ = parabolic_family(ball)
    ref = augmented_carrier(ball.graph.num_vertices, ball.graph.edges.tolist(),
                            [(m.vertices, m.edges) for m in subgraphs(family)], 2, ball.graph.labels)
    dot = (tmp_path / "a" / "augmented.dot").read_text()
    levels = [m["level"] for m in ref["document"]["metadata"]["vertex_meta"]]
    assert dot == to_dot(graph_from_json(ref["document"]), name="augmented", levels=levels)
    assert 'label="e"' in dot and 'label="e@2", level=2' in dot


def test_build_horoball_writes_expected_graph(tmp_path):
    cfg = validate_config({
        "version": 1, "experiment": "build-horoball",
        "instance": {"path": 8}, "params": {"depth": 3},
    })
    out = tmp_path / "out"
    report = run_experiment(cfg, out, export_dot=True)
    assert report.rows[-1]["vertices"] == 9 * 4
    saved = json.loads((out / "horoball.json").read_text())
    assert len(saved["vertices"]) == 36
    assert (out / "horoball.dot").exists()
    assert (out / "report.json").exists()


@pytest.mark.parametrize("kind, instance, artifact", [
    ("build-horoball", {"path": 8}, "horoball.json"),
    ("augment", {"group": {"free_product": [{"free_abelian": 1}, {"free_abelian": 1}]}, "radius": 3},
     "augmented.json"),
])
def test_artifact_write_time_is_a_timing_not_a_row(tmp_path, kind, instance, artifact):
    cfg = validate_config({"version": 1, "experiment": kind, "instance": instance, "params": {"depth": 2}})
    out = tmp_path / "out"
    run_experiment(cfg, out)
    doc = json.loads((out / "report.json").read_text())
    assert doc["artifacts"] == [artifact]
    assert 0 <= doc["timings"]["artifacts_s"] <= doc["timings"]["total_seconds"]
    assert not any("artifacts_s" in row for row in doc["rows"])
    delta = run_experiment(validate_config({"version": 1, "experiment": "delta",
                                            "instance": {"cycle": 6}, "params": {}}), tmp_path / "d")
    assert "artifacts_s" not in delta.timings


Z2Z2 = {"free_product": [{"free_abelian": 2}, {"free_abelian": 2}]}
Z_FREE_Z = {"group": {"free_product": [{"free_abelian": 1}, {"free_abelian": 1}]}, "radius": 3}


@pytest.mark.parametrize("kind, instance, params, stages", [
    ("build-horoball", {"path": 8}, {"depth": 2}, {"instance_s", "artifacts_s"}),
    ("augment", Z_FREE_Z, {"depth": 2}, {"instance_s", "family_s", "artifacts_s"}),
    ("delta", {"cycle": 6}, {}, {"instance_s"}),
    ("delta", Z_FREE_Z, {"depth": 1, "sample": 50}, {"instance_s", "family_s"}),
    ("convexify-experiment", Z_FREE_Z, {"depths": [1, 2]}, {"instance_s", "family_s"}),
    ("milnor-svarc", Z_FREE_Z, {"depth": 1, "t_list": [1]},
     {"instance_s", "family_s", "word_rows_s", "translations_s", "st_rows_s"}),
    ("milnor-svarc", {"group": {"free_abelian": 2}, "radius": 3}, {"depth": 1, "t_list": [1]},
     {"instance_s", "word_rows_s", "translations_s", "st_rows_s"}),
], ids=["build-horoball", "augment", "delta", "delta-augmented", "convexify", "milnor-svarc-product",
        "milnor-svarc-abelian"])
def test_stage_times_are_timings_not_rows(tmp_path, kind, instance, params, stages):
    """Every run times its instance; runs that build a coset family and its
    shape table time that too, and milnor-svarc times its word-ball rows,
    its translation table and its S_t rows.  Stage times stay out of the
    rows."""
    cfg = validate_config({"version": 1, "experiment": kind, "instance": instance, "params": params})
    run_experiment(cfg, tmp_path / "out")
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    timings = doc["timings"]
    assert set(timings) == {"total_seconds"} | stages
    for key in stages:
        assert 0 <= timings[key] <= timings["total_seconds"]
    assert not any(key in row for row in doc["rows"] for key in timings)


def test_augment_reports_a_skipped_artifact(tmp_path, monkeypatch):
    # Z*Z at radius 3: 53 elements, each in one coset of each factor, so the
    # depth-2 carrier has 53 + 2 * 106 = 265 vertices
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": "augment",
        "instance": {"group": {"free_product": [{"free_abelian": 1}, {"free_abelian": 1}]},
                     "radius": 3},
        "params": {"depth": 2},
    })
    reports = {}
    for cap in (265, 264):
        monkeypatch.setattr(experiments, "_AUGMENT_ARTIFACT_MAX_VERTICES", cap)
        out = tmp_path / str(cap)
        assert main(["augment", "--config", cfg, "--out", str(out)]) == EXIT_OK
        reports[cap] = json.loads((out / "report.json").read_text())
        assert (out / "augmented.json").exists() == (cap == 265)
    assert reports[265]["artifacts"] == ["augmented.json"] and reports[265]["diagnostics"] == {}
    assert reports[264]["artifacts"] == []
    assert reports[264]["diagnostics"] == {"artifact_skipped": {
        "name": "augmented.json", "carrier_vertices": 265, "max_vertices": 264}}
    assert reports[264]["rows"] == reports[265]["rows"]
    assert reports[264]["rows"][0]["carrier_vertices"] == 265


def test_augment_over_the_artifact_cap_glues_nothing(tmp_path, monkeypatch):
    """Above the artifact cap the carrier's counts come from its layout:
    ``_glue`` never runs, and the rows are those of the glued carrier."""
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": "augment",
        "instance": {"group": {"free_product": [{"free_abelian": 1}, {"free_abelian": 1}]},
                     "radius": 3},
        "params": {"depth": 2},
    })
    assert main(["augment", "--config", cfg, "--out", str(tmp_path / "glued")]) == EXIT_OK
    monkeypatch.setattr(experiments, "_AUGMENT_ARTIFACT_MAX_VERTICES", 264)
    monkeypatch.setattr(horolab.horoball, "_glue", lambda space: pytest.fail("the carrier was glued"))
    assert main(["augment", "--config", cfg, "--out", str(tmp_path / "counted")]) == EXIT_OK
    rows = [json.loads((tmp_path / out / "report.json").read_text())["rows"] for out in ("glued", "counted")]
    assert rows[1] == rows[0] and rows[0][0]["carrier_edges"] > 0


def test_report_rows_are_reproducible(tmp_path):
    cfg_obj = {
        "version": 1, "experiment": "delta",
        "instance": {"grid": [3, 3]}, "params": {"sample": 200}, "seed": 9,
    }
    r1 = run_experiment(validate_config(cfg_obj), tmp_path / "a")
    r2 = run_experiment(validate_config(cfg_obj), tmp_path / "b")
    assert canonical_json(r1.rows) == canonical_json(r2.rows)
    assert r1.environment == r2.environment


def test_convexity_experiment_on_horoball_top(tmp_path):
    cfg = validate_config({
        "version": 1, "experiment": "convexity",
        "instance": {"path": 16},
        "params": {"depth": 3, "set": {"level_at_least": 3}},
    })
    report = run_experiment(cfg, tmp_path / "out")
    assert report.rows[0]["convex"] is True


def test_shortcut_experiment_rows_and_csv(tmp_path):
    cfg = validate_config({
        "version": 1, "experiment": "shortcut",
        "instance": {"cycle": 8},
        "params": {"K": "1", "n_list": [4, 8],
                   "lambda": {"lo": "1", "hi": "2", "step": "1"}},
    })
    out = tmp_path / "out"
    report = run_experiment(cfg, out)
    assert [r["status"] for r in report.rows] == ["found", "found"]
    assert (out / "profile.csv").read_text().startswith("n,K,lambda,status,nodes,seconds")


@pytest.mark.parametrize("e", [61, 70])
def test_cli_shortcut_with_a_constant_near_one(tmp_path, e):
    # (2^e + 1)/2^e: cross-multiplied int64 brackets wrapped at e = 61 (a false
    # exhaustive none) and overflowed at e = 70
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": "shortcut", "instance": {"cycle": 8},
        "params": {"K": f"{2**e + 1}/{2**e}", "n_list": [8],
                   "lambda": {"lo": "1", "hi": "1", "step": "1"}},
    })
    assert main(["shortcut", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    row, = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
    assert (row["status"], row["nodes"], row["exhaustive"]) == ("found", 7, True)
    assert row["witness"]["images"] == list(range(8))


def test_cli_shortcut_at_the_longest_cycle_length(tmp_path):
    """n = 1000, the most ``n_list`` allows, is 999 search levels deep: they
    run from an explicit stack, not one Python call per slot."""
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": "shortcut", "instance": {"cycle": 1000},
        "params": {"K": "1", "n_list": [1000], "lambda": {"lo": "1", "hi": "1", "step": "1"}},
    })
    assert main(["shortcut", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    row, = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
    assert (row["status"], row["nodes"], row["exhaustive"]) == ("found", 999, True)
    assert row["witness"] == {"images": list(range(1000)), "lambda": "1", "K_achieved": "1"}


# -- convexify + milnor-svarc at reduced scale ------------------------------------


Z2xZ2 = free_product(free_abelian(2), free_abelian(2))


def test_convexify_rows_small_radius():
    rows = convexify_experiment(cayley_ball(Z2xZ2, 3), depths=[1, 2])
    assert [r["n"] for r in rows] == [1, 2]
    for row in rows:
        assert row["pairs_checked"] > 0
        assert row["translation_check"] == "ok"
        assert row["generating_set"] == ["a", "b", "c", "d"]
    convexify_gate(rows)  # must not raise when defects reach 0


def test_convexify_gate_rejects_bad_tables():
    with pytest.raises(PropertyViolation, match="increased"):
        convexify_gate([{"defect": 0}, {"defect": 2}])
    with pytest.raises(PropertyViolation, match="never reached 0"):
        convexify_gate([{"defect": 3}, {"defect": 1}])
    convexify_gate([{"defect": 2}, {"defect": 0}])


def test_scan_matches_generic_convexity_defect():
    """The parabolic scan (interior pairs picked in one array pass) and the
    generic betweenness scan over pairs picked one by one must agree."""
    from horolab.analysis import convexity_defect
    from horolab.graph import is_interior_pair
    from horolab.groups import cayley_ball
    from horolab.horoball import glue_horoballs

    radius, depth = 3, 2
    ball = cayley_ball(Z2xZ2, radius)
    family, factor_of, identity_indices = parabolic_family(ball)
    aug = glue_horoballs(ball.graph, family, depth)

    alpha = identity_indices[0]
    dmat = aug.member_metric(alpha)
    scan = scan_parabolic(aug, ball.word_lengths, radius, alpha, geodesic_cap=16)

    member = subgraph(aug.family, alpha)
    top_ids = aug.level_vertices(alpha, depth)
    pairs = []
    for i in range(len(member.vertices)):
        for j in range(i + 1, len(member.vertices)):
            wl_i = ball.word_lengths[member.vertices[i]]
            wl_j = ball.word_lengths[member.vertices[j]]
            if is_interior_pair(wl_i, wl_j, int(dmat[i][j]), radius):
                pairs.append((top_ids[i], top_ids[j]))
    report = convexity_defect(aug.carrier, top_ids, pairs=pairs, geodesic_cap=16)
    assert report.pairs_checked == scan.pairs_checked
    assert report.defect == scan.defect
    assert report.quasiconvexity_constant == scan.quasiconvexity


def _scan_fields(scan):
    return {"defect": scan.defect, "witnesses": scan.witnesses, "pairs_checked": scan.pairs_checked,
            "quasiconvexity": scan.quasiconvexity, "level_drop": scan.level_drop,
            "truncated_pairs": scan.truncated_pairs}


def test_local_scan_finds_the_defect_of_a_nonconvex_arc():
    """C_40 with a 40-vertex path hanging off vertex 35, and one parabolic:
    the arc 0..29.  At depth 1 the long way round the arc is shorter through
    the rest of the cycle, so the scan must find witnesses off the arc, and
    find them inside its neighborhood of the top level."""
    from horolab.graph import distance_rows
    from horolab.horoball import glue_horoballs

    from oracles import arc_on_a_cycle, whole_carrier_scan

    base, arc = arc_on_a_cycle()
    row = distance_rows(base, [0])[0]
    expected = {1: (6, 62, 71), 2: (0, 0, 94)}  # defect, witnesses, neighborhood vertices
    for depth, (defect, witnesses, local) in expected.items():
        aug = glue_horoballs(base, arc, depth)
        assert aug.carrier.num_vertices == 80 + 30 * depth
        scan = scan_parabolic(aug, row, 100, 0, geodesic_cap=32, check_level_drop=True)
        assert scan.pairs_checked == 30 * 29 // 2
        assert (scan.defect, len(scan.witnesses), scan.local_vertices) == (defect, witnesses, local)
        assert _scan_fields(scan) == whole_carrier_scan(aug, row, 100, 0, geodesic_cap=32)


def test_local_scan_finds_the_defect_of_a_u_shaped_path_in_a_grid():
    """A 14 x 12 grid and one parabolic: the 22-vertex path down column 1
    (rows 0..6), along row 6 and up column 10.  At depth 1 the ends of the
    U are closer across the grid than along the path, so the scan finds
    witnesses off it; from depth 2 on the top level is convex.  Even at
    depth 1 the neighborhood scanned is smaller than the carrier."""
    from horolab.graph import distance_rows
    from horolab.horoball import glue_horoballs

    from oracles import u_path_in_a_grid, whole_carrier_scan

    rows, cols = 14, 12
    base, arc = u_path_in_a_grid(rows, cols)
    row = distance_rows(base, [0])[0]
    expected = {1: (5, 10, 152), 2: (0, 0, 108), 3: (0, 0, 44)}  # defect, witnesses, neighborhood vertices
    for depth, (defect, witnesses, local) in expected.items():
        aug = glue_horoballs(base, arc, depth)
        assert aug.carrier.num_vertices == rows * cols + 22 * depth
        scan = scan_parabolic(aug, row, 100, 0, geodesic_cap=32, check_level_drop=True)
        assert scan.pairs_checked == 22 * 21 // 2
        assert (scan.defect, len(scan.witnesses), scan.local_vertices) == (defect, witnesses, local)
        assert scan.local_vertices < aug.carrier.num_vertices
        assert _scan_fields(scan) == whole_carrier_scan(aug, row, 100, 0, geodesic_cap=32)


@pytest.mark.parametrize("factors, radius", [
    ([{"free_abelian": 2}, {"free_abelian": 2}], 4), ([{"free_abelian": 2}, {"free_abelian": 1}], 5)])
@pytest.mark.parametrize("check_level_drop", [True, False])
def test_local_scan_matches_the_whole_carrier_scan(factors, radius, check_level_drop):
    """Every scanned coset at depths 1..5, field by field.  From depth 2 on
    every pair is settled (D <= 2^n), so both settled paths, with and
    without the level-drop check, meet the whole-carrier reference."""
    from horolab.experiments import _sample_cosets
    from horolab.groups import GroupSpec
    from horolab.horoball import glue_horoballs

    from oracles import whole_carrier_scan

    ball = cayley_ball(GroupSpec.from_json({"free_product": factors}), radius)
    family, factor_of, identity_indices = parabolic_family(ball)
    scanned = identity_indices + _sample_cosets(family, factor_of, identity_indices, 3)
    for depth in range(1, 6):
        aug = glue_horoballs(ball.graph, family, depth)
        for alpha in scanned:
            scan = scan_parabolic(aug, ball.word_lengths, ball.radius, alpha, check_level_drop=check_level_drop)
            reference = whole_carrier_scan(aug, ball.word_lengths, ball.radius, alpha, geodesic_cap=32)
            if not check_level_drop:
                reference["level_drop"] = 0  # not measured
            assert _scan_fields(scan) == reference, (depth, alpha)
            assert scan.local_vertices < aug.carrier.num_vertices


def test_settled_scans_build_no_neighbourhood(monkeypatch):
    """Z²*Z² at radius 4: a pair with D <= 2^n is settled without a row, and
    from depth 2 on every pair is, so of the 40 scans over depths 1..5 only
    the 4 at depth 1 with open pairs cut a neighbourhood out of the layout."""
    cut = []
    real = experiments.neighborhood_subgraph
    monkeypatch.setattr(experiments, "neighborhood_subgraph", lambda *a, **k: cut.append(a[2]) or real(*a, **k))
    diagnostics = []
    rows = convexify_experiment(cayley_ball(Z2xZ2, 4), depths=[1, 2, 3, 4, 5], diagnostics=diagnostics)
    assert len(cut) == 4
    assert [row["pairs_checked"] for row in rows] == [616] * 5
    assert [d["settled_pairs"] for d in diagnostics] == [440, 616, 616, 616, 616]
    assert [d["local_carrier_vertices"] for d in diagnostics] == [284, 152, 152, 152, 152]


def test_convexify_at_depths_past_any_int_of_the_metric(tmp_path):
    """2^n at n = 40, 63 and 64 is compared with int32 coset distances: the
    rows are those of a scan of every pair, all settled at Z*Z radius 2."""
    cfg = validate_config({
        "version": 1, "experiment": "convexify-experiment",
        "instance": {"group": {"free_product": [{"free_abelian": 1}, {"free_abelian": 1}]}, "radius": 2},
        "params": {"depths": [1, 40, 63, 64]},
    })
    report = run_experiment(cfg, tmp_path / "out")
    assert report.rows == [
        {"n": n, "defect": 0, "witnesses": [], "pairs_checked": 20, "quasiconvexity": 0,
         "carrier_vertices": vertices, "translation_check": "ok", "generating_set": ["a", "b"]}
        for n, vertices in [(1, 51), (40, 1377), (63, 2159), (64, 2193)]]
    assert report.diagnostics["depths"] == [
        {"n": n, "local_carrier_vertices": 22, "settled_pairs": 20, "geodesic_cap_hits": 0}
        for n in [1, 40, 63, 64]]


def test_milnor_svarc_small_z2():
    rows = milnor_svarc_experiment(cayley_ball(free_abelian(2), 8), depth=2, t_list=[1, 2, 4])
    assert [r["t"] for r in rows] == [1, 2, 4]
    assert rows[0]["S_t_size"] == 5
    assert rows[1]["S_t_size"] == 13
    ks = [Fraction(r["K_t"]) for r in rows]
    assert all(k >= 1 for k in ks)
    assert ks == sorted(ks, reverse=True)  # non-increasing in t


def test_milnor_svarc_reports_its_distance_tables(tmp_path, monkeypatch):
    """One diagnostics entry per distance table, with its kernel and level
    bound.  On Z^2, S_1 is the generating set, so its graph reuses the word
    ball's table, and a repeated t reuses the previous S_t table."""
    calls = []
    real = experiments.distance_rows
    monkeypatch.setattr(experiments, "distance_rows",
                        lambda g, *a, **k: calls.append(g.num_edges) or real(g, *a, **k))
    cfg = validate_config({"version": 1, "experiment": "milnor-svarc",
                           "instance": {"group": {"free_abelian": 2}, "radius": 6},
                           "params": {"depth": 1, "t_list": [0, 1, 2, 2, 4]}})
    report = run_experiment(cfg, tmp_path / "out")
    tables = report.diagnostics["distance_tables"]
    assert [(e["graph"], e["kernel"] == "reused") for e in tables] == [
        ("word", False), ("S_1", True), ("S_2", False), ("S_2", True), ("S_4", False)]
    assert {e["kernel"] for e in tables} <= {"bits", "frontier", "bfs", "reused"}
    assert tables[0]["levels"] == tables[1]["levels"] == 2 * 6 + 1  # ecc(e) is the radius
    assert tables[2]["levels"] == tables[3]["levels"]
    assert len(calls) == 3
    assert report.rows[2] == report.rows[3] | {"t": 2} and report.rows[1]["S_t_size"] == 5
    assert not any("kernel" in row for row in report.rows)


def test_milnor_svarc_flags_sub_threshold_t():
    rows = milnor_svarc_experiment(cayley_ball(free_abelian(2), 4), depth=1, t_list=[0, 2])
    assert rows[0]["flagged"] is not None and rows[0]["K_t"] is None
    assert rows[1]["flagged"] is None


def test_milnor_svarc_free_product_generator_presence():
    rows = milnor_svarc_experiment(cayley_ball(Z2xZ2, 3), depth=2, t_list=[1, 5])
    # the 2n+1 displacement bound puts every factor generator inside S_t
    assert rows[1]["factor_generators_present"] is True
    assert rows[0]["factor_generators_present"] is True  # generators sit at distance 1


def test_parabolic_family_trivial_group():
    from horolab.groups import cayley_ball

    ball = cayley_ball(free_abelian(2), 3)
    family, factor_of, ident = parabolic_family(ball)
    assert len(family) == 1 and ident == [0]
    assert len(subgraph(family, 0).vertices) == ball.graph.num_vertices


# -- CLI ------------------------------------------------------------------------


def test_cli_runs_delta(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": "delta",
        "instance": {"cycle": 12}, "params": {"sample": "all"},
    })
    code = main(["delta", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["rows"][0]["delta"] == "3"
    assert report["config"]["experiment"] == "delta"
    assert report["environment"]["tool"] == "horolab"


def test_delta_report_counts_the_scan_in_diagnostics_not_rows(tmp_path):
    """The exhaustive scan's work counts go to ``diagnostics.four_point``;
    the rows keep their keys and values (C_12: delta 3 over 495
    quadruples, found from its 6 antipodal pairs).  A sampled run counts
    no far-apart pair."""
    for sample, rows, work in (("all", [{"delta": "3", "quadruples_checked": 495, "exhaustive": True, "vertices": 12}],
                                {"far_apart_pairs": 6, "pair_tests": 36}),
                               (50, None, {"far_apart_pairs": 0, "pair_tests": 0})):
        cfg = write_config(tmp_path, {"version": 1, "experiment": "delta", "instance": {"cycle": 12},
                                      "params": {"sample": sample}})
        out = tmp_path / f"out-{sample}"
        assert main(["delta", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["diagnostics"]["four_point"] == work
        assert set(report["rows"][0]) == {"delta", "quadruples_checked", "exhaustive", "vertices"}
        assert rows is None or report["rows"] == rows


@pytest.mark.parametrize("depth, delta, quadruples, vertices, pairs", [
    (1, "1", 25_637_001, 159, 3_066), (2, "1", 200_860_990, 265, 3_958), (3, "3/2", 776_673_660, 371, 4_062)])
def test_cli_delta_on_z_free_z_radius_3_over_depth(tmp_path, depth, delta, quadruples, vertices, pairs):
    """Exact four-point delta of the Z*Z radius-3 carriers at depths 1, 2
    and 3, the first entries of a delta table over depth."""
    cfg = write_config(tmp_path, {"version": 1, "experiment": "delta", "instance": Z_FREE_Z,
                                  "params": {"depth": depth, "sample": "all"}})
    assert main(["delta", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["rows"] == [{"delta": delta, "quadruples_checked": quadruples, "exhaustive": True,
                               "vertices": vertices}]
    assert report["diagnostics"]["four_point"]["far_apart_pairs"] == pairs


def test_delta_with_a_depth_on_a_graph_reads_the_restricted_horoball(tmp_path):
    """A ``depth`` on an instance that is not a group glues one horoball over
    the whole graph, as a group that is not a free product is its own single
    parabolic: the path of 9 vertices and the radius-4 ball of Z give the
    same carrier."""
    rows = {}
    for name, instance in (("path", {"path": 8}), ("group", {"group": {"free_abelian": 1}, "radius": 4})):
        cfg = validate_config({"version": 1, "experiment": "delta", "instance": instance,
                               "params": {"depth": 3}})
        rows[name] = run_experiment(cfg, tmp_path / name).rows[0]
    carrier = build_restricted_horoball(path_graph(8), 3).carrier
    fw = floyd_warshall(carrier.num_vertices, [tuple(e) for e in carrier.edges.tolist()])
    assert rows["path"] == rows["group"]
    assert rows["path"]["vertices"] == 36 and rows["path"]["delta"] == str(naive_four_point_delta(fw))


@pytest.mark.parametrize("kind,params", [("convexify-experiment", {"depths": [1], "budget": 100}),
                                         ("milnor-svarc", {"depth": 1, "t_list": [1], "budget": 100})])
def test_cli_free_product_over_its_budget_exits_3(tmp_path, capsys, kind, params):
    # Z^2*Z^2 at radius 3 has 337 elements, each factor ball 25
    cfg = write_config(tmp_path, {"version": 1, "experiment": kind, "params": params,
                                  "instance": {"group": Z2Z2, "radius": 3}})
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert ("resource limit: ball of free_abelian(2) * free_abelian(2) at radius 3 exceeds the budget "
            "of 100 vertices") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("group, radius", [
    ({"free_abelian": 2}, 2**70), ({"free_abelian": 1}, 2**70), ({"free": 2}, 2**70), ({"free": 1}, 2**70),
    ({"free_product": [{"free_abelian": 2}, {"free": 2}]}, 2**70),
    ({"free_product": [{"free_abelian": 1}, {"free_abelian": 1}]}, 99_999),
    ({"free_product": [{"heisenberg": {}}, {"free_abelian": 2}]}, 2**70),
], ids=["Z2", "Z", "F2", "F1", "Z2*F2", "Z*Z-r99999", "Heis*Z2"])
def test_cli_counts_closed_form_balls_before_building_them(tmp_path, capsys, monkeypatch, group, radius):
    """Free and free abelian balls, and free products of them, are refused
    from their closed-form sizes, and a free product with such a factor by
    that factor's size before any factor ball is built: no group element
    is ever multiplied."""
    def no_products(*args):
        raise AssertionError("a group element was multiplied before the budget check")

    monkeypatch.setattr(horolab.groups.GroupSpec, "_mul", no_products)
    cfg = write_config(tmp_path, {"version": 1, "experiment": "delta",
                                  "instance": {"group": group, "radius": radius}})
    assert main(["delta", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_RESOURCE
    err = capsys.readouterr().err
    spec = horolab.groups.GroupSpec.from_json(group)
    assert f"resource limit: ball of {spec.describe()} at radius {radius} exceeds the budget of 200000 vertices" in err
    assert "Traceback" not in err


def test_cli_rejects_mismatched_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": "delta",
        "instance": {"cycle": 12}, "params": {},
    })
    assert main(["shortcut", "--config", cfg]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_cli_rejects_missing_file(tmp_path, capsys):
    assert main(["delta", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_cli_rejects_unknown_param(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": "delta",
        "instance": {"cycle": 12}, "params": {"zap": 1},
    })
    assert main(["delta", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize("kind,params", [("build-horoball", {"depth": 2}), ("delta", {"sample": "all"})])
def test_cli_rejects_empty_graph_file(tmp_path, capsys, kind, params):
    graph = tmp_path / "empty.json"
    graph.write_text(json.dumps({"version": 1, "vertices": [], "edges": []}), encoding="utf-8")
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": kind,
        "instance": {"graph_file": str(graph)}, "params": params,
    })
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "input error" in capsys.readouterr().err


ZZ_RADIUS2 = {"group": {"free_product": [{"free_abelian": 1}, {"free_abelian": 1}]}, "radius": 2}


@pytest.mark.parametrize("kind,instance,params,stream", [
    ("convexity", {"cycle": 8}, {"set": {"vertices": [0, 9]}}, "input error"),
    ("convexity", {"cycle": 8}, {"set": {"vertices": [-1, 3]}}, "input error"),
    ("delta", {"cycle": "abc"}, {}, "config error: instance.cycle"),
    ("delta", {"path": 2.5}, {}, "config error: instance.path"),
    ("delta", {"grid": [3]}, {}, "config error: instance.grid"),
    ("shortcut", {"cycle": 6}, {"n_list": [4], "lambda": {"hi": "2"}}, "config error: params.lambda"),
    ("shortcut", {"cycle": 6}, {"n_list": [4], "lambda": {"lo": "x", "hi": "2"}},
     "config error: params.lambda.lo"),
    ("shortcut", {"cycle": 6}, {"n_list": [4], "lambda": {"lo": "0", "hi": "2"}},
     "input error: lambda grid must start above 0"),
    ("shortcut", {"cycle": 6}, {"n_list": [4], "lambda": {"lo": "-2", "hi": "0"}},
     "input error: lambda grid must start above 0"),
    ("convexity", {"cycle": 8}, {"set": {"vertices": ["a", 1]}}, "config error: params.set.vertices"),
    ("convexity", {"cycle": 8}, {"set": {"vertices": [0, 4]}, "interior": {"radius": 2}},
     "config error: params.interior.basepoint"),
    ("convexity", {"cycle": 8}, {"set": {"level_at_least": 1}},
     "config error: params.set.level_at_least: needs a horoball depth"),
    ("convexity", {"cycle": 8}, {"depth": 2, "set": {"vertices": [0, 4], "level_at_least": 1}},
     "config error: params.set: give level_at_least or vertices, not both"),
    ("convexify-experiment", ZZ_RADIUS2, {"depths": ["x"]}, "config error: params.depths"),
    ("milnor-svarc", ZZ_RADIUS2, {"depth": 1, "t_list": ["x"]}, "config error: params.t_list"),
    ("convexify-experiment", ZZ_RADIUS2, {"depths": [1], "geodesic_cap": "z"},
     "config error: params.geodesic_cap"),
    ("shortcut", {"cycle": 6}, {"n_list": [4], "lambda": {"lo": "1", "hi": "2"}, "restrict": "abc"},
     "config error: params.restrict"),
    ("shortcut", {"cycle": 6}, {"n_list": [4], "lambda": {"lo": "1", "hi": "2"}, "restrict": [0, 6]},
     "input error: restrict"),
    ("augment", {"group": {"free": "x"}, "radius": 2}, {"depth": 1}, "config error: instance.group"),
    ("augment", {"group": {"free_product": 5}, "radius": 2}, {"depth": 1},
     "config error: instance.group"),
    ("augment", {"group": {"free_abelian": 2, "names": 7}, "radius": 2}, {"depth": 1},
     "config error: instance.group"),
    ("augment", {"group": {"free_abelian": 2, "names": ["a"]}, "radius": 2}, {"depth": 1},
     "config error: instance.group: the group has 2 generators, but 1 names are given"),
    ("milnor-svarc", {"group": {"free": 1, "names": ["a", "b", "c"]}, "radius": 2}, {"depth": 1, "t_list": [1]},
     "config error: instance.group: the group has 1 generators, but 3 names are given"),
    ("augment", {"group": {"free": 2, "extra": 1}, "radius": 2}, {"depth": 1},
     "config error: instance.group: unknown key 'extra'"),
    ("augment", {"group": {"free_product": [{"free": 1}, {"free_abelian": 1, "names": ["a"], "x": 0}]},
                 "radius": 2}, {"depth": 1}, "config error: instance.group: unknown key 'x'"),
    ("augment", {"group": {"heisenberg": 5}, "radius": 2}, {"depth": 1},
     "config error: instance.group: heisenberg takes an object"),
    ("augment", {"group": {"heisenberg": {"include_central": 1}}, "radius": 2}, {"depth": 1},
     "config error: instance.group: heisenberg takes an object"),
], ids=["set-above-range", "set-below-range", "cycle-not-int", "path-not-int", "grid-one-value",
        "lambda-without-lo", "lambda-lo-not-rational", "lambda-from-0", "lambda-from-negative",
        "set-vertex-not-int", "interior-without-basepoint",
        "set-level-without-depth", "set-level-and-vertices",
        "depths-not-int", "t_list-not-int", "geodesic_cap-not-int", "restrict-not-a-list",
        "restrict-out-of-range", "rank-not-int", "free-product-not-a-list", "names-not-a-list",
        "names-too-few", "names-too-many", "group-extra-key", "factor-extra-key", "heisenberg-not-an-object",
        "heisenberg-option-not-a-bool"])
def test_cli_rejects_bad_values(tmp_path, capsys, kind, instance, params, stream):
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": kind, "instance": instance, "params": params,
    })
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert stream in capsys.readouterr().err


@pytest.mark.parametrize("kind,instance,params,seed,stream", [
    ("delta", {"cycle": 6}, {"sample": True}, True, "config error: seed"),
    ("delta", {"cycle": 6}, {"sample": True}, 0, "config error: params.sample"),
    ("augment", {"group": {"free_abelian": 2}, "radius": True}, {"depth": 1}, 0,
     "config error: instance.radius"),
], ids=["seed-true", "sample-true", "radius-true"])
def test_cli_rejects_booleans_as_integers(tmp_path, capsys, kind, instance, params, seed, stream):
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": kind, "instance": instance, "params": params, "seed": seed,
    })
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert stream in capsys.readouterr().err


_GRAPH_FILES = {
    "vertex-null": b'{"version": 1, "vertices": [null], "edges": []}',
    "id-true": b'{"version": 1, "vertices": [{"id": true}], "edges": []}',
    "ids-bool": b'{"version": 1, "vertices": [{"id": false}, {"id": true}], "edges": [[0, 1]]}',
    "edge-bool": b'{"version": 1, "vertices": [{"id": 0}, {"id": 1}], "edges": [[false, true]]}',
    "edge-float": b'{"version": 1, "vertices": [{"id": 0}, {"id": 1}], "edges": [[0.0, 1]]}',
    "edge-huge": b'{"version": 1, "vertices": [{"id": 0}, {"id": 1}], "edges": [[0, 1180591620717411303424]]}',
    "metadata-list": b'{"version": 1, "vertices": [{"id": 0}], "edges": [], "metadata": [1]}',
    "not-utf8": b'\xff\xfe{"version": 1}',
    "nested-too-deep": b"[" * 100_000,
}


@pytest.mark.parametrize("case, stream", [
    ("config-directory", "config error: --config: cannot read config"),
    ("config-not-utf8", "config error: --config: cannot read config"),
    ("graph-file-not-a-string", "config error: instance.graph_file"),
    ("graph-file-missing", "input error: cannot read graph file"),
    ("graph-file-directory", "input error: cannot read graph file"),
    ("out-under-a-file", "input error: cannot make the output directory"),
    *[(f"graph-{name}", "input error") for name in _GRAPH_FILES],
])
def test_cli_rejects_bad_files_and_paths(tmp_path, capsys, case, stream):
    """Unreadable configs and graph files, graph documents that spell ids
    as booleans or floats, and an output directory under a regular file
    exit 2 with a message, not a traceback."""
    instance = {"cycle": 6}
    if case.startswith("graph-") and case[len("graph-"):] in _GRAPH_FILES:
        (tmp_path / "g.json").write_bytes(_GRAPH_FILES[case[len("graph-"):]])
        instance = {"graph_file": str(tmp_path / "g.json")}
    elif case != "out-under-a-file" and case.startswith("graph-file"):
        instance = {"graph_file": {"graph-file-not-a-string": 5, "graph-file-missing": str(tmp_path / "nope.json"),
                                   "graph-file-directory": str(tmp_path)}[case]}
    cfg = write_config(tmp_path, {"version": 1, "experiment": "delta", "instance": instance})
    out = tmp_path / "out"
    if case == "config-directory":
        cfg = str(tmp_path)
    elif case == "config-not-utf8":
        pathlib.Path(cfg).write_bytes(b'\xff{"version": 1}')
    elif case == "out-under-a-file":
        (tmp_path / "plain").write_text("x", encoding="utf-8")
        out = tmp_path / "plain" / "out"
    assert main(["delta", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert stream in err and "Traceback" not in err


@pytest.mark.parametrize("kind, instance, params, stream", [
    ("delta", {"path": 2**70}, {}, "path of 1180591620717411303425 vertices exceeds the budget of 200000"),
    ("delta", {"grid": [2**70, 2]}, {}, "grid of 2361183241434822606848 vertices exceeds the budget of 200000"),
    ("delta", {"cycle": 200_001}, {}, "cycle of 200001 vertices exceeds the budget of 200000"),
    ("delta", {"cycle": 6}, {"sample": 2**70}, "params.sample: 1180591620717411303424 sampled quadruples"),
    ("shortcut", {"cycle": 8}, {"n_list": [10_000], "lambda": {"lo": "1", "hi": "2"}},
     "params.n_list: 100000000 cycle-table cells"),
    ("shortcut", {"cycle": 8}, {"n_list": [4], "lambda": {"lo": "1", "hi": "1000000000", "step": "1/1000"}},
     "params.lambda: 999999999001 lambda values"),
    ("augment", {"group": {"free": 2**70}, "radius": 3}, {"depth": 1}, "free rank 1180591620717411303424"),
    ("shortcut", {"cycle": 8}, {"K": "1e10000000", "n_list": [4], "lambda": {"lo": "1", "hi": "2"}},
     "params.K: the exponent of '1e10000000' is over 10000"),
    ("shortcut", {"cycle": 8}, {"K": "1e10000000 ", "n_list": [4], "lambda": {"lo": "1", "hi": "2"}},
     "params.K: the exponent of '1e10000000 ' is over 10000"),
    ("shortcut", {"cycle": 8}, {"K": "1e10_000_000", "n_list": [4], "lambda": {"lo": "1", "hi": "2"}},
     "params.K: the exponent of '1e10_000_000' is over 10000"),
    ("shortcut", {"cycle": 8}, {"K": "1e5000", "n_list": [4], "lambda": {"lo": "1", "hi": "2"}},
     "params.K: '1e5000' has more than 10000 bits"),
    ("shortcut", {"cycle": 8}, {"n_list": [4], "lambda": {"lo": "1", "hi": "2", "step": f"1/{'9' * 4000}"}},
     "params.lambda.step: '1/999"),
    ("delta", {"path": 20000}, {"sample": "all"},
     f"a distance table of 20001 x 20001 vertices exceeds the table budget of {256 * 2**20} bytes"),
    ("convexity", {"path": 20000}, {"depth": 2, "set": {"level_at_least": 1}},
     f"a distance table of 20001 x 20001 vertices exceeds the table budget of {256 * 2**20} bytes"),
    # 300,000 drawn w, x and y cover every vertex of the path
    ("delta", {"path": 9000}, {"sample": 100_000},
     f"a distance table of 9001 x 9001 vertices exceeds the table budget of {256 * 2**20} bytes"),
    # a 100 MB table, under the table budget, and C(5001, 4) quadruples
    ("delta", {"path": 5000}, {"sample": "all"},
     "an exhaustive four-point scan of 26031248958750 quadruples exceeds the quadruple budget of 1000000000"),
    # 3,600 vertices per level, and levels 12 on join all 6,478,200 pairs
    ("build-horoball", {"grid": [60, 60]}, {"depth": 12},
     "carrier of at least 6528480 edges at depth 12 exceeds the carrier edge budget of 4000000 edges"),
    # the word rows, carrier rows and S_t tables over 80,401 / 66,921 elements
    ("milnor-svarc", {"group": {"free_abelian": 2}, "radius": 200}, {"depth": 3, "t_list": [1, 2]},
     f"a distance table of 80401 x 80401 vertices exceeds the table budget of {256 * 2**20} bytes"),
    ("milnor-svarc", {"group": {"free_product": [{"free_abelian": 2}, {"free_abelian": 2}]}, "radius": 6},
     {"depth": 3, "t_list": [1, 2]},
     f"a distance table of 66921 x 66921 vertices exceeds the table budget of {256 * 2**20} bytes"),
    # an 8,100 x 8,100 row table fits the table budget; its C(8100, 2) pairs
    # against 8,100 vertices do not fit the scan budget
    ("convexity", {"grid": [90, 90]}, {"set": {"vertices": list(range(8100))}},
     "a convexity scan of 32800950 pairs x 8100 vertices exceeds the scan budget of 10000000000 cells"),
    ("convexity", {"grid": [300, 300]}, {"set": {"vertices": list(range(90000))}},
     f"a list of 4049955000 vertex pairs exceeds the table budget of {256 * 2**20} bytes"),
    # a depth-built graph instance is counted before its horoball: (depth + 1)
    # x 7,921 vertices, and 3 x 8,100 or 7,000 vertices in the set
    ("delta", {"grid": [89, 89]}, {"depth": 1, "sample": "all"},
     f"a distance table of 15842 x 15842 vertices exceeds the table budget of {256 * 2**20} bytes"),
    ("convexity", {"grid": [90, 90]}, {"depth": 3, "set": {"level_at_least": 1}},
     f"a list of 295232850 vertex pairs exceeds the table budget of {256 * 2**20} bytes"),
    ("convexity", {"grid": [89, 89]}, {"depth": 2, "set": {"vertices": list(range(7000))}},
     "a convexity scan of 24496500 pairs x 23763 vertices exceeds the scan budget of 10000000000 cells"),
], ids=["path", "grid", "cycle", "sample", "cycle-table", "lambda-grid", "free-rank", "K-exponent",
        "K-exponent-space", "K-exponent-underscores", "K-digits",
        "step-digits", "distance-table", "shape-table", "sampled-rows", "quadruples", "carrier-edges",
        "milnor-svarc-tables", "milnor-svarc-free-product", "scan-cells", "pair-list",
        "horoball-delta-table", "horoball-level-pairs", "horoball-vertex-scan"])
def test_cli_counts_over_their_budget_exit_3(tmp_path, capsys, monkeypatch, kind, instance, params, stream):
    """Instance sizes, sample counts, cycle tables, lambda grids, group
    ranks, dense distance tables (the whole graph's, a horoball member's
    shape table, the rows of a sampled four-point scan, or Milnor-Svarc's
    element tables), the quadruples of an exhaustive four-point scan, the
    edges of a horoball, and the pairs and cells of a convexity scan are
    counted in Python integers and refused before anything of that size is
    built, and before any distance row."""
    def no_rows(*args, **kwargs):
        raise AssertionError("a distance row was computed before the budget check")

    for module in (horolab.graph, horolab.analysis, horolab.experiments):
        monkeypatch.setattr(module, "distance_rows", no_rows)
    cfg = write_config(tmp_path, {"version": 1, "experiment": kind, "instance": instance, "params": params})
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert f"resource limit: {stream}" in err and "Traceback" not in err


@pytest.mark.parametrize("name, lowered, kind, instance, params", [
    ("table", 4 * 6 * 6 - 1, "delta", {"path": 5}, {"sample": "all"}),  # a 6 x 6 table
    ("quadruple", 14, "delta", {"path": 5}, {"sample": "all"}),  # C(6, 4) = 15
    ("scan", 89, "convexity", {"path": 5}, {"set": {"vertices": list(range(6))}}),  # 15 pairs x 6
    ("count", 15, "shortcut", {"cycle": 8}, {"n_list": [4], "lambda": {"lo": "1", "hi": "2"}}),  # 4^2 cells
    ("carrier", 14, "build-horoball", {"path": 4}, {"depth": 2}),  # 5 + 2 x 5 vertices
    ("carrier edge", 5, "build-horoball", {"path": 4}, {"depth": 2}),
])
def test_every_budget_is_read_from_the_table(tmp_path, capsys, monkeypatch, name, lowered, kind, instance, params):
    """Each budget is read from ``errors.BUDGETS`` when it is checked: one
    lowered there refuses a small config that passes it by default."""
    cfg = write_config(tmp_path, {"version": 1, "experiment": kind, "instance": instance, "params": params})
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "ok")]) == EXIT_OK
    monkeypatch.setitem(horolab.errors.BUDGETS, name, lowered)
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert f"the {name} budget of {lowered}" in err and "Traceback" not in err


def test_cli_interior_scan_counts_only_its_ball(tmp_path, capsys):
    """An interior filter's pairs are counted once it has cut the set to its
    ball: all 90,000 vertices of a 300 x 300 grid, whose C(90000, 2) pairs
    pass the table budget, scan the 60 interior pairs of a corner's radius-4
    ball."""
    cfg = write_config(tmp_path, {"version": 1, "experiment": "convexity", "instance": {"grid": [300, 300]},
                                  "params": {"set": {"vertices": list(range(90_000))},
                                             "interior": {"basepoint": 0, "radius": 4}}})
    assert main(["convexity", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    rows = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
    assert [(row["pairs_checked"], row["convex"]) for row in rows] == [(60, True)]


def test_graph_file_is_read_once_and_hashed_as_read(tmp_path, monkeypatch):
    """A graph file's instance hash is the sha256 of the one text the graph
    was parsed from: the file is read once."""
    graph_file = tmp_path / "g.json"
    graph_file.write_text(canonical_json(horolab.io.graph_to_json(path_graph(3))), encoding="utf-8")
    reads = []
    real = pathlib.Path.read_text

    def counted(self, *args, **kwargs):
        reads.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "read_text", counted)
    g, ball, digest = build_instance_graph({"graph_file": str(graph_file)})
    assert reads == [graph_file] and ball is None and g.num_vertices == 4
    assert digest == hashlib.sha256(real(graph_file, encoding="utf-8").encode("utf-8")).hexdigest()


def test_budgets_admit_every_benchmark_config(monkeypatch):
    """Every config the benchmark runs passes validation, budgets included."""
    import importlib.util
    import sys

    path = pathlib.Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    for ops in workloads.WORKLOADS.values():
        for op in ops:
            validate_config(op.config("graph.json" if op.graph else None))


def test_ops_run_without_scipy_or_numpy_ma(tmp_path):
    """``import horolab.cli`` and one small convexify-experiment,
    milnor-svarc and shortcut op, and a convexity op on a long path (20,001
    BFS levels per row), in a fresh process, load neither scipy nor
    ``numpy.ma``: every CLI process would pay their imports (0.2-0.3 s for
    scipy's sparse graphs, 12-19 ms for ``numpy.ma``, which a plain
    ``np.unique`` pulls in)."""
    configs = [
        ("convexify-experiment", {"group": {"free_product": [{"free_abelian": 2}, {"free_abelian": 2}]}, "radius": 3},
         {"depths": [1, 2, 3]}),
        ("milnor-svarc", {"group": {"free_abelian": 2}, "radius": 6}, {"depth": 3, "t_list": [1, 2, 4]}),
        ("shortcut", {"grid": [5, 5]}, {"K": "6/5", "n_list": [5, 6], "lambda": {"lo": "2", "hi": "3", "step": "1/2"}}),
        ("convexity", {"path": 20000}, {"set": {"vertices": [0, 20000]}}),
    ]
    argvs = [[kind, "--config", write_config(tmp_path, {"version": 1, "experiment": kind, "instance": instance,
                                                        "params": params}, f"{kind}.json"),
              "--out", str(tmp_path / kind)] for kind, instance, params in configs]
    script = "\n".join([
        "import json, sys",
        "import horolab.cli",
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy.ma')",
        "at_start = loaded()",
        f"codes = [horolab.cli.main(argv) for argv in {argvs!r}]",
        "print(json.dumps([at_start, codes, loaded()]))",
    ])
    src = pathlib.Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[], [EXIT_OK] * len(configs), []]


def test_ops_build_no_subgraph(tmp_path):
    """A free-product convexify-experiment, augment and milnor-svarc op read
    the coset family as arrays: a family has no member view to build a
    member with (the view is ``oracles.subgraph``)."""
    assert not hasattr(horolab.graph.SubgraphFamily, "__getitem__")
    assert not hasattr(horolab.graph.SubgraphFamily, "__iter__")
    instance = {"group": {"free_product": [{"free_abelian": 2}, {"free_abelian": 2}]}, "radius": 3}
    configs = [
        ("convexify-experiment", {"depths": [1, 2, 3]}),
        ("augment", {"depth": 2}),
        ("milnor-svarc", {"depth": 3, "t_list": [1, 2, 4]}),
    ]
    codes = [main([kind, "--config", write_config(tmp_path, {"version": 1, "experiment": kind, "instance": instance,
                                                          "params": params}, f"{kind}.json"),
                   "--out", str(tmp_path / kind)]) for kind, params in configs]
    assert codes == [EXIT_OK] * len(configs)


def test_cli_milnor_svarc_past_the_saturating_depth(tmp_path):
    """On Z^2 at radius 3 every word distance is at most 6, so depths past 3
    add nothing: depth 2**70 gives the rows of depth 3 (it once overflowed
    int32 in the crossing costs)."""
    rows = {}
    for depth in (3, 2**70):
        cfg = write_config(tmp_path, {"version": 1, "experiment": "milnor-svarc",
                                      "instance": {"group": {"free_abelian": 2}, "radius": 3},
                                      "params": {"depth": depth, "t_list": [1, 2, 4]}})
        assert main(["milnor-svarc", "--config", cfg, "--out", str(tmp_path / str(depth))]) == EXIT_OK
        rows[depth] = json.loads((tmp_path / str(depth) / "report.json").read_text())["rows"]
    assert rows[2**70] == rows[3]


def test_report_echoes_the_config_as_given(tmp_path):
    """Parsed values and defaults stay out of the report's config echo."""
    params = {"n_list": [4], "lambda": {"lo": "1", "hi": "2"}}
    cfg = validate_config({"version": 1, "experiment": "shortcut", "instance": {"cycle": 6}, "params": params})
    assert cfg.values["K"] == 1 and cfg.values["node_cap"] == 2_000_000
    run_experiment(cfg, tmp_path / "out")
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["config"] == {"version": 1, "experiment": "shortcut", "instance": {"cycle": 6},
                             "params": params, "seed": 0}


def test_cli_convexity_on_a_long_path(tmp_path):
    # geodesic enumeration along 3000 edges must not recurse per vertex
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": "convexity",
        "instance": {"path": 3000}, "params": {"set": {"vertices": [0, 3000]}},
    })
    assert main(["convexity", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    row = json.loads((tmp_path / "out" / "report.json").read_text())["rows"][0]
    assert row["defect"] == 1500 and row["quasiconvexity"] == 1500


@pytest.mark.parametrize("cap,code", [(None, EXIT_CONFIG), (5, EXIT_CONFIG), (0, EXIT_OK)])
def test_cli_convexity_across_two_components(tmp_path, capsys, cap, code):
    # 0-1-2 and 3-4: the set {0, 2, 3} has pairs in two components
    graph = tmp_path / "two.json"
    graph.write_text(json.dumps({"version": 1, "vertices": [{"id": i} for i in range(5)],
                                 "edges": [[0, 1], [1, 2], [3, 4]]}), encoding="utf-8")
    params = {"set": {"vertices": [0, 2, 3]}}
    if cap is not None:
        params["geodesic_cap"] = cap
    cfg = write_config(tmp_path, {"version": 1, "experiment": "convexity",
                                  "instance": {"graph_file": str(graph)}, "params": params})
    assert main(["convexity", "--config", cfg, "--out", str(tmp_path / "out")]) == code
    if code == EXIT_CONFIG:
        assert "input error: u and v are in different components" in capsys.readouterr().err
    else:
        row = json.loads((tmp_path / "out" / "report.json").read_text())["rows"][0]
        assert row == {"defect": 1, "convex": False, "witnesses": [[0, 2, 1]], "quasiconvexity": 0,
                       "pairs_checked": 3}


_ODD_VALUES = st.one_of(st.booleans(), st.integers(-3, -1), st.floats(allow_nan=True, allow_infinity=True),
                        st.text(max_size=2), st.none())
_ODD_FIELDS = st.one_of(_ODD_VALUES, st.just(2**70), st.just([]), st.just({}))


def _exit_code(config, graph_text: str | None = None) -> int:
    """``main`` on ``config`` (and a graph file with ``graph_text``, which
    a ``"graph_file": "<graph>"`` instance names), in a fresh directory."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        if graph_text is not None:
            (pathlib.Path(tmp) / "graph.json").write_text(graph_text, encoding="utf-8")
            config = json.loads(json.dumps(config).replace('"<graph>"', json.dumps(str(pathlib.Path(tmp) / "graph.json"))))
        cfg = pathlib.Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        return main([config["experiment"], "--config", str(cfg), "--out", str(pathlib.Path(tmp) / "out")])
_ODD_IDS = st.one_of(_ODD_VALUES, st.integers(-3, 40), st.just(2**70))
# past the carrier budget on every small instance: inside int64, and past it
_HUGE_DEPTHS = st.sampled_from([10**6, 2**62, 2**63, 2**70])


@st.composite
def _convexity_configs(draw):
    """A convexity config with at most one field drawn from odd values."""
    odd = draw(st.sampled_from([None, None, "geodesic_cap", "set", "interior", "depth"]))
    # up to every vertex of the largest instance, the 3 x 3 grid
    params = {"set": {"vertices": draw(st.lists(st.integers(0, 8), min_size=1, max_size=9))}}
    if draw(st.booleans()):
        params["depth"] = draw(st.integers(1, 3))
        if draw(st.booleans()):
            params["set"] = {"level_at_least": draw(st.integers(0, 3))}
    if draw(st.booleans()):
        params["geodesic_cap"] = draw(st.one_of(st.integers(0, 80), st.just(2**70)))
    if draw(st.booleans()):
        params["interior"] = {"basepoint": draw(st.integers(0, 5)), "radius": draw(st.integers(0, 8))}
    if odd == "set":
        params["set"] = draw(st.one_of(
            st.fixed_dictionaries({"vertices": st.lists(_ODD_IDS, max_size=8)}),
            st.fixed_dictionaries({"level_at_least": _ODD_IDS}), st.just({}), st.just([0, 1])))
    elif odd == "interior":
        params["interior"] = draw(st.one_of(
            _ODD_VALUES, st.just([]),
            st.fixed_dictionaries({"basepoint": _ODD_IDS, "radius": _ODD_IDS})))
    elif odd == "geodesic_cap":
        params[odd] = draw(_ODD_VALUES)
    elif odd == "depth":
        params[odd] = draw(st.one_of(_ODD_VALUES, st.just(0), _HUGE_DEPTHS))
    instance = draw(st.sampled_from([{"cycle": 8}, {"path": 6}, {"grid": [3, 3]}]))
    return {"version": 1, "experiment": "convexity", "instance": instance, "params": params}


@settings(max_examples=100, deadline=None)
@given(config=_convexity_configs())
def test_cli_convexity_front_door_never_raises(config):
    """Any convexity config ends in a documented exit code, not a traceback:
    odd caps (bools, negatives, floats, 2**70), sets, interiors and depths."""
    assert _exit_code(config) in (EXIT_OK, EXIT_CONFIG, EXIT_RESOURCE, EXIT_VIOLATION)


@st.composite
def _carrier_configs(draw):
    """A build-horoball or augment config on a small instance, with a depth
    that is small, huge or odd (or missing)."""
    kind = draw(st.sampled_from(["build-horoball", "augment"]))
    instance = draw(st.sampled_from([
        {"cycle": 6}, {"path": 5}, {"grid": [3, 3]},
        {"group": {"free_product": [{"free_abelian": 1}, {"free_abelian": 1}]}, "radius": 2},
        {"group": {"free_product": [{"free_abelian": 2}, {"free_abelian": 1}]}, "radius": 2},
        {"group": {"free_abelian": 2}, "radius": 2},
    ]))
    params = {}
    if draw(st.integers(0, 9)):
        params["depth"] = draw(st.one_of(st.integers(1, 3), _HUGE_DEPTHS, _ODD_VALUES, st.just(0)))
    return {"version": 1, "experiment": kind, "instance": instance, "params": params}


@settings(max_examples=100, deadline=None)
@given(config=_carrier_configs())
def test_cli_carrier_front_door_never_raises(config):
    """Any build-horoball or augment config ends in a documented exit code,
    not a traceback: depths up to 2**70, booleans, floats and negatives."""
    assert _exit_code(config) in (EXIT_OK, EXIT_CONFIG, EXIT_RESOURCE, EXIT_VIOLATION)


def _paths(value, prefix=()) -> list[tuple]:
    """The key path of every value nested in dicts and lists."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    return [path for key, item in items for path in [prefix + (key,), *_paths(item, prefix + (key,))]]


@st.composite
def _with_an_odd_field(draw, doc: dict, keep: tuple = ()) -> dict:
    """``doc`` with at most one value anywhere in it (outside ``keep``)
    replaced by an odd value or dropped, or an unknown key added next to it."""
    doc = json.loads(json.dumps(doc))  # a copy: sampled instances are shared
    paths = [path for path in _paths(doc) if path[0] not in keep]
    path = draw(st.sampled_from([None, *paths]))
    if path is not None:
        *head, last = path
        holder = doc
        for key in head:
            holder = holder[key]
        change = draw(st.sampled_from(["drop", "odd", "extra"]) if isinstance(holder, dict) else st.just("odd"))
        if change == "drop":
            del holder[last]
        elif change == "extra":
            holder[draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in holder))] = draw(_ODD_FIELDS)
        else:
            holder[last] = draw(_ODD_FIELDS)
    return doc


_ZZ = {"free_product": [{"free_abelian": 1}, {"free_abelian": 1}]}
_SMALL_GRAPHS = st.sampled_from([{"cycle": 6}, {"path": 4}, {"grid": [2, 3]}])
# every kind's valid configs on small instances; a fuzzed config changes one field of one
_FRONT_DOORS = {
    "delta": (st.one_of(_SMALL_GRAPHS, st.just({"group": _ZZ, "radius": 2})), st.fixed_dictionaries(
        {}, optional={"sample": st.one_of(st.just("all"), st.integers(1, 50)), "depth": st.integers(1, 2)})),
    "shortcut": (_SMALL_GRAPHS, st.fixed_dictionaries({
        "n_list": st.lists(st.integers(3, 6), min_size=1, max_size=2),
        "lambda": st.fixed_dictionaries({"lo": st.sampled_from(["1", "3/2"]), "hi": st.sampled_from(["1", "2"])},
                                        optional={"step": st.sampled_from(["1/2", "1"])}),
    }, optional={"K": st.sampled_from(["1", "6/5", "2"]), "restrict": st.lists(st.integers(0, 5), max_size=4),
                 "node_cap": st.integers(1, 300)})),
    "milnor-svarc": (st.sampled_from([{"group": {"free_abelian": 2}, "radius": 3}, {"group": _ZZ, "radius": 2}]),
                     st.fixed_dictionaries({"depth": st.integers(1, 3), "t_list": st.lists(st.integers(0, 4), min_size=1,
                                                                                           max_size=3),
                                            "budget": st.integers(50, 2000)})),
    "convexify-experiment": (
        st.sampled_from([{"group": _ZZ, "radius": 2},
                         {"group": {"free_product": [{"free_abelian": 2}, {"free_abelian": 1}]}, "radius": 2}]),
        st.fixed_dictionaries({"depths": st.lists(st.integers(1, 3), min_size=1, max_size=3),
                               "budget": st.integers(50, 2000)},
                              optional={"verify_cosets": st.integers(0, 3), "geodesic_cap": st.integers(0, 40)})),
}


@pytest.mark.parametrize("kind", sorted(_FRONT_DOORS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_front_door_never_raises(kind, data):
    """Any delta, shortcut, milnor-svarc or convexify-experiment config ends
    in a documented exit code, not a traceback: a valid config with one
    field anywhere (instance, params, nested objects, list items, seed)
    made a boolean, float, null, string, negative, 2**70, empty list or
    empty object, or dropped, or with an unknown key added anywhere."""
    instances, params = _FRONT_DOORS[kind]
    config = {"version": 1, "experiment": kind, "instance": data.draw(instances), "params": data.draw(params),
              "seed": data.draw(st.integers(0, 5))}
    config = data.draw(_with_an_odd_field(config, keep=("version", "experiment")))
    assert _exit_code(config) in (EXIT_OK, EXIT_CONFIG, EXIT_RESOURCE, EXIT_VIOLATION)


@st.composite
def _disagreeing_groups(draw) -> dict:
    """A group description with one part that disagrees with the rest, at
    the top or in a factor: a names list whose length is not the rank, an
    unknown key, or a heisenberg value that is not an object of options."""
    group = json.loads(json.dumps(draw(st.sampled_from([
        {"free": 2}, {"free_abelian": 2}, {"heisenberg": {}}, _ZZ,
        {"free_product": [{"free_abelian": 2}, {"heisenberg": {"include_central": True}}]}]))))
    holder = draw(st.sampled_from([group, *group.get("free_product", [])]))
    kind = next(iter(holder))
    fault = draw(st.sampled_from(["names", "key", "heisenberg"]))
    if fault == "names":
        rank = 3 if kind == "heisenberg" else holder[kind] if kind != "free_product" else -1
        holder["names"] = [f"g{i}" for i in range(draw(st.integers(0, 5).filter(lambda k: k != rank)))]
    elif fault == "key":
        holder[draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in holder and k != "names"))] = draw(
            _ODD_FIELDS)
    else:
        holder.clear()
        holder["heisenberg"] = draw(st.one_of(
            _ODD_FIELDS.filter(lambda v: v != {}),
            st.fixed_dictionaries({"include_central": _ODD_FIELDS.filter(lambda v: not isinstance(v, bool))}),
            st.fixed_dictionaries({"include_central": st.booleans(), "extra": _ODD_FIELDS})))
    return group


@settings(max_examples=100, deadline=None)
@given(group=_disagreeing_groups(),
       kind=st.sampled_from(["augment", "milnor-svarc", "convexify-experiment", "delta"]))
def test_cli_group_descriptions_that_disagree_exit_2(group, kind):
    """A group description whose parts disagree is refused with exit 2: it
    would otherwise build and report on a group other than the one the
    config names (``{"free_abelian": 2, "names": ["a"]}`` built Z)."""
    params = {"augment": {"depth": 1}, "milnor-svarc": {"depth": 1, "t_list": [1]},
              "convexify-experiment": {"depths": [1]}, "delta": {}}[kind]
    config = {"version": 1, "experiment": kind, "instance": {"group": group, "radius": 2}, "params": params}
    assert _exit_code(config) == EXIT_CONFIG


_JSON = st.recursive(st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats() | st.text(max_size=3),
                     lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                                 max_size=4),
                     max_leaves=12)


@st.composite
def _graph_documents(draw) -> dict:
    """A small graph document with one odd value anywhere in it, or any
    JSON document at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(_JSON)
    n = draw(st.integers(0, 6))
    pairs = {(min(e), max(e)) for e in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8))}
    doc = {"version": 1, "vertices": [{"id": v} for v in range(n)],
           "edges": [[u, v] for u, v in sorted(pairs) if u < v < n], "metadata": {}}
    if draw(st.booleans()):
        doc["vertices"] = [dict(v, label=draw(_JSON)) for v in doc["vertices"]]
    return draw(_with_an_odd_field(doc))


@settings(max_examples=100, deadline=None)
@given(doc=_graph_documents(), kind=st.sampled_from(["delta", "build-horoball", "convexity"]))
def test_cli_graph_files_never_raise(doc, kind):
    """Any JSON document as a graph file ends in a documented exit code, not
    a traceback, whichever kind reads it."""
    params = {"delta": {}, "build-horoball": {"depth": 2}, "convexity": {"set": {"vertices": [0, 1]}}}[kind]
    config = {"version": 1, "experiment": kind, "instance": {"graph_file": "<graph>"}, "params": params}
    assert _exit_code(config, json.dumps(doc)) in (EXIT_OK, EXIT_CONFIG, EXIT_RESOURCE, EXIT_VIOLATION)


@pytest.mark.parametrize("kind, instance, params", [
    ("build-horoball", {"path": 8}, {"depth": 2**70}),
    ("augment", Z_FREE_Z, {"depth": 2**70}),
    ("augment", Z_FREE_Z, {"depth": 2**62}),
    ("convexity", {"cycle": 8}, {"depth": 2**70, "set": {"level_at_least": 1}}),
    ("delta", Z_FREE_Z, {"depth": 2**70, "sample": 10}),
    ("convexify-experiment", Z_FREE_Z, {"depths": [1, 2**70]}),
], ids=["build-horoball", "augment", "augment-int64", "convexity", "delta", "convexify"])
def test_cli_carrier_over_its_budget_exits_3(tmp_path, capsys, kind, instance, params):
    """A carrier past the carrier budget in vertices is refused before it is
    built, with a message, at depths inside and past int64."""
    cfg = write_config(tmp_path, {"version": 1, "experiment": kind, "instance": instance, "params": params})
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert "resource limit: carrier of " in err and "exceeds the carrier budget of 1000000 vertices" in err
    assert "Traceback" not in err


def test_cli_seed_override_changes_echo(tmp_path):
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": "delta",
        "instance": {"cycle": 20}, "params": {"sample": 100}, "seed": 1,
    })
    main(["delta", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "77"])
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["config"]["seed"] == 77


def test_cli_milnor_svarc_end_to_end(tmp_path):
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": "milnor-svarc",
        "instance": {"group": {"free_abelian": 2}, "radius": 6},
        "params": {"depth": 1, "t_list": [1, 2]},
    })
    code = main(["milnor-svarc", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["rows"]) == 2


def test_cli_convexify_end_to_end(tmp_path):
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": "convexify-experiment",
        "instance": {"group": {"free_product": [{"free_abelian": 2}, {"free_abelian": 2}]},
                     "radius": 3},
        "params": {"depths": [1, 2]},
    })
    code = main(["convexify-experiment", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK


def test_convexify_report_keeps_diagnostics_out_of_rows(tmp_path):
    cfg = validate_config({
        "version": 1, "experiment": "convexify-experiment",
        "instance": {"group": {"free_product": [{"free_abelian": 2}, {"free_abelian": 2}]},
                     "radius": 3},
        "params": {"depths": [1, 2], "geodesic_cap": 2},
    })
    report = run_experiment(cfg, tmp_path / "out")
    assert report.rows == convexify_experiment(cayley_ball(Z2xZ2, 3), depths=[1, 2], geodesic_cap=2)
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["rows"] == report.rows
    depths = doc["diagnostics"]["depths"]
    assert [d["n"] for d in depths] == [1, 2]
    assert all(0 < d["local_carrier_vertices"] < row["carrier_vertices"]
               for d, row in zip(depths, report.rows))
    assert depths[0]["geodesic_cap_hits"] > 0  # cap 2 cuts some depth-1 enumerations
    assert not any(key in row for row in report.rows for key in set(depths[0]) - {"n"})


def test_geodesic_cap_hits_are_the_pairs_with_more_geodesics_than_the_cap():
    """At cap 1, ``geodesic_cap_hits`` counts exactly the scanned pairs that
    have two or more geodesics, counted by brute force on the whole carrier
    (a pair with a single geodesic was not cut short)."""
    from horolab.experiments import _sample_cosets
    from horolab.horoball import glue_horoballs

    from oracles import geodesic_counts

    radius = 3
    ball = cayley_ball(Z2xZ2, radius)
    diagnostics = []
    convexify_experiment(ball, [1, 2], geodesic_cap=1, diagnostics=diagnostics)
    family, factor_of, identity_indices = parabolic_family(ball)
    scanned = dict.fromkeys(identity_indices + _sample_cosets(family, factor_of, identity_indices, 3))
    for entry in diagnostics:
        aug = glue_horoballs(ball.graph, family, entry["n"])
        n, edges = aug.carrier.num_vertices, aug.carrier.edges.tolist()
        several = 0
        for alpha in scanned:
            members = subgraph(aug.family, alpha).vertices
            dmat = aug.member_metric(alpha)
            top = aug.level_vertices(alpha, entry["n"])
            for i in range(len(members)):
                counts = geodesic_counts(n, edges, top[i])
                for j in range(i + 1, len(members)):
                    wl = min(ball.word_lengths[members[i]], ball.word_lengths[members[j]])
                    if wl + dmat[i][j] <= radius:
                        several += counts[top[j]] >= 2
        assert entry["geodesic_cap_hits"] == several
    assert [entry["geodesic_cap_hits"] for entry in diagnostics] == [24, 0]  # of 228 pairs each


def test_convexity_report_counts_capped_pairs(tmp_path):
    cfg = validate_config({
        "version": 1, "experiment": "convexity", "instance": {"grid": [3, 3]},
        "params": {"set": {"vertices": [0, 2, 8]}, "geodesic_cap": 4},
    })
    report = run_experiment(cfg, tmp_path / "out")
    assert report.diagnostics == {"geodesic_cap_hits": 1}
    assert "geodesic_cap_hits" not in report.rows[0]


def test_cli_augment_with_threads(tmp_path):
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": "augment",
        "instance": {"group": {"free_product": [{"free_abelian": 1}, {"free_abelian": 1}]},
                     "radius": 3},
        "params": {"depth": 2},
    })
    code = main(["augment", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["rows"][0]["carrier_vertices"] > report["rows"][0]["family_members"]
