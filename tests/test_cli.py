"""Config validation, experiment pipelines, CLI exit codes, report hygiene."""

from __future__ import annotations

import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from horolab import PropertyViolation, cayley_ball, free_abelian, free_product
from horolab.cli import EXIT_CONFIG, EXIT_OK, EXIT_RESOURCE, EXIT_VIOLATION, main
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
from horolab.io import canonical_json

from oracles import floyd_warshall, naive_four_point_delta


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
    from oracles import augmented_carrier, restricted_horoball

    graph_file = tmp_path / "g.json"
    graph_file.write_text(json.dumps({
        "version": 1, "vertices": [{"id": v, "label": f"v{v}"} for v in range(5)],
        "edges": [[0, 1], [1, 2], [1, 3], [3, 4]], "metadata": {}}), encoding="utf-8")
    run_experiment(validate_config({"version": 1, "experiment": "build-horoball",
                                    "instance": {"graph_file": str(graph_file)}, "params": {"depth": 3}}),
                   tmp_path / "h", export_dot=True)
    doc = restricted_horoball(read_graph(graph_file), 3)
    assert (tmp_path / "h" / "horoball.dot").read_text() == to_dot(graph_from_json(doc), name="horoball")

    run_experiment(validate_config({"version": 1, "experiment": "augment", "instance": Z_FREE_Z,
                                    "params": {"depth": 2}}), tmp_path / "a", export_dot=True)
    ball = cayley_ball(free_product(free_abelian(1), free_abelian(1)), 3)
    family, _, _ = parabolic_family(ball)
    ref = augmented_carrier(ball.graph.num_vertices, ball.graph.edges.tolist(),
                            [(m.vertices, m.edges) for m in family], 2, ball.graph.labels)
    dot = (tmp_path / "a" / "augmented.dot").read_text()
    assert dot == to_dot(graph_from_json(ref["document"]), name="augmented")
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
    from horolab.horoball import build_augmented

    radius, depth = 3, 2
    ball = cayley_ball(Z2xZ2, radius)
    family, factor_of, identity_indices = parabolic_family(ball)
    aug = build_augmented(ball.graph, family, depth)

    alpha = identity_indices[0]
    dmat = aug.member_metric(alpha)
    scan = scan_parabolic(aug, ball.word_lengths, radius, alpha, geodesic_cap=16)

    member = aug.family[alpha]
    top_ids = [aug.horo_vertex(alpha, v, depth) for v in member.vertices]
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
    from horolab.graph import Graph, distance_rows
    from horolab.horoball import Subgraph, build_augmented

    from oracles import whole_carrier_scan

    base = Graph(80, [(i, (i + 1) % 40) for i in range(40)] + [(35, 40)]
                 + [(i, i + 1) for i in range(40, 79)])
    arc = Subgraph(tuple(range(30)), tuple((i, i + 1) for i in range(29)))
    row = distance_rows(base, [0])[0]
    expected = {1: (6, 62, 71), 2: (0, 0, 94)}  # defect, witnesses, neighborhood vertices
    for depth, (defect, witnesses, local) in expected.items():
        aug = build_augmented(base, [arc], depth)
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
    from horolab.graph import distance_rows, grid_graph
    from horolab.horoball import Subgraph, build_augmented

    from oracles import whole_carrier_scan

    rows, cols = 14, 12
    base = grid_graph(rows, cols)
    cells = [(r, 1) for r in range(7)] + [(6, c) for c in range(2, 10)] + [(r, 10) for r in range(6, -1, -1)]
    path = [r * cols + c for r, c in cells]
    arc = Subgraph(tuple(path), tuple(zip(path, path[1:])))
    row = distance_rows(base, [0])[0]
    expected = {1: (5, 10, 152), 2: (0, 0, 108), 3: (0, 0, 44)}  # defect, witnesses, neighborhood vertices
    for depth, (defect, witnesses, local) in expected.items():
        aug = build_augmented(base, [arc], depth)
        assert aug.carrier.num_vertices == rows * cols + 22 * depth
        scan = scan_parabolic(aug, row, 100, 0, geodesic_cap=32, check_level_drop=True)
        assert scan.pairs_checked == 22 * 21 // 2
        assert (scan.defect, len(scan.witnesses), scan.local_vertices) == (defect, witnesses, local)
        assert scan.local_vertices < aug.carrier.num_vertices
        assert _scan_fields(scan) == whole_carrier_scan(aug, row, 100, 0, geodesic_cap=32)


@pytest.mark.parametrize("factors, radius", [
    ([{"free_abelian": 2}, {"free_abelian": 2}], 4), ([{"free_abelian": 2}, {"free_abelian": 1}], 5)])
def test_local_scan_matches_the_whole_carrier_scan(factors, radius):
    from horolab.experiments import _sample_cosets
    from horolab.groups import GroupSpec
    from horolab.horoball import glue_horoballs, member_shapes

    from oracles import whole_carrier_scan

    ball = cayley_ball(GroupSpec.from_json({"free_product": factors}), radius)
    family, factor_of, identity_indices = parabolic_family(ball)
    shapes = member_shapes(ball.graph, family)
    scanned = identity_indices + _sample_cosets(family, factor_of, identity_indices, 3)
    for depth in range(1, 6):
        aug = glue_horoballs(ball.graph, family, shapes, depth)
        for alpha in scanned:
            scan = scan_parabolic(aug, ball.word_lengths, ball.radius, alpha, check_level_drop=True)
            reference = whole_carrier_scan(aug, ball.word_lengths, ball.radius, alpha, geodesic_cap=32)
            assert _scan_fields(scan) == reference, (depth, alpha)
            assert scan.local_vertices < aug.carrier.num_vertices


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
    assert len(family[0].vertices) == ball.graph.num_vertices


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
    ("convexity", {"cycle": 8}, {"set": {"vertices": ["a", 1]}}, "config error: params.set.vertices"),
    ("convexity", {"cycle": 8}, {"set": {"vertices": [0, 4]}, "interior": {"radius": 2}},
     "config error: params.interior.basepoint"),
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
], ids=["set-above-range", "set-below-range", "cycle-not-int", "path-not-int", "grid-one-value",
        "lambda-without-lo", "lambda-lo-not-rational", "set-vertex-not-int", "interior-without-basepoint",
        "depths-not-int", "t_list-not-int", "geodesic_cap-not-int", "restrict-not-a-list",
        "restrict-out-of-range", "rank-not-int", "free-product-not-a-list", "names-not-a-list"])
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
_ODD_IDS = st.one_of(_ODD_VALUES, st.integers(-3, 40), st.just(2**70))
# past the carrier budget on every small instance: inside int64, and past it
_HUGE_DEPTHS = st.sampled_from([10**6, 2**62, 2**63, 2**70])


@st.composite
def _convexity_configs(draw):
    """A convexity config with at most one field drawn from odd values."""
    odd = draw(st.sampled_from([None, None, "geodesic_cap", "set", "interior", "depth"]))
    params = {"set": {"vertices": draw(st.lists(st.integers(0, 5), min_size=1, max_size=6))}}
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
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        code = main(["convexity", "--config", str(cfg), "--out", str(pathlib.Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RESOURCE, EXIT_VIOLATION)


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
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        code = main([config["experiment"], "--config", str(cfg), "--out", str(pathlib.Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RESOURCE, EXIT_VIOLATION)


@pytest.mark.parametrize("kind, instance, params", [
    ("build-horoball", {"path": 8}, {"depth": 2**70}),
    ("augment", Z_FREE_Z, {"depth": 2**70}),
    ("augment", Z_FREE_Z, {"depth": 2**62}),
    ("convexity", {"cycle": 8}, {"depth": 2**70, "set": {"level_at_least": 1}}),
    ("delta", Z_FREE_Z, {"depth": 2**70, "sample": 10}),
    ("convexify-experiment", Z_FREE_Z, {"depths": [1, 2**70]}),
], ids=["build-horoball", "augment", "augment-int64", "convexity", "delta", "convexify"])
def test_cli_carrier_over_its_budget_exits_3(tmp_path, capsys, kind, instance, params):
    """A carrier past ``CARRIER_BUDGET`` vertices is refused before it is
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
    from horolab.horoball import build_augmented

    from oracles import geodesic_counts

    radius = 3
    ball = cayley_ball(Z2xZ2, radius)
    diagnostics = []
    convexify_experiment(ball, [1, 2], geodesic_cap=1, diagnostics=diagnostics)
    family, factor_of, identity_indices = parabolic_family(ball)
    scanned = dict.fromkeys(identity_indices + _sample_cosets(family, factor_of, identity_indices, 3))
    for entry in diagnostics:
        aug = build_augmented(ball.graph, family, entry["n"])
        n, edges = aug.carrier.num_vertices, aug.carrier.edges.tolist()
        several = 0
        for alpha in scanned:
            members = aug.family[alpha].vertices
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
