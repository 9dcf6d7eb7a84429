"""Config validation, experiment pipelines, CLI exit codes, report hygiene."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from horolab import PropertyViolation, free_abelian, free_product
from horolab.cli import EXIT_CONFIG, EXIT_OK, main
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


# -- convexify + milnor-svarc at reduced scale ------------------------------------


Z2xZ2 = free_product(free_abelian(2), free_abelian(2))


def test_convexify_rows_small_radius():
    rows = convexify_experiment(Z2xZ2, radius=3, depths=[1, 2])
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
    """The batched parabolic scan and the generic betweenness scan must agree
    on a small instance scanned over the same pairs."""
    from horolab.analysis import convexity_defect
    from horolab.graph import is_interior_pair
    from horolab.groups import cayley_ball
    from horolab.horoball import build_augmented
    from horolab.experiments import family_distance_matrices

    radius, depth = 3, 2
    ball = cayley_ball(Z2xZ2, radius)
    family, factor_of, identity_indices = parabolic_family(ball)
    dmats = family_distance_matrices(ball.graph, family)
    aug = build_augmented(ball.graph, family, depth)

    alpha = identity_indices[0]
    scan = scan_parabolic(aug, ball, alpha, dmats[alpha], radius, geodesic_cap=16)

    member = aug.family[alpha]
    top_ids = [aug.horo_vertex(alpha, v, depth) for v in member.vertices]
    pairs = []
    for i in range(len(member.vertices)):
        for j in range(i + 1, len(member.vertices)):
            wl_i = ball.word_lengths[member.vertices[i]]
            wl_j = ball.word_lengths[member.vertices[j]]
            if is_interior_pair(wl_i, wl_j, int(dmats[alpha][i][j]), radius):
                pairs.append((top_ids[i], top_ids[j]))
    report = convexity_defect(aug.carrier, top_ids, pairs=pairs, geodesic_cap=16)
    assert report.pairs_checked == scan.pairs_checked
    assert report.defect == scan.defect
    assert report.quasiconvexity_constant == scan.quasiconvexity


def test_milnor_svarc_small_z2():
    rows = milnor_svarc_experiment(free_abelian(2), depth=2, t_list=[1, 2, 4], radius=8)
    assert [r["t"] for r in rows] == [1, 2, 4]
    assert rows[0]["S_t_size"] == 5
    assert rows[1]["S_t_size"] == 13
    ks = [Fraction(r["K_t"]) for r in rows]
    assert all(k >= 1 for k in ks)
    assert ks == sorted(ks, reverse=True)  # non-increasing in t


def test_milnor_svarc_flags_sub_threshold_t():
    rows = milnor_svarc_experiment(free_abelian(2), depth=1, t_list=[0, 2], radius=4)
    assert rows[0]["flagged"] is not None and rows[0]["K_t"] is None
    assert rows[1]["flagged"] is None


def test_milnor_svarc_free_product_generator_presence():
    rows = milnor_svarc_experiment(Z2xZ2, depth=2, t_list=[1, 5], radius=3)
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


@pytest.mark.parametrize("kind,instance,params,stream", [
    ("convexity", {"cycle": 8}, {"set": {"vertices": [0, 9]}}, "input error"),
    ("convexity", {"cycle": 8}, {"set": {"vertices": [-1, 3]}}, "input error"),
    ("delta", {"cycle": "abc"}, {}, "config error: instance.cycle"),
    ("delta", {"path": 2.5}, {}, "config error: instance.path"),
    ("delta", {"grid": [3]}, {}, "config error: instance.grid"),
    ("shortcut", {"cycle": 6}, {"n_list": [4], "lambda": {"hi": "2"}}, "config error: params.lambda"),
    ("shortcut", {"cycle": 6}, {"n_list": [4], "lambda": {"lo": "x", "hi": "2"}},
     "config error: params.lambda.lo"),
], ids=["set-above-range", "set-below-range", "cycle-not-int", "path-not-int", "grid-one-value",
        "lambda-without-lo", "lambda-lo-not-rational"])
def test_cli_rejects_bad_values(tmp_path, capsys, kind, instance, params, stream):
    cfg = write_config(tmp_path, {
        "version": 1, "experiment": kind, "instance": instance, "params": params,
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
