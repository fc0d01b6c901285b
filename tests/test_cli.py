import hashlib
import importlib.util
import json
import math
import platform
import random
from pathlib import Path

import numpy as np

import pytest

import triform.cli
import triform
from triform import FormationGraph, IntegratorConfig, target_positions
from triform.cli import main
from triform.scenario import (
    ConfigError,
    InitialSpec,
    ScenarioConfig,
    config_from_dict,
    config_to_dict,
    load_scenario,
    make_builtin_scenario,
    resolve,
    save_scenario,
    two_columns_layout,
)

from conftest import grown_formation

SQRT3 = math.sqrt(3.0)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def triangle_config(**overrides):
    defaults = dict(
        graph="triangle",
        root_edge=(1, 2),
        d_star=2.0,
        k_gain=20.0,
        initial=InitialSpec(positions=((-1.0, 0.0), (1.0, 0.0), (0.5, 0.5))),
        integrator=IntegratorConfig(record_stride=200),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


# ---------------------------------------------------------------------------
# Config round trips and validation
# ---------------------------------------------------------------------------

def test_config_round_trip_builtin(tmp_path):
    cfg = triangle_config()
    assert config_from_dict(config_to_dict(cfg)) == cfg
    path = tmp_path / "scenario.json"
    save_scenario(cfg, path)
    assert load_scenario(path) == cfg


def test_config_round_trip_explicit_graph(tmp_path):
    graph = FormationGraph(3, [(1, 2), (2, 3), (1, 3)], [(1, 2, 3)])
    cfg = ScenarioConfig(
        graph=graph,
        root_edge=(1, 2),
        d_star=1.5,
        k_gain=0.6,
        initial=InitialSpec(seed=11, box=(0.0, 5.0, 0.0, 5.0)),
        integrator=IntegratorConfig(dt=2e-3, t_max=10.0, record_stride=50),
        kappa=1.25,
    )
    path = tmp_path / "scenario.json"
    save_scenario(cfg, path)
    assert load_scenario(path) == cfg


def test_config_round_trip_layout():
    cfg = make_builtin_scenario("paper-10", k_gain=20.0)
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_two_columns_layout_shape():
    pts = two_columns_layout(10, 2.0)
    assert len(pts) == 10
    assert all(p.x == 0.0 for p in pts[:5])
    assert all(p.x == 6.0 for p in pts[5:])
    assert pts[0].y > pts[4].y  # agent 1 on top


def test_config_errors_carry_field_context(tmp_path):
    with pytest.raises(ConfigError, match="k_gain"):
        triangle_config(k_gain=-1.0)
    with pytest.raises(ConfigError, match="d_star"):
        triangle_config(d_star=0.0)
    with pytest.raises(ConfigError, match="initial"):
        InitialSpec()
    with pytest.raises(ConfigError, match="root_edge"):
        config_from_dict({"graph": "triangle", "root_edge": [1], "d_star": 2, "k_gain": 1,
                          "initial": {"layout": "two-columns"}})
    with pytest.raises(ConfigError, match="unknown field"):
        config_from_dict({"graph": "triangle", "root_edge": [1, 2], "d_star": 2, "k_gain": 1,
                          "initial": {"positions": [[0, 0]] * 3}, "extra": 1})
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json }")
    with pytest.raises(ConfigError, match="line"):
        load_scenario(bad)


def valid_document():
    return {
        "graph": {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]], "cliques": [[1, 2, 3]]},
        "root_edge": [1, 2],
        "d_star": 2.0,
        "k_gain": 20.0,
        "initial": {"seed": 1, "box": [-1.0, 1.0, -1.0, 1.0]},
        "integrator": {"record_stride": 100},
    }


# case id -> (key path into valid_document(), malformed value, field named in the error)
MALFORMED = {
    "root-edge-float": (("root_edge",), [1.7, 2], "root_edge"),
    "root-edge-bool": (("root_edge",), [1, True], "root_edge"),
    "signs-float": (("z_star_signs",), [1.0], "z_star_signs"),
    "signs-bool": (("z_star_signs",), [True], "z_star_signs"),
    "n-float": (("graph", "n"), 3.9, "graph.n"),
    "n-bool": (("graph", "n"), True, "graph.n"),
    "n-beyond-edges": (("graph", "n"), 7, "graph.n"),
    "stride-float": (("integrator", "record_stride"), 1.5, "integrator.record_stride"),
    "stride-bool": (("integrator", "record_stride"), True, "integrator.record_stride"),
    "seed-bool": (("initial", "seed"), True, "initial.seed"),
    "seed-string": (("initial", "seed"), "abc", "initial.seed"),
    "seed-list": (("initial", "seed"), [1], "initial.seed"),
    "box-string": (("initial", "box"), "abcd", "initial.box"),
    "box-three-numbers": (("initial", "box"), [-1.0, 1.0, -1.0], "initial.box"),
    "box-bool": (("initial", "box"), [-1.0, 1.0, False, 1.0], "initial.box"),
    "box-infinite": (("initial", "box"), [-1.0, math.inf, -1.0, 1.0], "initial.box"),
    "box-overflowing-span": (("initial", "box"), [-1e308, 1e308, -1.0, 1.0], "initial.box"),
    "box-huge-integer": (("initial", "box"), [-1, 10**400, -1, 1], "initial.box"),
    "d-star-huge-integer": (("d_star",), 10**400, "d_star"),
    "dt-huge-integer": (("integrator", "dt"), 10**400, "integrator.dt"),
    "d-star-bool": (("d_star",), True, "d_star"),
    "k-gain-string": (("k_gain",), "20", "k_gain"),
    "kappa-string": (("kappa",), "1", "kappa"),
    "kappa-nan": (("kappa",), math.nan, "kappa"),
    "dt-bool": (("integrator", "dt"), True, "integrator.dt"),
    "dt-too-many-steps": (("integrator", "dt"), 1e-300, "integrator"),
    "t-max-string": (("integrator", "t_max"), "50", "integrator.t_max"),
    "tolerance-list": (("integrator", "grad_norm_tol"), [1e-9], "integrator.grad_norm_tol"),
    "bound-bool": (("integrator", "divergence_bound"), True, "integrator.divergence_bound"),
    "position-string": (
        ("initial",), {"positions": [[-1.0, 0.0], [1.0, 0.0], ["0.3", 2.0]]}, "initial.positions[2]"
    ),
    "position-bool": (
        ("initial",), {"positions": [[-1.0, 0.0], [1.0, False], [0.3, 2.0]]}, "initial.positions[1]"
    ),
    "edges-null": (("graph", "edges"), None, "graph.edges"),
    "edges-number": (("graph", "edges"), [1], "graph.edges[0]"),
    "cliques-number": (("graph", "cliques"), [5], "graph.cliques[0]"),
}


def malformed_document(case):
    path, value, _ = MALFORMED[case]
    doc = valid_document()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_config_from_dict_rejects_malformed_values(case):
    config_from_dict(valid_document())
    with pytest.raises(ConfigError) as err:
        config_from_dict(malformed_document(case))
    assert err.value.field_path == MALFORMED[case][2]


@pytest.mark.parametrize("case", ["seed-list", "edges-number", "dt-bool", "dt-too-many-steps"])
def test_simulate_rejects_malformed_document(tmp_path, case):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(malformed_document(case)))
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 64
    manifest = strict_manifest(out)
    assert manifest["termination_reason"] == "config-error"
    assert manifest["error"].startswith(MALFORMED[case][2] + ":")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_agent_count_bounded_by_edges_before_graph_is_built():
    doc = valid_document()
    doc["graph"] = {"n": 10**12, "edges": [[1, 2]]}
    with pytest.raises(ConfigError, match="cannot all lie on 1 edges"):
        config_from_dict(doc)


def test_resolve_checks_position_count():
    cfg = triangle_config(initial=InitialSpec(positions=((0.0, 0.0), (1.0, 0.0))))
    with pytest.raises(ConfigError, match="initial.positions"):
        resolve(cfg)


def test_unknown_builtin_rejected():
    with pytest.raises(ConfigError, match="graph"):
        triangle_config(graph="hexagon")


# ---------------------------------------------------------------------------
# simulate command
# ---------------------------------------------------------------------------

def run_cli(*argv):
    return main([str(a) for a in argv])


def test_simulate_triangle_converges(tmp_path):
    cfg_path = tmp_path / "tri.json"
    save_scenario(triangle_config(), cfg_path)
    out = tmp_path / "run"
    code = run_cli("simulate", "--config", cfg_path, "--out-dir", out)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["termination_reason"] == "converged"
    assert manifest["final_max_dist_err"] < 1e-6
    assert manifest["terminal_equilibrium"]["in_target_set"] is True
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0].split(",")[:3] == ["t", "x_1", "y_1"]
    assert traj[0].split(",")[-3:] == ["max_dist_err", "max_area_err", "max_u_norm"]
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert len(metrics) == len(traj)


def test_simulate_metrics_are_byte_deterministic(tmp_path):
    cfg_path = tmp_path / "tri.json"
    save_scenario(triangle_config(), cfg_path)
    run_cli("simulate", "--config", cfg_path, "--out-dir", tmp_path / "a")
    run_cli("simulate", "--config", cfg_path, "--out-dir", tmp_path / "b")
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() == (tmp_path / "b" / "trajectory.csv").read_bytes()


def test_simulate_seeded_runs_are_deterministic(tmp_path):
    cfg = make_builtin_scenario(
        "paper-10",
        k_gain=20.0,
        initial=InitialSpec(seed=5, box=(0.0, 10.0, 0.0, 10.0)),
        integrator=IntegratorConfig(record_stride=500),
    )
    cfg_path = tmp_path / "p10.json"
    save_scenario(cfg, cfg_path)
    assert run_cli("simulate", "--config", cfg_path, "--out-dir", tmp_path / "a") == 0
    assert run_cli("simulate", "--config", cfg_path, "--out-dir", tmp_path / "b") == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()
    # a different seed gives a different trajectory
    assert run_cli("simulate", "--config", cfg_path, "--seed", 6, "--out-dir", tmp_path / "c") == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() != (tmp_path / "c" / "metrics.csv").read_bytes()


# (root edge, clique sign, gain) of the flip start's runs
FLIP_LABEL_CASES = [
    *((root, sign, 0.6) for root in ((1, 2), (2, 1), (1, 3), (3, 2)) for sign in (1, -1)),
    ((1, 2), -1, 20.0),
    ((1, 3), -1, 20.0),
]


@pytest.mark.parametrize(
    "root_edge, sign, k_gain",
    FLIP_LABEL_CASES,
    ids=[f"root{a}{b}-sign{s:+d}-k{k}" for (a, b), s, k in FLIP_LABEL_CASES],
)
def test_simulate_labels_flipped_terminal_point(tmp_path, root_edge, sign, k_gain):
    # The label is taken in the frame of the plan's triangle: its agent is the
    # apex, and its base is ordered so that the clique's target lies above it.
    # From this start the bistable gain traps the apex on the wrong side of
    # its base, whichever agent that is; with the target mirrored (sign -1)
    # the same start reaches the target.
    cfg = triangle_config(
        k_gain=k_gain,
        root_edge=root_edge,
        z_star_signs=(sign,),
        initial=InitialSpec(positions=((-1.0, 0.0), (1.0, 0.0), (0.0, -2.0))),
    )
    cfg_path = tmp_path / "flip.json"
    save_scenario(cfg, cfg_path)
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    label = manifest["terminal_equilibrium"]
    flipped = sign == 1 and k_gain < 1.0
    assert label["matched"] == ("below-axis" if flipped else "apex-correct")
    assert label["in_target_set"] is not flipped
    assert manifest["final_max_area_err"] > 1.0 if flipped else manifest["final_max_area_err"] < 1e-9


# case: (d_star, start, terminal_equilibrium); each run converges at step 0.
UNLABELLED_TRIANGLES = {
    # Both base agents on one point have no pinned frame; this run used to end
    # in a traceback without a manifest.
    "coincident-base": (
        2.0,
        ((0.0, 0.0), (0.0, 0.0), (2.0, 0.0)),
        {"matched": None, "detail": "base agents did not settle at d_star"},
    ),
    "subnormal-catalogue": (
        1e-160,
        ((-5e-161, 0.0), (5e-161, 0.0), (0.0, 1e-160)),
        {"matched": None, "detail": "a=5e-161 gives a*a=2.5e-321, which is not a normal float"},
    ),
}


@pytest.mark.parametrize("case", sorted(UNLABELLED_TRIANGLES))
def test_simulate_unlabelled_terminal_triangle_still_writes_its_manifest(tmp_path, case):
    d_star, start, label = UNLABELLED_TRIANGLES[case]
    cfg = triangle_config(k_gain=0.6, d_star=d_star, initial=InitialSpec(positions=start))
    cfg_path = tmp_path / "tri.json"
    save_scenario(cfg, cfg_path)
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 0
    manifest = strict_manifest(out)
    assert (manifest["termination_reason"], manifest["steps"]) == ("converged", 0)
    assert manifest["terminal_equilibrium"] == label


def test_simulate_config_error_exit_code_and_manifest_only(tmp_path):
    doc = config_to_dict(triangle_config())
    doc["k_gain"] = -1.0
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 64
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["termination_reason"] == "config-error"
    assert "k_gain" in manifest["error"]
    assert not (out / "trajectory.csv").exists()


def test_simulate_timeout_exit_code(tmp_path):
    cfg = triangle_config(
        integrator=IntegratorConfig(t_max=0.01, grad_norm_tol=1e-13, record_stride=5)
    )
    cfg_path = tmp_path / "slow.json"
    save_scenario(cfg, cfg_path)
    assert run_cli("simulate", "--config", cfg_path, "--out-dir", tmp_path / "run") == 2


def test_simulate_divergence_exit_code(tmp_path):
    cfg = triangle_config(
        initial=InitialSpec(positions=((-1.0, 0.0), (1.0, 0.0), (80.0, 80.0))),
        integrator=IntegratorConfig(method="euler", dt=0.5, t_max=10.0),
    )
    cfg_path = tmp_path / "boom.json"
    save_scenario(cfg, cfg_path)
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["termination_reason"] == "diverged"
    assert manifest["diverged_at"] > 0


def test_simulate_blown_up_run_exits_as_diverged(tmp_path):
    # The field norm overflows at the start; this run used to end "converged".
    cfg = triangle_config(
        kappa=1e200, initial=InitialSpec(positions=((-1.0, 0.0), (1.0, 0.0), (0.3, 2.0)))
    )
    cfg_path = tmp_path / "blowup.json"
    save_scenario(cfg, cfg_path)
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 3
    manifest = strict_manifest(out)
    assert (manifest["termination_reason"], manifest["steps"]) == ("diverged", 0)
    assert manifest["diverged_at"] == 0.0


def shipped(name):
    return json.loads((SCENARIOS / name).read_text())


def golden_runs():
    """name -> (scenario document, extra flags) of the runs pinned by GOLDEN."""
    paper10 = shipped("paper10-two-columns-k20.json")
    paper10["integrator"]["record_stride"] = 1
    start = ((-1.0, 0.0), (1.0, 0.0), (0.3, 2.0))
    # the field norm overflows at step 0
    blown_up = triangle_config(kappa=1e200, initial=InitialSpec(positions=start))
    # the state turns NaN in step 1; that final sample is dropped
    nan_state = triangle_config(
        kappa=1e100, initial=InitialSpec(positions=start), integrator=IntegratorConfig(record_stride=1)
    )
    # a grown formation large enough for the numpy field kernel and array state
    rng = random.Random(7)
    graph, df, plan = grown_formation(rng, 64)
    jittered = tuple(
        (q.x + rng.uniform(-0.1, 0.1), q.y + rng.uniform(-0.1, 0.1)) for q in target_positions(plan, df)
    )
    grown = ScenarioConfig(
        graph=graph,
        root_edge=(1, 2),
        d_star=2.0,
        k_gain=20.0,
        initial=InitialSpec(positions=jittered),
        integrator=IntegratorConfig(record_stride=10),
        z_star_signs=df.z_star_signs,
    )
    return {
        "paper10-dense": (paper10, ["--t-max", 2]),
        "grown-64": (config_to_dict(grown), ["--t-max", 2]),
        "flip": (shipped("triangle-flip-k06.json"), []),
        "blown-up": (config_to_dict(blown_up), []),
        "nan-state": (config_to_dict(nan_state), []),
    }


# name -> (exit code, samples, sha256 of trajectory.csv, sha256 of metrics.csv),
# as written by the per-sample recording these bytes must not move from.
GOLDEN = {
    "paper10-dense": (
        2,
        2001,
        "7fae274e702b51b84cd1addaa4b4c82b166493d2e665824c1247fa7ad22cb26d",
        "2c72e51eb5eeb5323a5255c4e480d84696211bf5ce362729720abe29f99b18e4",
    ),
    "grown-64": (
        2,
        201,
        "eb92c1beb1959c8582b75014f6b9a310821f261616b6a247684a1300f6d8540b",
        "766c2e6d54aebc8fc098281968204d9fecb6ce0979d3b8ad2c35f4bc098dc933",
    ),
    "flip": (
        0,
        26,
        "abf795c7758797a1c40e2d1a5772a5dc88364db458d986b1096abdb48bb1ed0f",
        "244ee91c72b8aeead7b0b2ba61f3d2221ef8168a98a0291036c899011eb7de36",
    ),
    "blown-up": (
        3,
        1,
        "8228771011a8be9a7bbbe1b8af22b479b8b36747c4595bad93b7478b8af34403",
        "3ebae5a2b51c799b3341c24240d1948f9a30a60c9bfd42abbcd662c245aaca14",
    ),
    "nan-state": (
        3,
        1,
        "a62cf11aa0e492e3e509f36370023113498f27ac782a893cf7e6a52edf141357",
        "21f98fa594e3c8dacc2f6d03fdca81af2fe6b8638d2ee9ae30d7ed33a28268f7",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_csv_bytes_are_pinned(tmp_path, name):
    doc, flags = golden_runs()[name]
    if name == "grown-64":
        assert triform.hierarchy.uses_array_kernel(doc["graph"]["n"])
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    code = run_cli("simulate", "--config", cfg_path, *flags, "--out-dir", out)
    files = [(out / f).read_bytes() for f in ("trajectory.csv", "metrics.csv")]
    digests = [hashlib.sha256(data).hexdigest() for data in files]
    assert (code, files[0].count(b"\n") - 1, *digests) == GOLDEN[name]


@pytest.mark.parametrize(
    "scenario, positions",
    [
        ("triangle-flip-k06.json", [[0.0, 0.0], [1e200, 0.0], [0.0, 1e200]]),
        ("paper10-two-columns-k20.json", [[i * 1e160, 0.0] for i in range(10)]),
    ],
    ids=["triangle", "paper-10"],
)
def test_far_apart_start_reports_non_finite_errors_as_null(tmp_path, scenario, positions):
    # Finite positions whose distances overflow: the final distance error is
    # inf, which strict JSON cannot hold (this used to end in a traceback).
    doc = shipped(scenario)
    doc["initial"] = {"positions": positions}
    cfg_path = tmp_path / "far.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 3
    manifest = strict_manifest(out)
    assert (manifest["termination_reason"], manifest["steps"]) == ("diverged", 0)
    assert manifest["final_max_dist_err"] is None
    assert (out / "metrics.csv").read_text().splitlines()[1].split(",")[1] == "inf"


def test_manifests_record_versions(tmp_path):
    versions = {"triform": triform.__version__, "python": platform.python_version(), "numpy": np.__version__}
    cfg_path = tmp_path / "tri.json"
    save_scenario(triangle_config(), cfg_path)
    assert run_cli("simulate", "--config", cfg_path, "--out-dir", tmp_path / "ok") == 0
    assert run_cli("simulate", "--config", tmp_path / "missing.json", "--out-dir", tmp_path / "bad") == 64
    assert run_cli("analyze", "--k", 20.0, "--out-dir", tmp_path / "rep") == 0
    for out in ("ok", "bad", "rep"):
        assert strict_manifest(tmp_path / out)["versions"] == versions


def test_shipped_benchmark_scenario_runs(tmp_path):
    cfg = Path(__file__).resolve().parent.parent / "scenarios" / "paper10-two-columns-k20.json"
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg, "--out-dir", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["termination_reason"] == "converged"
    assert manifest["final_max_dist_err"] < 1e-4
    assert manifest["final_max_area_err"] < 1e-4


def test_simulate_k_override(tmp_path):
    cfg_path = tmp_path / "tri.json"
    save_scenario(triangle_config(), cfg_path)
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg_path, "--k", 0.6, "--out-dir", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["k_gain"] == 0.6


# ---------------------------------------------------------------------------
# analyze command
# ---------------------------------------------------------------------------

def test_analyze_single_gain(tmp_path):
    out = tmp_path / "rep"
    assert run_cli("analyze", "--k", 20.0, "--out-dir", out) == 0
    rows = (out / "equilibria.csv").read_text().splitlines()
    assert len(rows) == 2  # header plus the lone apex equilibrium
    assert "apex-correct" in rows[1]
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[1].split(",")[1] == "global"


@pytest.mark.parametrize("a", ["1e-100", "1e100"])
def test_analyze_apex_is_stable_at_extreme_scales(tmp_path, a):
    out = tmp_path / "rep"
    assert run_cli("analyze", "--k", 20.0, "--a", a, "--out-dir", out) == 0
    (row,) = (out / "equilibria.csv").read_text().splitlines()[1:]
    assert row.split(",")[3] == "apex-correct"
    assert row.split(",")[8] == "stable"


def test_analyze_sweep_stable_counts(tmp_path):
    out = tmp_path / "rep"
    assert run_cli("analyze", "--k-range", "0.1:3.0:0.1", "--out-dir", out) == 0
    lines = (out / "summary.csv").read_text().splitlines()[1:]
    boundary = 2.0 * SQRT3 - 2.0
    assert len(lines) == 30
    for line in lines:
        k_str, _, _, _, n_stable = line.split(",")
        k = float(k_str)
        assert int(n_stable) == (2 if k < boundary else 1)


def test_analyze_exact_boundary_row_is_degenerate(tmp_path):
    out = tmp_path / "rep"
    assert run_cli("analyze", "--exact-boundary", "--out-dir", out) == 0
    rows = (out / "equilibria.csv").read_text().splitlines()
    below = [r for r in rows if "below-axis" in r]
    assert len(below) == 1
    assert "degenerate" in below[0]
    assert json.loads((out / "manifest.json").read_text())["termination_reason"] == "ok"


# sha256 of summary.csv from `analyze --k-range 0.2:3.0:0.2 --exact-boundary`;
# these bytes must not move.
ANALYZE_SUMMARY_GOLDEN = "49c2785cb9466385bd10ec8afe83dc3a0cc3440c934de22e6a4554f9864d310f"


def test_analyze_summary_bytes_are_pinned(tmp_path):
    out = tmp_path / "rep"
    assert run_cli("analyze", "--k-range", "0.2:3.0:0.2", "--exact-boundary", "--out-dir", out) == 0
    assert hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest() == ANALYZE_SUMMARY_GOLDEN


def test_analyze_requires_a_gain(tmp_path):
    assert run_cli("analyze", "--out-dir", tmp_path / "rep") == 64


# ---------------------------------------------------------------------------
# basin command
# ---------------------------------------------------------------------------

def strict_manifest(out_dir):
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant} in manifest")

    return json.loads((out_dir / "manifest.json").read_text(), parse_constant=reject)


def test_basin_zero_cells_writes_empty_file(tmp_path):
    out = tmp_path / "basin"
    assert run_cli("basin", "--k", 20.0, "--grid", "0x0", "--out-dir", out) == 0
    lines = (out / "basin.csv").read_text().splitlines()
    assert len(lines) == 1  # header only
    manifest = strict_manifest(out)
    assert manifest["cells"] == 0
    assert manifest["fraction_correct"] is None


def test_basin_high_gain_small_grid(tmp_path):
    out = tmp_path / "basin"
    assert run_cli("basin", "--k", 20.0, "--grid", "3x3", "--out-dir", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["fraction_correct"] == 1.0
    lines = (out / "basin.csv").read_text().splitlines()
    assert lines[0] == "ix,iy,x0,y0,label,reason,x_final,y_final,matched_family"
    assert len(lines) == 10
    assert all("correct" in line for line in lines[1:])


# gain -> sha256 of basin.csv from `basin --grid 3x3` over the default window;
# these bytes must not move.
BASIN_GOLDEN = {
    0.6: "4b032c891ce9f6979c8122e07ec00eff3c3ae433c4a917d0d81353b1cb5c6f45",
    20.0: "9d2dc709ddb078e42b6e64814190bfe1b309359c45e76078d047b205c444f3a7",
}


@pytest.mark.parametrize("k", sorted(BASIN_GOLDEN))
def test_basin_csv_bytes_are_pinned(tmp_path, k):
    out = tmp_path / "basin"
    assert run_cli("basin", "--k", k, "--grid", "3x3", "--out-dir", out) == 0
    assert hashlib.sha256((out / "basin.csv").read_bytes()).hexdigest() == BASIN_GOLDEN[k]


def test_basin_parallel_output_matches_serial(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("basin", "--k", "0.6", "--grid", "3x3", "--jobs", 1, "--out-dir", a) == 0
    assert run_cli("basin", "--k", "0.6", "--grid", "3x3", "--jobs", 2, "--out-dir", b) == 0
    assert (a / "basin.csv").read_bytes() == (b / "basin.csv").read_bytes()


def test_basin_rejects_bad_grid(tmp_path):
    assert run_cli("basin", "--k", 20.0, "--grid", "three", "--out-dir", tmp_path / "x") == 64


class RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records its size."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs, grid, cpus, sizes",
    [(64, "2x1", 8, [2]), (3, "3x3", 2, [2]), (4, "2x2", None, []), (2, "1x1", 8, [])],
    ids=["cells", "cpus", "unknown-cpus", "one-cell"],
)
def test_basin_jobs_capped_by_cpus_and_cells(tmp_path, monkeypatch, jobs, grid, cpus, sizes):
    monkeypatch.setattr(triform.cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(triform.cli.os, "cpu_count", lambda: cpus)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("basin", "--k", 20.0, "--grid", grid, "--jobs", jobs, "--out-dir", a) == 0
    assert RecordingPool.sizes == sizes
    assert run_cli("basin", "--k", 20.0, "--grid", grid, "--out-dir", b) == 0
    assert (a / "basin.csv").read_bytes() == (b / "basin.csv").read_bytes()


@pytest.mark.parametrize(
    "argv, field",
    [
        (["sweep-gain", "--k-range", "1:1:1", "--d-star", -1], "d_star"),
        (["sweep-gain", "--k-range", "0:1:1"], "--k-range"),
        (["sweep-gain", "--k-range", "0.5:inf:1"], "--k-range"),
        (["sweep-gain", "--k-range", "nan:1:1"], "--k-range"),
        (["analyze", "--k-range", "0:1:1"], "--k-range"),
        (["analyze", "--k", 20.0, "--a", "1e-200"], "a=1e-200"),
        (["basin", "--k", 1.0, "--jobs", 0], "--jobs"),
        (["basin", "--k", 1.0, "--d-star", -1], "d_star"),
        (["basin", "--k", 20.0, "--d-star", "1e-160"], "a*a"),
        (["basin", "--k", "nan"], "--k"),
        (["simulate", "--config", "missing.json"], "cannot read"),
        (["sweep-gain", "--k-range", "1e17:2e17:1"], "--k-range"),
        (["sweep-gain", "--k-range", "1e-300:1:1e-300"], "--k-range"),
        (["basin", "--k", 20.0, "--xmin", "nan"], "grid bounds"),
        (["basin", "--k", 20.0, "--xmin=-inf", "--xmax", "inf"], "grid bounds"),
        (["basin", "--k", 20.0, "--xmin=-1e308", "--xmax", "1e308"], "grid bounds"),
        (["sweep-gain", "--k-range", "1:1:1", "--xmax", "inf"], "grid bounds"),
        (["basin", "--k", 1.0, "--grid", "-1x2"], "--grid"),
        (["basin"], "--k"),
        (["basin", "--k", 20.0, "--grid", "100000x100000"], "--grid"),
        (["sweep-gain", "--k-range", "1:1:1", "--grid", "1001x1000"], "--grid"),
        (["simulate", "--config", SCENARIOS / "triangle-flip-k06.json", "--dt", "1e-300"], "steps"),
        (["simulate", "--config", SCENARIOS / "paper10-random-k20.json", "--t-max", "1e5"], "steps"),
        (["basin", "--k", 20.0, "--dt", "1e-300"], "steps"),
        (["sweep-gain", "--k-range", "1:1:1", "--dt", "1e-300"], "steps"),
    ],
    ids=[
        "sweep-negative-d-star",
        "sweep-zero-gain",
        "sweep-infinite-stop",
        "sweep-nan-start",
        "analyze-zero-gain",
        "analyze-underflowing-a",
        "basin-zero-jobs",
        "basin-negative-d-star",
        "basin-subnormal-d-star",
        "basin-nan-gain",
        "simulate-missing-config",
        "sweep-step-below-resolution",
        "sweep-too-many-gains",
        "basin-nan-bound",
        "basin-infinite-bounds",
        "basin-overflowing-span",
        "sweep-infinite-bound",
        "basin-grid-read-as-option",
        "basin-missing-gain",
        "basin-too-many-cells",
        "sweep-too-many-cells",
        "simulate-tiny-dt",
        "simulate-long-t-max",
        "basin-tiny-dt",
        "sweep-tiny-dt",
    ],
)
def test_rejected_inputs_write_a_config_error_manifest(tmp_path, argv, field):
    out = tmp_path / "run"
    grid = ["--grid", "1x1"] if argv[0] in ("basin", "sweep-gain") and "--grid" not in argv else []
    assert run_cli(*argv, *grid, "--out-dir", out) == 64
    manifest = strict_manifest(out)
    assert manifest["command"] == argv[0]
    assert manifest["termination_reason"] == "config-error"
    assert field in manifest["error"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("basin", "--help")
    assert exc.value.code == 0
    assert "--grid" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# sweep-gain command
# ---------------------------------------------------------------------------

# sha256 of sweep.csv from `sweep-gain --k-range 0.4:2.0:0.8 --grid 3x3`;
# these bytes must not move.
SWEEP_GOLDEN = "ca7050f2130d2bb0e5494f662c11fdd013eadc33a1ece6e52d7407a241ca3c7f"


def test_sweep_csv_bytes_are_pinned(tmp_path):
    out = tmp_path / "sweep"
    assert run_cli("sweep-gain", "--k-range", "0.4:2.0:0.8", "--grid", "3x3", "--out-dir", out) == 0
    assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == SWEEP_GOLDEN


def test_sweep_gain_reports_regimes_and_fractions(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli(
        "sweep-gain", "--k-range", "0.6:2.6:1.0", "--grid", "3x3", "--out-dir", out
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "k_gain,regime,n_equilibria,n_stable,fraction_correct"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["bistable", "global", "global"]
    assert float(rows[0][4]) < 1.0
    assert float(rows[1][4]) == 1.0
    assert float(rows[2][4]) == 1.0


def test_sweep_gain_empty_grid_leaves_fraction_blank(tmp_path):
    out = tmp_path / "sweep"
    assert run_cli("sweep-gain", "--k-range", "0.6:1.6:1.0", "--grid", "0x0", "--out-dir", out) == 0
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [r[4] for r in rows] == ["", ""]
    assert strict_manifest(out)["gains"] == [0.6, 1.6]


# ---------------------------------------------------------------------------
# benchmark hooks: perfbench/tracer.py wraps these module attributes
# ---------------------------------------------------------------------------

def load_tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_call_sites_resolve():
    tracer = load_tracer()
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in tracer.CALL_SITES if not hasattr(mod, attr)]
    assert missing == []


@pytest.mark.parametrize(
    "formation, method",
    [("grown-array", "rk4"), ("paper10", "rk4"), ("grown-array", "euler"), ("paper10", "euler")],
    ids=["grown-array", "paper10", "grown-array-euler", "paper10-euler"],
)
def test_traced_simulate_counts_every_field_evaluation(tmp_path, formation, method):
    # Either field kernel, the generated list one for paper-10 and the numpy
    # one above ARRAY_MIN_AGENTS, and either step must pass every evaluation
    # through the tracer: one per step for Euler, four for RK4, and one more
    # for the final state.
    cfg_path = tmp_path / f"{formation}.json"
    if formation == "grown-array":
        rng = random.Random(11)
        graph, df, plan = grown_formation(rng, triform.hierarchy.ARRAY_MIN_AGENTS + 1)
        start = tuple(
            (q.x + rng.uniform(-0.1, 0.1), q.y + rng.uniform(-0.1, 0.1))
            for q in target_positions(plan, df)
        )
        cfg = ScenarioConfig(
            graph=graph,
            root_edge=(1, 2),
            d_star=2.0,
            k_gain=20.0,
            kappa=20.0,
            initial=InitialSpec(positions=start),
            integrator=IntegratorConfig(method=method, grad_norm_tol=1e-6),
            z_star_signs=df.z_star_signs,
        )
        save_scenario(cfg, cfg_path)
    else:
        doc = json.loads((SCENARIOS / "paper10-two-columns-k20.json").read_text())
        doc["integrator"]["method"] = method
        cfg_path.write_text(json.dumps(doc))
    tr = load_tracer().Tracer()
    with tr.patched():
        assert run_cli("simulate", "--config", cfg_path, "--out-dir", tmp_path / "run") == 0
    (span,) = [sp for sp in tr.spans if sp.name == "dynamics.simulate"]
    assert span.attrs["reason"] == "converged" and span.attrs["steps"] > 0
    stages = 4 if method == "rk4" else 1
    assert span.field_evals == 1 + stages * span.attrs["steps"]


def test_traced_simulate_computes_formation_errors_once_per_run(tmp_path):
    # simulate hands all recorded samples to one formation_errors call, which
    # the tracer must still see through triform.dynamics.formation_errors.
    tracer = load_tracer()
    tr = tracer.Tracer()
    with tr.patched():
        flip = SCENARIOS / "triangle-flip-k06.json"
        assert run_cli("simulate", "--config", flip, "--out-dir", tmp_path / "run") == 0
        assert run_cli("basin", "--k", 20.0, "--grid", "2x1", "--out-dir", tmp_path / "b") == 0
    sims = [sp for sp in tr.spans if sp.name == "dynamics.simulate"]
    errors = [sp for sp in tr.spans if sp.name == "graph.formation_errors"]
    assert len(sims) == 3 and sims[0].attrs["samples"] > 1
    assert sorted(sp.parent for sp in errors if sp.parent is not None) == [sp.sid for sp in sims]
    assert len(errors) == 3  # the CLI reads its final errors from the run's metrics
    assert all(hasattr(mod, attr) for mod, attr, _ in tracer.CALL_SITES)


def test_traced_basin_records_its_layers(tmp_path):
    tracer = load_tracer()
    tr = tracer.Tracer()
    with tr.patched():
        assert run_cli("basin", "--k", 20.0, "--grid", "2x1", "--out-dir", tmp_path / "b") == 0
    names = [sp.name for sp in tr.spans]
    assert names.count("dynamics.probe_points") == 1
    assert names.count("analysis.catalogue") == 1
    assert names.count("dynamics.simulate") == 2
