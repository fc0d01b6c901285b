import csv
import hashlib
import importlib.util
import json
import math
import platform
import random
from dataclasses import asdict
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


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_resaving_a_shipped_scenario_reproduces_its_bytes(tmp_path, path):
    # pins the written key order: a config's fields in declaration order
    save_scenario(load_scenario(path), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


_DEFAULT_INTEGRATOR = {
    "method": "rk4",
    "dt": 0.001,
    "t_max": 50.0,
    "grad_norm_tol": 1e-09,
    "record_stride": 100,
    "divergence_bound": 1e6,
}

# name -> (config, the document it writes); one config per InitialSpec mode,
# and an explicit graph with orientation signs
WRITTEN_DOCUMENTS = {
    "positions": (
        triangle_config(),
        {
            "graph": "triangle", "root_edge": [1, 2], "d_star": 2.0, "k_gain": 20.0, "kappa": 1.0,
            "initial": {"positions": [[-1.0, 0.0], [1.0, 0.0], [0.5, 0.5]]},
            "integrator": {**_DEFAULT_INTEGRATOR, "record_stride": 200},
        },
    ),
    "layout": (
        make_builtin_scenario("paper-10", k_gain=20.0),
        {
            "graph": "paper-10", "root_edge": [1, 2], "d_star": 2.0, "k_gain": 20.0, "kappa": 1.0,
            "initial": {"layout": "two-columns"},
            "integrator": _DEFAULT_INTEGRATOR,
        },
    ),
    "seed-box": (
        triangle_config(
            initial=InitialSpec(seed=11, box=(-2.0, 2.0, -3, 3)),
            kappa=1.25,
            integrator=IntegratorConfig(method="euler", dt=2e-3, t_max=10.0),
        ),
        {
            "graph": "triangle", "root_edge": [1, 2], "d_star": 2.0, "k_gain": 20.0, "kappa": 1.25,
            "initial": {"seed": 11, "box": [-2.0, 2.0, -3, 3]},
            "integrator": {**_DEFAULT_INTEGRATOR, "method": "euler", "dt": 0.002, "t_max": 10.0},
        },
    ),
    "explicit-graph": (
        ScenarioConfig(
            graph=FormationGraph(4, [(1, 2), (2, 3), (1, 3), (3, 4), (2, 4)], [(1, 2, 3), (2, 3, 4)]),
            root_edge=(1, 2),
            d_star=1.5,
            k_gain=0.6,
            initial=InitialSpec(positions=((0.0, 0.0), (1.5, 0.0), (0.7, 1.3), (2.2, 1.2))),
            z_star_signs=(1, -1),
        ),
        {
            "graph": {
                "n": 4,
                "edges": [[1, 2], [1, 3], [2, 3], [2, 4], [3, 4]],
                "cliques": [[1, 2, 3], [2, 3, 4]],
            },
            "root_edge": [1, 2], "d_star": 1.5, "k_gain": 0.6, "kappa": 1.0,
            "initial": {"positions": [[0.0, 0.0], [1.5, 0.0], [0.7, 1.3], [2.2, 1.2]]},
            "integrator": _DEFAULT_INTEGRATOR,
            "z_star_signs": [1, -1],
        },
    ),
}


@pytest.mark.parametrize("name", WRITTEN_DOCUMENTS)
def test_config_writes_its_pinned_document_and_reads_back(tmp_path, name):
    cfg, document = WRITTEN_DOCUMENTS[name]
    written = config_to_dict(cfg)
    assert json.dumps(written, sort_keys=True) == json.dumps(document, sort_keys=True)
    assert config_from_dict(written) == cfg
    save_scenario(cfg, tmp_path / "scenario.json")
    assert load_scenario(tmp_path / "scenario.json") == cfg


def test_scenario_config_is_keyword_only():
    with pytest.raises(TypeError):
        ScenarioConfig("triangle", (1, 2), 2.0, 20.0, 1.0, InitialSpec(layout="two-columns"))


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf], ids=str)
@pytest.mark.parametrize("name", ["d_star", "k_gain", "kappa"])
def test_scenario_settings_refuse_zero_negative_and_non_finite(name, value):
    with pytest.raises(ConfigError) as info:
        triangle_config(**{name: value})
    assert info.value.field_path == name
    assert str(info.value) == f"{name}: must be finite and positive, got {value}"


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
    "position-triple": (
        ("initial",), {"positions": [[-1, 0], [1, 0], [0.3, 0.5, 9]]}, "initial.positions[2]"
    ),
    "positions-number": (("initial",), {"positions": 5}, "initial.positions"),
    "positions-with-box": (
        ("initial",),
        {"positions": [[-1, 0], [1, 0], [0.3, 0.5]], "box": [-1, 1, -1, 1]},
        "initial.box",
    ),
    "initial-misspelt-seed": (("initial", "sead"), 7, "initial.sead"),
    "graph-signs": (("graph", "z_star_signs"), [-1], "graph.z_star_signs"),
    "integrator-unknown": (("integrator", "foo"), 1, "integrator.foo"),
    "edges-null": (("graph", "edges"), None, "graph.edges"),
    "seed-null": (("initial", "seed"), None, "initial.seed"),
    "layout-null": (("initial", "layout"), None, "initial.layout"),
    "signs-null": (("z_star_signs",), None, "z_star_signs"),
    "edges-number": (("graph", "edges"), [1], "graph.edges[0]"),
    "cliques-number": (("graph", "cliques"), [5], "graph.cliques[0]"),
    "initial-number": (("initial",), 5, "initial"),
    "integrator-list": (("integrator",), [], "integrator"),
    "graph-number": (("graph",), 5, "graph"),
    "clique-repeated-agent": (("graph", "cliques"), [[1, 1, 2]], "graph"),
    "clique-outside-agents": (("graph", "cliques"), [[1, 2, 4]], "graph"),
    "n-zero": (("graph", "n"), 0, "graph"),
    "method-list": (("integrator", "method"), ["rk4"], "integrator"),
    "method-object": (("integrator", "method"), {}, "integrator"),
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


@pytest.mark.parametrize(
    "case", ["seed-list", "edges-number", "dt-bool", "dt-too-many-steps", "graph-signs", "method-list"]
)
def test_simulate_rejects_malformed_document(tmp_path, case):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(malformed_document(case)))
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 64
    manifest = strict_manifest(out)
    assert manifest["termination_reason"] == "config-error"
    assert manifest["error"].startswith(MALFORMED[case][2] + ":")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


# Documents that no key path into valid_document() can express, or that
# config_from_dict accepts and only resolve refuses, by case id.
UNSHAPED = {
    "root-list": lambda: [valid_document()],
    "d-star-missing": lambda: {k: v for k, v in valid_document().items() if k != "d_star"},
    # The full validation runs only once the growth from the root edge stalls.
    "four-cycle": lambda: {
        "graph": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]},
        "root_edge": [1, 2],
        "d_star": 2.0,
        "k_gain": 20.0,
        "initial": {"seed": 1, "box": [0, 1, 0, 1]},
    },
}

# case id -> the error a config-error manifest states, word for word
REFUSALS = {
    "root-list": "<root>: expected an object, got list",
    "d-star-missing": "d_star: missing required field",
    "initial-number": "initial: expected an object, got int",
    "integrator-list": "integrator: expected an object, got list",
    "graph-number": "graph: expected a builtin name or an object",
    "clique-repeated-agent": "graph: clique (1, 1, 2) must have three distinct agents",
    "clique-outside-agents": "graph: clique (1, 2, 4) references agents outside 1..3",
    "n-zero": "graph: agent count must be >= 1, got 0",
    "method-list": "integrator: method must be 'rk4' or 'euler', got ['rk4']",
    "method-object": "integrator: method must be 'rk4' or 'euler', got {}",
    "four-cycle": "graph is not triangulated-constructible: vertex 3 cannot attach to two adjacent placed vertices"
    " (best ordering covers 2 of 4 agents)",
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_simulate_manifest_states_the_refusal(tmp_path, case):
    doc = UNSHAPED[case]() if case in UNSHAPED else malformed_document(case)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 64
    manifest = strict_manifest(out)
    assert (manifest["termination_reason"], manifest["error"]) == ("config-error", REFUSALS[case])
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_simulate_out_dir_without_a_value_writes_to_out(tmp_path, monkeypatch):
    # argparse refuses the bare flag, so the manifest goes to the default ./out.
    monkeypatch.chdir(tmp_path)
    assert run_cli("simulate", "--config", SCENARIOS / "triangle-flip-k06.json", "--out-dir") == 64
    manifest = strict_manifest(tmp_path / "out")
    assert manifest["termination_reason"] == "config-error"
    assert manifest["error"] == "usage: argument --out-dir: expected one argument"


def test_simulate_rejects_deeply_nested_document(tmp_path):
    # json.loads raises RecursionError at this depth on every supported Python.
    cfg_path = tmp_path / "deep.json"
    cfg_path.write_text("[" * 100_000 + "]" * 100_000)
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 64
    manifest = strict_manifest(out)
    assert manifest["termination_reason"] == "config-error"
    assert manifest["error"] == "<document>: JSON nested too deeply"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def hex_patch_document():
    """The benchmark's 469-agent lattice patch as a scenario document."""
    positions, edges, cliques = load_perfbench("workloads").hex_patch(12)
    return {
        "graph": {"n": len(positions), "edges": edges, "cliques": cliques},
        "root_edge": [1, 2],
        "d_star": 2.0,
        "k_gain": 20.0,
        "initial": {"positions": [list(p) for p in positions]},
    }


@pytest.mark.parametrize(
    "key, index, row, error",
    [
        ("edges", -1, [1, True], "graph.edges[1331]: expected a list of 2 integers, got [1, True]"),
        ("cliques", -1, [1, 2, 3.0], "graph.cliques[863]: expected a list of 3 integers, got [1, 2, 3.0]"),
        ("cliques", 500, (1, 2), "graph.cliques[500]: expected a list of 3 integers, got (1, 2)"),
        ("positions", -1, [0.0, math.nan], "initial.positions[468]: expected a finite number, got nan"),
        ("positions", 200, [10**400, 0], f"initial.positions[200]: expected a finite number, got {10**400}"),
    ],
    ids=["last-edge", "last-clique", "short-clique", "nan-position", "huge-integer-position"],
)
def test_refused_row_late_in_a_long_list_is_named(key, index, row, error):
    doc = hex_patch_document()
    config = config_from_dict(doc)
    assert len(config.graph.edges) == 1332 and len(config.graph.cliques) == 864
    assert all(type(x) is float for p in config.initial.positions for x in p)
    rows = doc["initial"]["positions"] if key == "positions" else doc["graph"][key]
    rows[index] = row
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert str(err.value) == error


def test_rows_parsed_one_by_one_are_accepted_as_in_bulk():
    # Entries that the bulk check leaves to the row parser, but that the row
    # parser accepts: a list subclass, and an integer beyond float range.
    doc = hex_patch_document()
    expected = config_from_dict(doc)
    doc["initial"]["positions"][7] = type("Row", (list,), {})(doc["initial"]["positions"][7])
    assert config_from_dict(doc) == expected
    doc["graph"]["edges"][-1] = [1, 10**400]
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert str(err.value) == f"graph: edge (1, {10**400}) references agents outside 1..469"


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


def test_loose_tolerance_stops_away_from_every_equilibrium(tmp_path):
    # grad_norm_tol 0.5 declares convergence while the apex still moves: no
    # catalogue point lies within 1e-4 of where it stopped.
    doc = json.loads((SCENARIOS / "triangle-flip-k06.json").read_text())
    doc["integrator"]["grad_norm_tol"] = 0.5
    cfg_path = tmp_path / "loose.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 0
    manifest = strict_manifest(out)
    assert manifest["termination_reason"] == "converged"
    assert manifest["terminal_equilibrium"] == {"matched": None, "detail": "no equilibrium within 1e-4"}


@pytest.mark.parametrize("name", ["paper10-two-columns-k20", "paper10-random-k20"])
def test_shipped_paper10_runs_report_that_they_reached_the_shape(tmp_path, name):
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", SCENARIOS / f"{name}.json", "--out-dir", out) == 0
    label = strict_manifest(out)["terminal_equilibrium"]
    assert (label["matched"], label["in_target_set"]) == ("apex-correct", True)


def test_paper10_flip_at_low_gain_is_named_although_the_flow_converges(tmp_path):
    # From this random layout K=0.3 traps a clique on its mirror side: the run
    # converges (exit 0) with a large area error, and the first triangle off
    # its target names the flipped equilibrium.
    cfg = make_builtin_scenario("paper-10", k_gain=0.3, initial=InitialSpec(seed=1, box=(0.0, 10.0, 0.0, 10.0)))
    cfg_path = tmp_path / "p10.json"
    save_scenario(cfg, cfg_path)
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 0
    manifest = strict_manifest(out)
    assert manifest["termination_reason"] == "converged"
    assert manifest["final_max_area_err"] > 1.0
    label = manifest["terminal_equilibrium"]
    assert (label["matched"], label["in_target_set"]) == ("below-axis", False)


def test_pair_run_has_no_triangle_to_label(tmp_path):
    # The builtin "pair" graph and the same graph spelled out run alike.
    for name, graph in (("explicit", {"n": 2, "edges": [[1, 2]]}), ("builtin", "pair")):
        doc = {
            "graph": graph,
            "root_edge": [1, 2],
            "d_star": 2.0,
            "k_gain": 20.0,
            "initial": {"positions": [[0.0, 0.0], [1.0, 0.5]]},
        }
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / name
        assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 0
        manifest = strict_manifest(out)
        assert manifest["termination_reason"] == "converged"
        assert manifest["field_evals"] == 1 + 4 * manifest["steps"]
        assert "terminal_equilibrium" not in manifest


# case id -> (gain, basin grid flags, cells): the default window at 3x3, and
# the flip start (0, -2) of triangle-flip-k06 alone, which ends below the axis.
JUDGE_CASES = {
    "0.6": (0.6, ["--grid", "3x3"], 9),
    "20.0": (20.0, ["--grid", "3x3"], 9),
    "flip-start": (0.6, ["--grid", "1x1", "--xmin", 0, "--xmax", 0, "--ymin", -2, "--ymax", -2], 1),
}


@pytest.mark.parametrize("case", list(JUDGE_CASES))
def test_basin_cells_and_simulate_share_one_judge(tmp_path, case):
    # A basin cell is the 3-agent simulate from the pins plus the cell's start
    # with the same integrator, and both are labelled by one judge.
    k_gain, grid, count = JUDGE_CASES[case]
    assert run_cli("basin", "--k", k_gain, *grid, "--out-dir", tmp_path / "basin") == 0
    with open(tmp_path / "basin" / "basin.csv", newline="") as fh:
        cells = list(csv.DictReader(fh))
    assert len(cells) == count
    if case == "flip-start":
        assert [(c["label"], c["matched_family"]) for c in cells] == [("incorrect", "below-axis")]
    for cell in cells:
        start = ((-1.0, 0.0), (1.0, 0.0), (float(cell["x0"]), float(cell["y0"])))
        cfg = triangle_config(k_gain=k_gain, initial=InitialSpec(positions=start), integrator=IntegratorConfig())
        cfg_path = tmp_path / "tri.json"
        save_scenario(cfg, cfg_path)
        out = tmp_path / f"cell-{cell['ix']}-{cell['iy']}"
        run_cli("simulate", "--config", cfg_path, "--out-dir", out)
        manifest = strict_manifest(out)
        assert manifest["termination_reason"] == cell["reason"]
        label = manifest.get("terminal_equilibrium", {"matched": None})
        assert (label["matched"] or "") == cell["matched_family"]


# (ix, iy) of the 5x5 cells over the default window that simulate re-runs;
# at K=0.6 the two in the bottom rows end flipped, below the axis.
VERDICT_CELLS = [(0, 0), (2, 1), (1, 2), (3, 3), (4, 4)]


@pytest.mark.parametrize("k_gain", [0.6, 20.0])
def test_basin_row_is_the_simulate_verdict_and_final_apex(tmp_path, k_gain):
    # One judge for both commands: each basin.csv row names the family and
    # the final apex of a simulate run of the triangle scenario from its start.
    assert run_cli("basin", "--k", k_gain, "--grid", "5x5", "--out-dir", tmp_path / "basin") == 0
    with open(tmp_path / "basin" / "basin.csv", newline="") as fh:
        rows = {(int(r["ix"]), int(r["iy"])): r for r in csv.DictReader(fh)}
    families = set()
    for ix, iy in VERDICT_CELLS:
        row = rows[ix, iy]
        start = ((-1.0, 0.0), (1.0, 0.0), (float(row["x0"]), float(row["y0"])))
        cfg = triangle_config(k_gain=k_gain, initial=InitialSpec(positions=start), integrator=IntegratorConfig())
        cfg_path = tmp_path / "tri.json"
        save_scenario(cfg, cfg_path)
        out = tmp_path / f"cell-{ix}-{iy}"
        assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 0
        assert row["matched_family"] == strict_manifest(out)["terminal_equilibrium"]["matched"]
        with open(out / "trajectory.csv", newline="") as fh:
            *_, last = csv.DictReader(fh)
        assert (float(row["x_final"]), float(row["y_final"])) == (float(last["x_3"]), float(last["y_3"]))
        families.add(row["matched_family"])
    assert families == ({"apex-correct", "below-axis"} if k_gain < 1.0 else {"apex-correct"})


def _count_catalogue_builds(monkeypatch) -> list:
    builds = []
    build = triform.analysis.enumerate_triangle_equilibria

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(triform.analysis, "enumerate_triangle_equilibria", counted)
    return builds


def test_converged_paper10_verdict_builds_the_catalogue_once(tmp_path, monkeypatch):
    builds = _count_catalogue_builds(monkeypatch)
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", SCENARIOS / "paper10-two-columns-k20.json", "--out-dir", out) == 0
    assert strict_manifest(out)["terminal_equilibrium"]["in_target_set"] is True
    assert builds == [(1.0, 20.0)]  # one build judges all eight triangles


def test_unsettled_base_verdict_builds_no_catalogue(tmp_path, monkeypatch):
    d_star, start, label = UNLABELLED_TRIANGLES["coincident-base"]
    cfg = triangle_config(k_gain=0.6, d_star=d_star, initial=InitialSpec(positions=start))
    cfg_path = tmp_path / "tri.json"
    save_scenario(cfg, cfg_path)
    builds = _count_catalogue_builds(monkeypatch)
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 0
    assert strict_manifest(out)["terminal_equilibrium"] == label
    assert builds == []


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


def test_bound_divergence_writes_nan_for_the_norm_it_never_evaluated(tmp_path):
    # One step of dt = 0.9 at K = 2000 leaves the divergence bound; the field is not
    # evaluated there, so the last row's max_u_norm is nan, not the previous norm.
    argv = ("--config", SCENARIOS / "triangle-flip-k06.json", "--dt", "0.9", "--t-max", "100", "--k", "2000")
    out = tmp_path / "run"
    assert run_cli("simulate", *argv, "--out-dir", out) == 3
    manifest = strict_manifest(out)
    assert (manifest["termination_reason"], manifest["steps"], manifest["field_evals"]) == ("diverged", 1, 4)
    with (out / "metrics.csv").open() as f:
        assert [row["max_u_norm"] for row in csv.DictReader(f)] == ["7468.101615137754", "nan"]
    assert (out / "trajectory.csv").read_text().splitlines()[-1].endswith(",nan")


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
        assert triform.dynamics.uses_array_kernel(doc["graph"]["n"])
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    code = run_cli("simulate", "--config", cfg_path, *flags, "--out-dir", out)
    files = [(out / f).read_bytes() for f in ("trajectory.csv", "metrics.csv")]
    digests = [hashlib.sha256(data).hexdigest() for data in files]
    assert (code, files[0].count(b"\n") - 1, *digests) == GOLDEN[name]


# The whole-column writer that _write_trajectory's row blocks replaced, kept
# as the oracle for its bytes.
def reference_write_trajectory(out_dir, traj):
    samples, n, _ = traj.states.shape
    coords = [f"{axis}_{i}" for i in range(1, n + 1) for axis in "xy"]
    errors = ["max_dist_err", "max_area_err", "max_u_norm"]
    with (out_dir / "trajectory.csv").open("w") as traj_f, (out_dir / "metrics.csv").open("w") as met_f:
        traj_f.write(",".join(["t", *coords, *errors]) + "\n")
        met_f.write(",".join(["t", *errors]) + "\n")
        rows = zip(traj.times.tolist(), traj.states.reshape(samples, 2 * n), traj.metrics.tolist())
        for t, state, metric in rows:
            head = repr(t)
            tail = ",".join(map(repr, metric))
            traj_f.write(f"{head},{','.join(map(repr, state.tolist()))},{tail}\n")
            met_f.write(f"{head},{tail}\n")


def test_trajectory_writer_blocks_match_the_whole_column_writer(tmp_path):
    n = 3
    block = triform.graph._BLOCK_VALUES // (2 * n + 4)
    samples = 3 * block + 17
    gen = np.random.default_rng(5)
    states = gen.normal(scale=10.0, size=(samples, n, 2))
    metrics = gen.exponential(size=(samples, 3))
    # non-finite values first and last in a block, and one signed zero
    for row in (0, block - 1, block, 2 * block - 1, samples - 1):
        states[row, 1] = (math.inf, -math.inf)
        metrics[row] = (math.nan, math.inf, 0.0)
    states[block + 1, 2, 0] = -0.0
    traj = triform.dynamics.Trajectory(times=np.arange(samples) * 1e-3, states=states, metrics=metrics)
    (tmp_path / "blocks").mkdir()
    (tmp_path / "columns").mkdir()
    triform.cli._write_trajectory(tmp_path / "blocks", traj)
    reference_write_trajectory(tmp_path / "columns", traj)
    written = {}
    for name in ("trajectory.csv", "metrics.csv"):
        written[name] = (tmp_path / "blocks" / name).read_bytes()
        assert written[name] == (tmp_path / "columns" / name).read_bytes()
        assert written[name].count(b"\n") == samples + 1
    assert b",inf,-inf," in written["trajectory.csv"] and b",-0.0," in written["trajectory.csv"]
    assert written["metrics.csv"].count(b",nan,inf,0.0\n") == 5


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


@pytest.mark.parametrize(
    "k_range, gains",
    [
        ("1e-13:1e-13:1e-14", [1e-13]),
        ("1e-12:1e-12:1e-12", [1e-12]),
        ("3e-12:3e-12:1e-13", [3e-12]),
        ("2e-13:5e-13:1e-13", [2e-13, 3e-13, 4e-13, 5e-13]),
        ("1:1:1e-13", [1.0]),
        ("1:1:1e-17", [1.0]),
    ],
)
def test_k_range_keeps_tiny_gains_and_stops_at_stop(tmp_path, k_range, gains):
    out = tmp_path / "rep"
    assert run_cli("analyze", "--k-range", k_range, "--out-dir", out) == 0
    assert strict_manifest(out)["gains"] == gains


def test_sweep_gain_one_gain_range_takes_a_step_that_cannot_advance_it(tmp_path):
    out = tmp_path / "run"
    assert run_cli("sweep-gain", "--k-range", "1:1:1e-17", "--grid", "1x1", "--out-dir", out) == 0
    assert strict_manifest(out)["gains"] == [1.0]


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
    # A real pool of two workers writes the bytes of one worker: basin cells in
    # both gain regimes, and a gain sweep.
    for name, argv, output in [
        ("basin-k0.6", ["basin", "--k", "0.6", "--grid", "3x3"], "basin.csv"),
        ("basin-k20", ["basin", "--k", "20", "--grid", "3x3"], "basin.csv"),
        ("sweep", ["sweep-gain", "--k-range", "0.4:2.0:0.4", "--grid", "3x3"], "sweep.csv"),
    ]:
        a, b = tmp_path / name / "a", tmp_path / name / "b"
        assert run_cli(*argv, "--jobs", 1, "--out-dir", a) == 0
        assert run_cli(*argv, "--jobs", 2, "--out-dir", b) == 0
        assert (a / output).read_bytes() == (b / output).read_bytes(), name


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

    def map(self, fn, *iterables):
        return map(fn, *iterables)


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


def test_sweep_gain_opens_one_pool_and_reports_each_gain_as_it_arrives(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(triform.cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(triform.cli.os, "cpu_count", lambda: 8)
    probe = triform.cli.probe_points

    def announced(plan, df, cfg, k_gain, *args):
        print(f"probe {k_gain!r}")
        return probe(plan, df, cfg, k_gain, *args)

    monkeypatch.setattr(triform.cli, "probe_points", announced)
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["sweep-gain", "--k-range", "0.4:2.0:0.4", "--grid", "3x1"]
    assert run_cli(*argv, "--jobs", 2, "--out-dir", a) == 0
    assert RecordingPool.sizes == [2]  # one pool for all five gains
    # each gain's two batches run, then its line prints, before the next gain's
    words = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert words == [w for k in ("0.4", "0.8", "1.2", "1.6", "2.0") for w in (f"probe {k}",) * 2 + (f"K={k}",)]
    assert run_cli(*argv, "--jobs", 1, "--out-dir", b) == 0
    assert RecordingPool.sizes == [2]
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


@pytest.mark.parametrize(
    "argv, field",
    [
        (["sweep-gain", "--k-range", "1:1:1", "--d-star", -1], "--d-star"),
        (["sweep-gain", "--k-range", "0:1:1"], "--k-range"),
        (["sweep-gain", "--k-range", "0.5:inf:1"], "--k-range"),
        (["sweep-gain", "--k-range", "nan:1:1"], "--k-range"),
        (["analyze", "--k-range", "0:1:1"], "--k-range"),
        (["analyze", "--k", 20.0, "--a", "1e-200"], "a=1e-200"),
        (["basin", "--k", 1.0, "--jobs", 0], "--jobs"),
        (["basin", "--k", 1.0, "--d-star", -1], "--d-star"),
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


FLIP = ["simulate", "--config", SCENARIOS / "triangle-flip-k06.json"]
BASIN = ["basin", "--k", "1", "--grid", "1x1"]
SWEEP = ["sweep-gain", "--k-range", "1:1:1", "--grid", "1x1"]
NUMERIC_FLAGS = {
    "k": ["basin", "--grid", "1x1", "--k"],
    "a": ["analyze", "--k", "1", "--a"],
    "simulate-k": [*FLIP, "--k"],
    "analyze-k": ["analyze", "--k"],
    "analyze-repeated-k": ["analyze", "--k", "1", "--k"],
    "basin-d-star": [*BASIN, "--d-star"],
    "sweep-d-star": [*SWEEP, "--d-star"],
    "simulate-dt": [*FLIP, "--dt"],
    "basin-dt": [*BASIN, "--dt"],
    "sweep-dt": [*SWEEP, "--dt"],
    "simulate-t-max": [*FLIP, "--t-max"],
    "basin-t-max": [*BASIN, "--t-max"],
    "sweep-t-max": [*SWEEP, "--t-max"],
}


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("argv", list(NUMERIC_FLAGS.values()), ids=list(NUMERIC_FLAGS))
def test_gain_and_scale_flags_refuse_zero_negative_and_non_finite(tmp_path, argv, value):
    out = tmp_path / "run"
    assert run_cli(*argv, value, "--out-dir", out) == 64
    manifest = strict_manifest(out)
    assert manifest["termination_reason"] == "config-error"
    assert manifest["error"].startswith(f"{argv[-1]} must be finite and positive")


@pytest.mark.parametrize(
    "argv, initial, message",
    [
        (["simulate", "--seed", 1], {"positions": [[-1, 0], [1, 0], [0, 1]]}, "--seed: the scenario has no random box"),
        (["analyze", "--k-range", "1:2"], None, "--k-range: expected START:STOP:STEP"),
        (["basin", "--k", 20.0, "--grid=-1x2"], None, "grid sizes must be non-negative"),
        (["basin", "--k", 20.0, "--grid", "1x1", "--xmin", 3, "--xmax", -3], None, "grid bounds are inverted"),
        (["simulate"], {"layout": "grid"}, "initial.layout: unknown layout 'grid'"),
        (["simulate"], {"layout": "two-columns"}, "layout 'two-columns' needs 10 agents, got 3"),
        (["simulate"], {"seed": 1, "box": [0, 0, 0, 1]}, "initial.box: degenerate box"),
    ],
    ids=[
        "seed-without-box",
        "short-k-range",
        "negative-grid",
        "inverted-bounds",
        "grid-layout",
        "two-columns-triangle",
        "degenerate-box",
    ],
)
def test_refused_inputs_name_their_reason(tmp_path, argv, initial, message):
    if initial is not None:
        doc = {"graph": "triangle", "root_edge": [1, 2], "d_star": 2.0, "k_gain": 20.0, "initial": initial}
        cfg_path = tmp_path / "tri.json"
        cfg_path.write_text(json.dumps(doc))
        argv = [*argv, "--config", cfg_path]
    out = tmp_path / "run"
    assert run_cli(*argv, "--out-dir", out) == 64
    manifest = strict_manifest(out)
    assert manifest["termination_reason"] == "config-error"
    assert message in manifest["error"]


@pytest.mark.parametrize(
    "argv", [["basin", "--k", 20.0], ["sweep-gain", "--k-range", "20:20:1"]], ids=["basin", "sweep-gain"]
)
def test_grid_runs_record_their_integrator(tmp_path, argv):
    out = tmp_path / "run"
    assert run_cli(*argv, "--grid", "1x1", "--t-max", 0.5, "--out-dir", out) == 0
    assert strict_manifest(out)["integrator"] == asdict(IntegratorConfig(t_max=0.5))


@pytest.mark.parametrize("text", ["-3e-3", "-3E-03", "-.5e1", "-3.e+2", "-0.003", "-3"])
def test_negative_bounds_read_as_values_in_any_float_notation(text):
    args = triform.cli.build_parser().parse_args(["basin", "--k", "20", "--xmin", text])
    assert args.xmin == float(text)


@pytest.mark.parametrize(
    "flags, code",
    [(["--dt", "4e-6", "--t-max", "0.01"], 2), (["--dt", "60", "--t-max", "100"], 3)],
    ids=["fine-step-short-budget", "coarse-step-long-budget"],
)
def test_simulate_applies_dt_and_t_max_together(tmp_path, flags, code):
    # Each pair is valid, but neither flag is valid against the scenario's
    # other setting (dt=1e-3, t_max=50); applied one at a time, both exited 64.
    out = tmp_path / "run"
    config = SCENARIOS / "triangle-flip-k06.json"
    assert run_cli("simulate", "--config", config, *flags, "--out-dir", out) == code
    integrator = strict_manifest(out)["config"]["integrator"]
    assert [integrator["dt"], integrator["t_max"]] == [float(flags[1]), float(flags[3])]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*FLIP, "--dt", "0.5", "--t-max", "0.1"], "--dt and --t-max: dt=0.5 must be smaller than t_max=0.1"),
        ([*FLIP, "--dt", "60"], "--dt: dt=60.0 must be smaller than t_max=50.0"),
        ([*FLIP, "--t-max", "1e-4"], "--t-max: dt=0.001 must be smaller than t_max=0.0001"),
        ([*BASIN, "--dt", "1e-12"], "--dt: t_max=50.0 must be within 10000000 steps of dt=1e-12"),
        ([*BASIN, "--t-max", "1e5"], "--t-max: t_max=100000.0 must be within 10000000 steps of dt=0.001"),
        ([*SWEEP, "--dt", "1", "--t-max", "0.5"], "--dt and --t-max: dt=1.0 must be smaller than t_max=0.5"),
        (["basin", "--k", "1", "--grid", "3x-1"], "--grid: grid sizes must be non-negative, got 3x-1"),
        ([*BASIN, "--xmin", "1", "--xmax", "0"], "--xmin and --xmax: grid bounds are inverted"),
        (
            ["sweep-gain", "--k-range", "1:2:0.5", "--grid", "2x2", "--ymin", "5"],
            "--ymin and --ymax: grid bounds are inverted",
        ),
        (
            [*BASIN, "--xmin", "nan"],
            "--xmin and --xmax: grid bounds must be finite with a finite span, got nan..3.0",
        ),
        ([*BASIN, "--d-star", "5e-324"], "--d-star: a must be finite and positive, got 0.0"),
        ([*BASIN, "--d-star", "1e-308"], "--d-star: a=5e-309 gives a*a=0.0, which is not a normal float"),
        (["analyze", "--a", "1e200", "--k", "1"], "--a: a=1e+200 gives a*a=inf, which is not a normal float"),
    ],
    ids=[
        "simulate-pair",
        "simulate-dt",
        "simulate-t-max",
        "basin-dt",
        "basin-t-max",
        "sweep-pair",
        "basin-negative-grid",
        "basin-inverted-x",
        "sweep-inverted-y",
        "basin-nan-xmin",
        "basin-zero-half-d-star",
        "basin-underflowing-d-star",
        "analyze-overflowing-a",
    ],
)
def test_dt_and_t_max_refusals_name_the_flags_given(tmp_path, argv, message):
    # Each value passes cli.main's own check of its flag; only the pair, one flag
    # against another setting, or what the command derives from a value is out
    # of range.  The error's subject is the flag or flags given.
    out = tmp_path / "run"
    assert run_cli(*argv, "--out-dir", out) == 64
    manifest = strict_manifest(out)
    assert manifest["termination_reason"] == "config-error"
    assert manifest["error"] == message


@pytest.mark.parametrize(
    "flags, expected",
    [
        ([], IntegratorConfig()),
        (["--dt", "2e-3"], IntegratorConfig(dt=2e-3)),
        (["--t-max", "5"], IntegratorConfig(t_max=5.0)),
    ],
)
def test_basin_integrator_defaults_to_integrator_config(flags, expected):
    for argv in (["basin", "--k", "20"], ["sweep-gain", "--k-range", "1:1:1"]):
        args = triform.cli.build_parser().parse_args([*argv, *flags])
        assert triform.cli._basin_setup(args, [1.0])[2] == expected


def test_basin_runs_with_a_negative_bound_in_exponent_notation(tmp_path):
    out = tmp_path / "basin"
    argv = ["basin", "--k", 20, "--grid", "2x1", "--t-max", 1, "--xmin", "-3e-3", "--xmax", "3e-3"]
    assert run_cli(*argv, "--out-dir", out) == 0
    assert strict_manifest(out)["grid"][2] == -0.003


@pytest.mark.parametrize(
    "patched, argv",
    [
        ("simulate", ["simulate", "--config", SCENARIOS / "triangle-flip-k06.json"]),
        ("probe_points", ["basin", "--k", 20.0, "--grid", "1x1"]),
        ("probe_points", ["sweep-gain", "--k-range", "1:1:1", "--grid", "1x1"]),
    ],
)
def test_fault_while_running_propagates_instead_of_a_config_error(tmp_path, monkeypatch, patched, argv):
    def fault(*args, **kwargs):
        raise ValueError("fault inside the run")

    monkeypatch.setattr(triform.cli, patched, fault)
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="fault inside the run"):
        run_cli(*argv, "--out-dir", out)
    assert not (out / "manifest.json").exists()


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

def load_perfbench(name):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


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
    # Either kernel makes one field evaluation per stage of every step, four
    # for RK4 and one for Euler, and one more at the final state; the manifest
    # counts them all.  The tracer sees the ones made through the callable
    # compile_field returns: all of them on arrays (from ARRAY_MIN_AGENTS
    # agents on), only the one before the loop on lists (paper-10), whose
    # generated run writes out every stage.
    cfg_path = tmp_path / f"{formation}.json"
    if formation == "grown-array":
        rng = random.Random(11)
        graph, df, plan = grown_formation(rng, triform.dynamics.ARRAY_MIN_AGENTS + 1)
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
    steps = span.attrs["steps"]
    assert span.attrs["reason"] == "converged" and steps > 0
    stages = 4 if method == "rk4" else 1
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert (manifest["steps"], manifest["field_evals"]) == (steps, 1 + stages * steps)
    assert span.field_evals == (1 + stages * steps if formation == "grown-array" else 1)


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
