import math
import random
from dataclasses import replace

import numpy as np
import pytest

from triform import (
    DesiredFormation,
    FormationGraph,
    GridSpec,
    IntegratorConfig,
    Position,
    build_example_graph,
    build_hierarchy,
    enumerate_triangle_equilibria,
    simulate,
    total_potential,
)
from triform import hierarchy
from triform.cli import _run_basin
from triform.dynamics import CONVERGED, DIVERGED, TIMEOUT, probe_points
from triform.hierarchy import target_positions
from triform.scenario import make_builtin_scenario, resolve, two_columns_layout

from conftest import grown_formation

SQRT3 = math.sqrt(3.0)


def triangle_setup(d_star=2.0):
    g = FormationGraph(3, [(1, 2), (2, 3), (1, 3)], [(1, 2, 3)])
    df = DesiredFormation(g, d_star)
    return df, build_hierarchy(g, (1, 2))


def pinned_init(x, y, a=1.0):
    return [Position(-a, 0.0), Position(a, 0.0), Position(x, y)]


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"method": "rk5"},
        {"dt": 0.0},
        {"dt": 2.0, "t_max": 1.0},
        {"grad_norm_tol": 0.0},
        {"record_stride": 0},
        {"divergence_bound": -1.0},
        {"t_max": float("inf")},
    ],
)
def test_integrator_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        IntegratorConfig(**kwargs)


# ---------------------------------------------------------------------------
# Pinned-triangle runs
# ---------------------------------------------------------------------------

def test_high_gain_run_reaches_target_apex():
    df, plan = triangle_setup()
    res = simulate(plan, df, pinned_init(0.5, 0.5), IntegratorConfig(), k_gain=20.0)
    assert res.reason == CONVERGED
    p = res.final_positions()[2]
    assert math.hypot(p.x - 0.0, p.y - SQRT3) <= 1e-6


def test_low_gain_run_can_settle_on_the_flipped_side():
    df, plan = triangle_setup()
    res = simulate(plan, df, pinned_init(0.0, -2.0), IntegratorConfig(), k_gain=0.6)
    assert res.reason == CONVERGED
    p = res.final_positions()[2]
    y_flip = -math.sqrt(0.75 - 0.3) - 0.5 * SQRT3
    assert math.hypot(p.x, p.y - y_flip) <= 1e-6
    # the terminal point is distance-correct but not in the target set
    assert signed_area_of_final(res) < 0.0


def signed_area_of_final(res):
    pts = res.final_positions()
    return 0.5 * (
        (pts[1].x - pts[0].x) * (pts[2].y - pts[0].y)
        - (pts[2].x - pts[0].x) * (pts[1].y - pts[0].y)
    )


def test_pinned_agents_never_move():
    df, plan = triangle_setup()
    res = simulate(plan, df, pinned_init(1.3, -0.7), IntegratorConfig(), k_gain=5.0)
    states = res.trajectory.states
    assert np.all(states[:, 0, :] == states[0, 0, :])
    assert np.all(states[:, 1, :] == states[0, 1, :])


def test_start_exactly_on_an_unstable_equilibrium_stays():
    df, plan = triangle_setup()
    saddle = enumerate_triangle_equilibria(1.0, 0.6)[2]  # the point between axis roots
    res = simulate(
        plan, df, pinned_init(saddle.position.x, saddle.position.y), IntegratorConfig(), k_gain=0.6
    )
    assert res.reason == CONVERGED
    assert res.steps == 0
    p = res.final_positions()[2]
    assert (p.x, p.y) == (saddle.position.x, saddle.position.y)


def test_energy_non_increasing_along_gradient_flows():
    df, plan = triangle_setup()
    for k_gain, start in ((20.0, (0.5, 0.5)), (0.6, (-2.5, -1.5)), (0.6, (2.0, 3.0))):
        res = simulate(
            plan, df, pinned_init(*start), IntegratorConfig(record_stride=20), k_gain=k_gain
        )
        values = [
            total_potential(plan, df, [Position(float(x), float(y)) for x, y in st], k_gain=k_gain)
            for st in res.trajectory.states
        ]
        drops = np.diff(values)
        assert drops.max() <= 1e-9


def test_energy_non_increasing_along_layered_benchmark_run():
    g = build_example_graph()
    df = DesiredFormation(g, 2.0)
    plan = build_hierarchy(g, (1, 2))
    res = simulate(
        plan, df, two_columns_layout(10, 2.0), IntegratorConfig(record_stride=20), k_gain=20.0
    )
    assert res.reason == CONVERGED
    values = [
        total_potential(plan, df, [Position(float(x), float(y)) for x, y in st], k_gain=20.0)
        for st in res.trajectory.states
    ]
    assert np.diff(values).max() <= 1e-9


def test_halving_dt_barely_moves_the_terminal_state():
    df, plan = triangle_setup()
    fine = IntegratorConfig(dt=5e-4)
    coarse = IntegratorConfig(dt=1e-3)
    ra = simulate(plan, df, pinned_init(0.8, 1.4), coarse, k_gain=20.0)
    rb = simulate(plan, df, pinned_init(0.8, 1.4), fine, k_gain=20.0)
    assert ra.reason == rb.reason == CONVERGED
    pa, pb = ra.final_positions()[2], rb.final_positions()[2]
    assert math.hypot(pa.x - pb.x, pa.y - pb.y) <= 1e-8


def test_gradient_norm_decays_exponentially_near_stable_point():
    df, plan = triangle_setup()
    res = simulate(plan, df, pinned_init(0.4, 1.1), IntegratorConfig(record_stride=20), k_gain=20.0)
    assert res.reason == CONVERGED
    norms = res.trajectory.metrics[:, 2]
    tail = norms[2 * len(norms) // 3 :]
    tail = tail[tail > 0]
    assert len(tail) >= 4
    slope = np.polyfit(res.trajectory.times[-len(tail) :], np.log(tail), 1)[0]
    assert slope < 0


def test_euler_method_converges_too():
    df, plan = triangle_setup()
    res = simulate(
        plan, df, pinned_init(0.5, 0.5), IntegratorConfig(method="euler"), k_gain=20.0
    )
    assert res.reason == CONVERGED
    p = res.final_positions()[2]
    assert math.hypot(p.x, p.y - SQRT3) <= 1e-6


def test_timeout_reported():
    df, plan = triangle_setup()
    cfg = IntegratorConfig(t_max=0.05, grad_norm_tol=1e-13)
    res = simulate(plan, df, pinned_init(0.5, 0.5), cfg, k_gain=20.0)
    assert res.reason == TIMEOUT
    assert res.t_final == pytest.approx(0.05, abs=1e-9)


def test_divergence_detected_with_offending_time():
    df, plan = triangle_setup()
    cfg = IntegratorConfig(method="euler", dt=0.5, t_max=10.0)
    res = simulate(plan, df, pinned_init(50.0, 50.0), cfg, k_gain=20.0)
    assert res.reason == DIVERGED
    assert res.diverged_at is not None
    assert res.diverged_at == pytest.approx(res.t_final)


def test_recording_stride_and_endpoints():
    df, plan = triangle_setup()
    cfg = IntegratorConfig(record_stride=100)
    res = simulate(plan, df, pinned_init(0.5, 0.5), cfg, k_gain=20.0)
    t = res.trajectory.times
    assert t[0] == 0.0
    assert np.all(np.diff(t) > 0)
    assert t[-1] == pytest.approx(res.t_final)
    # interior samples sit on the stride
    for ti in t[1:-1]:
        assert round(ti / cfg.dt) % cfg.record_stride == 0
    assert res.trajectory.metrics.shape == (len(t), 3)


# case: (kappa, k_gain, free agent start, steps taken); each run used to end "converged"
NON_FINITE = {
    "field-norm-overflows": (1e200, 20.0, (0.3, 2.0), 0),
    "field-is-nan": (1.0, 1.7e308, (0.3, 10.0), 0),
    "state-turns-nan": (1e100, 20.0, (0.3, 2.0), 1),
}


@pytest.mark.parametrize("arrays", [False, True], ids=["scalar", "arrays"])
@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_state_or_field_is_divergence(monkeypatch, case, arrays):
    kappa, k_gain, start, steps = NON_FINITE[case]
    monkeypatch.setattr(hierarchy, "ARRAY_MIN_AGENTS", 3 if arrays else 4)
    df, plan = triangle_setup()
    cfg = IntegratorConfig(record_stride=1)
    res = simulate(plan, df, pinned_init(*start), cfg, k_gain=k_gain, kappa=kappa)
    assert (res.reason, res.steps) == (DIVERGED, steps)
    assert res.diverged_at == res.t_final == steps * 1e-3
    assert np.isfinite(res.trajectory.states).all()


# ending: (integrator settings, spread of the start around the target)
ENDINGS = {
    CONVERGED: (IntegratorConfig(grad_norm_tol=1e-6, record_stride=7), 0.1),
    TIMEOUT: (IntegratorConfig(t_max=0.05, record_stride=7), 0.1),
    DIVERGED: (IntegratorConfig(dt=0.5, t_max=10.0), 30.0),
}


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_array_and_scalar_paths_agree_bit_for_bit(monkeypatch, method, ending):
    cfg, spread = ENDINGS[ending]
    cfg = replace(cfg, method=method)
    rng = random.Random(7)
    _, df, plan = grown_formation(rng, 12)
    init = [
        Position(q.x + rng.uniform(-spread, spread), q.y + rng.uniform(-spread, spread))
        for q in target_positions(plan, df)
    ]
    runs = []
    for threshold in (plan.graph.n + 1, plan.graph.n):  # scalar loops, then arrays
        monkeypatch.setattr(hierarchy, "ARRAY_MIN_AGENTS", threshold)
        runs.append(simulate(plan, df, init, cfg, k_gain=20.0, kappa=20.0))
    scalar, arrays = runs
    assert scalar.reason == arrays.reason == ending
    assert (scalar.steps, scalar.diverged_at) == (arrays.steps, arrays.diverged_at)
    for name in ("times", "states", "metrics"):
        a, b = getattr(scalar.trajectory, name), getattr(arrays.trajectory, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_simulate_rejects_wrong_agent_count():
    df, plan = triangle_setup()
    with pytest.raises(ValueError):
        simulate(plan, df, pinned_init(0.5, 0.5)[:2], IntegratorConfig(), k_gain=20.0)


# ---------------------------------------------------------------------------
# Basin probe
# ---------------------------------------------------------------------------

def run_basin(grid, k_gain, cfg=IntegratorConfig()):
    """Cells and correct fraction of the pinned-triangle basin map (d_star 2) over ``grid``."""
    scenario = resolve(make_builtin_scenario("triangle", k_gain=1.0, d_star=2.0))
    return _run_basin(scenario, k_gain, enumerate_triangle_equilibria(1.0, k_gain), grid, cfg, 1)


def test_basin_high_gain_all_correct():
    cells, fraction = run_basin(GridSpec(5, 5, -3.0, 3.0, -3.0, 3.0), 20.0)
    assert fraction == 1.0
    assert all(c.label == "correct" for c in cells)


def test_basin_low_gain_has_incorrect_cells_at_the_flip_point():
    cells, fraction = run_basin(GridSpec(5, 5, -3.0, 3.0, -3.0, 3.0), 0.6)
    wrong = [c for c in cells if c.label == "incorrect"]
    assert fraction < 1.0
    assert wrong
    y_flip = -math.sqrt(0.75 - 0.3) - 0.5 * SQRT3
    for c in wrong:
        assert math.hypot(c.x_final, c.y_final - y_flip) <= 1e-4
        assert c.matched_family == "below-axis"


def test_basin_cell_exactly_on_the_target_apex_is_correct():
    cells, _ = run_basin(GridSpec(1, 1, 0.0, 0.0, SQRT3, SQRT3), 0.6)
    assert cells[0].label == "correct"


def test_basin_zero_cells():
    assert run_basin(GridSpec(0, 0, -1.0, 1.0, -1.0, 1.0), 2.0) == ([], None)


def test_basin_unresolved_on_timeout():
    cfg = IntegratorConfig(t_max=0.01, grad_norm_tol=1e-13)
    cells, _ = run_basin(GridSpec(2, 1, -2.0, 2.0, 2.0, 2.0), 20.0, cfg)
    assert all(c.label == "unresolved" and c.reason == TIMEOUT for c in cells)


def test_basin_requires_three_agents():
    g = build_example_graph()
    df = DesiredFormation(g, 2.0)
    plan = build_hierarchy(g, (1, 2))
    eqs = enumerate_triangle_equilibria(1.0, 20.0)
    with pytest.raises(ValueError):
        probe_points(plan, df, IntegratorConfig(), 20.0, eqs, GridSpec(2, 2, -1, 1, -1, 1).points())


def test_grid_points_order_and_midpoint():
    grid = GridSpec(3, 2, 0.0, 2.0, 0.0, 1.0)
    pts = grid.points()
    assert pts[0] == (0, 0, 0.0, 0.0)
    assert pts[1][:2] == (1, 0)
    assert pts[-1] == (2, 1, 2.0, 1.0)
    single = GridSpec(1, 1, -1.0, 3.0, 2.0, 4.0).points()
    assert single == [(0, 0, 1.0, 3.0)]
