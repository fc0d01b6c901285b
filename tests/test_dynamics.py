import dis
import math
import random
import re
from array import array
from dataclasses import replace
from pathlib import Path

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
)
from triform import dynamics, potentials
from triform.cli import _run_basin
from triform.dynamics import CONVERGED, DIVERGED, METHODS, TIMEOUT, compile_field, probe_points
from triform.graph import formation_errors
from triform.hierarchy import target_positions
from triform.scenario import load_scenario, make_builtin_scenario, resolve, two_columns_layout

from conftest import grown_formation
from oracles import total_potential

SQRT3 = math.sqrt(3.0)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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
        {"record_stride": 1.5},
        {"record_stride": True},
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
    monkeypatch.setattr(dynamics, "ARRAY_MIN_AGENTS", 3 if arrays else 4)
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


def ending_run(ending, method):
    """A 12-agent grown formation, its start and the integrator settings that end its run by ``ending``."""
    cfg, spread = ENDINGS[ending]
    rng = random.Random(7)
    _, df, plan = grown_formation(rng, 12)
    init = [
        Position(q.x + rng.uniform(-spread, spread), q.y + rng.uniform(-spread, spread))
        for q in target_positions(plan, df)
    ]
    return plan, df, init, replace(cfg, method=method)


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_array_and_scalar_paths_agree_bit_for_bit(monkeypatch, method, ending):
    plan, df, init, cfg = ending_run(ending, method)
    runs = []
    for threshold in (plan.graph.n + 1, plan.graph.n):  # scalar loops, then arrays
        monkeypatch.setattr(dynamics, "ARRAY_MIN_AGENTS", threshold)
        runs.append(simulate(plan, df, init, cfg, k_gain=20.0, kappa=20.0))
    scalar, arrays = runs
    assert scalar.reason == arrays.reason == ending
    assert (scalar.steps, scalar.diverged_at) == (arrays.steps, arrays.diverged_at)
    for name in ("times", "states", "metrics"):
        a, b = getattr(scalar.trajectory, name), getattr(arrays.trajectory, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------------------
# The generated list step against the scalar loops it replaced
# ---------------------------------------------------------------------------

def reference_simulate(plan, df, init, cfg, *, k_gain, kappa=1.0):
    """simulate's list path as it was before its step was generated, kept verbatim
    but for the nan norm of the sample after a step that left the bound."""
    n = plan.graph.n
    p = [c for q in init for c in (q.x, q.y)]
    field_eval = compile_field(plan, df, k_gain=k_gain, kappa=kappa)
    size = 2 * n
    u = [0.0] * size
    k2 = [0.0] * size
    k3 = [0.0] * size
    k4 = [0.0] * size
    tmp = [0.0] * size

    dt = cfg.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    tol2 = cfg.grad_norm_tol * cfg.grad_norm_tol
    bound = cfg.divergence_bound
    max_steps = int(math.ceil(cfg.t_max / dt))
    rk4 = cfg.method == "rk4"

    coords = array("d")
    times = array("d")
    u_norms = array("d")
    last_recorded = -1

    def record(step, gmax2):
        nonlocal last_recorded
        coords.fromlist(p)
        times.append(step * dt)
        u_norms.append(math.sqrt(gmax2))
        last_recorded = step

    reason = TIMEOUT
    step = 0
    worst = 0.0
    while True:
        field_eval(p, u)
        gmax2 = 0.0
        for m in range(0, size, 2):
            g2 = u[m] * u[m] + u[m + 1] * u[m + 1]
            if g2 > gmax2 or g2 != g2:  # a NaN sticks, as in np.max
                gmax2 = g2
        if step % cfg.record_stride == 0:
            record(step, gmax2)
        if not math.isfinite(gmax2):  # NaN or overflowing field
            reason = DIVERGED
            break
        if gmax2 < tol2:
            reason = CONVERGED
            break
        if step >= max_steps:
            reason = TIMEOUT
            break

        if rk4:
            for m in range(size):
                tmp[m] = p[m] + half * u[m]
            field_eval(tmp, k2)
            for m in range(size):
                tmp[m] = p[m] + half * k2[m]
            field_eval(tmp, k3)
            for m in range(size):
                tmp[m] = p[m] + dt * k3[m]
            field_eval(tmp, k4)
            for m in range(size):
                p[m] += sixth * (u[m] + 2.0 * (k2[m] + k3[m]) + k4[m])
        else:
            for m in range(size):
                p[m] += dt * u[m]
        worst = 0.0
        for m in range(size):
            a = abs(p[m])
            if a > worst or a != a:
                worst = a
        step += 1
        if not worst <= bound:  # NaN too
            reason = DIVERGED
            break

    if last_recorded != step and math.isfinite(worst):
        # after a step that left the bound the field is not evaluated: no norm
        record(step, math.nan if reason == DIVERGED and math.isfinite(gmax2) else gmax2)

    states = np.frombuffer(coords).reshape(len(times), n, 2)
    dist_err, area_err = formation_errors(df, states)
    metrics = np.column_stack((dist_err, area_err, np.frombuffer(u_norms)))
    return np.frombuffer(times), states, metrics, step, reason


def assert_matches_the_scalar_loops(plan, df, init, cfg, k_gain, kappa):
    assert not dynamics.uses_array_kernel(plan.graph.n)
    res = simulate(plan, df, init, cfg, k_gain=k_gain, kappa=kappa)
    times, states, metrics, steps, reason = reference_simulate(
        plan, df, init, cfg, k_gain=k_gain, kappa=kappa
    )
    assert (res.steps, res.reason, res.t_final) == (steps, reason, steps * cfg.dt)
    for got, want in zip((res.trajectory.times, res.trajectory.states, res.trajectory.metrics),
                         (times, states, metrics)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()  # NaN bits too
    return res


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("name", ["paper10-two-columns-k20", "paper10-random-k20", "triangle-flip-k06"])
def test_generated_step_matches_the_scalar_loops_on_shipped_scenarios(name, method):
    scenario = resolve(load_scenario(SCENARIOS / f"{name}.json"))
    cfg = replace(scenario.config.integrator, method=method)
    res = assert_matches_the_scalar_loops(
        scenario.plan, scenario.formation, scenario.initial_positions, cfg,
        scenario.config.k_gain, scenario.config.kappa,
    )
    assert res.reason == CONVERGED


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("ending", sorted(ENDINGS))
@pytest.mark.parametrize("n", [3, 4, 11, 25, dynamics.ARRAY_MIN_AGENTS - 1])
def test_generated_step_matches_the_scalar_loops_on_grown_graphs(n, ending, method):
    cfg, spread = ENDINGS[ending]
    rng = random.Random(1000 + n)
    _, df, plan = grown_formation(rng, n)  # random orientation signs
    init = [
        Position(q.x + rng.uniform(-spread, spread), q.y + rng.uniform(-spread, spread))
        for q in target_positions(plan, df)
    ]
    res = assert_matches_the_scalar_loops(plan, df, init, replace(cfg, method=method), 20.0, 20.0)
    assert res.reason == ending


# The NON_FINITE runs, and one whose free agent leaves the bound along the y
# axis, so that only the last coordinate of the state exceeds it.
DIVERGING = {**NON_FINITE, "escapes-in-last-coordinate": (1.0, 20.0, (0.0, 1e3), 1)}


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("case", sorted(DIVERGING))
def test_generated_step_matches_the_scalar_loops_on_diverging_runs(case, method):
    kappa, k_gain, start, _ = DIVERGING[case]
    df, plan = triangle_setup()
    cfg = IntegratorConfig(method=method, record_stride=1)
    res = assert_matches_the_scalar_loops(plan, df, pinned_init(*start), cfg, k_gain, kappa)
    assert res.reason == DIVERGED


# ---------------------------------------------------------------------------
# Agents at rest: loop invariants against the loop that steps every agent
# ---------------------------------------------------------------------------

def rest_of(plan, df, init, k_gain, kappa=1.0):
    """The rest set simulate takes from the first control at ``init``."""
    p = [c for q in init for c in (q.x, q.y)]
    u = [0.0] * len(p)
    compile_field(plan, df, k_gain=k_gain, kappa=kappa)(p, u)
    return dynamics._at_rest(plan, p, u)


def assert_rest_changes_nothing(monkeypatch, plan, df, init, cfg, k_gain, kappa=1.0):
    """The rest-aware run against the same run with no agent at rest, byte for byte."""
    res = simulate(plan, df, init, cfg, k_gain=k_gain, kappa=kappa)
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_at_rest", lambda plan, p, u: frozenset())
        full = simulate(plan, df, init, cfg, k_gain=k_gain, kappa=kappa)
    assert (res.steps, res.reason, res.t_final) == (full.steps, full.reason, full.t_final)
    for name in ("times", "states", "metrics"):
        a, b = getattr(res.trajectory, name), getattr(full.trajectory, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name  # signed zeros too
    return rest_of(plan, df, init, k_gain, kappa)


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("k_gain", [20.0, 0.6])
@pytest.mark.parametrize("start", [(0.0, 1.0), (-0.0, 1.0), (-0.0, -0.0), (0.4, -0.7), (-2.5, 2.0)])
def test_probe_cells_at_rest_match_the_full_loop(monkeypatch, start, k_gain, method):
    df, plan = triangle_setup()
    cfg = IntegratorConfig(method=method)
    rest = assert_rest_changes_nothing(monkeypatch, plan, df, pinned_init(*start), cfg, k_gain)
    assert rest == {plan.root, plan.pair}


# pins: (root, pair, rest set); the root may start at -0.0, a pair agent with
# a -0.0 coordinate is stepped
PINS = {
    "root-y-minus-zero": ((-1.0, -0.0), (1.0, 0.0), {1, 2}),
    "root-at-minus-zero": ((-0.0, -0.0), (2.0, 0.0), {1, 2}),
    "pair-y-minus-zero": ((-1.0, 0.0), (1.0, -0.0), {1}),
    "pair-x-minus-zero": ((-2.0, 0.5), (-0.0, 0.5), {1}),
}


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("case", sorted(PINS))
def test_signed_zero_pins_match_the_full_loop(monkeypatch, case, method):
    root, pair, want = PINS[case]
    df, plan = triangle_setup()
    init = [Position(*root), Position(*pair), Position(0.3, 1.1)]
    cfg = IntegratorConfig(method=method, t_max=5.0, record_stride=1)
    assert assert_rest_changes_nothing(monkeypatch, plan, df, init, cfg, 20.0) == want


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("placed", [2, 5, 11])
def test_grown_formations_with_agents_on_target_match_the_full_loop(monkeypatch, placed, method):
    # At d_star = 3 the control at the target is exactly zero for every agent,
    # so the first `placed` agents in processing order start at rest.
    rng = random.Random(placed)
    _, df, plan = grown_formation(rng, 11, d_star=3.0)
    target = target_positions(plan, df)
    jittered = set(plan.processing_order[placed:])
    init = [
        Position(q.x + rng.uniform(-0.3, 0.3), q.y + rng.uniform(-0.3, 0.3)) if i in jittered else q
        for i, q in enumerate(target, start=1)
    ]
    # the tolerance squares to 0.0, so a run with every agent at rest times out
    cfg = IntegratorConfig(method=method, t_max=3.0, record_stride=3, grad_norm_tol=1e-200)
    rest = assert_rest_changes_nothing(monkeypatch, plan, df, init, cfg, 20.0, 2.0)
    assert rest == set(plan.processing_order[:placed])


def test_rest_sets_of_basin_cells_and_paper10():
    rest_sets = []
    scenario = resolve(make_builtin_scenario("triangle", k_gain=20.0))
    plan, df = scenario.plan, scenario.formation
    a = 0.5 * df.d_star
    for x0, y0 in [(0.0, 1.0), (-0.0, -0.0), (1.7, -2.9)]:  # probe_points' pins and cells
        rest_sets.append(rest_of(plan, df, [Position(-a, 0.0), Position(a, 0.0), Position(x0, y0)], 20.0))
    assert rest_sets == [{plan.root, plan.pair}] * 3
    plan = build_hierarchy(build_example_graph(), (1, 2))
    df = DesiredFormation(plan.graph, 2.0)
    rng = random.Random(3)
    init = [Position(q.x + rng.uniform(-0.1, 0.1), q.y + rng.uniform(-0.1, 0.1)) for q in target_positions(plan, df)]
    assert rest_of(plan, df, init, 20.0) == {plan.root}


def loop_texts(lines):
    """Each name that ``lines`` assign, with the set of lines assigning it."""
    texts = {}
    for line in lines:
        texts.setdefault(re.search(r"(\w+) = ", line)[1], set()).add(line)
    return texts


def hoisted_and_looped(plan, rest):
    """The assignments the RK4 list bodies moved to setup, and the loop's lines."""
    _, setup, *loop = dynamics._list_bodies(plan, "rk4", frozenset(rest))
    first = next(i for i, line in enumerate(setup) if line.startswith("rest_worst = ")) + 1
    return list(setup[first:]), [line for body in loop for line in body]


def test_basin_loop_sets_the_pinned_bases_terms_once_in_setup():
    _, plan = triangle_setup()
    hoisted, looped = hoisted_and_looped(plan, {plan.root, plan.pair})
    assert sorted(line.partition(" = ")[0] for line in hoisted) == ["bx", "by", "qx", "qy"]
    assert not loop_texts(looped).keys() & {"bx", "by", "qx", "qy"}
    assert sum("area * qx" in line for line in looped) == 4  # read by every stage


def test_paper10_loop_with_only_the_root_at_rest_hoists_nothing():
    plan = build_hierarchy(build_example_graph(), (1, 2))
    hoisted, looped = hoisted_and_looped(plan, {plan.root})
    assert hoisted == []
    assert len(loop_texts(looped)["bx"]) == len(plan.triangles)  # one text per triangle


@pytest.mark.parametrize("case", ["basin", "paper10", "grown-5-at-rest"])
def test_compound_targets_and_names_of_two_texts_stay_in_the_loop(case):
    if case == "basin":
        _, plan = triangle_setup()
        rest = {plan.root, plan.pair}
    elif case == "paper10":
        plan = build_hierarchy(build_example_graph(), (1, 2))
        rest = {plan.root}
    else:
        _, _, plan = grown_formation(random.Random(5), 11, d_star=3.0)
        rest = set(plan.processing_order[:5])
    hoisted, looped = hoisted_and_looped(plan, rest)
    compound = {re.search(r"(\w+) = ", line)[1] for line in looped if line.startswith("if ")}
    several = {name for name, texts in loop_texts(looped + hoisted).items() if len(texts) > 1}
    assert "worst" in compound and "v" in several and (case == "basin" or {"gmax2", "bx"} <= compound | several)
    assert "worst = rest_worst" in looped  # though it reads only setup's rest_worst
    assert not (compound | several) & loop_texts(hoisted).keys()


def counted_evaluations(monkeypatch):
    """A list that grows by one per call of any field simulate compiles."""
    calls = []
    compile_once = dynamics.compile_field

    def spy(*args, **kwargs):
        field = compile_once(*args, **kwargs)

        def counted(p, out):
            calls.append(len(calls))
            field(p, out)

        return counted

    monkeypatch.setattr(dynamics, "compile_field", spy)
    return calls


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("arrays", [False, True], ids=["scalar", "arrays"])
def test_a_run_that_ends_at_its_start_evaluates_the_field_once(monkeypatch, arrays, method):
    monkeypatch.setattr(dynamics, "ARRAY_MIN_AGENTS", 3 if arrays else 4)
    calls = counted_evaluations(monkeypatch)
    df, plan = triangle_setup()
    cfg = IntegratorConfig(method=method)
    kappa, k_gain, start, _ = NON_FINITE["field-is-nan"]
    saddle = enumerate_triangle_equilibria(1.0, 0.6)[2].position
    for init, k_gain, kappa, reason in (
        (pinned_init(*start), k_gain, kappa, DIVERGED),  # a non-finite field at the start
        (pinned_init(saddle.x, saddle.y), 0.6, 1.0, CONVERGED),  # already converged
    ):
        calls.clear()
        res = simulate(plan, df, init, cfg, k_gain=k_gain, kappa=kappa)
        assert (res.reason, res.steps, res.t_final, len(calls), res.field_evals) == (reason, 0, 0.0, 1, 1)
        assert res.trajectory.times.tolist() == [0.0] and len(res.trajectory.states) == 1


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("arrays", [False, True], ids=["scalar", "arrays"])
@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_field_evals_counts_every_field_evaluation(monkeypatch, ending, arrays, method):
    # One evaluation per stage of every step, and one at the final state,
    # except after a step that leaves the divergence bound: the loop stops
    # before stage 1 there.  On arrays every evaluation goes through the
    # callable compile_field returns; on lists only the first one does.
    plan, df, init, cfg = ending_run(ending, method)
    monkeypatch.setattr(dynamics, "ARRAY_MIN_AGENTS", plan.graph.n if arrays else plan.graph.n + 1)
    calls = counted_evaluations(monkeypatch)
    res = simulate(plan, df, init, cfg, k_gain=20.0, kappa=20.0)
    assert res.reason == ending and res.steps > 0
    assert res.field_evals == 1 + {"rk4": 4, "euler": 1}[method] * res.steps - (ending == DIVERGED)
    assert len(calls) == (res.field_evals if arrays else 1)


def compiled_runs(monkeypatch):
    """The code objects simulate compiles or takes from the cache, field and loop, in call order."""
    codes = []
    compile_once = potentials._compile

    def spy(*args):
        codes.append(compile_once(*args))
        return codes[-1]

    monkeypatch.setattr(potentials, "_compile", spy)
    return codes


def floats_held(code):
    return {c for c in code.co_consts if isinstance(c, float)}.union(
        *(floats_held(c) for c in code.co_consts if hasattr(c, "co_consts"))
    )


@pytest.mark.parametrize("method", sorted(METHODS))
def test_generated_step_holds_no_float(monkeypatch, method):
    # dt, its fractions, tol2, the bound and every value of the field are
    # bound by name; only the op lines' own literals remain, as in the field
    codes = compiled_runs(monkeypatch)
    cfg = IntegratorConfig(method=method, dt=0.0123, t_max=1.0, grad_norm_tol=3e-7, divergence_bound=7e5)
    for n in (3, 10):
        _, df, plan = grown_formation(random.Random(n), n, d_star=1.7)
        simulate(plan, df, target_positions(plan, df), cfg, k_gain=0.37, kappa=2.9)
    assert len(codes) == 4 and len(set(map(id, codes))) == 4  # a field and a loop per shape
    for code in codes:
        assert floats_held(code) <= {0.0, 0.5, -0.5}


def negations(code):
    """The UNARY_NEGATIVE instructions of ``code`` and of every code object it holds."""
    own = [i for i in dis.get_instructions(code) if i.opname == "UNARY_NEGATIVE"]
    return own + [i for c in code.co_consts if hasattr(c, "co_consts") for i in negations(c)]


@pytest.mark.parametrize("arrays", [False, True], ids=["lists", "arrays"])
def test_each_generated_control_entry_is_one_multiply(monkeypatch, arrays):
    # nkap = -kappa is bound by name, so no op and no generated step negates
    assert "-(" not in potentials._PAIR_OP + potentials._TRIANGLE_OP
    monkeypatch.setattr(dynamics, "ARRAY_MIN_AGENTS", 3 if arrays else 60)
    codes = compiled_runs(monkeypatch)
    df, plan = triangle_setup()
    cfg = IntegratorConfig(t_max=0.01)
    assert simulate(plan, df, pinned_init(0.3, 1.1), cfg, k_gain=20.0).steps > 0  # a basin cell
    scenario = resolve(load_scenario(SCENARIOS / "paper10-two-columns-k20.json"))
    assert simulate(scenario.plan, scenario.formation, scenario.initial_positions, cfg, k_gain=20.0).steps > 0
    assert len(codes) == 4  # a field and a loop per shape
    for code in codes:
        assert negations(code) == []


def test_runs_of_one_shape_share_one_compiled_code_object(monkeypatch):
    codes = compiled_runs(monkeypatch)
    graph = build_example_graph()
    plan = build_hierarchy(graph, (1, 2))
    cfg = IntegratorConfig(t_max=0.1)
    signs = tuple((-1) ** i for i in range(len(graph.cliques)))
    for threshold in (11, 10):  # lists, then arrays
        monkeypatch.setattr(dynamics, "ARRAY_MIN_AGENTS", threshold)
        for df, k_gain in ((DesiredFormation(graph, 2.0), 20.0), (DesiredFormation(graph, 3.5, signs), 0.6)):
            start = [Position(q.x + 0.01 * i, q.y - 0.02 * i) for i, q in enumerate(target_positions(plan, df))]
            assert simulate(plan, df, start, cfg, k_gain=k_gain).steps > 0
    assert len(codes) == 8
    for field, run, field_again, run_again in (codes[:4], codes[4:]):
        assert field is field_again and run is run_again and field is not run


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
    [basin] = _run_basin(scenario, [k_gain], grid, cfg, 1)
    return basin


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
    with pytest.raises(ValueError):
        probe_points(plan, df, IntegratorConfig(), 20.0, GridSpec(2, 2, -1, 1, -1, 1).points())


@pytest.mark.parametrize("k_gain", [0.3, 0.6, 1.4, 20.0])  # both sides of K_LOW and of K_HIGH
def test_basin_cells_mirror_their_direct_probes(k_gain):
    # The pinned triangle's flow is mirror-symmetric about x = 0, and so is the
    # rounding of the op text: the probe from (-x, y) ends at the mirror of the
    # probe from (x, y), with the same label, reason and family. Only signed
    # zeros may differ. Windows are drawn like the benchmark's, with an odd
    # and an even column count, plus one window of +-0.0.
    scenario = resolve(make_builtin_scenario("triangle", k_gain=1.0, d_star=2.0))
    rng = random.Random(repr(k_gain))
    points = []
    for nx in (3, 4):
        w, shift = rng.uniform(2.5, 3.5), rng.uniform(-0.5, 0.5)
        points += [p for p in GridSpec(nx, 2, -w, w, -3.0 + shift, 3.0 + shift).points() if p[2] <= 0.0]
    points += GridSpec(1, 2, -0.0, 0.0, -3.0, 3.0).points()
    mirrored = [(ix, iy, -x, y) for ix, iy, x, y in points]
    cfg = IntegratorConfig()
    left, right = (probe_points(scenario.plan, scenario.formation, cfg, k_gain, p) for p in (points, mirrored))
    for a, b in zip(left, right):
        assert (a.label, a.reason, a.matched_family, repr(a.y_final)) == (
            b.label, b.reason, b.matched_family, repr(b.y_final)
        ), (a, b)
        assert a.x_final == -b.x_final, (a, b)


def downstream(plan, moved):
    """``moved`` and every agent whose triangle depends on it, directly or through others."""
    down = {moved}
    for t in plan.triangles:  # in processing order, so bases are classified first
        if t.base1 in down or t.base2 in down:
            down.add(t.agent)
    return down


def paper10_random():
    scenario = resolve(load_scenario(SCENARIOS / "paper10-random-k20.json"))
    return scenario.plan, scenario.formation, scenario.initial_positions, scenario.config.kappa


def grown_64():
    rng = random.Random(64)
    _, df, plan = grown_formation(rng, 64)
    init = [
        Position(q.x + rng.uniform(-0.5, 0.5), q.y + rng.uniform(-0.5, 0.5)) for q in target_positions(plan, df)
    ]
    return plan, df, init, 20.0


@pytest.mark.parametrize("moved", ["last", "middle"])
@pytest.mark.parametrize("formation", [paper10_random, grown_64], ids=["paper10-list", "grown64-array"])
def test_information_flows_strictly_downward(formation, moved):
    # The paper's structural claim, exactly: moving one agent's start leaves
    # every agent that is not downstream of it with the same trajectory bytes,
    # up to the shorter run's length. Paper-10 runs the list kernel, the grown
    # formation the array kernel.
    plan, df, init, kappa = formation()
    assert dynamics.uses_array_kernel(plan.graph.n) == (formation is grown_64)
    order = plan.processing_order
    if moved == "last":
        agent = order[-1]
    else:  # the first agent from the middle of the order on that has dependents
        agent = next(a for a in order[len(order) // 2 :] if len(downstream(plan, a)) > 1)
    trial = list(init)
    p = trial[agent - 1]
    trial[agent - 1] = Position(p.x + 0.25, p.y - 0.125)
    cfg = IntegratorConfig(t_max=1.0, record_stride=1)
    base, other = (simulate(plan, df, start, cfg, k_gain=20.0, kappa=kappa).trajectory for start in (init, trial))
    m = min(len(base.times), len(other.times))
    kept = [a for a in order if a not in downstream(plan, agent)]
    changed = [a for a in [*kept, agent] if base.states[:m, a - 1].tobytes() != other.states[:m, a - 1].tobytes()]
    assert kept and changed == [agent]


@pytest.mark.parametrize("count", range(1, 12))
def test_grid_points_mirror_a_symmetric_window_and_end_exactly(count):
    # Each half of an axis steps in from its own end, so a window -w..w gives
    # points with x[i] == -x[count-1-i] bit for bit, and both ends are exact.
    rng = random.Random(count)
    for w in [2.9, 3.0, 1e-3, *(rng.uniform(0.1, 10.0) for _ in range(200))]:
        xs = [x for _, _, x, _ in GridSpec(count, 1, -w, w, 0.0, 0.0).points()]
        assert xs == [-x for x in reversed(xs)], (w, xs)
        if count > 1:
            assert (xs[0], xs[-1]) == (-w, w)
    lo, hi = sorted(rng.uniform(-10.0, 10.0) for _ in range(2))
    ys = [y for _, _, _, y in GridSpec(1, count, 0.0, 0.0, lo, hi).points()]
    assert ys == sorted(ys)
    if count > 1:
        assert (ys[0], ys[-1]) == (lo, hi)


def test_grid_points_of_the_reported_windows():
    xs = [x for _, _, x, _ in GridSpec(5, 1, -2.9, 2.9, 2.0, 2.0).points()]
    assert xs == [-2.9, -1.45, 0.0, 1.45, 2.9]
    assert GridSpec(7, 1, -1.0, 2.2, 0.0, 0.0).points()[-1][2] == 2.2
    assert str(GridSpec(1, 1, -0.0, -0.0, -0.0, -0.0).points()) == "[(0, 0, -0.0, -0.0)]"


def test_grid_points_order_and_midpoint():
    grid = GridSpec(3, 2, 0.0, 2.0, 0.0, 1.0)
    pts = grid.points()
    assert pts[0] == (0, 0, 0.0, 0.0)
    assert pts[1][:2] == (1, 0)
    assert pts[-1] == (2, 1, 2.0, 1.0)
    single = GridSpec(1, 1, -1.0, 3.0, 2.0, 4.0).points()
    assert single == [(0, 0, 1.0, 3.0)]
