import math

import numpy as np
import pytest

from triform import (
    DesiredFormation,
    FormationGraph,
    HierarchyError,
    Position,
    build_example_graph,
    build_hierarchy,
    control_field,
    formation_errors,
    target_positions,
    total_potential,
)
from triform import hierarchy
from triform.hierarchy import compile_field
from triform.potentials import _corner_gradient

from conftest import grow_henneberg, grown_formation

SQRT3 = math.sqrt(3.0)


def triangle_setup(d_star=2.0):
    g = FormationGraph(3, [(1, 2), (2, 3), (1, 3)], [(1, 2, 3)])
    df = DesiredFormation(g, d_star)
    return g, df, build_hierarchy(g, (1, 2))


def example_setup(d_star=2.0):
    g = build_example_graph()
    df = DesiredFormation(g, d_star)
    return g, df, build_hierarchy(g, (1, 2))


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------

def test_example_plan_reproduces_published_assignment_table():
    _, _, plan = example_setup()
    assert (plan.root, plan.pair) == (1, 2)
    expected_bases = {
        3: (1, 2),
        5: (3, 2),
        4: (5, 2),
        6: (3, 5),
        8: (5, 4),
        9: (6, 5),
        7: (8, 4),
        10: (6, 9),
    }
    assert {t.agent: (t.base1, t.base2) for t in plan.triangles} == expected_bases
    layers = plan.layers()
    assert set(layers[1]) == {1}
    assert set(layers[2]) == {2}
    assert set(layers[3]) == {3}
    assert set(layers[4]) == {4, 5, 6}
    assert set(layers[5]) == {7, 8, 9, 10}


def assert_dependency_order(plan):
    """Every triangle's bases come before it; every agent appears exactly once."""
    seen = {plan.root, plan.pair}
    for t in plan.triangles:
        assert {t.base1, t.base2} <= seen, f"agent {t.agent} processed before its bases"
        seen.add(t.agent)
    assert sorted(plan.processing_order) == list(range(1, plan.graph.n + 1))


def test_plan_processing_order_respects_dependencies():
    _, _, plan = example_setup()
    assert_dependency_order(plan)
    assert plan.processing_order == (1, 2, 3, 5, 4, 6, 8, 7, 9, 10)


def test_plan_is_deterministic():
    _, _, plan_a = example_setup()
    _, _, plan_b = example_setup()
    assert plan_a == plan_b


def test_single_triangle_plan():
    _, _, plan = triangle_setup()
    (t,) = plan.triangles
    assert (plan.root, plan.pair) == (1, 2)
    assert (t.base1, t.base2, t.agent) == (1, 2, 3)  # stored orientation kept


def test_pair_graph_plan():
    g = FormationGraph(2, [(1, 2)], [])
    plan = build_hierarchy(g, (1, 2))
    assert (plan.root, plan.pair, plan.triangles) == (1, 2, ())
    assert plan.layers() == {1: (1,), 2: (2,)}


def test_four_cycle_rejected():
    g = FormationGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], [])
    with pytest.raises(HierarchyError):
        build_hierarchy(g, (1, 2))


def test_root_edge_must_exist():
    g = build_example_graph()
    with pytest.raises(HierarchyError):
        build_hierarchy(g, (1, 10))


def test_random_growth_plans_from_any_root(rng):
    for _ in range(20):
        n = rng.randrange(3, 25)
        edges, cliques = grow_henneberg(rng, n)
        g = FormationGraph(n, edges, cliques)
        root = sorted(g.edges)[rng.randrange(len(g.edges))]
        plan = build_hierarchy(g, root)
        assert (plan.root, plan.pair) == root
        assert_dependency_order(plan)


# ---------------------------------------------------------------------------
# Target construction
# ---------------------------------------------------------------------------

def test_target_positions_satisfy_formation():
    _, df, plan = example_setup()
    errs = formation_errors(df, target_positions(plan, df))
    assert max(errs) <= 1e-12


def test_target_positions_honour_orientation_signs(rng):
    # grown graphs use each clique exactly once, so any sign vector is feasible
    for _ in range(10):
        n = rng.randrange(3, 15)
        edges, cliques = grow_henneberg(rng, n)
        g = FormationGraph(n, edges, cliques)
        signs = tuple(rng.choice((-1, 1)) for _ in cliques)
        df = DesiredFormation(g, rng.uniform(0.5, 3.0), signs)
        plan = build_hierarchy(g, sorted(g.edges)[0])
        errs = formation_errors(df, target_positions(plan, df))
        assert max(errs) <= 1e-9


# ---------------------------------------------------------------------------
# Control field
# ---------------------------------------------------------------------------

def test_control_field_zero_at_target():
    _, df, plan = example_setup()
    u = control_field(plan, df, target_positions(plan, df), k_gain=20.0)
    assert max(v.norm() for v in u) <= 1e-10


def test_control_field_dependency_sparsity(rng):
    # moving one agent changes exactly the inputs of the agents that list it
    g, df, plan = example_setup()
    dependents = {a: set() for a in range(1, 11)}
    dependents[plan.root].add(plan.pair)
    for t in plan.triangles:
        dependents[t.base1].add(t.agent)
        dependents[t.base2].add(t.agent)
    pts = target_positions(plan, df)
    base = control_field(plan, df, pts, k_gain=20.0)
    for moved in range(1, 11):
        trial = list(pts)
        trial[moved - 1] = Position(
            trial[moved - 1].x + rng.uniform(0.1, 0.5),
            trial[moved - 1].y + rng.uniform(0.1, 0.5),
        )
        u = control_field(plan, df, trial, k_gain=20.0)
        for agent in range(1, 11):
            if agent == moved or agent in dependents[moved]:
                continue
            assert u[agent - 1] == base[agent - 1]  # bitwise: untouched inputs


def test_control_field_layer_causality(rng):
    # agents in strictly higher layers never influence a lower-layer agent
    g, df, plan = example_setup()
    pts = [Position(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(10)]
    base = control_field(plan, df, pts, k_gain=20.0)
    layer = {agent: k for k, agents in plan.layers().items() for agent in agents}
    for moved in range(1, 11):
        trial = list(pts)
        trial[moved - 1] = Position(rng.uniform(-5, 5), rng.uniform(-5, 5))
        u = control_field(plan, df, trial, k_gain=20.0)
        for agent in range(1, 11):
            if layer[agent] < layer[moved]:
                assert u[agent - 1] == base[agent - 1]


def test_only_leaf_agent_input_reacts_to_its_own_motion():
    # in the single-triangle graph, agent 3 has no dependents at all
    _, df, plan = triangle_setup()
    pts = target_positions(plan, df)
    trial = list(pts)
    trial[2] = Position(trial[2].x + 0.3, trial[2].y - 0.2)
    u = control_field(plan, df, trial, k_gain=20.0)
    assert u[0].as_tuple() == (0.0, 0.0)
    assert u[1].as_tuple() == (0.0, 0.0)
    assert u[2].norm() > 0.0


def test_control_field_translation_invariant(rng):
    g, df, plan = example_setup()
    for _ in range(50):
        pts = [Position(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(10)]
        tx, ty = rng.uniform(-50, 50), rng.uniform(-50, 50)
        shifted = [Position(p.x + tx, p.y + ty) for p in pts]
        u0 = control_field(plan, df, pts, k_gain=20.0)
        u1 = control_field(plan, df, shifted, k_gain=20.0)
        worst = max(
            math.hypot(a.dx - b.dx, a.dy - b.dy) for a, b in zip(u0, u1)
        )
        assert worst <= 1e-10 * max(1.0, max(v.norm() for v in u0))


def test_pinned_control_field_matches_closed_loop_polynomial(rng):
    # canonical pins: the free agent's input must equal the closed-loop field
    _, df, plan = triangle_setup(d_star=2.0)
    a, K = 1.0, 20.0
    for _ in range(100):
        x, y = rng.uniform(-4, 4), rng.uniform(-4, 4)
        u = control_field(
            plan, df, [Position(-a, 0), Position(a, 0), Position(x, y)], k_gain=K
        )[2]
        fx = -2.0 * x * (x * x + y * y - a * a)
        fy = -2.0 * y * (x * x + y * y - 3.0 * a * a) + K * a * a * (SQRT3 * a - y)
        scale = max(1.0, math.hypot(fx, fy))
        assert math.hypot(u.dx - fx, u.dy - fy) <= 1e-12 * scale


def test_kappa_scales_field_exactly(rng):
    g, df, plan = example_setup()
    pts = [Position(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(10)]
    u1 = control_field(plan, df, pts, k_gain=20.0, kappa=1.0)
    u2 = control_field(plan, df, pts, k_gain=20.0, kappa=2.0)
    for a, b in zip(u1, u2):
        assert b.dx == 2.0 * a.dx and b.dy == 2.0 * a.dy


def test_compiled_field_agrees_with_reference(rng):
    sizes = (4, 11, 25, hierarchy.ARRAY_MIN_AGENTS - 1, hierarchy.ARRAY_MIN_AGENTS + 7)
    grown = [lambda n=n: grown_formation(rng, n) for n in sizes]  # random orientation signs
    for setup in (triangle_setup, example_setup, *grown):
        _, df, plan = setup()
        n = plan.graph.n
        arrays = n >= hierarchy.ARRAY_MIN_AGENTS
        kappa = rng.uniform(0.5, 2.0)
        fast = compile_field(plan, df, k_gain=20.0, kappa=kappa)
        # NaN everywhere, so an entry the kernel never writes cannot pass for 0.0
        out = np.full(2 * n, np.nan) if arrays else [math.nan] * (2 * n)
        for _ in range(50):
            pts = [Position(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)]
            flat = [c for p in pts for c in (p.x, p.y)]
            fast(np.array(flat) if arrays else flat, out)
            ref = control_field(plan, df, pts, k_gain=20.0, kappa=kappa)
            want = [c for v in ref for c in (v.dx, v.dy)]
            assert np.array(out).tobytes() == np.array(want).tobytes()  # signed zeros too


@pytest.mark.parametrize("setup", [triangle_setup, example_setup], ids=["triangle", "paper10"])
def test_compiled_field_keeps_infinite_targets(rng, setup):
    # d_star = 1e200 makes d2 and every z_star infinite.  control_field refuses
    # such values (its specs and vectors must be finite), so the reference is
    # the expressions it evaluates: the pair term and potentials._corner_gradient.
    _, df, plan = setup(d_star=1e200)
    n, kappa, d2 = plan.graph.n, 1.5, df.d_star * df.d_star
    fast = compile_field(plan, df, k_gain=20.0, kappa=kappa)
    # the generated source holds no float of the plan: they stay bound by name
    assert {c for c in fast.__code__.co_consts if isinstance(c, float)} <= {0.0, 0.5, -0.5}
    out = [math.nan] * (2 * n)
    values = []
    for _ in range(20):
        pts = [Position(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)]
        fast([c for p in pts for c in (p.x, p.y)], out)
        want = [0.0] * (2 * n)  # the stationary agent's entries stay 0.0
        q, r = pts[plan.pair - 1], pts[plan.root - 1]
        ex, ey = q.x - r.x, q.y - r.y
        err = (ex * ex + ey * ey) - d2
        want[2 * plan.pair - 2 : 2 * plan.pair] = [-(kappa * (err * ex)), -(kappa * (err * ey))]
        for t in plan.triangles:
            q, f, s = pts[t.agent - 1], pts[t.base1 - 1], pts[t.base2 - 1]
            z_star = df.z_star(t.clique_index)
            gx, gy = _corner_gradient(d2, 20.0, z_star, f.x, f.y, s.x, s.y, q.x, q.y)
            want[2 * t.agent - 2 : 2 * t.agent] = [-(kappa * gx), -(kappa * gy)]
        assert np.array(out).tobytes() == np.array(want).tobytes()  # NaN signs too
        values += want
    assert math.isinf(d2) and {"inf", "-inf", "nan"} <= set(map(str, values))


def test_total_potential_zero_only_at_target(rng):
    _, df, plan = example_setup()
    pts = target_positions(plan, df)
    assert total_potential(plan, df, pts, k_gain=20.0) <= 1e-12
    bent = list(pts)
    bent[9] = Position(bent[9].x + 0.5, bent[9].y)
    assert total_potential(plan, df, bent, k_gain=20.0) > 1e-3
