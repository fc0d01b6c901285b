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
from triform.hierarchy import KIND_PAIR, KIND_STATIONARY, KIND_TRIANGLE, compile_field

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
    asg = {a.agent: a for a in plan.assignments}
    assert asg[1].kind == KIND_STATIONARY and asg[1].layer == 1
    assert asg[2].kind == KIND_PAIR and asg[2].anchor == 1 and asg[2].layer == 2
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
    for agent, bases in expected_bases.items():
        assert asg[agent].kind == KIND_TRIANGLE
        assert (asg[agent].base1, asg[agent].base2) == bases
    layers = plan.layers()
    assert set(layers[1]) == {1}
    assert set(layers[2]) == {2}
    assert set(layers[3]) == {3}
    assert set(layers[4]) == {4, 5, 6}
    assert set(layers[5]) == {7, 8, 9, 10}


def test_plan_processing_order_respects_dependencies():
    _, _, plan = example_setup()
    seen = set()
    for agent in plan.processing_order:
        asg = plan.assignment_for(agent)
        for dep in asg.dependencies():
            assert dep in seen, f"agent {agent} processed before its base {dep}"
        seen.add(agent)
    assert len(seen) == plan.graph.n


def test_plan_is_deterministic():
    _, _, plan_a = example_setup()
    _, _, plan_b = example_setup()
    assert plan_a == plan_b


def test_single_triangle_plan():
    _, _, plan = triangle_setup()
    asg3 = plan.assignment_for(3)
    assert asg3.kind == KIND_TRIANGLE
    assert {asg3.base1, asg3.base2} == {1, 2}
    assert (asg3.base1, asg3.base2, 3) == (1, 2, 3)  # stored orientation kept


def test_pair_graph_plan():
    g = FormationGraph(2, [(1, 2)], [])
    plan = build_hierarchy(g, (1, 2))
    assert plan.assignment_for(1).kind == KIND_STATIONARY
    assert plan.assignment_for(2).kind == KIND_PAIR


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
        assert len(plan.assignments) == n
        seen = set()
        for agent in plan.processing_order:
            for dep in plan.assignment_for(agent).dependencies():
                assert dep in seen
            seen.add(agent)


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
    for asg in plan.assignments:
        for dep in asg.dependencies():
            dependents[dep].add(asg.agent)
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
    layer = {a.agent: a.layer for a in plan.assignments}
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
    n_large = hierarchy.ARRAY_MIN_AGENTS + 7
    for setup in (triangle_setup, example_setup, lambda: grown_formation(rng, n_large)):
        _, df, plan = setup()
        n = plan.graph.n
        arrays = n >= hierarchy.ARRAY_MIN_AGENTS
        kappa = rng.uniform(0.5, 2.0)
        fast = compile_field(plan, df, k_gain=20.0, kappa=kappa)
        out = np.full(2 * n, np.nan) if arrays else [0.0] * (2 * n)
        for _ in range(50):
            pts = [Position(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)]
            flat = [c for p in pts for c in (p.x, p.y)]
            fast(np.array(flat) if arrays else flat, out)
            ref = control_field(plan, df, pts, k_gain=20.0, kappa=kappa)
            want = [c for v in ref for c in (v.dx, v.dy)]
            assert np.array(out).tobytes() == np.array(want).tobytes()  # signed zeros too


def test_total_potential_zero_only_at_target(rng):
    _, df, plan = example_setup()
    pts = target_positions(plan, df)
    assert total_potential(plan, df, pts, k_gain=20.0) <= 1e-12
    bent = list(pts)
    bent[9] = Position(bent[9].x + 0.5, bent[9].y)
    assert total_potential(plan, df, bent, k_gain=20.0) > 1e-3
