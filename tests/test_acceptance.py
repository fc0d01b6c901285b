"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import csv
import json
import math
import random
import time

import numpy as np

from triform import (
    DesiredFormation,
    FormationGraph,
    IntegratorConfig,
    K_LOW,
    PairPotentialSpec,
    Position,
    TrianglePotentialSpec,
    build_example_graph,
    build_hierarchy,
    classify_gain,
    control_field,
    enumerate_triangle_equilibria,
    find_equilibria_numeric,
    formation_errors,
    pair_gradient,
    pair_potential,
    pinned_triangle_hessian,
    signed_area,
    simulate,
    total_potential,
    triangle_gradient,
    triangle_potential,
)
from triform.cli import main
from triform.scenario import random_layout, two_columns_layout

from conftest import fd_gradient, random_rigid_motion

SQRT3 = math.sqrt(3.0)


def pair_setup(d_star=2.0):
    g = FormationGraph(2, [(1, 2)], [])
    df = DesiredFormation(g, d_star)
    return df, build_hierarchy(g, (1, 2))


def triangle_setup(d_star=2.0):
    g = FormationGraph(3, [(1, 2), (2, 3), (1, 3)], [(1, 2, 3)])
    df = DesiredFormation(g, d_star)
    return df, build_hierarchy(g, (1, 2))


def benchmark_setup(d_star=2.0):
    g = build_example_graph()
    df = DesiredFormation(g, d_star)
    return g, df, build_hierarchy(g, (1, 2))


def test_criterion_1_anchored_pair_reaches_the_desired_distance():
    started = time.perf_counter()
    df, plan = pair_setup(2.0)
    cfg = IntegratorConfig(record_stride=1000)
    rng = random.Random(101)
    worst = 0.0
    for _ in range(100):
        x, y = rng.uniform(-3, 3), rng.uniform(-3, 3)
        while (x, y) == (0.0, 0.0):
            x, y = rng.uniform(-3, 3), rng.uniform(-3, 3)
        res = simulate(plan, df, [Position(0, 0), Position(x, y)], cfg, k_gain=1.0)
        assert res.reason == "converged"
        p = res.final_positions()[1]
        worst = max(worst, abs(math.hypot(p.x, p.y) - 2.0))
    assert worst <= 1e-6
    # the anchor point itself is an equilibrium: a run from it stays put
    res0 = simulate(plan, df, [Position(0, 0), Position(0, 0)], cfg, k_gain=1.0)
    assert res0.reason == "converged"
    assert res0.final_positions()[1].as_tuple() == (0.0, 0.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"\nPASS criterion 1: 100 anchored-pair runs hit the distance within "
        f"{worst:.2e} (origin stays put), {elapsed:.2f}s"
    )


def test_criterion_2_equilibrium_table_matches_the_numeric_oracle():
    # 1.4641 is the four-decimal stand-in for the stability-exchange gain
    # 2*sqrt(3)-2; it sits just below it, on the bistable side.  At the
    # bit-exact boundary the lower-axis root is degenerate (F ~ -2x^3 along
    # its null direction), so no double-precision residual-based finder can
    # pin that coordinate beyond ~cbrt(eps) ~ 1e-5; the exact boundary is
    # checked in closed form below and via the h checkpoint of criterion 3.
    gains = [0.6, 1.0, 1.4641, 1.5, 2.0, 20.0]
    expected_counts = {0.6: 5, 1.0: 5, 1.4641: 5, 1.5: 3, 2.0: 1, 20.0: 1}
    for k in gains:
        catalogue = enumerate_triangle_equilibria(1.0, k)
        assert len(catalogue) == expected_counts[k], f"K={k}"

        numeric = find_equilibria_numeric(1.0, k)
        closed_pts = [e.position for e in catalogue]
        for p in closed_pts:
            assert any(
                math.hypot(p.x - q.x, p.y - q.y) <= 1e-6 for q in numeric
            ), f"K={k}: closed-form root ({p.x}, {p.y}) missing from the oracle"
        for q in numeric:
            assert any(
                math.hypot(p.x - q.x, p.y - q.y) <= 1e-6 for p in closed_pts
            ), f"K={k}: oracle root ({q.x}, {q.y}) not in the closed form"

        regime = classify_gain(k)
        stability = {e.family: e.stability for e in catalogue}
        if regime.regime == "global":
            assert stability == {"apex-correct": "stable"}
        elif regime.regime == "almost-global":
            assert stability == {
                "apex-correct": "stable",
                "below-axis": "unstable",
                "between": "unstable",
            }
        else:
            assert regime.regime == "bistable"
            assert stability == {
                "apex-correct": "stable",
                "below-axis": "stable",
                "between": "unstable",
                "circle-left": "unstable",
                "circle-right": "unstable",
            }

    # the exact boundary gain, in closed form: three equilibria, the
    # lower-axis one degenerate, the regime flagged as a boundary case
    boundary = enumerate_triangle_equilibria(1.0, K_LOW)
    assert len(boundary) == 3
    assert {e.family: e.stability for e in boundary} == {
        "apex-correct": "stable",
        "below-axis": "degenerate",
        "between": "unstable",
    }
    assert classify_gain(K_LOW).at_boundary is True
    print("\nPASS criterion 2: closed-form catalogue equals the Newton oracle at all six gains")


def test_criterion_3_hessian_and_h_checkpoints():
    spec = TrianglePotentialSpec(d_star=2.0, z_star=SQRT3, k_gain=20.0)
    h = pinned_triangle_hessian(spec, Position(0.0, SQRT3))
    lam = sorted((float(h[0, 0]), float(h[1, 1])))
    assert h[0, 1] == 0.0
    assert abs(lam[0] - 4.0) <= 1e-10
    assert abs(lam[1] - 32.0) <= 1e-10

    def h_lower(k):
        return 0.5 - 0.5 * k + math.sqrt(2.25 - 1.5 * k)

    assert h_lower(0.0) == 2.0
    assert h_lower(1.5) == -0.25
    assert abs(h_lower(K_LOW)) <= 1e-12
    print("\nPASS criterion 3: apex Hessian eigenvalues (4, 32) and h checkpoints verified")


def test_criterion_4_basin_grids_match_the_two_figures(tmp_path):
    started = time.perf_counter()

    def basin(k_gain):
        """9x9 basin map of the pinned triangle (d_star 2) over [-3, 3]^2: (fraction, cells)."""
        out = tmp_path / f"k{k_gain}"
        window = ["--xmin=-3", "--xmax", "3", "--ymin=-3", "--ymax", "3"]
        argv = ["basin", "--k", repr(k_gain), "--d-star", "2", "--grid", "9x9", *window]
        assert main([*argv, "--out-dir", str(out)]) == 0
        with (out / "basin.csv").open(newline="") as f:
            cells = list(csv.DictReader(f))
        assert len(cells) == 81
        return json.loads((out / "manifest.json").read_text())["fraction_correct"], cells

    high, _ = basin(20.0)
    assert high == 1.0

    low, cells = basin(0.6)
    assert low < 1.0
    wrong = [c for c in cells if c["label"] == "incorrect"]
    assert wrong
    y_flip = (-math.sqrt(0.75 - 0.3) - 0.5 * SQRT3) * 1.0
    worst = max(math.hypot(float(c["x_final"]), float(c["y_final"]) - y_flip) for c in wrong)
    assert worst <= 1e-4
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 4: 9x9 basins give fraction 1.0 at K=20 and "
        f"{low:.3f} at K=0.6 ({len(wrong)} flip cells within "
        f"{worst:.1e} of the mirror point), {elapsed:.1f}s"
    )


def test_criterion_5_ten_agent_layered_runs_form_the_lattice():
    started = time.perf_counter()
    g, df, plan = benchmark_setup(2.0)
    cfg = IntegratorConfig(record_stride=1000)

    layouts = [two_columns_layout(10, 2.0)]
    layouts += [random_layout(10, seed, (0.0, 10.0, 0.0, 10.0)) for seed in range(20)]
    for idx, init in enumerate(layouts):
        res = simulate(plan, df, init, cfg, k_gain=20.0)
        assert res.reason == "converged", f"layout {idx}: {res.reason}"
        final = res.final_positions()
        dist_err, area_err = formation_errors(df, final)
        assert dist_err < 1e-4, f"layout {idx}: distance error {dist_err}"
        assert area_err < 1e-4, f"layout {idx}: area error {area_err}"
        for i, j, k in g.cliques:
            assert signed_area(final[i - 1], final[j - 1], final[k - 1]) > 0.0, (
                f"layout {idx}: clique ({i},{j},{k}) flipped"
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"\nPASS criterion 5: two-columns plus 20 random layouts all converge "
        f"flip-free at K=20, {elapsed:.1f}s"
    )


def test_criterion_6_property_suites():
    rng = random.Random(606)

    # gradients against central finite differences, 1000 random configurations
    for _ in range(1000):
        spec = TrianglePotentialSpec(
            d_star=rng.uniform(0.5, 3.0),
            z_star=rng.uniform(-3.0, 3.0),
            k_gain=rng.uniform(0.5, 30.0),
        )
        pts = [Position(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        wrt = rng.choice("ijk")
        slot = "ijk".index(wrt)
        g = triangle_gradient(spec, *pts, wrt=wrt)

        def moved(q):
            trial = list(pts)
            trial[slot] = q
            return triangle_potential(spec, *trial)

        fd = fd_gradient(moved, pts[slot])
        assert math.hypot(g.dx - fd.dx, g.dy - fd.dy) <= 1e-6 * max(1.0, g.norm())

        pspec = PairPotentialSpec(spec.d_star)
        gp = pair_gradient(pspec, pts[0], pts[1], wrt="j")
        fdp = fd_gradient(lambda q: pair_potential(pspec, pts[0], q), pts[1])
        assert math.hypot(gp.dx - fdp.dx, gp.dy - fdp.dy) <= 1e-6 * max(1.0, gp.norm())

    # total assigned potential never rises along the accepted trajectories
    df_pair, plan_pair = pair_setup(2.0)
    df_tri, plan_tri = triangle_setup(2.0)
    g10, df10, plan10 = benchmark_setup(2.0)
    cfg = IntegratorConfig(record_stride=20)
    runs = []
    for _ in range(5):
        start = Position(rng.uniform(-3, 3), rng.uniform(-3, 3))
        runs.append((plan_pair, df_pair, [Position(0, 0), start], 1.0))
    for x0, y0 in ((-3.0, -3.0), (0.0, -0.75), (2.25, 1.5), (0.75, -2.25)):
        runs.append((plan_tri, df_tri, [Position(-1, 0), Position(1, 0), Position(x0, y0)], 0.6))
        runs.append((plan_tri, df_tri, [Position(-1, 0), Position(1, 0), Position(x0, y0)], 20.0))
    runs.append((plan10, df10, two_columns_layout(10, 2.0), 20.0))
    for plan, df, init, k in runs:
        res = simulate(plan, df, init, cfg, k_gain=k)
        assert res.reason == "converged"
        values = [
            total_potential(plan, df, [Position(float(x), float(y)) for x, y in st], k_gain=k)
            for st in res.trajectory.states
        ]
        assert max(np.diff(values), default=0.0) <= 1e-9

    # translation invariance and rotation equivariance of the control field
    for _ in range(100):
        pts = [Position(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(10)]
        u0 = control_field(plan10, df10, pts, k_gain=20.0)
        scale = max(1.0, max(v.norm() for v in u0))
        tx, ty = rng.uniform(-40, 40), rng.uniform(-40, 40)
        u1 = control_field(
            plan10, df10, [Position(p.x + tx, p.y + ty) for p in pts], k_gain=20.0
        )
        assert max(math.hypot(a.dx - b.dx, a.dy - b.dy) for a, b in zip(u0, u1)) <= 1e-9 * scale
        move = random_rigid_motion(rng)
        u2 = control_field(plan10, df10, [move(p) for p in pts], k_gain=20.0)
        rot = [move.rotate_vec(v) for v in u0]
        assert max(math.hypot(a.dx - b.dx, a.dy - b.dy) for a, b in zip(rot, u2)) <= 1e-9 * scale

    # layer causality: higher layers never influence lower ones, bit for bit
    layer = {agent: k for k, agents in plan10.layers().items() for agent in agents}
    pts = [Position(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(10)]
    base = control_field(plan10, df10, pts, k_gain=20.0)
    for moved_agent in range(1, 11):
        trial = list(pts)
        trial[moved_agent - 1] = Position(rng.uniform(-5, 5), rng.uniform(-5, 5))
        u = control_field(plan10, df10, trial, k_gain=20.0)
        for agent in range(1, 11):
            if layer[agent] < layer[moved_agent]:
                assert u[agent - 1] == base[agent - 1]

    print(
        "\nPASS criterion 6: finite-difference gradients, energy descent, frame "
        "invariances and layer causality all hold"
    )


def test_criterion_7_circle_saddles_appear_only_below_the_boundary_gain():
    below = find_equilibria_numeric(1.0, K_LOW - 1e-3)
    above = find_equilibria_numeric(1.0, K_LOW + 1e-3)
    off_axis_below = [p for p in below if abs(p.x) > 1e-4]
    off_axis_above = [p for p in above if abs(p.x) > 1e-4]
    assert len(off_axis_below) == 2
    assert off_axis_above == []
    assert len(below) == 5
    assert len(above) == 3
    print(
        "\nPASS criterion 7: numeric oracle sees the circle saddle pair at "
        "K = 2(sqrt(3)-1) - 1e-3 and none above"
    )
