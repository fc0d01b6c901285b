import math

import pytest

from triform import (
    DesiredFormation,
    FormationGraph,
    GraphSpecError,
    IntegratorConfig,
    PairPotentialSpec,
    PlanarVector,
    Position,
    TrianglePotentialSpec,
    classify_gain,
    distance,
    enumerate_triangle_equilibria,
    signed_area,
    squared_distance,
)

from conftest import random_reflection, random_rigid_motion


def test_signed_area_unit_right_triangle():
    assert signed_area(Position(0, 0), Position(1, 0), Position(0, 1)) == 0.5


def test_signed_area_clockwise_flips_sign():
    assert signed_area(Position(0, 0), Position(0, 1), Position(1, 0)) == -0.5


def test_signed_area_equilateral_over_pins():
    z = signed_area(Position(-1, 0), Position(1, 0), Position(0, math.sqrt(3)))
    assert z == pytest.approx(math.sqrt(3), rel=1e-15)


def test_squared_distance_values():
    assert squared_distance(Position(0, 0), Position(0, 0)) == 0.0
    assert squared_distance(Position(-1, 0), Position(1, 0)) == 4.0
    assert squared_distance(Position(0, 0), Position(3, 4)) == 25.0
    assert distance(Position(0, 0), Position(3, 4)) == 5.0


def test_positions_reject_non_finite():
    with pytest.raises(ValueError):
        Position(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Position(0.0, float("inf"))
    with pytest.raises(ValueError):
        PlanarVector(float("-inf"), 0.0)


# Every setting the control law needs finite and positive, by where it is
# checked: (name in the message, constructor of one value, exception type).
POSITIVE_SETTINGS = {
    "triangle-equilibria-a": ("a", lambda v: enumerate_triangle_equilibria(v, 1.0), ValueError),
    "triangle-equilibria-k_gain": ("k_gain", lambda v: enumerate_triangle_equilibria(1.0, v), ValueError),
    "classify-gain-k_gain": ("k_gain", classify_gain, ValueError),
    "integrator-dt": ("dt", lambda v: IntegratorConfig(dt=v), ValueError),
    "integrator-grad_norm_tol": ("grad_norm_tol", lambda v: IntegratorConfig(grad_norm_tol=v), ValueError),
    "integrator-divergence_bound": ("divergence_bound", lambda v: IntegratorConfig(divergence_bound=v), ValueError),
    "formation-d_star": (
        "d_star",
        lambda v: DesiredFormation(FormationGraph(3, [(1, 2), (2, 3), (1, 3)], [(1, 2, 3)]), v),
        GraphSpecError,
    ),
    "pair-spec-d_star": ("d_star", lambda v: PairPotentialSpec(d_star=v), ValueError),
    "triangle-spec-d_star": ("d_star", lambda v: TrianglePotentialSpec(d_star=v, z_star=1.0, k_gain=1.0), ValueError),
    "triangle-spec-k_gain": ("k_gain", lambda v: TrianglePotentialSpec(d_star=2.0, z_star=1.0, k_gain=v), ValueError),
}


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf], ids=str)
@pytest.mark.parametrize("site", POSITIVE_SETTINGS)
def test_positive_settings_refuse_zero_negative_and_non_finite(site, value):
    name, make, error = POSITIVE_SETTINGS[site]
    with pytest.raises(ValueError) as info:
        make(value)
    assert info.type is error
    assert str(info.value) == f"{name} must be finite and positive, got {value}"


def test_signed_area_antisymmetric_under_swaps(rng):
    for _ in range(200):
        pts = [Position(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
        z = signed_area(*pts)
        tol = 1e-13 * max(1.0, abs(z))
        assert signed_area(pts[1], pts[0], pts[2]) == pytest.approx(-z, abs=tol)
        assert signed_area(pts[0], pts[2], pts[1]) == pytest.approx(-z, abs=tol)
        assert signed_area(pts[2], pts[1], pts[0]) == pytest.approx(-z, abs=tol)
        # cyclic rotations preserve it
        assert signed_area(pts[1], pts[2], pts[0]) == pytest.approx(z, abs=tol)


def test_signed_area_rigid_motion_invariant(rng):
    for _ in range(200):
        pts = [Position(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
        move = random_rigid_motion(rng)
        z0 = signed_area(*pts)
        z1 = signed_area(*(move(p) for p in pts))
        assert z1 == pytest.approx(z0, abs=1e-9)


def test_signed_area_negates_under_reflection(rng):
    for _ in range(200):
        pts = [Position(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
        mirror = random_reflection(rng)
        z0 = signed_area(*pts)
        z1 = signed_area(*(mirror(p) for p in pts))
        assert z1 == pytest.approx(-z0, abs=1e-9)


def test_signed_area_magnitude_matches_heron(rng):
    checked = 0
    while checked < 200:
        pts = [Position(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
        z = signed_area(*pts)
        if abs(z) < 0.1:
            continue  # keep clearly non-degenerate triangles
        a = distance(pts[0], pts[1])
        b = distance(pts[1], pts[2])
        c = distance(pts[2], pts[0])
        s = 0.5 * (a + b + c)
        heron = math.sqrt(s * (s - a) * (s - b) * (s - c))
        assert abs(z) == pytest.approx(heron, rel=1e-12)
        checked += 1
