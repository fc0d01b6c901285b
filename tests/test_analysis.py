import math
import random

import numpy as np
import pytest

from triform import (
    DesiredFormation,
    FormationGraph,
    IntegratorConfig,
    K_LOW,
    PairPotentialSpec,
    Position,
    TrianglePotentialSpec,
    align_to_pinned_frame,
    build_hierarchy,
    classify_gain,
    enumerate_triangle_equilibria,
    pair_gradient,
    pinned_hessian_entries,
    simulate,
    triangle_potential,
)
from triform.analysis import (
    DEGENERATE,
    FAMILY_APEX,
    FAMILY_BELOW,
    FAMILY_BETWEEN,
    FAMILY_CIRCLE_LEFT,
    FAMILY_CIRCLE_RIGHT,
    STABLE,
    UNSTABLE,
    match_equilibrium,
    symmetric_eigenvalues,
)

from conftest import fd_hessian, random_rigid_motion
from oracles import enumerate_pair_equilibria, find_equilibria_numeric, pinned_field

SQRT3 = math.sqrt(3.0)


def h_lower(k):
    return 0.5 - 0.5 * k + math.sqrt(2.25 - 1.5 * k)


def axis_roots(a, k):
    r = math.sqrt(0.75 - 0.5 * k)
    return (-r - 0.5 * SQRT3) * a, (r - 0.5 * SQRT3) * a


# ---------------------------------------------------------------------------
# Pair equilibria
# ---------------------------------------------------------------------------

def test_pair_equilibria_catalogue():
    eqs = enumerate_pair_equilibria(2.0)
    by_x = {e.position.x: e for e in eqs}
    assert set(by_x) == {0.0, 2.0, -2.0}
    assert by_x[0.0].stability == UNSTABLE
    assert by_x[0.0].eigenvalues == (-4.0,)
    for x in (2.0, -2.0):
        assert by_x[x].stability == STABLE
        assert by_x[x].eigenvalues == (8.0,)


def test_pair_equilibria_stable_value_scales_with_d():
    eqs = enumerate_pair_equilibria(1.0)
    stable = [e for e in eqs if e.family == "pair-correct"]
    assert all(e.eigenvalues == (2.0,) for e in stable)


def test_pair_equilibria_zero_the_gradient():
    spec = PairPotentialSpec(2.0)
    anchor = Position(0.0, 0.0)
    for eq in enumerate_pair_equilibria(2.0):
        g = pair_gradient(spec, anchor, eq.position)
        assert g.norm() <= 1e-12


# ---------------------------------------------------------------------------
# Triangle equilibria, closed form
# ---------------------------------------------------------------------------

def test_high_gain_has_single_stable_equilibrium():
    eqs = enumerate_triangle_equilibria(1.0, 20.0)
    assert len(eqs) == 1
    (eq,) = eqs
    assert eq.family == FAMILY_APEX
    assert eq.stability == STABLE
    assert eq.position.x == 0.0
    assert eq.position.y == pytest.approx(SQRT3, rel=1e-15)
    assert eq.eigenvalues[0] == pytest.approx(4.0, abs=1e-10)
    assert eq.eigenvalues[1] == pytest.approx(32.0, abs=1e-10)


@pytest.mark.parametrize("k", [20.0, 1e17, 1e20])
@pytest.mark.parametrize("a", [1e-100, 0.5, 1.0, 2.0, 1e100])
def test_huge_gain_apex_stays_stable(a, k):
    # The apex eigenvalues are 4a^2 and (12+K)a^2: stable for every K > 0,
    # however far apart the two are and whatever the scale of a.
    (eq,) = enumerate_triangle_equilibria(a, k)
    assert eq.stability == STABLE
    assert eq.eigenvalues[0] == pytest.approx(4.0 * a * a, rel=1e-12)
    assert eq.eigenvalues[1] == pytest.approx((12.0 + k) * a * a, rel=1e-12)


def test_low_gain_catalogue_matches_formulas():
    a, k = 1.0, 0.6
    eqs = enumerate_triangle_equilibria(a, k)
    families = [e.family for e in eqs]
    assert families == [
        FAMILY_APEX,
        FAMILY_BELOW,
        FAMILY_BETWEEN,
        FAMILY_CIRCLE_LEFT,
        FAMILY_CIRCLE_RIGHT,
    ]
    y_b, y_c = axis_roots(a, k)
    by = {e.family: e for e in eqs}
    assert by[FAMILY_BELOW].position.y == pytest.approx(y_b, rel=1e-15)
    assert by[FAMILY_BETWEEN].position.y == pytest.approx(y_c, rel=1e-15)
    y_d = SQRT3 * k * a / (k - 4.0)
    x_d = math.sqrt(a * a - y_d * y_d)
    assert by[FAMILY_CIRCLE_RIGHT].position.x == pytest.approx(x_d, rel=1e-15)
    assert by[FAMILY_CIRCLE_RIGHT].position.y == pytest.approx(y_d, rel=1e-15)
    assert by[FAMILY_CIRCLE_LEFT].position.x == pytest.approx(-x_d, rel=1e-15)
    # stability pattern of the bistable regime
    assert by[FAMILY_APEX].stability == STABLE
    assert by[FAMILY_BELOW].stability == STABLE
    assert by[FAMILY_BETWEEN].stability == UNSTABLE
    assert by[FAMILY_CIRCLE_LEFT].stability == UNSTABLE
    assert by[FAMILY_CIRCLE_RIGHT].stability == UNSTABLE
    # lower-axis Hessian eigenvalues follow 2 a^2 diag(h, 3h + K/2)
    hk = h_lower(k)
    assert by[FAMILY_BELOW].eigenvalues[0] == pytest.approx(2 * hk, rel=1e-12)
    assert by[FAMILY_BELOW].eigenvalues[1] == pytest.approx(2 * (3 * hk + 0.5 * k), rel=1e-12)


def test_every_catalogue_entry_zeros_the_field(rng):
    for _ in range(25):
        a = rng.uniform(0.5, 2.0)
        k = rng.uniform(0.05, 4.5)
        for eq in enumerate_triangle_equilibria(a, k):
            assert np.hypot(*pinned_field(a, k, eq.position.x, eq.position.y)) <= 1e-12 * max(1.0, a**3)


def test_merged_double_root_at_the_upper_boundary():
    eqs = enumerate_triangle_equilibria(1.0, 1.5)
    assert len(eqs) == 3
    assert [e.family for e in eqs] == [FAMILY_APEX, FAMILY_BELOW, FAMILY_BETWEEN]
    merged = eqs[1:]
    for eq in merged:
        assert eq.position.x == 0.0
        assert eq.position.y == pytest.approx(-0.5 * SQRT3, rel=1e-15)
        assert eq.stability == UNSTABLE
        assert "double root" in eq.note
    # distinct coordinates collapse to two points
    coords = {(e.position.x, round(e.position.y, 12)) for e in eqs}
    assert len(coords) == 2


def test_degenerate_boundary_gain():
    eqs = enumerate_triangle_equilibria(1.0, K_LOW)
    by = {e.family: e for e in eqs}
    assert set(by) == {FAMILY_APEX, FAMILY_BELOW, FAMILY_BETWEEN}
    assert by[FAMILY_BELOW].stability == DEGENERATE
    assert abs(by[FAMILY_BELOW].eigenvalues[0]) <= 1e-12
    assert by[FAMILY_APEX].stability == STABLE
    assert by[FAMILY_BETWEEN].stability == UNSTABLE


def test_h_checkpoints():
    assert h_lower(0.0) == 2.0
    assert h_lower(1.5) == -0.25
    assert abs(h_lower(K_LOW)) <= 1e-12


def test_catalogue_rejects_bad_parameters():
    with pytest.raises(ValueError):
        enumerate_triangle_equilibria(0.0, 1.0)
    with pytest.raises(ValueError):
        enumerate_triangle_equilibria(1.0, -2.0)
    with pytest.raises(ValueError, match="a=1e-200"):  # a*a underflows to 0
        enumerate_triangle_equilibria(1e-200, 20.0)
    with pytest.raises(ValueError, match=r"a=1e\+154"):  # the Hessian overflows
        enumerate_triangle_equilibria(1e154, 20.0)


def test_catalogue_eigenvalues_are_the_pinned_hessians():
    # The catalogue's spectra come from the one pinned Hessian, bit for bit.
    for a in (1e-3, 1.0, 1e3):
        for k in (0.3, K_LOW, 1.5, 20.0):
            for eq in enumerate_triangle_equilibria(a, k):
                h = pinned_hessian_entries(a * a, k, eq.position.x, eq.position.y)
                expected = symmetric_eigenvalues(*h)
                assert [v.hex() for v in eq.eigenvalues] == [v.hex() for v in expected]


def test_eigenvalues_match_finite_difference_hessian():
    for k in (0.6, 2.0):
        spec = TrianglePotentialSpec(d_star=2.0, z_star=SQRT3, k_gain=k)
        pins = (Position(-1.0, 0.0), Position(1.0, 0.0))
        for eq in enumerate_triangle_equilibria(1.0, k):
            fd = fd_hessian(lambda q: triangle_potential(spec, *pins, q), eq.position)
            fd_eigs = symmetric_eigenvalues(fd[0][0], fd[0][1], fd[1][1])
            for lam, lam_fd in zip(eq.eigenvalues, fd_eigs):
                assert lam == pytest.approx(lam_fd, abs=1e-5 * max(1.0, abs(lam)))


# ---------------------------------------------------------------------------
# Gain regimes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "k,regime",
    [
        (20.0, "global"),
        (2.0, "global"),
        (1.5, "almost-global"),
        (1.47, "almost-global"),
        (1.46, "bistable"),
        (0.6, "bistable"),
    ],
)
def test_regime_classification(k, regime):
    out = classify_gain(k)
    assert out.regime == regime
    assert out.at_boundary is False


def test_regime_boundary_is_flagged():
    out = classify_gain(K_LOW)
    assert out.at_boundary is True
    assert out.regime == "almost-global"


def test_regime_rejects_non_positive_gain():
    for k in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            classify_gain(k)


# ---------------------------------------------------------------------------
# Numeric oracle
# ---------------------------------------------------------------------------

def _match_sets(closed, numeric, tol=1e-6):
    def close(p, q):
        return math.hypot(p.x - q.x, p.y - q.y) <= tol

    for p in closed:
        assert any(close(p, q) for q in numeric), f"closed-form root {p} not found numerically"
    for q in numeric:
        assert any(close(q, p) for p in closed), f"numeric root {q} has no closed form"


def test_oracle_finds_only_the_apex_at_high_gain():
    roots = find_equilibria_numeric(1.0, 20.0)
    assert len(roots) == 1
    assert math.hypot(roots[0].x, roots[0].y - SQRT3) <= 1e-9


def test_oracle_finds_all_five_roots_at_low_gain():
    roots = find_equilibria_numeric(1.0, 0.6)
    assert len(roots) == 5
    _match_sets([e.position for e in enumerate_triangle_equilibria(1.0, 0.6)], roots)


def test_oracle_residuals_are_tiny():
    for k in (0.6, 1.2, 3.0):
        for p in find_equilibria_numeric(1.0, k):
            assert np.hypot(*pinned_field(1.0, k, p.x, p.y)) < 1e-10


def test_oracle_agrees_with_closed_form_for_random_gains():
    rng = random.Random(915)
    for _ in range(50):
        k = rng.uniform(1e-3, 5.0)
        closed = {e.position.as_tuple() for e in enumerate_triangle_equilibria(1.0, k)}
        closed_pts = [Position(x, y) for x, y in closed]
        numeric = find_equilibria_numeric(1.0, k)
        assert len(numeric) == len(closed_pts)
        _match_sets(closed_pts, numeric)


def test_oracle_scales_with_a(rng):
    for _ in range(5):
        a = rng.uniform(0.3, 3.0)
        k = rng.uniform(0.2, 3.0)
        closed = {(e.position.x, e.position.y) for e in enumerate_triangle_equilibria(a, k)}
        numeric = find_equilibria_numeric(a, k)
        assert len(numeric) == len(closed)
        _match_sets([Position(x, y) for x, y in closed], numeric, tol=1e-6 * max(1.0, a))


def test_circle_family_existence_is_sharp_at_the_boundary():
    below = find_equilibria_numeric(1.0, K_LOW - 1e-3)
    above = find_equilibria_numeric(1.0, K_LOW + 1e-3)
    def off_axis(roots):
        return [p for p in roots if abs(p.x) > 1e-4]
    assert len(off_axis(below)) == 2
    assert len(off_axis(above)) == 0
    assert len(below) == 5
    assert len(above) == 3


# ---------------------------------------------------------------------------
# Simulation cross-checks
# ---------------------------------------------------------------------------

def _triangle_plan():
    g = FormationGraph(3, [(1, 2), (2, 3), (1, 3)], [(1, 2, 3)])
    df = DesiredFormation(g, 2.0)
    return df, build_hierarchy(g, (1, 2))


def test_stable_equilibria_attract_and_unstable_repel():
    rng = random.Random(4)
    df, plan = _triangle_plan()
    cfg = IntegratorConfig()
    for k in (0.6, 2.5):
        for eq in enumerate_triangle_equilibria(1.0, k):
            if eq.stability == STABLE:
                angle = rng.uniform(0, 2 * math.pi)
                start = Position(
                    eq.position.x + 1e-3 * math.cos(angle),
                    eq.position.y + 1e-3 * math.sin(angle),
                )
                res = simulate(
                    plan, df, [Position(-1, 0), Position(1, 0), start], cfg, k_gain=k
                )
                p = res.final_positions()[2]
                assert math.hypot(p.x - eq.position.x, p.y - eq.position.y) <= 1e-6
            elif eq.stability == UNSTABLE:
                # move along the most unstable direction of the true Hessian
                hxx, hxy, hyy = pinned_hessian_entries(1.0, k, eq.position.x, eq.position.y)
                w, v = np.linalg.eigh(np.array([[hxx, hxy], [hxy, hyy]]))
                direction = v[:, 0]  # eigenvector of the most negative eigenvalue
                start = Position(
                    eq.position.x + 1e-3 * direction[0],
                    eq.position.y + 1e-3 * direction[1],
                )
                res = simulate(
                    plan, df, [Position(-1, 0), Position(1, 0), start], cfg, k_gain=k
                )
                p = res.final_positions()[2]
                assert math.hypot(p.x - eq.position.x, p.y - eq.position.y) > 0.1


# ---------------------------------------------------------------------------
# Frame alignment helpers
# ---------------------------------------------------------------------------

def test_align_to_pinned_frame_recovers_canonical_coordinates(rng):
    for _ in range(100):
        a = rng.uniform(0.3, 3.0)
        pk = Position(rng.uniform(-4, 4), rng.uniform(-4, 4))
        move = random_rigid_motion(rng)
        got_a, got_pk = align_to_pinned_frame(
            move(Position(-a, 0.0)), move(Position(a, 0.0)), move(pk)
        )
        assert got_a == pytest.approx(a, rel=1e-12)
        assert got_pk.x == pytest.approx(pk.x, abs=1e-9)
        assert got_pk.y == pytest.approx(pk.y, abs=1e-9)


def test_align_rejects_coincident_pins():
    with pytest.raises(ValueError):
        align_to_pinned_frame(Position(1, 1), Position(1, 1), Position(0, 0))


def test_match_equilibrium_tolerance():
    eqs = enumerate_triangle_equilibria(1.0, 20.0)
    assert match_equilibrium(eqs, Position(1e-5, SQRT3)) is eqs[0]
    assert match_equilibrium(eqs, Position(0.5, 0.5)) is None
