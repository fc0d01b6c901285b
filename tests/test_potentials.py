import math

import pytest
import sympy

from triform import (
    PairPotentialSpec,
    Position,
    TrianglePotentialSpec,
    pair_gradient,
    pair_potential,
    pinned_hessian_entries,
    triangle_gradient,
    triangle_potential,
)
from triform.potentials import _PAIR_OP, _TRIANGLE_OP

from conftest import fd_gradient, fd_hessian, random_rigid_motion

SQRT3 = math.sqrt(3.0)


def make_triangle_spec(d_star=2.0, k_gain=20.0, sign=1.0):
    return TrianglePotentialSpec(d_star=d_star, z_star=sign * 0.25 * SQRT3 * d_star**2, k_gain=k_gain)


# ---------------------------------------------------------------------------
# Pair potential
# ---------------------------------------------------------------------------

def test_pair_potential_values():
    spec = PairPotentialSpec(2.0)
    assert pair_potential(spec, Position(0, 0), Position(2, 0)) == 0.0
    assert pair_potential(spec, Position(0, 0), Position(0, 0)) == 4.0
    # 0.25 * (9 - 4)^2, evaluated by hand
    assert pair_potential(spec, Position(0, 0), Position(3, 0)) == 6.25


def test_pair_gradient_values():
    spec = PairPotentialSpec(2.0)
    assert pair_gradient(spec, Position(0, 0), Position(2, 0)).as_tuple() == (0.0, 0.0)
    # (1 - 4) * (1, 0)
    assert pair_gradient(spec, Position(0, 0), Position(1, 0)).as_tuple() == (-3.0, 0.0)
    # the gradient in the first agent: the same call with the agents swapped
    assert pair_gradient(spec, Position(1, 0), Position(0, 0)).as_tuple() == (3.0, 0.0)


def test_pair_spec_validation():
    with pytest.raises(ValueError):
        PairPotentialSpec(0.0)
    with pytest.raises(ValueError):
        PairPotentialSpec(-1.0)
    with pytest.raises(ValueError):
        TrianglePotentialSpec(d_star=1.0, z_star=0.4, k_gain=0.0)


def test_pair_gradient_matches_finite_differences(rng):
    for _ in range(300):
        spec = PairPotentialSpec(rng.uniform(0.5, 3.0))
        pi = Position(rng.uniform(-2, 2), rng.uniform(-2, 2))
        pj = Position(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for moving, other in ((pj, pi), (pi, pj)):  # the gradient in pj, then in pi
            g = pair_gradient(spec, other, moving)
            fd = fd_gradient(lambda q: pair_potential(spec, other, q), moving)
            scale = max(1.0, g.norm())
            assert math.hypot(g.dx - fd.dx, g.dy - fd.dy) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# Triangle potential
# ---------------------------------------------------------------------------

def test_triangle_potential_zero_at_target():
    spec = make_triangle_spec()
    v = triangle_potential(spec, Position(-1, 0), Position(1, 0), Position(0, SQRT3))
    assert v == pytest.approx(0.0, abs=1e-12)


def test_triangle_potential_flipped_apex_pays_area_term():
    # distances are exact, only the area term contributes: 0.5*20*(2*sqrt(3))^2
    spec = make_triangle_spec()
    v = triangle_potential(spec, Position(-1, 0), Position(1, 0), Position(0, -SQRT3))
    assert v == pytest.approx(120.0, rel=1e-12)


def test_triangle_potential_reflected_config_costs_two_k_zstar_squared(rng):
    # any distance-perfect, area-flipped configuration costs exactly 2*K*z_star^2
    for _ in range(50):
        d = rng.uniform(0.5, 3.0)
        k = rng.uniform(0.5, 30.0)
        spec = make_triangle_spec(d_star=d, k_gain=k)
        move = random_rigid_motion(rng)
        a = 0.5 * d
        pts = [Position(-a, 0), Position(a, 0), Position(0, -SQRT3 * a)]
        v = triangle_potential(spec, *(move(p) for p in pts))
        assert v == pytest.approx(2.0 * k * spec.z_star**2, rel=1e-9)


def test_triangle_potential_matches_polynomial_expansion(rng):
    # pinned closed form: 1/2 x^4 + 1/2 y^4 + 9/2 a^4 + x^2 y^2 - x^2 a^2
    #                     - 3 a^2 y^2 + K/2 a^2 y^2 + 3/2 K a^4 - sqrt(3) K a^3 y
    for _ in range(200):
        a = rng.uniform(0.5, 2.0)
        k = rng.uniform(0.5, 30.0)
        x = rng.uniform(-3, 3)
        y = rng.uniform(-3, 3)
        spec = make_triangle_spec(d_star=2 * a, k_gain=k)
        v = triangle_potential(spec, Position(-a, 0), Position(a, 0), Position(x, y))
        poly = (
            0.5 * x**4
            + 0.5 * y**4
            + 4.5 * a**4
            + x**2 * y**2
            - x**2 * a**2
            - 3 * a**2 * y**2
            + 0.5 * k * a**2 * y**2
            + 1.5 * k * a**4
            - SQRT3 * k * a**3 * y
        )
        assert v == pytest.approx(poly, rel=1e-10, abs=1e-10)


def test_triangle_gradient_zero_at_target():
    spec = make_triangle_spec()
    g = triangle_gradient(spec, Position(-1, 0), Position(1, 0), Position(0, SQRT3))
    assert g.norm() <= 1e-14


def test_triangle_gradient_closed_loop_field_value():
    # minus the closed-loop field at (x, y) = (1, 1) with a=1, K=20
    spec = make_triangle_spec()
    g = triangle_gradient(spec, Position(-1, 0), Position(1, 0), Position(1, 1))
    assert g.dx == pytest.approx(2.0, rel=1e-15)
    assert g.dy == pytest.approx(-2.0 - 20.0 * (SQRT3 - 1.0), rel=1e-15)


def test_triangle_gradient_matches_finite_differences(rng):
    for _ in range(1000):
        spec = TrianglePotentialSpec(
            d_star=rng.uniform(0.5, 3.0),
            z_star=rng.uniform(-3.0, 3.0),
            k_gain=rng.uniform(0.5, 30.0),
        )
        pts = [Position(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        for slot in range(3):  # rotate each corner into the differentiated last place
            g = triangle_gradient(spec, *pts[slot + 1:], *pts[:slot + 1])

            def moved(q, slot=slot):
                trial = list(pts)
                trial[slot] = q
                return triangle_potential(spec, *trial)

            fd = fd_gradient(moved, pts[slot])
            scale = max(1.0, g.norm())
            assert math.hypot(g.dx - fd.dx, g.dy - fd.dy) <= 1e-6 * scale


def test_triangle_gradients_sum_to_zero(rng):
    # the potential depends on relative positions only, so internal forces cancel
    for _ in range(200):
        spec = TrianglePotentialSpec(
            d_star=rng.uniform(0.5, 3.0),
            z_star=rng.uniform(-3.0, 3.0),
            k_gain=rng.uniform(0.5, 30.0),
        )
        pts = [Position(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
        gs = [triangle_gradient(spec, *pts[slot + 1:], *pts[:slot + 1]) for slot in range(3)]
        sx = sum(g.dx for g in gs)
        sy = sum(g.dy for g in gs)
        scale = max(1.0, max(g.norm() for g in gs))
        assert math.hypot(sx, sy) <= 1e-12 * scale


def test_potentials_translation_invariant(rng):
    for _ in range(200):
        spec = make_triangle_spec(d_star=rng.uniform(0.5, 3.0), k_gain=rng.uniform(0.5, 30.0))
        pts = [Position(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3)]
        tx, ty = rng.uniform(-20, 20), rng.uniform(-20, 20)
        shifted = [Position(p.x + tx, p.y + ty) for p in pts]
        v0 = triangle_potential(spec, *pts)
        v1 = triangle_potential(spec, *shifted)
        assert v1 == pytest.approx(v0, abs=1e-10 * max(1.0, v0))
        pspec = PairPotentialSpec(spec.d_star)
        assert pair_potential(pspec, shifted[0], shifted[1]) == pytest.approx(
            pair_potential(pspec, pts[0], pts[1]), abs=1e-10 * max(1.0, v0)
        )


def test_gradients_rotate_with_the_frame(rng):
    # grad(R p) = R grad(p): the control law needs only relative positions
    for _ in range(200):
        spec = make_triangle_spec(d_star=rng.uniform(0.5, 3.0), k_gain=rng.uniform(0.5, 30.0))
        pts = [Position(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3)]
        move = random_rigid_motion(rng)
        for slot in range(3):
            corners = pts[slot + 1:] + pts[:slot + 1]
            g = triangle_gradient(spec, *corners)
            g_moved = triangle_gradient(spec, *(move(p) for p in corners))
            g_rot = move.rotate_vec(g)
            assert math.hypot(g_moved.dx - g_rot.dx, g_moved.dy - g_rot.dy) <= 1e-9 * max(
                1.0, g.norm()
            )


# ---------------------------------------------------------------------------
# Pinned Hessian
# ---------------------------------------------------------------------------

def test_pinned_hessian_at_target_apex():
    hxx, hxy, hyy = pinned_hessian_entries(1.0, 20.0, 0.0, SQRT3)
    assert hxx == pytest.approx(4.0, abs=1e-10)
    assert hyy == pytest.approx(32.0, abs=1e-10)
    assert hxy == 0.0


def test_pinned_hessian_at_lower_axis_equilibrium():
    # 2 * diag(h(K), 3 h(K) + K/2) with h(K) = 1/2 - K/2 + sqrt(9/4 - 3K/2)
    k = 0.6
    hk = 0.5 - 0.5 * k + math.sqrt(2.25 - 1.5 * k)
    assert hk == pytest.approx(1.3618950038622251, rel=1e-12)
    y = (-math.sqrt(0.75 - 0.5 * k) - 0.5 * SQRT3) * 1.0
    hxx, _, hyy = pinned_hessian_entries(1.0, k, 0.0, y)
    assert hxx == pytest.approx(2.0 * hk, rel=1e-12)
    assert hyy == pytest.approx(2.0 * (3.0 * hk + 0.5 * k), rel=1e-12)


def test_pinned_hessian_matches_finite_differences(rng):
    for _ in range(100):
        a = rng.uniform(0.5, 2.0)
        spec = make_triangle_spec(d_star=2 * a, k_gain=rng.uniform(0.5, 30.0))
        pins = (Position(-a, 0.0), Position(a, 0.0))
        pk = Position(rng.uniform(-3, 3), rng.uniform(-3, 3))
        h = pinned_hessian_entries(a * a, spec.k_gain, pk.x, pk.y)
        fd = fd_hessian(lambda q: triangle_potential(spec, *pins, q), pk)
        for entry, entry_fd in zip(h, (fd[0][0], fd[0][1], fd[1][1])):
            assert entry == pytest.approx(entry_fd, abs=1e-5 * max(1.0, abs(entry)))


# ---------------------------------------------------------------------------
# The control law, proved against the paper's potential
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op", [_PAIR_OP, _TRIANGLE_OP], ids=["pair", "triangle"])
def test_op_text_is_minus_kappa_times_the_gradient_of_the_paper_potential(op):
    # V restated from the paper, not from the op text: a quarter of (|e|^2 - d*^2)^2
    # per edge and, for a triangle, (K/2)(Z - z*)^2 with Z the signed area of
    # (first base, second base, moving agent), positive counterclockwise.
    (xm, ym), (xa, ya), (xf, yf), (xs, ys) = agents = [
        sympy.symbols(f"x_{c} y_{c}", real=True) for c in "mafs"
    ]
    d, k_gain, kappa, z_star = sympy.symbols("d K kappa z_star", real=True)

    def edge(xp, yp, xq, yq):
        return ((xp - xq) ** 2 + (yp - yq) ** 2 - d**2) ** 2 / 4

    if op == _PAIR_OP:
        v = edge(xm, ym, xa, ya)
    else:
        z = ((xs - xf) * (ym - yf) - (xm - xf) * (ys - yf)) / 2
        v = edge(xf, yf, xs, ys) + edge(xs, ys, xm, ym) + edge(xm, ym, xf, yf) + k_gain / 2 * (z - z_star) ** 2
    env = {f"{axis}{c}": q for c, xy in zip("MAFS", agents) for axis, q in zip("xy", xy)}
    env.update(d2=d**2, kg=k_gain, nkap=-kappa, z_star=z_star)
    exec(op.format(m="M", a="A", f="F", s="S", k="", dx="dx", dy="dy"), env)
    for entry, coordinate in (("dx", xm), ("dy", ym)):
        got = env[entry].xreplace({f: sympy.Rational(f) for f in env[entry].atoms(sympy.Float)})  # 0.5 is exact
        assert sympy.expand(got + kappa * sympy.diff(v, coordinate)) == 0
