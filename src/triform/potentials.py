"""Pair and triangle shape potentials with analytic gradients.

The pair potential penalises one edge's squared-length error.  The triangle
potential adds a signed-area error term, which makes the two mirror images of
a distance-correct triangle energetically distinct: the reflected copy sits at
potential 2*K*z_star**2 instead of zero, so a gradient flow can be steered
away from flipped configurations.

Gradients are written purely in relative coordinates (differences of
positions), so they are valid for any placement of the three agents, not just
a pinned canonical frame.  Each differentiates in its last agent, the one that moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .geometry import PlanarVector, Position, require_positive, signed_area, squared_distance


@dataclass(frozen=True)
class PairPotentialSpec:
    """Desired edge length of a two-agent potential."""

    d_star: float

    def __post_init__(self) -> None:
        require_positive("d_star", self.d_star)


@dataclass(frozen=True)
class TrianglePotentialSpec:
    """Equilateral triangle target: side length, signed area, area gain.

    All three desired side lengths are the common d_star.  z_star carries the
    orientation: +sqrt(3)/4*d_star**2 for a counterclockwise target triangle,
    the negative for clockwise.
    """

    d_star: float
    z_star: float
    k_gain: float

    def __post_init__(self) -> None:
        require_positive("d_star", self.d_star)
        if not math.isfinite(self.z_star):
            raise ValueError(f"z_star must be finite, got {self.z_star}")
        require_positive("k_gain", self.k_gain)


def pair_potential(spec: PairPotentialSpec, pi: Position, pj: Position) -> float:
    """Quartic edge potential: a quarter of the squared squared-distance error."""
    err = squared_distance(pi, pj) - spec.d_star * spec.d_star
    return 0.25 * err * err


def pair_gradient(spec: PairPotentialSpec, pi: Position, pj: Position) -> PlanarVector:
    """Gradient of :func:`pair_potential` in its last agent ``pj``; the potential is
    symmetric, so the gradient in ``pi`` is the same call with the agents swapped."""
    return PlanarVector(*_pair_gradient(spec.d_star * spec.d_star, pi.x, pi.y, pj.x, pj.y))


def triangle_potential(spec: TrianglePotentialSpec, pi: Position, pj: Position, pk: Position) -> float:
    """Three edge terms plus the signed-area error term.

    Zero exactly when all three side lengths equal d_star and the signed area
    of (pi, pj, pk) equals z_star.
    """
    d2 = spec.d_star * spec.d_star
    eij = squared_distance(pi, pj) - d2
    ejk = squared_distance(pj, pk) - d2
    eki = squared_distance(pk, pi) - d2
    zerr = signed_area(pi, pj, pk) - spec.z_star
    return 0.25 * (eij * eij + ejk * ejk + eki * eki) + 0.5 * spec.k_gain * zerr * zerr


# The control law, -kappa times each potential's gradient in its last agent, stated
# once as op text.  x{m}, y{m} are the moving agent's coordinates, x{a}, y{a} the
# pair's other agent, x{f}, y{f} and x{s}, y{s} the triangle's first and second base,
# in an order that keeps the cyclic orientation (first, second, moving) equal to the
# one z_star{k} was stated for.  The ops read d2 = d_star**2, kg = K and nkap = -kappa
# by name and assign the two entries to {dx} and {dy}.  The area term differentiates
# to kg*(z - z_star)*q, with q = perp(second - first)/2 and perp the +90 degree
# rotation; each edge term the agent touches to (squared error)*(edge vector).
# dynamics generates both field kernels from this text, and the references below are
# the text run with nkap = 1.0, which is exact: 1.0 * g == g for every float.  The
# sources hold only integer offsets and names, so non-finite values behave as in any
# other evaluation.  tests/test_potentials.py proves each op equals -kappa times the
# gradient of the paper's potential.
_PAIR_OP = """\
ex = x{m} - x{a}
ey = y{m} - y{a}
err = (ex * ex + ey * ey) - d2
{dx} = nkap * (err * ex)
{dy} = nkap * (err * ey)"""
_TRIANGLE_OP = """\
e1x = x{m} - x{f}
e1y = y{m} - y{f}
e2x = x{m} - x{s}
e2y = y{m} - y{s}
c1 = (e1x * e1x + e1y * e1y) - d2
c2 = (e2x * e2x + e2y * e2y) - d2
bx = x{s} - x{f}
by = y{s} - y{f}
qx = -0.5 * by
qy = 0.5 * bx
z = 0.5 * (bx * e1y - e1x * by)
area = kg * (z - z_star{k})
gx = c1 * e1x + c2 * e2x + area * qx
gy = c1 * e1y + c2 * e2y + area * qy
{dx} = nkap * gx
{dy} = nkap * gy"""

_compile = lru_cache(maxsize=32)(compile)  # keyed by the source text


def _define(source: str, name: str, env: dict):
    """The function ``name`` that ``source`` defines, run in ``env``; compiled once per text."""
    exec(_compile(source, f"<triform {name}>", "exec"), env)
    return env[name]


def _reference(name: str, params: str, op: str, **fields: str):
    """``op`` as the function ``name(params)`` returning its two entries with nkap = 1.0."""
    body = op.format(dx="gx", dy="gy", **fields).replace("\n", "\n    ")
    return _define(f"def {name}({params}):\n    {body}\n    return gx, gy\n", name, {"nkap": 1.0})


# The pair gradient in (xM, yM) with the other agent at (xA, yA), and the triangle
# gradient at the corner (xM, yM) with bases (xF, yF), (xS, yS); floats or numpy arrays.
_pair_gradient = _reference("_pair_gradient", "d2, xA, yA, xM, yM", _PAIR_OP, m="M", a="A")
_corner_gradient = _reference(
    "_corner_gradient", "d2, kg, z_star, xF, yF, xS, yS, xM, yM", _TRIANGLE_OP, m="M", f="F", s="S", k=""
)


def triangle_gradient(spec: TrianglePotentialSpec, pi: Position, pj: Position, pk: Position) -> PlanarVector:
    """Gradient of :func:`triangle_potential` in its last agent ``pk``.

    Cyclic rotations of (pi, pj, pk) leave the signed area unchanged, so each
    corner's gradient is this call with the arguments rotated until the
    differentiated corner comes last: ``(pj, pk, pi)`` for ``pi``.
    """
    d2 = spec.d_star * spec.d_star
    return PlanarVector(*_corner_gradient(d2, spec.k_gain, spec.z_star, pi.x, pi.y, pj.x, pj.y, pk.x, pk.y))


def pinned_hessian_entries(a2, k_gain, x, y):
    """Hessian (hxx, hxy, hyy) of the triangle potential in the free agent (x, y).

    The frame pins the other two agents at (-a, 0) and (a, 0), with a2 = a**2,
    d_star = 2a and the counterclockwise target area z_star = sqrt(3)*a**2;
    K = k_gain, and x and y may be floats or numpy arrays.  The matrix is

        [[6x^2 + 2y^2 - 2a^2,            4xy],
         [4xy,                 6y^2 + 2x^2 - 6a^2 + K a^2]]
    """
    hxx = 6.0 * x * x + 2.0 * y * y - 2.0 * a2
    hxy = 4.0 * x * y
    hyy = 6.0 * y * y + 2.0 * x * x - 6.0 * a2 + k_gain * a2
    return hxx, hxy, hyy
