"""Pair and triangle shape potentials with analytic gradients.

The pair potential penalises one edge's squared-length error.  The triangle
potential adds a signed-area error term, which makes the two mirror images of
a distance-correct triangle energetically distinct: the reflected copy sits at
potential 2*K*z_star**2 instead of zero, so a gradient flow can be steered
away from flipped configurations.

Gradients are written purely in relative coordinates (differences of
positions), so they are valid for any placement of the three agents, not just
a pinned canonical frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SQRT3, PlanarVector, Position, signed_area, squared_distance


@dataclass(frozen=True)
class PairPotentialSpec:
    """Desired edge length of a two-agent potential."""

    d_star: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.d_star) and self.d_star > 0):
            raise ValueError(f"d_star must be finite and positive, got {self.d_star}")


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
        if not (math.isfinite(self.d_star) and self.d_star > 0):
            raise ValueError(f"d_star must be finite and positive, got {self.d_star}")
        if not math.isfinite(self.z_star):
            raise ValueError(f"z_star must be finite, got {self.z_star}")
        if not (math.isfinite(self.k_gain) and self.k_gain > 0):
            raise ValueError(f"k_gain must be finite and positive, got {self.k_gain}")


def pair_potential(spec: PairPotentialSpec, pi: Position, pj: Position) -> float:
    """Quartic edge potential: a quarter of the squared squared-distance error."""
    err = squared_distance(pi, pj) - spec.d_star * spec.d_star
    return 0.25 * err * err


def pair_gradient(spec: PairPotentialSpec, pi: Position, pj: Position, wrt: str) -> PlanarVector:
    """Gradient of :func:`pair_potential` with respect to agent ``wrt`` ("i" or "j")."""
    d2 = spec.d_star * spec.d_star
    if wrt == "j":
        ex = pj.x - pi.x
        ey = pj.y - pi.y
    elif wrt == "i":
        ex = pi.x - pj.x
        ey = pi.y - pj.y
    else:
        raise ValueError(f"wrt must be 'i' or 'j', got {wrt!r}")
    err = (ex * ex + ey * ey) - d2
    return PlanarVector(err * ex, err * ey)


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


def _corner_gradient(
    d2: float,
    k_gain: float,
    z_star: float,
    fx: float,
    fy: float,
    sx: float,
    sy: float,
    mx: float,
    my: float,
) -> tuple[float, float]:
    """Gradient of the triangle potential at the corner (mx, my).

    (fx, fy) and (sx, sy) are the other two corners in an order that keeps
    the cyclic orientation (first, second, moving) equal to the orientation
    z_star was stated for.  The area term differentiates to
    k*(Z - z_star) * perp(second - first) / 2, with perp the +90 degree
    rotation; the two edge terms the corner touches differentiate to the
    familiar (squared-error * edge vector) form.
    """
    e1x = mx - fx
    e1y = my - fy
    e2x = mx - sx
    e2y = my - sy
    c1 = (e1x * e1x + e1y * e1y) - d2
    c2 = (e2x * e2x + e2y * e2y) - d2
    bx = sx - fx
    by = sy - fy
    z = 0.5 * (bx * e1y - e1x * by)
    area = k_gain * (z - z_star)
    gx = c1 * e1x + c2 * e2x + area * (-0.5 * by)
    gy = c1 * e1y + c2 * e2y + area * (0.5 * bx)
    return gx, gy


def triangle_gradient(
    spec: TrianglePotentialSpec, pi: Position, pj: Position, pk: Position, wrt: str
) -> PlanarVector:
    """Gradient of :func:`triangle_potential` with respect to agent ``wrt``.

    Cyclic rotations of (pi, pj, pk) leave the signed area unchanged, so each
    corner's gradient is the same expression with the arguments rotated until
    the differentiated corner comes last.
    """
    d2 = spec.d_star * spec.d_star
    if wrt == "k":
        gx, gy = _corner_gradient(d2, spec.k_gain, spec.z_star, pi.x, pi.y, pj.x, pj.y, pk.x, pk.y)
    elif wrt == "i":
        gx, gy = _corner_gradient(d2, spec.k_gain, spec.z_star, pj.x, pj.y, pk.x, pk.y, pi.x, pi.y)
    elif wrt == "j":
        gx, gy = _corner_gradient(d2, spec.k_gain, spec.z_star, pk.x, pk.y, pi.x, pi.y, pj.x, pj.y)
    else:
        raise ValueError(f"wrt must be 'i', 'j' or 'k', got {wrt!r}")
    return PlanarVector(gx, gy)


def pinned_triangle_hessian(spec: TrianglePotentialSpec, pk: Position) -> np.ndarray:
    """Hessian of the triangle potential in pk for pins at (-a, 0) and (a, 0).

    a = d_star / 2 and the target signed area must be +sqrt(3)*a**2 (the
    counterclockwise equilateral triangle over those pins).  Returns the 2x2
    symmetric matrix

        [[6x^2 + 2y^2 - 2a^2,            4xy],
         [4xy,                 6y^2 + 2x^2 - 6a^2 + K a^2]]

    evaluated at pk = (x, y).
    """
    a = 0.5 * spec.d_star
    a2 = a * a
    if abs(spec.z_star - SQRT3 * a2) > 1e-9 * a2:
        raise ValueError(
            "pinned hessian assumes z_star = sqrt(3)*(d_star/2)**2, "
            f"got z_star={spec.z_star} for d_star={spec.d_star}"
        )
    hxx, hxy, hyy = pinned_hessian_entries(a2, spec.k_gain, pk.x, pk.y)
    return np.array([[hxx, hxy], [hxy, hyy]])


def pinned_hessian_entries(a2, k_gain, x, y):
    """(hxx, hxy, hyy) of :func:`pinned_triangle_hessian` with a2 = a**2.

    x and y may be floats or numpy arrays; no target-area check is made.
    """
    hxx = 6.0 * x * x + 2.0 * y * y - 2.0 * a2
    hxy = 4.0 * x * y
    hyy = 6.0 * y * y + 2.0 * x * x - 6.0 * a2 + k_gain * a2
    return hxx, hxy, hyy
