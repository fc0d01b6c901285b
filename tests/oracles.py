"""Independent oracles that only the tests run.

The damped-Newton root finder cross-checks the closed-form catalogue of the
pinned triangle, the pair catalogue states the anchored pair's three axis
equilibria, and ``total_potential`` sums the assigned potentials so that
tests can watch the flow descend.  None of them is reached by a ``triform``
command, so they live beside the tests, imported like ``conftest``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from triform import DesiredFormation, HierarchyPlan, Position, pair_potential, triangle_potential
from triform.analysis import Equilibrium, _classify
from triform.geometry import SQRT3
from triform.potentials import PairPotentialSpec, TrianglePotentialSpec, _corner_gradient, pinned_hessian_entries

FAMILY_PAIR_ORIGIN = "pair-origin"
FAMILY_PAIR_CORRECT = "pair-correct"


def enumerate_pair_equilibria(d_star: float) -> list[Equilibrium]:
    """Equilibria of an agent anchored at the origin, moving on the x axis.

    Motion is radial, so the line through anchor and agent is invariant and
    the scalar potential (x**2 - d_star**2)**2 / 4 governs it; its second
    derivative 3x**2 - d_star**2 classifies the three axis equilibria, each
    carrying that single eigenvalue.
    """
    d2 = d_star * d_star
    tol = 1e-9 * d2

    def make(x: float, family: str) -> Equilibrium:
        h = 3.0 * x * x - d2
        return Equilibrium(
            position=Position(x, 0.0),
            family=family,
            eigenvalues=(h,),
            stability=_classify((h,), tol),
        )

    return [make(0.0, FAMILY_PAIR_ORIGIN), make(d_star, FAMILY_PAIR_CORRECT), make(-d_star, FAMILY_PAIR_CORRECT)]


def pinned_field(a: float, k_gain: float, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Velocity of the free agent at (x, y), pins at (-a, 0) and (a, 0).

    The negated analytic corner gradient, evaluated on numpy arrays.
    """
    a2 = a * a
    gx, gy = _corner_gradient(4.0 * a2, k_gain, SQRT3 * a2, -a, 0.0, a, 0.0, x, y)
    return -gx, -gy


def find_equilibria_numeric(a: float, k_gain: float) -> list[Position]:
    """Roots of the pinned closed-loop field, found numerically.

    Damped Newton (fixed step damping 1/2, 200 iterations) runs from every
    seed of a uniform 41x41 grid spanning [-4a, 4a]^2.  Seeds that escape,
    hit a singular Jacobian, or end with a residual of 1e-10 or more are
    dropped; the survivors are de-duplicated at 1e-8 and returned sorted by
    (y, x).  This is the independent check of the closed-form catalogue, so
    it never consults it.
    """
    axis = np.linspace(-4.0 * a, 4.0 * a, 41)
    x, y = (g.ravel() for g in np.meshgrid(axis, axis))
    a2 = a * a
    alive = np.ones(len(x), dtype=bool)

    for _ in range(200):
        if not alive.any():
            break
        fx, fy = pinned_field(a, k_gain, x, y)
        # Jacobian of the field is minus the potential's Hessian.
        j11, j12, j22 = (-h for h in pinned_hessian_entries(a2, k_gain, x, y))
        det = j11 * j22 - j12 * j12
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = -(fx * j22 - fy * j12) / det
            dy = -(j11 * fy - j12 * fx) / det
        bad = ~np.isfinite(dx) | ~np.isfinite(dy)
        alive &= ~bad
        step = np.where(alive, 0.5, 0.0)
        x = x + step * np.where(np.isfinite(dx), dx, 0.0)
        y = y + step * np.where(np.isfinite(dy), dy, 0.0)
        alive &= np.hypot(x, y) <= 100.0 * a
        moved = np.hypot(np.where(np.isfinite(dx), dx, 0.0), np.where(np.isfinite(dy), dy, 0.0))
        alive &= moved > 1e-15 * a

    fx, fy = pinned_field(a, k_gain, x, y)
    residual = np.hypot(fx, fy)
    keep = np.isfinite(residual) & (residual < 1e-10) & (np.hypot(x, y) <= 100.0 * a)

    roots: list[tuple[float, float]] = []
    for rx, ry in sorted(zip(x[keep], y[keep]), key=lambda q: (q[1], q[0])):
        if all(math.hypot(rx - ox, ry - oy) > 1e-8 for ox, oy in roots):
            roots.append((float(rx) + 0.0, float(ry) + 0.0))
    return [Position(rx, ry) for rx, ry in roots]


def total_potential(
    plan: HierarchyPlan,
    df: DesiredFormation,
    positions: Sequence[Position],
    *,
    k_gain: float,
) -> float:
    """Sum of every agent's assigned potential at the given positions, in processing order."""
    pair_spec = PairPotentialSpec(df.d_star)
    total = pair_potential(pair_spec, positions[plan.root - 1], positions[plan.pair - 1])
    for t in plan.triangles:
        spec = TrianglePotentialSpec(
            d_star=df.d_star, z_star=df.z_star(t.clique_index), k_gain=k_gain
        )
        corners = (positions[t.base1 - 1], positions[t.base2 - 1], positions[t.agent - 1])
        total += triangle_potential(spec, *corners)
    return total
