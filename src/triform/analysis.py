"""Equilibria and stability of the pinned triangle, and where a run ended.

For a pinned triangle with pins at (-a, 0) and (a, 0), target apex above, the
equilibrium set depends on the area gain K:

* K > 3/2: the correct apex is the only equilibrium (globally attracting);
* 2*sqrt(3)-2 < K <= 3/2: the apex plus two unstable points on the axis below
  the pins, merging into one double root at K = 3/2;
* 0 < K < 2*sqrt(3)-2: the mirror-side point below the axis is also stable
  (the flip trap) and a saddle pair sits on the unit circle through the pins.

The boundary K = 2*sqrt(3)-2 leaves the lower axis point with a zero Hessian
eigenvalue; it is reported as degenerate rather than forced into a class.
The tests check the closed-form catalogue against an independent seeded
damped-Newton root finder; it and the anchored pair's catalogue live in
``tests/oracles.py``, since no command runs them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .geometry import SQRT3, Position, require_positive
from .graph import DesiredFormation
from .hierarchy import HierarchyPlan
from .potentials import pinned_hessian_entries

FAMILY_APEX = "apex-correct"
FAMILY_BELOW = "below-axis"
FAMILY_BETWEEN = "between"
FAMILY_CIRCLE_LEFT = "circle-left"
FAMILY_CIRCLE_RIGHT = "circle-right"

STABLE = "stable"
UNSTABLE = "unstable"
DEGENERATE = "degenerate"

REGIME_GLOBAL = "global"
REGIME_ALMOST_GLOBAL = "almost-global"
REGIME_BISTABLE = "bistable"

# Gain thresholds: below K_LOW the flipped point is stable (and the circle
# saddles exist); above K_HIGH only the correct apex remains.
K_LOW = 2.0 * SQRT3 - 2.0
K_HIGH = 1.5

# A terminal point within this distance of a catalogue entry matches it.
MATCH_TOL = 1e-4


@dataclass(frozen=True)
class Equilibrium:
    """One critical point in the canonical pinned frame.

    eigenvalues holds the Hessian spectrum in ascending order.
    """

    position: Position
    family: str
    eigenvalues: tuple[float, ...]
    stability: str
    note: str = ""


@dataclass(frozen=True)
class GainRegime:
    k_gain: float
    regime: str
    at_boundary: bool = False


def _classify(eigenvalues: tuple[float, ...], tol: float) -> str:
    # A clearly negative eigenvalue certifies instability even alongside a
    # zero one (a gradient flow has a growth direction there); degenerate is
    # reserved for spectra that are non-negative but touch zero.
    if any(v < -tol for v in eigenvalues):
        return UNSTABLE
    if all(v > tol for v in eigenvalues):
        return STABLE
    return DEGENERATE


def symmetric_eigenvalues(hxx: float, hxy: float, hyy: float) -> tuple[float, float]:
    """Eigenvalues of the symmetric 2x2 matrix [[hxx, hxy], [hxy, hyy]], ascending.

    The smaller-magnitude eigenvalue is det / larger: ``mean - disc`` would
    cancel to zero when one eigenvalue dwarfs the other.  Each product is
    divided by ``larger`` before it is formed: the determinant itself, of
    order ``larger**2``, would overflow or underflow long before the entries.
    """
    mean = 0.5 * (hxx + hyy)
    disc = math.hypot(0.5 * (hxx - hyy), hxy)
    larger = mean + disc if mean >= 0.0 else mean - disc
    smaller = hxx * (hyy / larger) - hxy * (hxy / larger) if larger else 0.0
    return (smaller, larger) if mean >= 0.0 else (larger, smaller)


def enumerate_triangle_equilibria(a: float, k_gain: float) -> list[Equilibrium]:
    """Closed-form equilibrium catalogue of the pinned triangle.

    Pins sit at (-a, 0) and (a, 0), target apex at (0, sqrt(3)*a).  At
    K = 3/2 exactly, the two lower axis roots coincide; both records are kept
    (same coordinates, flagged) so the catalogue length still reflects the
    double root.
    """
    require_positive("a", a)
    require_positive("k_gain", k_gain)
    a2 = a * a
    if not sys.float_info.min <= a2 < math.inf:
        raise ValueError(f"a={a} gives a*a={a2}, which is not a normal float")
    tol = 1e-9 * a2

    def make(x: float, y: float, family: str, note: str = "") -> Equilibrium:
        eig = symmetric_eigenvalues(*pinned_hessian_entries(a2, k_gain, x, y))
        if not all(map(math.isfinite, eig)):
            raise ValueError(f"Hessian eigenvalues {eig} at a={a}, k_gain={k_gain} are not finite")
        return Equilibrium(
            position=Position(x, y),
            family=family,
            eigenvalues=eig,
            stability=_classify(eig, tol),
            note=note,
        )

    out = [make(0.0, SQRT3 * a, FAMILY_APEX)]

    disc = 0.75 - 0.5 * k_gain  # roots of 2y^2 + 2*sqrt(3)*a*y + K*a^2 on the axis
    if disc > 0.0:
        r = math.sqrt(disc)
        out.append(make(0.0, (-r - 0.5 * SQRT3) * a, FAMILY_BELOW))
        out.append(make(0.0, (r - 0.5 * SQRT3) * a, FAMILY_BETWEEN))
    elif disc == 0.0:
        y = -0.5 * SQRT3 * a
        note = "double root: lower axis equilibria coincide at this gain"
        out.append(make(0.0, y, FAMILY_BELOW, note))
        out.append(make(0.0, y, FAMILY_BETWEEN, note))

    if 0.0 < k_gain < K_LOW:
        y = SQRT3 * k_gain * a / (k_gain - 4.0)
        x = math.sqrt(a2 - y * y)
        out.append(make(-x, y, FAMILY_CIRCLE_LEFT))
        out.append(make(x, y, FAMILY_CIRCLE_RIGHT))
    return out


def classify_gain(k_gain: float) -> GainRegime:
    """Place an area gain in the global / almost-global / bistable regime.

    The closed upper boundary K = 3/2 belongs to the almost-global regime.
    K = 2*sqrt(3)-2 itself belongs to neither neighbouring open case (the
    lower axis equilibrium is degenerate there); it is reported as
    almost-global with at_boundary set.
    """
    require_positive("k_gain", k_gain)
    if k_gain > K_HIGH:
        return GainRegime(k_gain=k_gain, regime=REGIME_GLOBAL)
    if k_gain > K_LOW:
        return GainRegime(k_gain=k_gain, regime=REGIME_ALMOST_GLOBAL)
    if k_gain == K_LOW:
        return GainRegime(k_gain=k_gain, regime=REGIME_ALMOST_GLOBAL, at_boundary=True)
    return GainRegime(k_gain=k_gain, regime=REGIME_BISTABLE)


def align_to_pinned_frame(pi: Position, pj: Position, pk: Position) -> tuple[float, Position]:
    """Rigidly map a triangle so its first two agents sit at (-a, 0), (a, 0).

    Returns (a, image of pk).  Only rotation and translation are applied;
    signed areas keep their sign.
    """
    mx = 0.5 * (pi.x + pj.x)
    my = 0.5 * (pi.y + pj.y)
    bx = pj.x - mx
    by = pj.y - my
    a = math.hypot(bx, by)
    if a == 0.0:
        raise ValueError("pins coincide; no canonical frame exists")
    cos_t = bx / a
    sin_t = by / a
    rx = pk.x - mx
    ry = pk.y - my
    return a, Position(cos_t * rx + sin_t * ry, -sin_t * rx + cos_t * ry)


def match_equilibrium(equilibria: list[Equilibrium], point: Position) -> Equilibrium | None:
    """Nearest catalogue entry within ``MATCH_TOL`` of ``point``, or None."""
    best = None
    best_d = MATCH_TOL
    for eq in equilibria:
        d = math.hypot(point.x - eq.position.x, point.y - eq.position.y)
        if d <= best_d:
            best, best_d = eq, d
    return best


def terminal_equilibrium(plan: HierarchyPlan, df: DesiredFormation, k_gain: float, final: list[Position]) -> dict:
    """Where a run's triangles ended: the one label of ``simulate`` runs and ``basin`` cells.

    The plan's triangles (it needs one) are judged in processing order, each
    apex over its base ordered by the clique's sign, so the target lies above
    it as in the catalogue; the verdict is on the first triangle off its
    target set, else on the last.  A match gives ``matched``, ``stability``, ``in_target_set``
    and ``canonical_xy``; otherwise ``matched`` is None and ``detail`` says
    why.  The catalogue for a = d_star/2 is built at most once, after a base
    check passes; a ValueError building it becomes the detail.
    """
    d, equilibria = df.d_star, None
    for tri in plan.triangles:
        base1, base2, apex = (final[i - 1] for i in (tri.base1, tri.base2, tri.agent))
        if df.z_star_signs[tri.clique_index] < 0:
            base1, base2 = base2, base1
        # Checked before aligning: coincident base agents have no canonical frame.
        if abs(math.dist(base1.as_tuple(), base2.as_tuple()) - d) > 1e-6 * d:
            return {"matched": None, "detail": "base agents did not settle at d_star"}
        try:
            equilibria = equilibria or enumerate_triangle_equilibria(0.5 * d, k_gain)
        except ValueError as exc:  # d_star beyond the catalogue's float range
            return {"matched": None, "detail": str(exc)}
        _, pk = align_to_pinned_frame(base1, base2, apex)
        match = match_equilibrium(equilibria, pk)
        if match is None:
            return {"matched": None, "detail": "no equilibrium within 1e-4"}
        if match.family != FAMILY_APEX:
            break
    in_target = match.family == FAMILY_APEX
    return dict(matched=match.family, stability=match.stability, in_target_set=in_target, canonical_xy=[pk.x, pk.y])
