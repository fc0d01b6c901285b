"""Planar primitives: points, displacement vectors, distances, signed areas.

Everything here is plain double-precision arithmetic with no internal
tolerances; callers own the decision of what counts as degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SQRT3 = math.sqrt(3.0)


def require_positive(name: str, value: float, error: type[Exception] = ValueError) -> None:
    """Raise error unless value is finite and positive."""
    if not (math.isfinite(value) and value > 0):
        raise error(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class Position:
    """A point in the plane; both coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"position coordinates must be finite, got ({self.x}, {self.y})")

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class PlanarVector:
    """A displacement in the plane; both components must be finite."""

    dx: float
    dy: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dx) and math.isfinite(self.dy)):
            raise ValueError(f"vector components must be finite, got ({self.dx}, {self.dy})")

    def norm(self) -> float:
        return math.hypot(self.dx, self.dy)

    def as_tuple(self) -> tuple[float, float]:
        return (self.dx, self.dy)


def signed_area(pi: Position, pj: Position, pk: Position) -> float:
    """Signed area of the triangle (pi, pj, pk).

    Half the cross product of the edges pj-pi and pk-pi: positive when the
    three points wind counterclockwise, negative when clockwise.  Collinear
    inputs return whatever the floating-point expression yields; nothing is
    snapped to zero.
    """
    return 0.5 * ((pj.x - pi.x) * (pk.y - pi.y) - (pk.x - pi.x) * (pj.y - pi.y))


def squared_distance(pi: Position, pj: Position) -> float:
    """Squared Euclidean distance between two points."""
    dx = pi.x - pj.x
    dy = pi.y - pj.y
    return dx * dx + dy * dy


def distance(pi: Position, pj: Position) -> float:
    """Euclidean distance between two points."""
    return math.sqrt(squared_distance(pi, pj))
