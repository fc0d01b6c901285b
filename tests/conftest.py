"""Shared numeric oracles and generators for the test suite."""

from __future__ import annotations

import math
import random
from bisect import insort

import pytest

from triform import DesiredFormation, FormationGraph, PlanarVector, Position, build_hierarchy


def fd_gradient(f, p: Position, h: float = 1e-6) -> PlanarVector:
    """Central finite-difference gradient of a scalar function of one point."""
    gx = (f(Position(p.x + h, p.y)) - f(Position(p.x - h, p.y))) / (2.0 * h)
    gy = (f(Position(p.x, p.y + h)) - f(Position(p.x, p.y - h))) / (2.0 * h)
    return PlanarVector(gx, gy)


def fd_hessian(f, p: Position, h: float = 1e-4) -> list[list[float]]:
    """Central finite-difference Hessian of a scalar function of one point."""
    f0 = f(p)
    hxx = (f(Position(p.x + h, p.y)) - 2.0 * f0 + f(Position(p.x - h, p.y))) / (h * h)
    hyy = (f(Position(p.x, p.y + h)) - 2.0 * f0 + f(Position(p.x, p.y - h))) / (h * h)
    hxy = (
        f(Position(p.x + h, p.y + h))
        - f(Position(p.x + h, p.y - h))
        - f(Position(p.x - h, p.y + h))
        + f(Position(p.x - h, p.y - h))
    ) / (4.0 * h * h)
    return [[hxx, hxy], [hxy, hyy]]


def random_rigid_motion(rng: random.Random):
    """A random rotation plus translation acting on Position values."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    tx = rng.uniform(-5.0, 5.0)
    ty = rng.uniform(-5.0, 5.0)
    c, s = math.cos(theta), math.sin(theta)

    def move(p: Position) -> Position:
        return Position(c * p.x - s * p.y + tx, s * p.x + c * p.y + ty)

    def rotate_vec(v: PlanarVector) -> PlanarVector:
        return PlanarVector(c * v.dx - s * v.dy, s * v.dx + c * v.dy)

    move.rotate_vec = rotate_vec
    return move


def random_reflection(rng: random.Random):
    """A random reflection about a line through a random point."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    tx = rng.uniform(-5.0, 5.0)
    ty = rng.uniform(-5.0, 5.0)
    c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)

    def move(p: Position) -> Position:
        x, y = p.x - tx, p.y - ty
        return Position(c * x + s * y + tx, s * x - c * y + ty)

    return move


def grow_henneberg(rng: random.Random, n: int):
    """Randomly grow a triangle-closing graph of n vertices.

    Returns (edges, cliques): each added vertex attaches to a uniformly chosen
    existing adjacent pair, so the result always has 2n-3 edges and n-2
    triangles.
    """
    assert n >= 3
    edges = [(1, 2)]  # kept sorted
    cliques = []
    for v in range(3, n + 1):
        a, b = edges[rng.randrange(len(edges))]
        insort(edges, (a, v))
        insort(edges, (b, v))
        if rng.random() < 0.5:
            cliques.append((a, b, v))
        else:
            cliques.append((b, a, v))
    return edges, cliques


def grown_formation(rng: random.Random, n: int, d_star: float = 2.0):
    """A grown graph of n agents with random clique signs: (graph, formation, plan from (1, 2))."""
    graph = FormationGraph(n, *grow_henneberg(rng, n))
    df = DesiredFormation(graph, d_star, tuple(rng.choice((-1, 1)) for _ in graph.cliques))
    return graph, df, build_hierarchy(graph, (1, 2))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
