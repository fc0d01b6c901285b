"""Layered assignment of shape potentials and the resulting control field.

One agent is stationary, a second holds only a distance to it, and every
other agent descends the potential of one triangle whose two base agents sit
earlier in the construction.  Because each agent's input is the gradient of
its own potential with respect to its own position only, information flows
strictly downward: moving a later agent never changes an earlier agent's
control.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .geometry import SQRT3, PlanarVector, Position
from .graph import DesiredFormation, FormationGraph, growth_order, validate_triangulated_laman
from .potentials import (
    PairPotentialSpec,
    TrianglePotentialSpec,
    _corner_gradient,
    pair_gradient,
    pair_potential,
    triangle_gradient,
    triangle_potential,
)

KIND_STATIONARY = "stationary"
KIND_PAIR = "pair"
KIND_TRIANGLE = "triangle"


class HierarchyError(ValueError):
    """Raised when no layered assignment exists for a graph and root edge."""


@dataclass(frozen=True)
class PotentialAssignment:
    """What one agent descends: nothing, a pair potential, or a triangle potential.

    For triangles, (base1, base2, agent) is the clique in the vertex order
    whose desired signed area carries the stored orientation sign, i.e. a
    cyclic rotation of the graph's clique putting this agent last.
    """

    agent: int
    kind: str
    layer: int
    anchor: int | None = None
    base1: int | None = None
    base2: int | None = None
    clique_index: int | None = None

    def dependencies(self) -> tuple[int, ...]:
        if self.kind == KIND_PAIR:
            return (self.anchor,)
        if self.kind == KIND_TRIANGLE:
            return (self.base1, self.base2)
        return ()


@dataclass(frozen=True)
class HierarchyPlan:
    """All agents' assignments plus a dependency-consistent processing order."""

    graph: FormationGraph
    assignments: tuple[PotentialAssignment, ...]
    processing_order: tuple[int, ...]

    def assignment_for(self, agent: int) -> PotentialAssignment:
        return self.assignments[agent - 1]

    def layers(self) -> dict[int, tuple[int, ...]]:
        """Agents grouped by layer label, each group in processing order."""
        out: dict[int, list[int]] = {}
        for agent in self.processing_order:
            out.setdefault(self.assignment_for(agent).layer, []).append(agent)
        return {layer: tuple(agents) for layer, agents in sorted(out.items())}


def build_hierarchy(graph: FormationGraph, root_edge: tuple[int, int]) -> HierarchyPlan:
    """Assign potentials layer by layer starting from a root edge.

    root_edge[0] becomes the stationary agent, root_edge[1] the pair-anchored
    one.  Remaining agents are processed in :func:`growth_order`: the
    lowest-index agent with an adjacent pair of assigned neighbours goes
    next.  Among its adjacent assigned pairs the one with the
    lexicographically smallest (layer, index) agents wins, which reproduces
    the natural inside-out assignment on lattice-like graphs.

    Layer labels are 1 for the stationary agent, 2 for the pair agent, and
    2 + hop distance from the stationary agent otherwise (raised to a base's
    label if a base would otherwise sit higher).  Labels are descriptive; the
    processing order is what carries the acyclic dependency structure.
    """
    check = validate_triangulated_laman(graph)
    if not check.ok:
        raise HierarchyError(f"graph is not triangulated-constructible: {check.violation}")
    root, anchor_target = int(root_edge[0]), int(root_edge[1])
    if not graph.has_edge(root, anchor_target):
        raise HierarchyError(f"root edge ({root}, {anchor_target}) is not in the graph")

    adj = graph.adjacency()
    hops = _hop_distances(adj, root)

    layer_of = {root: 1, anchor_target: 2}
    assignments: dict[int, PotentialAssignment] = {
        root: PotentialAssignment(agent=root, kind=KIND_STATIONARY, layer=1),
        anchor_target: PotentialAssignment(
            agent=anchor_target, kind=KIND_PAIR, layer=2, anchor=root
        ),
    }
    order = growth_order(adj, (root, anchor_target))
    if len(order) < graph.n:
        stuck = min(set(adj).difference(order))
        raise HierarchyError(
            f"agent {stuck} has no pair of adjacent assigned neighbours; "
            f"the graph is not constructible from root edge ({root}, {anchor_target})"
        )
    for agent in order[2:]:
        assigned = [a for a in adj[agent] if a in layer_of]
        base = min(
            ((a, b) for a, b in combinations(assigned, 2) if b in adj[a]),
            key=lambda ab: sorted((layer_of[x], x) for x in ab),
        )
        ci = graph.clique_index((base[0], base[1], agent))
        base1, base2 = _oriented_base(graph.cliques[ci], agent)
        layer = max(2 + hops[agent], layer_of[base1], layer_of[base2])
        assignments[agent] = PotentialAssignment(
            agent=agent,
            kind=KIND_TRIANGLE,
            layer=layer,
            base1=base1,
            base2=base2,
            clique_index=ci,
        )
        layer_of[agent] = layer

    return HierarchyPlan(
        graph=graph,
        assignments=tuple(assignments[a] for a in range(1, graph.n + 1)),
        processing_order=tuple(order),
    )


def _hop_distances(adj: dict[int, set[int]], source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _oriented_base(clique: tuple[int, int, int], agent: int) -> tuple[int, int]:
    """Rotate the stored clique cyclically until ``agent`` is last.

    Cyclic rotation preserves the signed-area orientation, so the returned
    (base1, base2) keep the clique's stored sign with the agent in the third
    slot.
    """
    a, b, c = clique
    if c == agent:
        return a, b
    if a == agent:
        return b, c
    if b == agent:
        return c, a
    raise ValueError(f"agent {agent} is not part of clique {clique}")


def control_field(
    plan: HierarchyPlan,
    df: DesiredFormation,
    positions: Sequence[Position],
    *,
    k_gain: float,
    kappa: float = 1.0,
) -> list[PlanarVector]:
    """Control input for every agent: minus kappa times its own potential's gradient.

    The stationary agent gets the zero vector.  Agent i's entry depends only
    on the positions of i and its assigned anchor or base agents.
    """
    if len(positions) != plan.graph.n:
        raise ValueError(f"expected {plan.graph.n} positions, got {len(positions)}")
    pair_spec = PairPotentialSpec(df.d_star)
    out: list[PlanarVector] = []
    for asg in plan.assignments:
        if asg.kind == KIND_STATIONARY:
            out.append(PlanarVector(0.0, 0.0))
        elif asg.kind == KIND_PAIR:
            g = pair_gradient(
                pair_spec, positions[asg.anchor - 1], positions[asg.agent - 1], wrt="j"
            )
            out.append(PlanarVector(-(kappa * g.dx), -(kappa * g.dy)))
        else:
            spec = TrianglePotentialSpec(
                d_star=df.d_star, z_star=df.z_star(asg.clique_index), k_gain=k_gain
            )
            g = triangle_gradient(
                spec,
                positions[asg.base1 - 1],
                positions[asg.base2 - 1],
                positions[asg.agent - 1],
                wrt="k",
            )
            out.append(PlanarVector(-(kappa * g.dx), -(kappa * g.dy)))
    return out


def total_potential(
    plan: HierarchyPlan,
    df: DesiredFormation,
    positions: Sequence[Position],
    *,
    k_gain: float,
) -> float:
    """Sum of every agent's assigned potential at the given positions."""
    pair_spec = PairPotentialSpec(df.d_star)
    total = 0.0
    for asg in plan.assignments:
        if asg.kind == KIND_PAIR:
            total += pair_potential(pair_spec, positions[asg.anchor - 1], positions[asg.agent - 1])
        elif asg.kind == KIND_TRIANGLE:
            spec = TrianglePotentialSpec(
                d_star=df.d_star, z_star=df.z_star(asg.clique_index), k_gain=k_gain
            )
            total += triangle_potential(
                spec,
                positions[asg.base1 - 1],
                positions[asg.base2 - 1],
                positions[asg.agent - 1],
            )
    return total


def target_positions(plan: HierarchyPlan, df: DesiredFormation) -> list[Position]:
    """One exact realisation of the desired formation.

    The stationary agent sits at the origin, the pair agent at (d_star, 0),
    and every triangle agent at the apex on the side its clique orientation
    demands.  Any rigid motion of the result is an equally valid target.
    """
    sqrt3_half = 0.5 * SQRT3
    pts: dict[int, tuple[float, float]] = {}
    for agent in plan.processing_order:
        asg = plan.assignment_for(agent)
        if asg.kind == KIND_STATIONARY:
            pts[agent] = (0.0, 0.0)
        elif asg.kind == KIND_PAIR:
            ax, ay = pts[asg.anchor]
            pts[agent] = (ax + df.d_star, ay)
        else:
            sign = df.z_star_signs[asg.clique_index]
            b1x, b1y = pts[asg.base1]
            b2x, b2y = pts[asg.base2]
            bx, by = b2x - b1x, b2y - b1y
            pts[agent] = (
                0.5 * (b1x + b2x) + sign * sqrt3_half * (-by),
                0.5 * (b1y + b2y) + sign * sqrt3_half * bx,
            )
    return [Position(*pts[a]) for a in range(1, plan.graph.n + 1)]


FlatField = Callable[[list[float], list[float]], None]

# Formations with at least this many agents get the numpy field kernel and
# array state in the integrator; smaller ones keep the scalar loops, whose
# per-call cost is lower.  Crossover of a whole RK4 step on random grown
# graphs (2-core x86, Python 3.11, numpy 2.4): the scalar loops win every run
# at 32 agents, the two are even at 40, and the arrays win 8 of 9 runs at 48
# and every run from 64 on.
ARRAY_MIN_AGENTS = 48


def uses_array_kernel(n: int) -> bool:
    """True when a formation of ``n`` agents is integrated on float64 arrays."""
    return n >= ARRAY_MIN_AGENTS


def compile_field(
    plan: HierarchyPlan, df: DesiredFormation, *, k_gain: float, kappa: float = 1.0
) -> FlatField:
    """Build a fast evaluator of the control field over flat coordinates.

    The returned callable fills ``out`` (length 2n) with the control input for
    the state ``p`` (x1, y1, x2, y2, ...).  It computes exactly the same
    floating-point expressions as :func:`control_field`; integrators use it to
    avoid per-step object construction.  Below ``ARRAY_MIN_AGENTS`` agents
    ``p`` and ``out`` are lists; from there on they are float64 arrays.
    """
    d2 = df.d_star * df.d_star
    pair_ops: list[tuple[int, int]] = []
    tri_ops: list[tuple[int, int, int, float]] = []
    for asg in plan.assignments:
        m = 2 * (asg.agent - 1)
        if asg.kind == KIND_PAIR:
            pair_ops.append((m, 2 * (asg.anchor - 1)))
        elif asg.kind == KIND_TRIANGLE:
            tri_ops.append(
                (m, 2 * (asg.base1 - 1), 2 * (asg.base2 - 1), df.z_star(asg.clique_index))
            )
    if uses_array_kernel(plan.graph.n):
        return _array_field(pair_ops, tri_ops, d2, k_gain, kappa)
    size = 2 * plan.graph.n
    kap = kappa
    kg = k_gain

    # The triangle term inlines potentials._corner_gradient: calling it per
    # triangle measured 13-14% slower.
    def field(p: list[float], out: list[float]) -> None:
        for m in range(size):
            out[m] = 0.0
        for m, a in pair_ops:
            ex = p[m] - p[a]
            ey = p[m + 1] - p[a + 1]
            err = (ex * ex + ey * ey) - d2
            out[m] = -(kap * (err * ex))
            out[m + 1] = -(kap * (err * ey))
        for m, f, s, z_star in tri_ops:
            mx = p[m]
            my = p[m + 1]
            fx = p[f]
            fy = p[f + 1]
            sx = p[s]
            sy = p[s + 1]
            e1x = mx - fx
            e1y = my - fy
            e2x = mx - sx
            e2y = my - sy
            c1 = (e1x * e1x + e1y * e1y) - d2
            c2 = (e2x * e2x + e2y * e2y) - d2
            bx = sx - fx
            by = sy - fy
            z = 0.5 * (bx * (my - fy) - (mx - fx) * by)
            area = kg * (z - z_star)
            gx = c1 * e1x + c2 * e2x + area * (-0.5 * by)
            gy = c1 * e1y + c2 * e2y + area * (0.5 * bx)
            out[m] = -(kap * gx)
            out[m + 1] = -(kap * gy)
    return field


def _array_field(
    pair_ops: list[tuple[int, int]],
    tri_ops: list[tuple[int, int, int, float]],
    d2: float,
    kg: float,
    kap: float,
) -> FlatField:
    """The field of :func:`compile_field` over float64 arrays.

    Each evaluation gathers the triangle agents' coordinates through one
    index array built here and hands the columns to
    :func:`~triform.potentials._corner_gradient`, whose expressions the scalar
    closure inlines in the same order, so every entry matches it bit for bit.
    ``-(kap * g)`` is computed as ``(-kap) * g``, which rounds identically.
    The plan's single pair agent keeps the scalar loop.
    """
    # Rows: x and y offsets of every triangle's agent, first base, second base.
    gather = np.array(
        [[op[i] + j for op in tri_ops] for i in range(3) for j in (0, 1)], dtype=np.intp
    ).reshape(6, -1)
    tm, tm1 = gather[0], gather[1]
    z_star = np.array([op[3] for op in tri_ops], dtype=float)
    neg_kap = -kap

    def field(p: np.ndarray, out: np.ndarray) -> None:
        out.fill(0.0)
        for m, a in pair_ops:
            ex = p[m] - p[a]
            ey = p[m + 1] - p[a + 1]
            err = (ex * ex + ey * ey) - d2
            out[m] = -(kap * (err * ex))
            out[m + 1] = -(kap * (err * ey))
        mx, my, fx, fy, sx, sy = p.take(gather)
        gx, gy = _corner_gradient(d2, kg, z_star, fx, fy, sx, sy, mx, my)
        out[tm] = neg_kap * gx
        out[tm1] = neg_kap * gy

    return field
