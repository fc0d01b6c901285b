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
from functools import lru_cache
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


class HierarchyError(ValueError):
    """Raised when no layered assignment exists for a graph and root edge."""


@dataclass(frozen=True)
class TriangleAssignment:
    """One agent descending the potential of triangle (base1, base2, agent).

    That is the clique in the vertex order whose desired signed area carries
    the stored orientation sign, i.e. a cyclic rotation of the graph's clique
    putting this agent last.
    """

    agent: int
    base1: int
    base2: int
    clique_index: int
    layer: int


@dataclass(frozen=True)
class HierarchyPlan:
    """The stationary root, the pair agent anchored to it, and every other
    agent's triangle in a dependency-consistent processing order."""

    graph: FormationGraph
    root: int
    pair: int
    triangles: tuple[TriangleAssignment, ...]

    @property
    def processing_order(self) -> tuple[int, ...]:
        return (self.root, self.pair, *(t.agent for t in self.triangles))

    def layers(self) -> dict[int, tuple[int, ...]]:
        """Agents grouped by layer label, each group in processing order."""
        out: dict[int, list[int]] = {1: [self.root], 2: [self.pair]}
        for t in self.triangles:
            out.setdefault(t.layer, []).append(t.agent)
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
    root, pair = int(root_edge[0]), int(root_edge[1])
    if not graph.has_edge(root, pair):
        raise HierarchyError(f"root edge ({root}, {pair}) is not in the graph")

    adj = graph.adjacency()
    hops = _hop_distances(adj, root)
    order = growth_order(adj, (root, pair))
    if len(order) < graph.n:
        stuck = min(set(adj).difference(order))
        raise HierarchyError(
            f"agent {stuck} has no pair of adjacent assigned neighbours; "
            f"the graph is not constructible from root edge ({root}, {pair})"
        )
    layer_of = {root: 1, pair: 2}
    triangles = []
    for agent in order[2:]:
        assigned = [a for a in adj[agent] if a in layer_of]
        base = min(
            ((a, b) for a, b in combinations(assigned, 2) if b in adj[a]),
            key=lambda ab: sorted((layer_of[x], x) for x in ab),
        )
        ci = graph.clique_index((base[0], base[1], agent))
        base1, base2 = _oriented_base(graph.cliques[ci], agent)
        layer_of[agent] = max(2 + hops[agent], layer_of[base1], layer_of[base2])
        triangles.append(TriangleAssignment(agent, base1, base2, ci, layer_of[agent]))
    return HierarchyPlan(graph=graph, root=root, pair=pair, triangles=tuple(triangles))


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
    on the positions of i and its root or base agents.
    """
    if len(positions) != plan.graph.n:
        raise ValueError(f"expected {plan.graph.n} positions, got {len(positions)}")
    out = [PlanarVector(0.0, 0.0)] * plan.graph.n
    g = pair_gradient(
        PairPotentialSpec(df.d_star), positions[plan.root - 1], positions[plan.pair - 1], wrt="j"
    )
    out[plan.pair - 1] = PlanarVector(-(kappa * g.dx), -(kappa * g.dy))
    for t in plan.triangles:
        spec = TrianglePotentialSpec(
            d_star=df.d_star, z_star=df.z_star(t.clique_index), k_gain=k_gain
        )
        corners = (positions[t.base1 - 1], positions[t.base2 - 1], positions[t.agent - 1])
        g = triangle_gradient(spec, *corners, wrt="k")
        out[t.agent - 1] = PlanarVector(-(kappa * g.dx), -(kappa * g.dy))
    return out


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


def target_positions(plan: HierarchyPlan, df: DesiredFormation) -> list[Position]:
    """One exact realisation of the desired formation.

    The stationary agent sits at the origin, the pair agent at (d_star, 0),
    and every triangle agent at the apex on the side its clique orientation
    demands.  Any rigid motion of the result is an equally valid target.
    """
    sqrt3_half = 0.5 * SQRT3
    pts = {plan.root: (0.0, 0.0), plan.pair: (df.d_star, 0.0)}
    for t in plan.triangles:
        sign = df.z_star_signs[t.clique_index]
        b1x, b1y = pts[t.base1]
        b2x, b2y = pts[t.base2]
        bx, by = b2x - b1x, b2y - b1y
        pts[t.agent] = (
            0.5 * (b1x + b2x) + sign * sqrt3_half * (-by),
            0.5 * (b1y + b2y) + sign * sqrt3_half * bx,
        )
    return [Position(*pts[a]) for a in range(1, plan.graph.n + 1)]


FlatField = Callable[[list[float], list[float]], None]

# From this many agents on the numpy field kernel and step run, below them the
# generated list ones; it sits above their measured crossover (README).
ARRAY_MIN_AGENTS = 60


def uses_array_kernel(n: int) -> bool:
    """True when a formation of ``n`` agents is integrated on float64 arrays."""
    return n >= ARRAY_MIN_AGENTS


def compile_field(
    plan: HierarchyPlan, df: DesiredFormation, *, k_gain: float, kappa: float = 1.0
) -> FlatField:
    """Build a fast evaluator of the control field over flat coordinates.

    The returned callable fills ``out`` (length 2n) with the control input for
    the state ``p`` (x1, y1, x2, y2, ...), computing exactly the expressions
    of :func:`control_field`: numpy on float64 arrays from ``ARRAY_MIN_AGENTS``
    agents on, straight-line :func:`field_lines` on lists below.
    """
    names = field_names(plan, df, k_gain=k_gain, kappa=kappa)
    n = plan.graph.n
    if uses_array_kernel(n):
        return _array_field(plan, names)
    lines = ["def field(p, out):", "    " + "".join(f"x{m}, y{m}, " for m in range(0, 2 * n, 2)) + "= p"]
    lines += ["    " + line for line in field_lines(plan, "out[{}]")]
    exec(_compile("\n".join(lines) + "\n", f"<triform field, {n} agents>", "exec"), names)
    return names["field"]


_compile = lru_cache(maxsize=32)(compile)  # keyed by the source text


def field_names(
    plan: HierarchyPlan, df: DesiredFormation, *, k_gain: float, kappa: float = 1.0
) -> dict[str, float]:
    """The values :func:`field_lines` reads, by name: d2, kg, kap and z_star0, z_star1, ..."""
    names = {"d2": df.d_star * df.d_star, "kg": k_gain, "kap": kappa}
    for k, t in enumerate(plan.triangles):
        names[f"z_star{k}"] = df.z_star(t.clique_index)
    return names


def field_lines(plan: HierarchyPlan, out: str) -> list[str]:
    """The field of ``plan`` as straight-line statements, unindented.

    They read agent i's coordinates from x{m} and y{m} with m = 2(i - 1), the
    values of :func:`field_names` by name, and assign entry j of the field
    to ``out.format(j)``: the stationary agent's two entries 0.0, then the
    pair op and each triangle op in processing order.  The source holds only
    integer offsets and names, so non-finite values behave as in any other
    evaluation and plans of one shape share one compiled code object.
    """
    m, a = 2 * (plan.pair - 1), 2 * (plan.root - 1)
    lines = [f"{out.format(a)} = 0.0", f"{out.format(a + 1)} = 0.0"]
    lines += _PAIR_OP.format(m=m, a=a, dx=out.format(m), dy=out.format(m + 1)).split("\n")
    for k, t in enumerate(plan.triangles):
        m, f, s = 2 * (t.agent - 1), 2 * (t.base1 - 1), 2 * (t.base2 - 1)
        op = _TRIANGLE_OP.format(m=m, f=f, s=s, k=k, dx=out.format(m), dy=out.format(m + 1))
        lines += op.split("\n")
    return lines


# The ops of the generated list kernel, with x{m}, y{m} holding p[m], p[m + 1].
# The triangle op states the lines of potentials._corner_gradient.
_PAIR_OP = """\
ex = x{m} - x{a}
ey = y{m} - y{a}
err = (ex * ex + ey * ey) - d2
{dx} = -(kap * (err * ex))
{dy} = -(kap * (err * ey))"""
_TRIANGLE_OP = """\
e1x = x{m} - x{f}
e1y = y{m} - y{f}
e2x = x{m} - x{s}
e2y = y{m} - y{s}
c1 = (e1x * e1x + e1y * e1y) - d2
c2 = (e2x * e2x + e2y * e2y) - d2
bx = x{s} - x{f}
by = y{s} - y{f}
z = 0.5 * (bx * e1y - e1x * by)
area = kg * (z - z_star{k})
gx = c1 * e1x + c2 * e2x + area * (-0.5 * by)
gy = c1 * e1y + c2 * e2y + area * (0.5 * bx)
{dx} = -(kap * gx)
{dy} = -(kap * gy)"""


def _array_field(plan: HierarchyPlan, names: dict[str, float]) -> FlatField:
    """The field of :func:`compile_field` over float64 arrays.

    Each evaluation gathers the triangle agents' coordinates through one
    index array built here and hands the columns to
    :func:`~triform.potentials._corner_gradient`, whose lines the generated
    scalar kernel repeats in the same order, so every entry matches it bit for
    bit.
    ``-(kap * g)`` is computed as ``(-kap) * g``, which rounds identically.
    The plan's single pair agent stays scalar.
    """
    # Rows: x and y offsets of every triangle's agent, first base, second base.
    corners = np.array([(t.agent, t.base1, t.base2) for t in plan.triangles], dtype=np.intp)
    gather = np.repeat(2 * (corners.T - 1), 2, axis=0)
    gather[1::2] += 1
    tm, tm1 = gather[0], gather[1]
    z_star = np.array([names[f"z_star{k}"] for k in range(len(plan.triangles))], dtype=float)
    d2, kg, kap = names["d2"], names["kg"], names["kap"]
    neg_kap = -kap
    m, a = 2 * (plan.pair - 1), 2 * (plan.root - 1)

    def field(p: np.ndarray, out: np.ndarray) -> None:
        out.fill(0.0)
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
