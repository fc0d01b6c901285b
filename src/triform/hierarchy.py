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
from typing import Sequence

from .geometry import SQRT3, PlanarVector, Position
from .graph import DesiredFormation, FormationGraph, growth_order, validate_triangulated_laman
from .potentials import PairPotentialSpec, TrianglePotentialSpec, pair_gradient, triangle_gradient


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
    root, pair = int(root_edge[0]), int(root_edge[1])
    adj = graph.adjacency()
    # A growth from the root edge that places every agent certifies the graph
    # as well; the full validation runs only to explain a refusal.
    order = growth_order(adj, (root, pair)) if graph.has_edge(root, pair) else []
    if len(order) < graph.n:
        check = validate_triangulated_laman(graph)
        if not check.ok:
            raise HierarchyError(f"graph is not triangulated-constructible: {check.violation}")
        if not order:
            raise HierarchyError(f"root edge ({root}, {pair}) is not in the graph")
        stuck = min(set(adj).difference(order))
        raise HierarchyError(
            f"agent {stuck} has no pair of adjacent assigned neighbours; "
            f"the graph is not constructible from root edge ({root}, {pair})"
        )
    hops = _hop_distances(adj, root)
    layer_of = {root: 1, pair: 2}
    triangles = []
    for agent in order[2:]:
        # Combinations of a sorted list come in key order, so the first
        # adjacent pair is the one with the smallest (layer, index) agents.
        ranked = sorted((layer_of[a], a) for a in adj[agent] if a in layer_of)
        base = next((a, b) for (_, a), (_, b) in combinations(ranked, 2) if b in adj[a])
        ci = graph.clique_index((base[0], base[1], agent))
        # The stored clique rotated until the agent is last: a cyclic rotation
        # keeps the clique's signed-area orientation, so its stored sign holds.
        clique = graph.cliques[ci]
        i = clique.index(agent)
        base1, base2 = clique[i - 2], clique[i - 1]
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
    g = pair_gradient(PairPotentialSpec(df.d_star), positions[plan.root - 1], positions[plan.pair - 1])
    out[plan.pair - 1] = PlanarVector(-kappa * g.dx, -kappa * g.dy)
    for t in plan.triangles:
        spec = TrianglePotentialSpec(
            d_star=df.d_star, z_star=df.z_star(t.clique_index), k_gain=k_gain
        )
        corners = (positions[t.base1 - 1], positions[t.base2 - 1], positions[t.agent - 1])
        g = triangle_gradient(spec, *corners)
        out[t.agent - 1] = PlanarVector(-kappa * g.dx, -kappa * g.dy)
    return out


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
