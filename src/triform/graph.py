"""Interaction graphs, their triangle cliques, and formation targets.

A formation is specified by an undirected graph whose every edge must reach a
common length d_star and whose every triangle must reach a signed area of
+/- sqrt(3)/4 * d_star**2, the sign fixed per clique by its stored vertex
order.  Graphs suitable for the layered controller are the ones that can be
grown one vertex at a time, each new vertex attaching to two adjacent
existing vertices so that it closes a triangle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .geometry import SQRT3, Position, require_positive

Edge = tuple[int, int]
Clique = tuple[int, int, int]


class GraphSpecError(ValueError):
    """Raised when a graph description violates its structural invariants."""


def _canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class FormationGraph:
    """Undirected interaction graph with an oriented list of its triangles.

    Agents are numbered 1..n.  ``cliques`` must list every triangle of the
    graph exactly once; the stored vertex order of each clique fixes the
    orientation its desired signed area refers to.
    """

    n: int
    edges: frozenset[Edge]
    cliques: tuple[Clique, ...]

    def __init__(self, n: int, edges: Iterable[Sequence[int]], cliques: Iterable[Sequence[int]] = ()):
        object.__setattr__(self, "n", int(n))
        norm_edges = set()
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise GraphSpecError(f"self-loop on agent {u}")
            norm_edges.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(norm_edges))
        object.__setattr__(self, "cliques", tuple(tuple(map(int, c)) for c in cliques))
        self._validate()

    def _validate(self) -> None:
        n = self.n
        if n < 1:
            raise GraphSpecError(f"agent count must be >= 1, got {n}")
        adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
        for u, v in self.edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphSpecError(f"edge ({u}, {v}) references agents outside 1..{n}")
            adj[u].add(v)
            adj[v].add(u)
        adj = {v: frozenset(nbrs) for v, nbrs in adj.items()}  # shared by every caller
        object.__setattr__(self, "_adjacency", adj)
        index: dict[tuple[int, ...], int] = {}  # sorted-tuple keys: a third of a frozenset's memory
        for i, c in enumerate(self.cliques):
            key = tuple(sorted(c))
            if len(c) != 3 or not key[0] < key[1] < key[2]:
                raise GraphSpecError(f"clique {c} must have three distinct agents")
            a, b, d = c
            if not (1 <= a <= n and 1 <= b <= n and 1 <= d <= n):
                raise GraphSpecError(f"clique {c} references agents outside 1..{n}")
            for u, v in ((a, b), (a, d), (b, d)):
                if v not in adj[u]:
                    raise GraphSpecError(f"clique {c} misses edge ({u}, {v})")
            if key in index:
                raise GraphSpecError(f"clique {key} listed twice")
            index[key] = i
        # The stored list must cover the graph's triangles exactly, so scenario
        # typos cannot drop or invent cliques.  Every clique is a distinct
        # triangle by now, and each triangle shows up once per edge as a common
        # neighbour, so counting suffices; the sets are built only to report.
        if sum(len(adj[u] & adj[v]) for u, v in self.edges) != 3 * len(index):
            # Never any extra: each clique was checked above to be a distinct graph triangle.
            actual = {tuple(sorted((u, v, w))) for u, v in self.edges for w in adj[u] & adj[v]}
            raise GraphSpecError(
                f"clique list does not match the graph's triangles: missing {sorted(actual - index.keys())}, extra []"
            )
        object.__setattr__(self, "_clique_index", index)

    def adjacency(self) -> dict[int, frozenset[int]]:
        """Each agent's neighbours, computed once at construction; a new dict
        over the same frozensets on every call."""
        return dict(self._adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        return _canonical_edge(u, v) in self.edges

    def clique_index(self, agents: Iterable[int]) -> int:
        """Index into ``cliques`` of the triangle with these three agents."""
        key = tuple(sorted(agents))
        if key not in self._clique_index:
            raise KeyError(f"no clique over agents {tuple(sorted(set(key)))}")
        return self._clique_index[key]


@dataclass(frozen=True)
class DesiredFormation:
    """Formation target: the graph, the common edge length, per-clique orientations.

    Each clique's desired signed area is z_star_signs[i] * sqrt(3)/4 * d_star**2,
    taken in the clique's stored vertex order.
    """

    graph: FormationGraph
    d_star: float
    z_star_signs: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        require_positive("d_star", self.d_star, GraphSpecError)
        signs = self.z_star_signs
        if signs == ():
            signs = tuple(1 for _ in self.graph.cliques)
            object.__setattr__(self, "z_star_signs", signs)
        if len(signs) != len(self.graph.cliques):
            raise GraphSpecError(
                f"need {len(self.graph.cliques)} orientation signs, got {len(signs)}"
            )
        if any(s not in (-1, 1) for s in signs):
            raise GraphSpecError(f"orientation signs must be +1 or -1, got {signs}")

    @property
    def target_area(self) -> float:
        """Unsigned area of the equilateral target triangle."""
        return 0.25 * SQRT3 * self.d_star * self.d_star

    def z_star(self, clique_index: int) -> float:
        return self.z_star_signs[clique_index] * self.target_area

    @cached_property
    def _error_index(self) -> tuple[np.ndarray, ...]:
        """The (0-based) agents of every edge and clique and the cliques' z_star, for formation_errors."""
        u, v = (np.array(sorted(self.graph.edges), dtype=np.intp).reshape(-1, 2) - 1).T
        i, j, k = (np.array(self.graph.cliques, dtype=np.intp).reshape(-1, 3) - 1).T
        z_star = np.array([self.z_star(ci) for ci in range(len(i))])
        index = (u, v, i, j, k, z_star)
        for a in index:
            a.flags.writeable = False  # every call shares them
        return index


def build_example_graph() -> FormationGraph:
    """The 10-agent benchmark graph: a six-triangle hexagon around agent 5
    plus three fringe triangles, nine equilateral triangles in total.

    Clique orders are chosen so that every desired signed area is positive in
    the target layout.
    """
    cliques = [
        (1, 2, 3),
        (3, 2, 5),
        (5, 2, 4),
        (3, 5, 6),
        (8, 4, 7),
        (5, 4, 8),
        (5, 8, 9),
        (6, 5, 9),
        (6, 9, 10),
    ]
    edges = {_canonical_edge(u, v) for c in cliques for u, v in combinations(c, 2)}
    return FormationGraph(10, edges, cliques)


@dataclass(frozen=True)
class LamanCheck:
    """Result of the triangulated-growth validation."""

    ok: bool
    ordering: tuple[int, ...] | None = None
    violation: str | None = None


def growth_order(adj: dict[int, set[int]], seed: Edge) -> list[int]:
    """Grow the graph from a seed edge by triangle-closing additions.

    A vertex is ready once two adjacent vertices among its neighbours are
    placed; the smallest ready vertex is placed next.  Readiness never lapses,
    so a heap of ready vertices gives the same order as rescanning all
    vertices after every placement.  The order is shorter than the vertex
    count when nothing more can attach.
    """
    a, b = seed
    order = [a, b]
    placed = {a, b}
    ready = sorted(adj[a] & adj[b])
    queued = placed.union(ready)
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        placed.add(v)
        for w in adj[v] - queued:
            if adj[w] & adj[v] & placed:
                heapq.heappush(ready, w)
                queued.add(w)
    return order


def validate_triangulated_laman(graph: FormationGraph) -> LamanCheck:
    """Check that the graph can be grown by triangle-closing vertex additions.

    Accepts iff the vertices can be ordered so that the first two share an
    edge and every later vertex attaches to at least two earlier vertices of
    which some pair is adjacent (so each addition closes a triangle).  The
    discovered ordering is returned on success; on failure the violation
    names the first vertex that could not be attached.

    The search runs :func:`growth_order` from every seed edge in turn.  Greedy
    is complete here: attachability only grows as vertices are placed, so if
    any valid ordering with a given seed exists the greedy one succeeds too.
    A seed with both ends in one earlier growth is skipped: nothing outside a
    growth attaches to it, so the seed's growth cannot leave it.
    """
    n = graph.n
    if n == 1:
        return LamanCheck(ok=True, ordering=(1,))
    adj = graph.adjacency()
    if not graph.edges:
        return LamanCheck(ok=False, violation="graph has no edges to seed an ordering")

    best_order: list[int] = []
    inside: set[Edge] = set()  # edges with both ends in one earlier growth
    for seed in sorted(graph.edges):
        if seed in inside:
            continue
        order = growth_order(adj, seed)
        if len(order) == n:
            return LamanCheck(ok=True, ordering=tuple(order))
        grown = set(order)
        inside.update((u, w) for u in order for w in adj[u] & grown if u < w)
        if len(order) > len(best_order):
            best_order = order
    stuck = min(set(adj).difference(best_order))
    return LamanCheck(
        ok=False,
        violation=(
            f"vertex {stuck} cannot attach to two adjacent placed vertices "
            f"(best ordering covers {len(best_order)} of {n} agents)"
        ),
    )


# Values per float64 temporary of one block (64 KiB): formation_errors takes
# a stack in blocks of samples, and the CLI writes its CSVs in blocks of
# rows, so no temporary crosses glibc's 128 KiB mmap threshold and memory
# stays bounded however long the run.
_BLOCK_VALUES = 2**13


@np.errstate(over="ignore", invalid="ignore")  # huge or non-finite inputs give inf/NaN errors
def formation_errors(
    df: DesiredFormation, positions: Sequence[Position] | np.ndarray
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Worst distance error over edges and worst signed-area error over cliques.

    ``positions`` is a sequence of n Position values, positions[i-1] being
    agent i, or an array of shape (..., n, 2) whose leading axes index
    samples.  Returns (max |dist - d_star|, max |Z - Z_star|) as Python floats
    for one formation, or as arrays over the leading axes for a stack.  Either
    maximum is 0.0 when the corresponding set is empty; a NaN error is
    skipped, never returned.  A stack is evaluated in blocks of samples, so
    its temporaries stay small.
    """
    n = df.graph.n
    if isinstance(positions, np.ndarray):
        p = np.asarray(positions, dtype=float)
    else:
        p = np.array([q.as_tuple() for q in positions])
    if p.shape[-2:] != (n, 2):
        raise ValueError(f"expected {n} positions, got an array of shape {p.shape}")
    flat = p.reshape(-1, n, 2)
    size = max(1, _BLOCK_VALUES // max(len(df.graph.edges), len(df.graph.cliques), 1))
    # range(0, max(S, 1)): an empty stack is one empty block
    blocks = [_block_errors(df, flat[b : b + size]) for b in range(0, max(len(flat), 1), size)]
    dist_err, area_err = (np.concatenate(errs).reshape(p.shape[:-2]) for errs in zip(*blocks))
    if p.ndim == 2:
        return float(dist_err), float(area_err)
    return dist_err, area_err


def _block_errors(df: DesiredFormation, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """formation_errors' maxima for one block of samples, an (S, n, 2) array."""
    x, y = p[..., 0], p[..., 1]
    u, v, i, j, k, z_star = df._error_index
    # distance(): sqrt(dx * dx + dy * dy) with dx = pu.x - pv.x
    dx = x[..., u] - x[..., v]
    dy = y[..., u] - y[..., v]
    dist = np.abs(np.sqrt(dx * dx + dy * dy) - df.d_star)
    # signed_area(), operands in the same order
    xi, yi = x[..., i], y[..., i]
    z = 0.5 * ((x[..., j] - xi) * (y[..., k] - yi) - (x[..., k] - xi) * (y[..., j] - yi))
    area = np.abs(z - z_star)
    # fmax skips NaN like the scalar ``e > worst`` test; max() would return it
    dist_err = np.fmax.reduce(dist, axis=-1, initial=0.0)
    area_err = np.fmax.reduce(area, axis=-1, initial=0.0)
    return dist_err, area_err
