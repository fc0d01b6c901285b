"""growth_order, validation and the hierarchy build against a naive rescan.

grow_henneberg numbers vertices in growth order, so the next index is always
the one that is ready.  Relabelling its graphs at random makes several
vertices ready at once, which checks that the lowest-index one is placed
next, exactly as rescanning every vertex after each placement does.
"""

import random
from collections import deque
from itertools import combinations

from triform import (
    FormationGraph,
    HierarchyError,
    build_example_graph,
    build_hierarchy,
    validate_triangulated_laman,
)
import triform.graph
import triform.hierarchy
from triform.graph import growth_order
from triform.hierarchy import TriangleAssignment

from conftest import grow_henneberg


def rescan_order(adj, seed, ready_counts=None):
    """Reference order: after every placement, place the lowest-index ready vertex."""
    order = list(seed)
    placed = set(seed)
    while True:
        ready = [
            v
            for v in sorted(adj)
            if v not in placed and any(b in adj[a] for a, b in combinations(adj[v] & placed, 2))
        ]
        if ready_counts is not None:
            ready_counts.append(len(ready))
        if not ready:
            return order
        order.append(ready[0])
        placed.add(ready[0])


def rescan_validation(graph):
    """Reference (ok, ordering, violation): the rescan from every seed edge in turn."""
    adj = graph.adjacency()
    best = []
    for seed in sorted(graph.edges):
        order = rescan_order(adj, seed)
        if len(order) == graph.n:
            return True, tuple(order), None
        if len(order) > len(best):
            best = order
    stuck = min(v for v in adj if v not in best)
    return False, None, (
        f"vertex {stuck} cannot attach to two adjacent placed vertices "
        f"(best ordering covers {len(best)} of {graph.n} agents)"
    )


def rescan_plan(graph, root, anchor):
    """Reference (root, pair agent, triangles), or the HierarchyError text."""
    ok, _, violation = rescan_validation(graph)
    if not ok:
        return f"graph is not triangulated-constructible: {violation}"
    adj = graph.adjacency()
    order = rescan_order(adj, (root, anchor))
    if len(order) < graph.n:
        stuck = min(v for v in adj if v not in order)
        return (
            f"agent {stuck} has no pair of adjacent assigned neighbours; "
            f"the graph is not constructible from root edge ({root}, {anchor})"
        )
    hops = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in sorted(adj[u] - hops.keys()):
            hops[v] = hops[u] + 1
            queue.append(v)
    layer = {root: 1, anchor: 2}
    triangles = []
    for i, agent in enumerate(order[2:], start=2):
        earlier = set(order[:i])
        pairs = [(a, b) for a, b in combinations(sorted(adj[agent] & earlier), 2) if b in adj[a]]
        base = min(pairs, key=lambda ab: sorted((layer[x], x) for x in ab))
        ci = next(k for k, c in enumerate(graph.cliques) if set(c) == {*base, agent})
        c = graph.cliques[ci]
        j = c.index(agent)
        base1, base2 = c[(j + 1) % 3], c[(j + 2) % 3]  # cyclic rotation keeps the sign
        layer[agent] = max(2 + hops[agent], layer[base1], layer[base2])
        triangles.append(TriangleAssignment(agent, base1, base2, ci, layer[agent]))
    return root, anchor, tuple(triangles)


def relabelled_graph(rng, n, edges):
    """The graph on ``edges`` under a random relabelling, every triangle a clique."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges}
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    triangles = sorted({tuple(sorted((u, v, w))) for u, v in edges for w in adj[u] & adj[v]})
    cliques = [t if rng.random() < 0.5 else (t[1], t[0], t[2]) for t in triangles]
    return FormationGraph(n, edges, cliques)


def random_graphs(rng, count):
    """Relabelled growth graphs; a third lose edges, a third gain random ones."""
    for i in range(count):
        n = rng.randrange(3, 30)
        edges = set(grow_henneberg(rng, n)[0])
        if i % 3 == 1:
            for _ in range(rng.randrange(1, 3)):
                edges.discard(sorted(edges)[rng.randrange(len(edges))])
        elif i % 3 == 2:
            for _ in range(rng.randrange(1, 4)):
                u, v = sorted(rng.sample(range(1, n + 1), 2))
                edges.add((u, v))
        yield relabelled_graph(rng, n, edges)


def random_roots(rng, graph, count=3):
    edges = sorted(graph.edges)
    for _ in range(count):
        u, v = edges[rng.randrange(len(edges))]
        yield (u, v) if rng.random() < 0.5 else (v, u)


def test_growth_order_matches_rescan():
    rng = random.Random(31)
    ready_counts = []
    for graph in random_graphs(rng, 60):
        adj = graph.adjacency()
        for seed in random_roots(rng, graph):
            assert growth_order(adj, seed) == rescan_order(adj, seed, ready_counts)
    # the relabelling must leave the order a real choice among ready vertices
    assert sum(1 for c in ready_counts if c > 1) > 100


def test_validation_matches_rescan():
    rng = random.Random(32)
    outcomes = set()
    for graph in random_graphs(rng, 60):
        check = validate_triangulated_laman(graph)
        assert (check.ok, check.ordering, check.violation) == rescan_validation(graph)
        outcomes.add(check.ok)
    assert outcomes == {True, False}


def test_validation_skips_seeds_inside_an_earlier_growth(monkeypatch):
    # A grown graph plus one pendant agent: the first seed grows every agent
    # but the pendant, so only the pendant's edge needs a growth of its own.
    n = 200
    edges, cliques = grow_henneberg(random.Random(35), n)
    graph = FormationGraph(n + 1, edges + [(n, n + 1)], cliques)
    seeds = []

    def spy(adj, seed):
        seeds.append(seed)
        return growth_order(adj, seed)

    monkeypatch.setattr(triform.graph, "growth_order", spy)
    check = validate_triangulated_laman(graph)
    assert check.violation == (
        f"vertex {n + 1} cannot attach to two adjacent placed vertices "
        f"(best ordering covers {n} of {n + 1} agents)"
    )
    assert seeds == [(1, 2), (n, n + 1)]


def test_accepted_graph_grows_once_without_validation(monkeypatch):
    # The growth from the root edge is itself the certificate, so an accepted
    # graph never runs the all-seeds validation; a refused one still does.
    rng = random.Random(36)
    graph = relabelled_graph(rng, 60, grow_henneberg(rng, 60)[0])
    seeds, checked = [], []

    def grow(adj, seed):
        seeds.append(seed)
        return growth_order(adj, seed)

    def validate(g):
        checked.append(g)
        return validate_triangulated_laman(g)

    for module in (triform.graph, triform.hierarchy):
        monkeypatch.setattr(module, "growth_order", grow)
    monkeypatch.setattr(triform.hierarchy, "validate_triangulated_laman", validate)
    root = next(random_roots(rng, graph, 1))
    plan = build_hierarchy(graph, root)
    assert (plan.root, plan.pair, plan.triangles) == rescan_plan(graph, *root)
    assert (seeds, checked) == ([root], [])

    # Not constructible and no root edge: the validator's reason comes first.
    cycle = FormationGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], [])
    seeds.clear()
    try:
        build_hierarchy(cycle, (1, 3))
    except HierarchyError as exc:
        assert str(exc) == rescan_plan(cycle, 1, 3)
        assert str(exc).startswith("graph is not triangulated-constructible: ")
    else:
        raise AssertionError("the 4-cycle was accepted")
    # only the validator grows, once from every edge; the absent root has none
    assert checked == [cycle] and seeds == sorted(cycle.edges)


def test_missing_root_edge_reported_after_validation():
    rng = random.Random(37)
    refused = set()
    for graph in random_graphs(rng, 60):
        absent = [(u, v) for u, v in combinations(range(1, graph.n + 1), 2) if not graph.has_edge(u, v)]
        if not absent:
            continue
        root = absent[rng.randrange(len(absent))]
        ok = rescan_validation(graph)[0]
        expected = f"root edge {root} is not in the graph" if ok else rescan_plan(graph, *root)
        try:
            build_hierarchy(graph, root)
        except HierarchyError as exc:
            assert str(exc) == expected
            refused.add(ok)
        else:
            raise AssertionError(f"root {root} off the graph was accepted")
    assert refused == {True, False}  # both texts were exercised


def test_hierarchy_build_matches_rescan():
    rng = random.Random(33)
    errors = set()
    for graph in random_graphs(rng, 60):
        for root in random_roots(rng, graph):
            expected = rescan_plan(graph, *root)
            try:
                plan = build_hierarchy(graph, root)
            except HierarchyError as exc:
                assert str(exc) == expected
                errors.add(str(exc).split(" ", 1)[0])
                continue
            assert (plan.root, plan.pair, plan.triangles) == expected
    assert errors == {"graph", "agent"}  # both rejection paths were exercised


def test_example_plans_match_rescan_from_every_root():
    graph = build_example_graph()
    for u, v in sorted(graph.edges):
        for root in ((u, v), (v, u)):
            plan = build_hierarchy(graph, root)
            assert (plan.root, plan.pair, plan.triangles) == rescan_plan(graph, *root)


def test_large_relabelled_graph_builds_in_dependency_order():
    rng = random.Random(34)
    n = 2000
    graph = relabelled_graph(rng, n, grow_henneberg(rng, n)[0])
    assert validate_triangulated_laman(graph).ok
    root = next(random_roots(rng, graph, 1))
    plan = build_hierarchy(graph, root)
    assert sorted(plan.processing_order) == list(range(1, n + 1))
    placed = {plan.root, plan.pair}
    for t in plan.triangles:
        assert {t.base1, t.base2} <= placed
        placed.add(t.agent)
