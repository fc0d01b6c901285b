import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from triform import (
    DesiredFormation,
    FormationGraph,
    GraphSpecError,
    Position,
    build_example_graph,
    build_hierarchy,
    distance,
    formation_errors,
    signed_area,
    target_positions,
    validate_triangulated_laman,
)

import triform.graph as graph_module
from triform.dynamics import ARRAY_MIN_AGENTS

from conftest import grow_henneberg, grown_formation, random_rigid_motion

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_example_graph_shape():
    g = build_example_graph()
    assert g.n == 10
    assert len(g.cliques) == 9
    assert (1, 2, 3) in g.cliques
    assert (6, 9, 10) in g.cliques
    assert len(g.edges) == 18
    # every clique's edges are present (also enforced at construction)
    for i, j, k in g.cliques:
        assert g.has_edge(i, j) and g.has_edge(j, k) and g.has_edge(k, i)


def test_graph_rejects_missing_clique_edge():
    with pytest.raises(GraphSpecError):
        FormationGraph(3, [(1, 2), (2, 3)], [(1, 2, 3)])


def test_graph_rejects_unlisted_triangle():
    with pytest.raises(GraphSpecError, match="missing"):
        FormationGraph(3, [(1, 2), (2, 3), (1, 3)], [])


def test_graph_rejects_duplicate_clique():
    with pytest.raises(GraphSpecError, match="twice"):
        FormationGraph(3, [(1, 2), (2, 3), (1, 3)], [(1, 2, 3), (2, 1, 3)])


def test_graph_rejects_self_loop_and_bad_index():
    with pytest.raises(GraphSpecError):
        FormationGraph(2, [(1, 1)], [])
    with pytest.raises(GraphSpecError):
        FormationGraph(2, [(1, 3)], [])


def reference_clique_errors(n, edges, cliques):
    """The clique checks as made before the cover was counted: every clique's
    edges present, no clique listed twice, then the listed triangle set
    compared with the one derived from the edges.  The error text, or None."""
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    listed = set()
    for c in cliques:
        for u, v in combinations(c, 2):
            if v not in adj[u]:
                return f"clique {c} misses edge ({u}, {v})"
        if frozenset(c) in listed:
            return f"clique {tuple(sorted(c))} listed twice"
        listed.add(frozenset(c))
    actual = {frozenset((u, v, w)) for u, v in edges for w in adj[u] & adj[v]}
    if listed == actual:
        return None
    missing = sorted(tuple(sorted(t)) for t in actual - listed)
    extra = sorted(tuple(sorted(t)) for t in listed - actual)
    return f"clique list does not match the graph's triangles: missing {missing}, extra {extra}"


def test_clique_cover_count_matches_the_set_comparison():
    # Relabelled growth graphs, intact, with one clique dropped, with one
    # non-triangle clique added, or with one chord that closes unlisted
    # triangles: the counting check accepts and refuses exactly as the set
    # comparison does, with the same text.
    rng = random.Random(41)
    outcomes = set()
    for i in range(120):
        n = rng.randrange(4, 40)
        edges, cliques = grow_henneberg(rng, n)
        perm = rng.sample(range(1, n + 1), n)
        edges = [(perm[u - 1], perm[v - 1]) for u, v in edges]
        cliques = [tuple(perm[a - 1] for a in c) for c in cliques]
        if i % 4 == 1:
            del cliques[rng.randrange(len(cliques))]
        elif i % 4 == 2:
            u, v = edges[rng.randrange(len(edges))]
            w = rng.choice([x for x in range(1, n + 1) if x not in (u, v)])
            cliques.insert(rng.randrange(len(cliques) + 1), (u, v, w))
        elif i % 4 == 3:
            u, v = rng.sample(range(1, n + 1), 2)
            edges.append((u, v))
        expected = reference_clique_errors(n, {tuple(sorted(e)) for e in edges}, cliques)
        try:
            FormationGraph(n, edges, cliques)
        except GraphSpecError as exc:
            assert str(exc) == expected
            outcomes.add(next(k for k in ("misses edge", "twice", "does not match") if k in str(exc)))
        else:
            assert expected is None
            outcomes.add("accepted")
    # an added triple that is a triangle already is listed twice
    assert outcomes == {"accepted", "misses edge", "twice", "does not match"}


def test_desired_formation_defaults_and_validation():
    g = build_example_graph()
    df = DesiredFormation(g, 2.0)
    assert df.z_star_signs == (1,) * 9
    assert df.target_area == pytest.approx(SQRT3, rel=1e-15)
    assert df.z_star(0) == df.target_area
    with pytest.raises(GraphSpecError):
        DesiredFormation(g, 0.0)
    with pytest.raises(GraphSpecError):
        DesiredFormation(g, 2.0, (1,) * 8)
    with pytest.raises(GraphSpecError):
        DesiredFormation(g, 2.0, (1,) * 8 + (2,))


# ---------------------------------------------------------------------------
# Triangulated-growth validator
# ---------------------------------------------------------------------------

def _ordering_closes_triangles(g: FormationGraph, ordering: tuple[int, ...]):
    adj = g.adjacency()
    assert sorted(ordering) == list(range(1, g.n + 1))
    if g.n >= 2:
        assert ordering[1] in adj[ordering[0]]
    placed = set(ordering[:2])
    for v in ordering[2:]:
        earlier = adj[v] & placed
        assert any(b in adj[a] for a in earlier for b in earlier if a < b), (
            f"vertex {v} does not close a triangle"
        )
        placed.add(v)


def test_example_graph_is_triangulated_constructible():
    g = build_example_graph()
    check = validate_triangulated_laman(g)
    assert check.ok
    _ordering_closes_triangles(g, check.ordering)


def test_single_triangle_accepted():
    g = FormationGraph(3, [(1, 2), (2, 3), (1, 3)], [(1, 2, 3)])
    check = validate_triangulated_laman(g)
    assert check.ok
    assert check.ordering == (1, 2, 3)


def test_pair_graph_accepted():
    g = FormationGraph(2, [(1, 2)], [])
    assert validate_triangulated_laman(g).ok


def test_four_cycle_rejected_with_vertex_named():
    g = FormationGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], [])
    check = validate_triangulated_laman(g)
    assert not check.ok
    assert "vertex" in check.violation


def test_disconnected_graph_rejected():
    g = FormationGraph(5, [(1, 2), (2, 3), (1, 3), (4, 5)], [(1, 2, 3)])
    assert not validate_triangulated_laman(g).ok


def test_random_growth_always_accepted():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(3, 31)
        edges, cliques = grow_henneberg(rng, n)
        g = FormationGraph(n, edges, cliques)
        check = validate_triangulated_laman(g)
        assert check.ok, check.violation
        _ordering_closes_triangles(g, check.ordering)
        # minimally rigid edge count for this growth process
        assert len(g.edges) == 2 * n - 3


# ---------------------------------------------------------------------------
# Formation errors
# ---------------------------------------------------------------------------

def test_formation_errors_zero_at_target():
    g = build_example_graph()
    df = DesiredFormation(g, 2.0)
    plan = build_hierarchy(g, (1, 2))
    pts = target_positions(plan, df)
    dist_err, area_err = formation_errors(df, pts)
    assert dist_err <= 1e-12
    assert area_err <= 1e-12


def test_formation_errors_flipped_fringe_apex():
    # mirror agent 10 across the line through its base agents 6 and 9:
    # both its edge lengths survive, the clique area flips sign entirely
    g = build_example_graph()
    df = DesiredFormation(g, 2.0)
    plan = build_hierarchy(g, (1, 2))
    pts = list(target_positions(plan, df))
    p6, p9, p10 = pts[5], pts[8], pts[9]
    # base 6->9 is axis-aligned in the constructed target, reflect across it
    assert p6.y == pytest.approx(p9.y, abs=1e-12)
    pts[9] = Position(p10.x, 2.0 * p6.y - p10.y)
    dist_err, area_err = formation_errors(df, pts)
    assert dist_err <= 1e-12
    assert area_err == pytest.approx(2.0 * df.target_area, rel=1e-12)


def test_formation_errors_match_brute_force(rng):
    g = build_example_graph()
    df = DesiredFormation(g, 2.0)
    for _ in range(50):
        pts = [Position(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(10)]
        dist_err, area_err = formation_errors(df, pts)
        expected_dist = max(
            abs(distance(pts[u - 1], pts[v - 1]) - df.d_star) for u, v in g.edges
        )
        expected_area = max(
            abs(signed_area(pts[i - 1], pts[j - 1], pts[k - 1]) - df.z_star(ci))
            for ci, (i, j, k) in enumerate(g.cliques)
        )
        assert dist_err == expected_dist
        assert area_err == expected_area


def test_formation_errors_rigid_motion_invariant(rng):
    g = build_example_graph()
    df = DesiredFormation(g, 2.0)
    for _ in range(50):
        pts = [Position(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(10)]
        move = random_rigid_motion(rng)
        e0 = formation_errors(df, pts)
        e1 = formation_errors(df, [move(p) for p in pts])
        assert e1[0] == pytest.approx(e0[0], abs=1e-9)
        assert e1[1] == pytest.approx(e0[1], abs=1e-9)


def test_formation_errors_requires_all_positions():
    g = build_example_graph()
    df = DesiredFormation(g, 2.0)
    with pytest.raises(ValueError):
        formation_errors(df, [Position(0, 0)] * 9)


# The per-sample loop that formation_errors replaced, kept as the oracle for
# its numpy form: the same expressions, maxima taken with ``e > worst``.
def reference_formation_errors(df, positions):
    if len(positions) != df.graph.n:
        raise ValueError(f"expected {df.graph.n} positions, got {len(positions)}")
    dist_err = 0.0
    for u, v in df.graph.edges:
        e = abs(distance(positions[u - 1], positions[v - 1]) - df.d_star)
        if e > dist_err:
            dist_err = e
    area_err = 0.0
    for ci, (i, j, k) in enumerate(df.graph.cliques):
        e = abs(signed_area(positions[i - 1], positions[j - 1], positions[k - 1]) - df.z_star(ci))
        if e > area_err:
            area_err = e
    return dist_err, area_err


def as_positions(sample):
    return [Position(float(x), float(y)) for x, y in sample]


def float_bits(values):
    return np.asarray(values, dtype=float).tobytes()


def triangle_formation():
    return DesiredFormation(FormationGraph(3, [(1, 2), (1, 3), (2, 3)], [(1, 2, 3)]), 2.0)


@pytest.mark.parametrize("formation", ["paper-10", "grown"])
def test_formation_errors_stack_matches_per_sample_loop(formation):
    rng = random.Random(23)
    if formation == "paper-10":
        df = DesiredFormation(build_example_graph(), 2.0)
        plan = build_hierarchy(df.graph, (1, 2))
    else:
        _, df, plan = grown_formation(rng, ARRAY_MIN_AGENTS + 7)
    target = target_positions(plan, df)
    # From the exact target out to far-off layouts; two leading sample axes.
    stack = np.array(
        [
            [(q.x + rng.gauss(0.0, spread), q.y + rng.gauss(0.0, spread)) for q in target]
            for spread in (0.0, 1e-9, 0.1, 3.0)
            for _ in range(5)
        ]
    ).reshape(4, 5, df.graph.n, 2)
    dist_err, area_err = formation_errors(df, stack)
    assert dist_err.shape == area_err.shape == (4, 5)
    expected = [reference_formation_errors(df, as_positions(s)) for s in stack.reshape(20, -1, 2)]
    assert float_bits(dist_err.reshape(-1)) == float_bits([e[0] for e in expected])
    assert float_bits(area_err.reshape(-1)) == float_bits([e[1] for e in expected])
    assert area_err.max() > 1.0  # the far-off samples really move the maxima


def test_formation_errors_of_one_formation_are_python_floats(rng):
    df = DesiredFormation(build_example_graph(), 2.0)
    sample = np.array([(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(10)])
    expected = reference_formation_errors(df, as_positions(sample))
    for positions in (sample, as_positions(sample)):
        errs = formation_errors(df, positions)
        assert [type(e) for e in errs] == [float, float]
        assert float_bits(errs) == float_bits(expected)


def test_formation_errors_skip_nan_like_the_loop():
    # Both far agents sit on one point: the edges between the far points and
    # the origin overflow to inf, the signed area is inf - inf = NaN.  The
    # loop's ``e > worst`` never takes the NaN, so the area error stays 0.0.
    df = triangle_formation()
    far = [(0.0, 0.0), (1e200, 1e200), (1e200, 1e200)]
    assert reference_formation_errors(df, as_positions(far)) == (math.inf, 0.0)
    assert formation_errors(df, as_positions(far)) == (math.inf, 0.0)
    tame = [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    dist_err, area_err = formation_errors(df, np.array([far, tame]))
    expected = [reference_formation_errors(df, as_positions(s)) for s in (far, tame)]
    assert float_bits(dist_err) == float_bits([e[0] for e in expected])
    assert float_bits(area_err) == float_bits([e[1] for e in expected])
    assert area_err[0] == 0.0


def test_formation_errors_in_blocks_match_the_loop():
    # Three blocks of samples plus a remainder, with the overflowing sample
    # of the test above first and last in a block.
    df = triangle_formation()
    block = graph_module._BLOCK_VALUES // 3  # three edges, one clique
    gen = np.random.default_rng(11)
    stack = gen.normal(scale=2.0, size=(3 * block + 17, 3, 2))
    far = [(0.0, 0.0), (1e200, 1e200), (1e200, 1e200)]
    for s in (0, block - 1, block, 2 * block - 1, 3 * block):
        stack[s] = far
    expected = [reference_formation_errors(df, as_positions(s)) for s in stack]
    dist_err, area_err = formation_errors(df, stack)
    assert float_bits(dist_err) == float_bits([e[0] for e in expected])
    assert float_bits(area_err) == float_bits([e[1] for e in expected])
    assert (dist_err[block], area_err[block]) == (math.inf, 0.0)
    # two leading axes whose flattened samples cross the block boundaries
    half = len(stack) // 2
    dist_err, area_err = formation_errors(df, stack[: 2 * half].reshape(2, half, 3, 2))
    assert dist_err.shape == area_err.shape == (2, half)
    assert float_bits(dist_err) == float_bits([e[0] for e in expected[: 2 * half]])
    assert float_bits(area_err) == float_bits([e[1] for e in expected[: 2 * half]])
    # an empty stack is one empty block
    for empty in (stack[:0], stack[:0].reshape(2, 0, 3, 2)):
        assert [e.shape for e in formation_errors(df, empty)] == [empty.shape[:-2]] * 2


def test_formation_errors_of_a_long_stack_stay_small(rng):
    # 4,000 samples of 67 agents are a 4.3 MB stack; evaluated whole, each
    # (samples x edges) temporary alone would take 4.2 MB.
    _, df, plan = grown_formation(rng, ARRAY_MIN_AGENTS + 7)
    target = np.array([q.as_tuple() for q in target_positions(plan, df)])
    stack = target + np.random.default_rng(3).normal(scale=0.1, size=(4000, df.graph.n, 2))
    formation_errors(df, stack[:1])  # builds the cached edge and clique index
    tracemalloc.start()
    try:
        dist_err, area_err = formation_errors(df, stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist_err.shape == area_err.shape == (4000,)
    assert peak < 1_000_000


def test_formation_errors_without_cliques_report_zero_area_error():
    path = DesiredFormation(FormationGraph(3, [(1, 2), (2, 3)]), 2.0)
    stack = np.array([[(0.0, 0.0), (3.0, 0.0), (3.0, 5.0)], [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)]])
    dist_err, area_err = formation_errors(path, stack)
    assert float_bits(dist_err) == float_bits([3.0, 0.0])
    assert float_bits(area_err) == float_bits([0.0, 0.0])
    assert formation_errors(path, as_positions(stack[0])) == (3.0, 0.0)


@pytest.mark.parametrize(
    "shape", [(9, 2), (11, 2), (4, 9, 2), (10, 3), (20,)], ids=lambda s: "x".join(map(str, s))
)
def test_formation_errors_reject_a_wrong_agent_count(shape):
    df = DesiredFormation(build_example_graph(), 2.0)
    with pytest.raises(ValueError, match="expected 10 positions"):
        formation_errors(df, np.zeros(shape))
