"""Seeded inputs for the benchmark workloads.

Every generator takes the workload seed and writes scenario files into a
scratch directory; the program only ever sees those files and CLI flags.
Nothing here imports triform, so the inputs do not depend on the code under
test.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

SQRT3 = math.sqrt(3.0)
D_STAR = 2.0

# The shipped paper-10 scenario and its random-layout box.
PAPER10_SCENARIO = Path("scenarios") / "paper10-two-columns-k20.json"
PAPER10_BOX = (0.0, 10.0, 0.0, 10.0)

# Smaller than the paper's 9x9 figures: on a shared host, two-second commands
# give medians that repeat across runs; 5-second 9x9 grids spread by 20%.
BASIN_GRID = "5x5"
# (gain, stable flipped equilibrium) of the pinned triangle with pins at
# (-1, 0), (1, 0).  K=20 is in the global regime and has none; at K=0.6 every
# "incorrect" basin cell has to end at the mirror point.
BASIN_GAINS = ((20.0, None), (0.6, (0.0, -(math.sqrt(0.45) + SQRT3 / 2.0))))

# Radius 12 gives 469 agents and two-second commands; radius 20 (1,261 agents)
# takes 6-9 s per command and spreads by 25% from run to run on a shared host.
HEX_RADIUS = 12
HEX_K_GAIN = 20.0
# kappa scales time only; at 20 the patch converges in under 1k steps.
HEX_KAPPA = 20.0
HEX_JITTER = 0.02


def _integrator(record_stride: int) -> dict:
    return {
        "method": "rk4",
        "dt": 0.001,
        "t_max": 50.0,
        "grad_norm_tol": 1e-09,
        "record_stride": record_stride,
        "divergence_bound": 1000000.0,
    }


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def paper10_scenarios(seed: int, count: int, record_stride: int, out_dir: Path) -> list[Path]:
    """The shipped two-columns scenario plus ``count`` seeded layouts in its box.

    All files share the paper's graph, K=20 and the given record stride.
    """
    shipped = json.loads(PAPER10_SCENARIO.read_text())
    if shipped["integrator"]["record_stride"] == record_stride:
        paths = [PAPER10_SCENARIO]
    else:
        shipped["integrator"] = _integrator(record_stride)
        paths = [_write(out_dir / "paper10-two-columns.json", shipped)]
    rng = random.Random(seed)
    xmin, xmax, ymin, ymax = PAPER10_BOX
    for i in range(count):
        doc = dict(shipped)
        doc["initial"] = {
            "positions": [[rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)] for _ in range(10)]
        }
        doc["integrator"] = _integrator(record_stride)
        paths.append(_write(out_dir / f"paper10-layout{i}.json", doc))
    return paths


def basin_window(seed: int) -> tuple[float, float, float, float]:
    """A grid window symmetric in x (so labels must mirror) and shifted in y."""
    rng = random.Random(seed)
    half_width = rng.uniform(2.5, 3.5)
    shift = rng.uniform(-0.5, 0.5)
    return (-half_width, half_width, -3.0 + shift, 3.0 + shift)


def basin_setup_scenario(k_gain: float, out_dir: Path) -> Path:
    """The pinned triangle a basin command builds internally, as a scenario file."""
    doc = {
        "graph": "triangle",
        "root_edge": [1, 2],
        "d_star": D_STAR,
        "k_gain": k_gain,
        "kappa": 1.0,
        "initial": {"positions": [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]},
        "integrator": _integrator(100),
    }
    return _write(out_dir / f"triangle-k{k_gain:g}.json", doc)


def hex_patch(radius: int):
    """Hexagonal patch of the triangular lattice: (positions, edges, cliques).

    Agents are numbered ring by ring from the centre, counter-clockwise from
    the +x axis, so agent 1 sits at the origin and agent 2 at (D_STAR, 0).
    Every lattice triangle is listed once, counter-clockwise.
    """
    cells = [
        (q, r)
        for q in range(-radius, radius + 1)
        for r in range(-radius, radius + 1)
        if max(abs(q), abs(r), abs(q + r)) <= radius
    ]

    def xy(q: int, r: int) -> tuple[float, float]:
        return (D_STAR * (q + 0.5 * r), D_STAR * (0.5 * SQRT3 * r))

    def ring_order(c: tuple[int, int]):
        q, r = c
        x, y = xy(q, r)
        return (max(abs(q), abs(r), abs(q + r)), math.atan2(y, x) % (2.0 * math.pi))

    cells.sort(key=ring_order)
    index = {c: i + 1 for i, c in enumerate(cells)}
    edges = []
    cliques = []
    for (q, r), i in index.items():
        for dq, dr in ((1, 0), (0, 1), (-1, 1)):
            j = index.get((q + dq, r + dr))
            if j is not None:
                edges.append([i, j])
        up = (index.get((q + 1, r)), index.get((q, r + 1)))
        down = (index.get((q + 1, r - 1)), index.get((q + 1, r)))
        for b, c in (up, down):
            if b is not None and c is not None:
                cliques.append([i, b, c])
    positions = [xy(q, r) for q, r in cells]
    return positions, edges, cliques


def check_hex_patch(radius: int, positions, edges, cliques) -> list[str]:
    """Structural self-check of :func:`hex_patch`; returns the problems found."""
    problems = []
    n = 3 * radius * radius + 3 * radius + 1
    if len(positions) != n:
        problems.append(f"hex patch has {len(positions)} agents, expected {n}")
    if len(cliques) != 6 * radius * radius:
        problems.append(f"hex patch lists {len(cliques)} triangles, expected {6 * radius * radius}")
    if len({frozenset(c) for c in cliques}) != len(cliques):
        problems.append("a lattice triangle is listed twice")
    target = 0.25 * SQRT3 * D_STAR * D_STAR
    for i, j, k in cliques:
        (xi, yi), (xj, yj), (xk, yk) = positions[i - 1], positions[j - 1], positions[k - 1]
        z = 0.5 * ((xj - xi) * (yk - yi) - (xk - xi) * (yj - yi))
        if abs(z - target) > 1e-9:
            problems.append(f"triangle {(i, j, k)} is not counter-clockwise equilateral (area {z})")
            break
    for i, j in edges:
        (xi, yi), (xj, yj) = positions[i - 1], positions[j - 1]
        if abs(math.hypot(xj - xi, yj - yi) - D_STAR) > 1e-9:
            problems.append(f"edge {(i, j)} is not of length d_star")
            break
    return problems


def hex_scenario(seed: int, out_dir: Path) -> tuple[Path, list]:
    """Scale scenario: the lattice patch started from a seeded perturbation of its target.

    Returns the scenario path and the unperturbed lattice positions, which
    the caller compares with the program's own ``target_positions``.
    """
    positions, edges, cliques = hex_patch(HEX_RADIUS)
    problems = check_hex_patch(HEX_RADIUS, positions, edges, cliques)
    if problems:
        raise RuntimeError("; ".join(problems))
    rng = random.Random(seed)
    start = [
        [x + rng.uniform(-HEX_JITTER, HEX_JITTER), y + rng.uniform(-HEX_JITTER, HEX_JITTER)]
        for x, y in positions
    ]
    doc = {
        "graph": {"n": len(positions), "edges": edges, "cliques": cliques},
        "root_edge": [1, 2],
        "d_star": D_STAR,
        "k_gain": HEX_K_GAIN,
        "kappa": HEX_KAPPA,
        "initial": {"positions": start},
        "integrator": _integrator(100),
    }
    return _write(out_dir / f"hex-r{HEX_RADIUS}.json", doc), positions
