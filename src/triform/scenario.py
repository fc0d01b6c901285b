"""Scenario files: what to simulate, from where, and how to integrate.

A scenario is one JSON document with explicit keys mirroring the config
dataclasses, so a reproduction run can be reviewed at a glance.  Graphs can
be named builtins ("paper-10", "triangle", "pair") or spelled out; initial
conditions can be an explicit position list, a named layout, or a seeded
uniform draw inside a box.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Any, Iterable

from .dynamics import IntegratorConfig
from .geometry import Position
from .graph import DesiredFormation, FormationGraph, GraphSpecError, build_example_graph
from .hierarchy import HierarchyPlan, build_hierarchy

BUILTIN_GRAPHS = ("paper-10", "triangle", "pair")
LAYOUT_TWO_COLUMNS = "two-columns"


class ConfigError(ValueError):
    """A scenario document that parses but violates its schema."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


@dataclass(frozen=True)
class InitialSpec:
    """Initial positions: exactly one of positions / layout / (seed, box)."""

    positions: tuple[tuple[float, float], ...] | None = None
    layout: str | None = None
    seed: int | None = None
    box: tuple[float, float, float, float] | None = None

    def __post_init__(self) -> None:
        modes = sum((self.positions is not None, self.layout is not None, self.seed is not None))
        if modes != 1:
            raise ConfigError(
                "initial", "specify exactly one of 'positions', 'layout', or 'seed' with 'box'"
            )
        if (self.seed is None) != (self.box is None):
            raise ConfigError("initial.box", "'box' goes only with 'seed', and 'seed' needs one")
        if self.layout is not None and self.layout != LAYOUT_TWO_COLUMNS:
            raise ConfigError("initial.layout", f"unknown layout {self.layout!r}")
        if self.box is not None:
            xmin, xmax, ymin, ymax = self.box
            if not (xmin < xmax and ymin < ymax):
                raise ConfigError("initial.box", f"degenerate box {self.box}")


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    graph: str | FormationGraph
    root_edge: tuple[int, int]
    d_star: float
    k_gain: float
    kappa: float = 1.0
    initial: InitialSpec
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    z_star_signs: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if isinstance(self.graph, str) and self.graph not in BUILTIN_GRAPHS:
            raise ConfigError("graph", f"unknown builtin graph {self.graph!r}")
        for name in ("d_star", "k_gain", "kappa"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(name, f"must be finite and positive, got {value}")


def builtin_graph(name: str) -> FormationGraph:
    if name == "paper-10":
        return build_example_graph()
    if name == "triangle":
        return FormationGraph(3, [(1, 2), (2, 3), (1, 3)], [(1, 2, 3)])
    if name == "pair":
        return FormationGraph(2, [(1, 2)], [])
    raise ConfigError("graph", f"unknown builtin graph {name!r}")


def two_columns_layout(n: int, d_star: float) -> list[Position]:
    """Agents 1..5 top to bottom in a left column, 6..10 likewise on the right.

    Vertical spacing is one unit and the columns sit 3*d_star apart; only the
    qualitative arrangement matters, convergence does not depend on the exact
    numbers.
    """
    if n != 10:
        raise ConfigError("initial.layout", f"layout 'two-columns' needs 10 agents, got {n}")
    gap = 3.0 * d_star
    left = [Position(0.0, float(4 - i)) for i in range(5)]
    right = [Position(gap, float(4 - i)) for i in range(5)]
    return left + right


def random_layout(n: int, seed: int, box: tuple[float, float, float, float]) -> list[Position]:
    """Uniform draw of all agent positions inside the box, fully seeded."""
    rng = random.Random(seed)
    xmin, xmax, ymin, ymax = box
    return [Position(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)) for _ in range(n)]


@dataclass(frozen=True)
class ResolvedScenario:
    config: ScenarioConfig
    formation: DesiredFormation
    plan: HierarchyPlan
    initial_positions: list[Position]


def resolve(config: ScenarioConfig) -> ResolvedScenario:
    """Materialise a config: graph, formation target, hierarchy, initial state."""
    graph = builtin_graph(config.graph) if isinstance(config.graph, str) else config.graph
    signs = config.z_star_signs if config.z_star_signs is not None else ()
    formation = DesiredFormation(graph=graph, d_star=config.d_star, z_star_signs=signs)
    plan = build_hierarchy(graph, config.root_edge)
    init = config.initial
    if init.positions is not None:
        if len(init.positions) != graph.n:
            raise ConfigError(
                "initial.positions", f"expected {graph.n} positions, got {len(init.positions)}"
            )
        positions = [Position(float(x), float(y)) for x, y in init.positions]
    elif init.layout is not None:
        positions = two_columns_layout(graph.n, config.d_star)
    else:
        positions = random_layout(graph.n, init.seed, init.box)
    return ResolvedScenario(
        config=config,
        formation=formation,
        plan=plan,
        initial_positions=positions,
    )


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def _set_fields(obj: Any) -> dict[str, Any]:
    """A config dataclass's fields that are not None, by name, in field order: its document's keys."""
    return {f.name: value for f in fields(obj) if (value := getattr(obj, f.name)) is not None}


def config_to_dict(config: ScenarioConfig) -> dict[str, Any]:
    nested = (InitialSpec, IntegratorConfig)
    out = {name: _set_fields(v) if isinstance(v, nested) else v for name, v in _set_fields(config).items()}
    if not isinstance(config.graph, str):
        out["graph"] = {
            "n": config.graph.n,
            "edges": sorted(config.graph.edges),
            "cliques": config.graph.cliques,
        }
    return out


def _object(value: Any, path: str, required: tuple[str, ...], optional: Iterable[str]) -> dict:
    """A JSON object with every ``required`` key, no key outside ``required`` or
    ``optional``, and no ``null`` value: an optional field is absent only when
    its key is."""
    if not isinstance(value, dict):
        raise ConfigError(path or "<root>", f"expected an object, got {type(value).__name__}")
    prefix = f"{path}." if path else ""
    for key, item in value.items():
        if key not in required and key not in optional:
            raise ConfigError(f"{prefix}{key}", "unknown field")
        if item is None:
            raise ConfigError(f"{prefix}{key}", "expected a value, got null")
    for key in required:
        if key not in value:
            raise ConfigError(f"{prefix}{key}", "missing required field")
    return value


def _int(value: Any, path: str) -> int:
    """An integer field; floats, booleans and strings are refused, not converted."""
    if type(value) is not int:
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _ints(values: Any, path: str, count: int | None = None) -> tuple[int, ...]:
    """A list of integers, of exactly ``count`` entries when a count is given."""
    if not (
        isinstance(values, (list, tuple))
        and count in (None, len(values))
        and set(map(type, values)) <= {int}  # bool is not int here
    ):
        what = f"a list of {count} integers" if count else "a list of integers"
        raise ConfigError(path, f"expected {what}, got {values!r}")
    return tuple(values)


_FLOAT_MAX = sys.float_info.max
_LISTS, _INTS, _NUMBERS = frozenset((list, tuple)), frozenset((int,)), frozenset((int, float))
_INITIAL_KEYS, _INTEGRATOR_KEYS = (frozenset(f.name for f in fields(c)) for c in (InitialSpec, IntegratorConfig))


def _is_number(value: Any) -> bool:
    """A JSON integer or float that is finite as a float; booleans are not numbers."""
    return type(value) in (int, float) and abs(value) <= _FLOAT_MAX


def _number(value: Any, path: str) -> float:
    """A float field; booleans, strings and non-finite values are refused, not converted."""
    if not _is_number(value):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _point(value: Any, path: str) -> tuple[float, float]:
    """One ``initial.positions`` entry: a pair of finite numbers."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(path, f"expected a pair of numbers, got {value!r}")
    return _number(value[0], path), _number(value[1], path)


def _rows(values: Any, path: str, width: int, numbers: bool = False) -> tuple:
    """A list of ``width``-entry rows of integers (edges, cliques), or of finite
    numbers kept as floats (positions), the i-th refused as ``{path}[i]``.

    A list of plain lists whose entries all pass is parsed in bulk; only
    another list is parsed row by row, so a path is formatted only where an
    entry may be refused.
    """
    if not isinstance(values, (list, tuple)):
        raise ConfigError(path, f"expected a list, got {values!r}")
    if (
        {type(v) for v in values} <= _LISTS
        and {len(v) for v in values} <= {width}
        and (_NUMBERS if numbers else _INTS).issuperset(map(type, flat := list(chain.from_iterable(values))))
        and all(map(_FLOAT_MAX.__ge__, map(abs, flat)))
    ):
        return tuple(tuple(map(float, v)) for v in values) if numbers else tuple(map(tuple, values))
    row = _point if numbers else partial(_ints, count=width)
    return tuple(row(v, f"{path}[{i}]") for i, v in enumerate(values))


def _box(values: Any) -> tuple[float, float, float, float]:
    """``initial.box``: four numbers with finite x and y spans, kept as given."""
    ok = isinstance(values, (list, tuple)) and len(values) == 4 and all(map(_is_number, values))
    if ok:
        xmin, xmax, ymin, ymax = map(float, values)
        ok = math.isfinite(xmax - xmin) and math.isfinite(ymax - ymin)
    if not ok:
        raise ConfigError("initial.box", f"expected four numbers with finite spans, got {values!r}")
    return tuple(values)


def config_from_dict(doc: dict[str, Any]) -> ScenarioConfig:
    required = ("graph", "root_edge", "d_star", "k_gain", "initial")
    doc = _object(doc, "", required, ("kappa", "integrator", "z_star_signs"))

    graph: str | FormationGraph = doc["graph"]
    if isinstance(graph, dict):
        raw_graph = _object(graph, "graph", ("n", "edges"), ("cliques",))
        n = _int(raw_graph["n"], "graph.n")
        edges = _rows(raw_graph["edges"], "graph.edges", 2)
        cliques = _rows(raw_graph.get("cliques", []), "graph.cliques", 3)
        if n > 2 * len(edges):  # every agent lies on an edge
            raise ConfigError("graph.n", f"{n} agents cannot all lie on {len(edges)} edges")
        try:
            graph = FormationGraph(n, edges, cliques)
        except GraphSpecError as exc:
            raise ConfigError("graph", str(exc)) from exc
    elif not isinstance(graph, str):
        raise ConfigError("graph", "expected a builtin name or an object")

    init = _object(doc["initial"], "initial", (), _INITIAL_KEYS)
    initial = InitialSpec(
        positions=_rows(init["positions"], "initial.positions", 2, numbers=True) if "positions" in init else None,
        layout=init.get("layout"),
        seed=_int(init["seed"], "initial.seed") if "seed" in init else None,
        box=_box(init["box"]) if "box" in init else None,
    )

    raw_integrator = _object(doc.get("integrator", {}), "integrator", (), _INTEGRATOR_KEYS)
    if "record_stride" in raw_integrator:
        _int(raw_integrator["record_stride"], "integrator.record_stride")
    for key in ("dt", "t_max", "grad_norm_tol", "divergence_bound"):
        if key in raw_integrator:
            _number(raw_integrator[key], f"integrator.{key}")
    try:
        integrator = IntegratorConfig(**raw_integrator)
    except ValueError as exc:
        raise ConfigError("integrator", str(exc)) from exc

    return ScenarioConfig(
        graph=graph,
        root_edge=_ints(doc["root_edge"], "root_edge", 2),
        d_star=_number(doc["d_star"], "d_star"),
        k_gain=_number(doc["k_gain"], "k_gain"),
        kappa=_number(doc.get("kappa", 1.0), "kappa"),
        initial=initial,
        integrator=integrator,
        z_star_signs=_ints(doc["z_star_signs"], "z_star_signs") if "z_star_signs" in doc else None,
    )


def save_scenario(config: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")


def load_scenario(path: str | Path) -> ScenarioConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError("<document>", "JSON nested too deeply") from exc
    except OSError as exc:
        raise ConfigError("<document>", f"cannot read {path}: {exc.strerror}") from exc
    return config_from_dict(doc)


def make_builtin_scenario(
    graph_name: str = "paper-10",
    *,
    k_gain: float = 20.0,
    d_star: float = 2.0,
    initial: InitialSpec | None = None,
    integrator: IntegratorConfig | None = None,
) -> ScenarioConfig:
    """Convenience constructor for the named benchmark scenarios."""
    if initial is None:
        if graph_name == "paper-10":
            initial = InitialSpec(layout=LAYOUT_TWO_COLUMNS)
        elif graph_name == "triangle":
            initial = InitialSpec(positions=((-0.5 * d_star, 0.0), (0.5 * d_star, 0.0), (0.5, 0.5)))
        else:
            initial = InitialSpec(positions=((0.0, 0.0), (0.3, 0.3)))
    return ScenarioConfig(
        graph=graph_name,
        root_edge=(1, 2),
        d_star=d_star,
        k_gain=k_gain,
        initial=initial,
        integrator=integrator if integrator is not None else IntegratorConfig(),
    )
