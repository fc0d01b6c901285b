"""Span tracing of triform's layers from outside the package.

The tracer replaces module attributes at the call sites the CLI uses, records
one span per call (name, start, end, parent) in memory, and restores the
originals when the ``patched`` block ends.  Field evaluations are too many to
keep one span each; they are counted and timed on the span that encloses
them (normally ``dynamics.simulate``).
"""

from __future__ import annotations

import contextlib
import functools
import json
from pathlib import Path
from time import perf_counter

import triform.cli
import triform.dynamics
import triform.hierarchy
import triform.scenario
from triform.dynamics import LABEL_UNRESOLVED

# (module, attribute, span name) for every call site the traced run wraps.
CALL_SITES = (
    (triform.cli, "load_scenario", "scenario.load"),
    (triform.cli, "resolve", "scenario.resolve"),
    (triform.cli, "simulate", "dynamics.simulate"),
    (triform.cli, "probe_points", "dynamics.probe_points"),
    (triform.cli, "enumerate_triangle_equilibria", "analysis.catalogue"),
    (triform.cli, "formation_errors", "graph.formation_errors"),
    (triform.scenario, "build_hierarchy", "hierarchy.build"),
    (triform.hierarchy, "validate_triangulated_laman", "graph.validate"),
    (triform.dynamics, "simulate", "dynamics.simulate"),
    (triform.dynamics, "formation_errors", "graph.formation_errors"),
    (triform.dynamics, "compile_field", "hierarchy.compile"),
)


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "field_evals", "field_s", "attrs")

    def __init__(self, sid: int, name: str, parent: int | None):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = perf_counter()
        self.end = self.start
        self.field_evals = 0
        self.field_s = 0.0
        self.attrs: dict = {}

    def as_dict(self) -> dict:
        out = {"id": self.sid, "name": self.name, "parent": self.parent,
               "start": self.start, "end": self.end}
        if self.field_evals:
            out["field_evals"] = self.field_evals
            out["field_s"] = self.field_s
        out.update(self.attrs)
        return out


class Tracer:
    """Collects spans; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(len(self.spans), name, self._stack[-1].sid if self._stack else None)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        if name == "hierarchy.compile":
            return self._wrap_compile(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                _annotate(sp, result)
                return result

        return wrapper

    def _wrap_compile(self, compile_field):
        @functools.wraps(compile_field)
        def wrapper(*args, **kwargs):
            with self.span("hierarchy.compile"):
                field = compile_field(*args, **kwargs)
            stack = self._stack

            def timed_field(p, out):
                t0 = perf_counter()
                field(p, out)
                sp = stack[-1]
                sp.field_s += perf_counter() - t0
                sp.field_evals += 1

            return timed_field

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Route every call site in CALL_SITES through a span while the block runs."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in CALL_SITES]
        try:
            for (mod, attr, name), (_, _, fn) in zip(CALL_SITES, saved):
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {**header, "spans": [sp.as_dict() for sp in self.spans]}
        path.write_text(json.dumps(doc) + "\n")


def _annotate(sp: Span, result) -> None:
    """Keep the counts a layer's return value carries on its span."""
    if sp.name == "dynamics.simulate":
        sp.attrs["steps"] = result.steps
        sp.attrs["reason"] = result.reason
        sp.attrs["samples"] = len(result.trajectory.times)
    elif sp.name == "dynamics.probe_points":
        sp.attrs["cells"] = len(result)
        sp.attrs["unresolved"] = sum(1 for c in result if c.label == LABEL_UNRESOLVED)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, each span's duration minus its children's and field time."""
    child_s = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child_s[sp.parent] += sp.end - sp.start
    out: dict[str, float] = {}
    for sp in spans:
        own = (sp.end - sp.start) - child_s[sp.sid] - sp.field_s
        out[sp.name] = out.get(sp.name, 0.0) + own
    return out
