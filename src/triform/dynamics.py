"""Fixed-step integration of the formation gradient flow.

The coupled system moves every agent along its own control input.  Runs end
when the largest control norm drops below a tolerance (converged), when the
time budget runs out (timeout), or when any coordinate leaves a large bound
or the state or the control field stops being finite (diverged).  One
generated loop runs them, stepping float64 arrays with numpy from
``ARRAY_MIN_AGENTS`` agents on and a local per coordinate with straight-line
code below; both field kernels are generated here too, from the op text of
``potentials``, and the list loop writes the ops out itself.
"""

from __future__ import annotations

import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Container, Sequence

import numpy as np

from .analysis import terminal_equilibrium
from .geometry import Position, require_positive
from .graph import DesiredFormation, formation_errors
from .hierarchy import HierarchyPlan
from .potentials import _PAIR_OP, _TRIANGLE_OP, _define

CONVERGED = "converged"
TIMEOUT = "timeout"
DIVERGED = "diverged"

LABEL_CORRECT = "correct"
LABEL_INCORRECT = "incorrect"
LABEL_UNRESOLVED = "unresolved"

MAX_STEPS = 10**7  # most steps a run may take; at a dt with p + dt*u == p none converges

# Each integration method: its stages after stage 1, as (the offset added to p, the
# stage it fills), and its update.  {0} is a coordinate index on lists, empty on arrays.
METHODS = {
    "rk4": (
        ((" + half * u{0}", "k2_{0}"), (" + half * k2_{0}", "k3_{0}"), (" + dt * k3_{0}", "k4_{0}")),
        "p{0} = p{0} + sixth * (u{0} + two * (k2_{0} + k3_{0}) + k4_{0})",
    ),
    "euler": ((), "p{0} = p{0} + dt * u{0}"),
}


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integrator settings.

    method names an entry of ``METHODS``: "rk4" or "euler".  Convergence is
    declared on the largest per-agent control norm, not on position increments.
    """

    method: str = "rk4"
    dt: float = 1e-3
    t_max: float = 50.0
    grad_norm_tol: float = 1e-9
    record_stride: int = 100
    divergence_bound: float = 1e6

    def __post_init__(self) -> None:
        if not isinstance(self.method, str) or self.method not in METHODS:  # a list is unhashable
            raise ValueError(f"method must be 'rk4' or 'euler', got {self.method!r}")
        require_positive("dt", self.dt)
        if self.dt >= self.t_max:
            raise ValueError(f"dt={self.dt} must be smaller than t_max={self.t_max}")
        if not self.t_max / self.dt <= MAX_STEPS:  # an infinite or NaN t_max too
            raise ValueError(f"t_max={self.t_max} must be within {MAX_STEPS} steps of dt={self.dt}")
        require_positive("grad_norm_tol", self.grad_norm_tol)
        if type(self.record_stride) is not int or self.record_stride < 1:  # bool too
            raise ValueError(f"record_stride must be an integer >= 1, got {self.record_stride!r}")
        require_positive("divergence_bound", self.divergence_bound)


@dataclass
class Trajectory:
    """Recorded samples of one run.

    states[t] holds all agent positions as an (n, 2) array; metrics columns
    are (max distance error, max signed-area error, max control norm).
    """

    times: np.ndarray
    states: np.ndarray
    metrics: np.ndarray


@dataclass
class SimulationResult:
    trajectory: Trajectory
    reason: str
    t_final: float
    steps: int
    field_evals: int

    @property
    def converged(self) -> bool:
        return self.reason == CONVERGED

    @property
    def diverged_at(self) -> float | None:
        """Time of the divergence, None unless the run diverged."""
        return self.t_final if self.reason == DIVERGED else None

    def final_positions(self) -> list[Position]:
        return [Position(float(x), float(y)) for x, y in self.trajectory.states[-1]]


@np.errstate(over="ignore", invalid="ignore")  # overflow is caught as divergence
def simulate(
    plan: HierarchyPlan,
    df: DesiredFormation,
    init: Sequence[Position],
    cfg: IntegratorConfig,
    *,
    k_gain: float,
    kappa: float = 1.0,
) -> SimulationResult:
    """Integrate the coupled gradient flow from ``init``.

    Samples are recorded at step 0, every record_stride steps, and at the
    final state.  Initial conditions lying exactly on an equilibrium report
    immediate convergence to it; nothing is perturbed.
    """
    n = plan.graph.n
    if len(init) != n:
        raise ValueError(f"expected {n} initial positions, got {len(init)}")
    p: list[float] = []
    for q in init:
        p.extend((q.x, q.y))

    field_eval = compile_field(plan, df, k_gain=k_gain, kappa=kappa)
    dt = cfg.dt
    # Samples go to flat buffers: coordinates, step numbers and field norms;
    # the formation errors of all samples are computed once at the end.
    coords = array("d")
    recorded = array("q")
    u_norms = array("d")
    arrays = uses_array_kernel(n)
    stages, update = METHODS[cfg.method]

    def record(state: list[float], step: int, gmax2: float) -> None:
        coords.fromlist(state)
        recorded.append(step)
        u_norms.append(math.sqrt(gmax2))

    names = {
        "record": record,
        "recorded": recorded,
        "isfinite": math.isfinite,
        "stride": cfg.record_stride,
        "tol2": cfg.grad_norm_tol * cfg.grad_norm_tol,
        "max_steps": int(math.ceil(cfg.t_max / dt)),
        "bound": cfg.divergence_bound,
        "dt": dt,
        "half": 0.5 * dt,
        "sixth": dt / 6.0,
        "two": 2.0,
        "DIVERGED": DIVERGED,
        "CONVERGED": CONVERGED,
        "TIMEOUT": TIMEOUT,
    }
    if arrays:
        p, u = np.array(p), np.zeros(2 * n)
        names.update(np=np, field=field_eval, **{out.format(""): np.zeros(2 * n) for _, out in stages})
        norm = ["v = u * u", "gmax2 = float((v[0::2] + v[1::2]).max())"]
        advance = [f"field(p{offset}, {out})".format("") for offset, out in stages]
        advance += [update.format(""), "worst = float(np.abs(p).max())"]
        state, setup, *loop = "p.tolist()", [], norm, advance, ["field(p, u)"]
        field_eval(p, u)
    else:
        u = [0.0] * (2 * n)
        names.update(field_names(plan, df, k_gain=k_gain, kappa=kappa))
        field_eval(p, u)  # stage 1 of step 0, run before the loop to find the agents at rest
        state, setup, *loop = _list_bodies(plan, cfg.method, _at_rest(plan, p, u))
    bodies = dict(zip(("norm", "advance", "stage1"), ("\n        ".join(body) for body in loop)))
    source = _RUN.format(params=", ".join(names), state=state, setup="\n    ".join(setup), **bodies)
    step, reason, gmax2 = _define(source, "run", {})(p, u, **names)  # compiled once per source text
    # A step that left the divergence bound ends the run before stage 1 (gmax2 is then
    # finite): the field is never evaluated at the final state, so its sample has no norm.
    left_bound = reason == DIVERGED and math.isfinite(gmax2)
    if left_bound and recorded[-1] == step:
        u_norms[-1] = math.nan

    states = np.frombuffer(coords).reshape(len(recorded), n, 2)
    dist_err, area_err = formation_errors(df, states)
    trajectory = Trajectory(
        times=np.asarray(recorded) * dt,
        states=states,
        metrics=np.column_stack((dist_err, area_err, np.frombuffer(u_norms))),
    )
    evals = (1 + len(stages)) * step + (not left_bound)  # stage 1 at the final state too
    return SimulationResult(trajectory=trajectory, reason=reason, t_final=step * dt, steps=step, field_evals=evals)


# From this many agents on the numpy field kernel and loop bodies run, below
# them the generated list ones; it sits above their measured crossover (README).
ARRAY_MIN_AGENTS = 60


def uses_array_kernel(n: int) -> bool:
    """True when a formation of ``n`` agents is integrated on float64 arrays."""
    return n >= ARRAY_MIN_AGENTS


def compile_field(
    plan: HierarchyPlan, df: DesiredFormation, *, k_gain: float, kappa: float = 1.0
) -> Callable[[list[float], list[float]], None]:
    """Build a fast evaluator of the control field over flat coordinates.

    The returned callable fills ``out`` (length 2n) with the control input for
    the state ``p`` (x1, y1, x2, y2, ...), computing exactly the expressions
    of :func:`~triform.hierarchy.control_field`.  Both kernels are generated
    from the same op text: on float64 arrays (from ``ARRAY_MIN_AGENTS``
    agents on) one triangle op runs over the gathered columns of all
    triangle agents, on lists (below) :func:`field_lines` writes out every op.
    """
    n = plan.graph.n
    if uses_array_kernel(n):
        m, a = 2 * (plan.pair - 1), 2 * (plan.root - 1)
        unpack = f"x{a}, y{a}, x{m}, y{m} = p.item({a}), p.item({a + 1}), p.item({m}), p.item({m + 1})"
        ops = field_lines(plan, "out[{}]", frozenset(plan.processing_order[2:]))  # the root and the pair
        ops.append("xM, yM, xF, yF, xS, yS = p.take(gather)")
        ops += _TRIANGLE_OP.format(m="M", f="F", s="S", k="", dx="out[tm]", dy="out[tm1]").split("\n")
    else:
        unpack = "".join(f"x{m}, y{m}, " for m in range(0, 2 * n, 2)) + "= p"
        ops = field_lines(plan, "out[{}]")
    source = "\n    ".join(["def field(p, out):", unpack, *ops]) + "\n"
    return _define(source, "field", field_names(plan, df, k_gain=k_gain, kappa=kappa))


def field_names(plan: HierarchyPlan, df: DesiredFormation, *, k_gain: float, kappa: float = 1.0) -> dict:
    """The values the field's ops read, by name: d2, kg and nkap = -kappa, then
    on lists z_star0, z_star1, ... per triangle, and on arrays one z_star
    column with the gather indices (rows: x, y of every triangle's agent, first
    base, second base) and tm, tm1, the agents' x and y offsets."""
    names = {"d2": df.d_star * df.d_star, "kg": k_gain, "nkap": -kappa}
    z_star = [df.z_star(t.clique_index) for t in plan.triangles]
    if not uses_array_kernel(plan.graph.n):
        return names | {f"z_star{k}": z for k, z in enumerate(z_star)}
    corners = np.array([(t.agent, t.base1, t.base2) for t in plan.triangles], dtype=np.intp)
    gather = np.repeat(2 * (corners.T - 1), 2, axis=0)
    gather[1::2] += 1
    return names | {"gather": gather, "tm": gather[0], "tm1": gather[1], "z_star": np.array(z_star)}


def field_lines(plan: HierarchyPlan, out: str, rest: Container[int] = ()) -> list[str]:
    """The field of ``plan`` as straight-line statements, unindented.

    They read agent i's coordinates from x{m} and y{m} with m = 2(i - 1), the
    values of :func:`field_names` by name, and assign entry j of the field
    to ``out.format(j)``: the stationary agent's two entries 0.0, then the
    pair op and each triangle op in processing order, each left out for the
    agents in ``rest``.
    """
    m, a = 2 * (plan.pair - 1), 2 * (plan.root - 1)
    lines = [] if plan.root in rest else [f"{out.format(a)} = 0.0", f"{out.format(a + 1)} = 0.0"]
    if plan.pair not in rest:
        lines += _PAIR_OP.format(m=m, a=a, dx=out.format(m), dy=out.format(m + 1)).split("\n")
    for k, t in enumerate(plan.triangles):
        m, f, s = 2 * (t.agent - 1), 2 * (t.base1 - 1), 2 * (t.base2 - 1)
        if t.agent not in rest:
            lines += _TRIANGLE_OP.format(m=m, f=f, s=s, k=k, dx=out.format(m), dy=out.format(m + 1)).split("\n")
    return lines


# The integrator loop, the one statement of its control flow, called with
# u = field(p).  A kernel fills in {state}, the state as a list, and the bodies
# {setup} before the loop, {norm} setting gmax2, the largest squared control
# norm of u, {advance} stepping the state and setting worst, its largest
# coordinate magnitude (a NaN term makes either NaN), and {stage1}, u = field(p).
# Both kernels evaluate the same expressions in the same order.  Every value
# the loop reads is a keyword parameter, so its source holds no float of the
# run and one code object serves every run of a shape.
_RUN = """\
def run(p, u, *, {params}):
    {setup}
    step = 0
    while True:
        {norm}
        if step % stride == 0:
            record({state}, step, gmax2)
        if not isfinite(gmax2):  # NaN or overflowing field
            reason = DIVERGED
            break
        if gmax2 < tol2:
            reason = CONVERGED
            break
        if step >= max_steps:
            reason = TIMEOUT
            break
        {advance}
        step += 1
        if not worst <= bound:  # NaN too
            reason = DIVERGED
            break
        {stage1}
    # After a divergence the state may no longer be finite (worst is then inf
    # or NaN); the last good sample is kept instead.
    if recorded[-1] != step and isfinite(worst):
        record({state}, step, gmax2)
    return step, reason, gmax2
"""


def _at_rest(plan: HierarchyPlan, p: Sequence[float], u: Sequence[float]) -> frozenset[int]:
    """The agents that the flow from ``p`` never moves, given ``u = field(p)``.

    The root, then in processing order each agent whose bases are at rest,
    whose two control entries are exactly zero and which has no -0.0
    coordinate: its control reads only its own and its bases' coordinates,
    so it stays zero, and p + h * (+-0.0) == p for every p but -0.0.
    """
    rest = {plan.root}
    for agent, *bases in [(plan.pair, plan.root), *((t.agent, t.base1, t.base2) for t in plan.triangles)]:
        m = 2 * (agent - 1)
        zero = u[m] == u[m + 1] == 0.0 and rest.issuperset(bases)
        if zero and all(v or math.copysign(1.0, v) > 0 for v in p[m : m + 2]):  # no -0.0
            rest.add(agent)
    return frozenset(rest)


@lru_cache(maxsize=32)
def _list_bodies(plan: HierarchyPlan, method: str, rest: frozenset[int]) -> tuple:
    """The list state and bodies, with p, u and each stage in a local per coordinate.

    Setup unpacks p and u.  Stage 1 and the method's later stages are the plan's
    :func:`field_lines` written out, assigning u{j} and, for RK4, k2_{j} to k4_{j}.
    The agents in ``rest`` (:func:`_at_rest`) are loop invariants: setup sets
    their x{m}, y{m} and p{j} to p + 0.0 and their largest magnitude to
    rest_worst, and the loop leaves out their stage positions, ops, update and
    norm term.  The root may start at -0.0, so sample 0 records the incoming
    p.  Cached, since writing them out costs more than a short basin cell.
    """
    pairs = range(0, 2 * plan.graph.n, 2)
    still = [m for m in pairs if m // 2 + 1 in rest]
    moving = [m for m in pairs if m // 2 + 1 not in rest]
    coords = [j for m in moving for j in (m, m + 1)]

    def row(template: str, ms: Sequence[int] = pairs) -> str:
        return ", ".join(template.format(j) for m in ms for j in (m, m + 1))

    def stage(step: str, out: str) -> list[str]:  # the moving agents at p + step, then the ops into out
        positions = [f"{c}{m} = p{j}{step.format(j)}" for m in moving for c, j in (("x", m), ("y", m + 1))]
        return positions + field_lines(plan, out, rest)

    setup = [f"{row('p{}')}, = p", f"{row('u{}')}, = u"]
    setup += [f"{c}{m} = p{j} = p{j} + 0.0" for m in still for c, j in (("x", m), ("y", m + 1))]
    setup.append(f"rest_worst = max([{row('abs(p{})', still)}], default=0.0)")
    terms = [f"u{m} * u{m} + u{m + 1} * u{m + 1}" for m in moving] or ["0.0"]
    norm = [f"gmax2 = {terms[0]}"]
    for term in terms[1:]:
        norm += [f"v = {term}", "if v > gmax2 or v != v: gmax2 = v"]
    stages, update = METHODS[method]
    advance = [line for offset, out in stages for line in stage(offset, out)] + [update.format(j) for j in coords]
    advance.append("worst = rest_worst")
    for j in coords:
        advance += [f"v = abs(p{j})", "if v > worst or v != v: worst = v"]
    # Loop-invariant code motion, in loop order: `name = expr` moves to setup
    # when the loop assigns name by this one text (so never a compound
    # statement's target) and expr reads no name the loop still assigns.
    loop, moved = (norm, advance, stage("", "u{}")), []
    lines = dict.fromkeys(line for body in loop for line in body)  # each text once, in loop order
    texts = Counter(line.partition(" = ")[0].rpartition(" ")[2] for line in lines)  # `if ...: name = v` too
    for line in lines:
        name, _, expr = line.partition(" = ")
        if texts[name] == 1 and texts.keys().isdisjoint(re.findall(r"\w+", expr)):
            moved.append(line)
            del texts[name]
    bodies = (tuple(line for line in body if line not in moved) for body in loop)
    return f"[{row('p{}')}] if step else p", (*setup, *moved), *bodies


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid of initial positions, endpoints included."""

    nx: int
    ny: int
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self) -> None:
        if self.nx < 0 or self.ny < 0:
            raise ValueError(f"grid sizes must be non-negative, got {self.nx}x{self.ny}")
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError("grid bounds are inverted")
        # Finite midpoints and spans keep every point of points() finite.
        for lo, hi, count in ((self.xmin, self.xmax, self.nx), (self.ymin, self.ymax, self.ny)):
            if not (math.isfinite(lo + hi) and math.isfinite(max(count - 1, 1) * (hi - lo))):
                raise ValueError(f"grid bounds must be finite with a finite span, got {lo}..{hi}")

    def points(self) -> list[tuple[int, int, float, float]]:
        def axis(lo: float, hi: float, count: int, idx: int) -> float:
            # Each half steps in from its own end: both ends are exact, and ±w mirrors exactly.
            if 2 * idx + 1 == count:  # the centre of an odd axis, and a 1-point axis
                return 0.5 * (lo + hi)
            if 2 * idx < count:
                return lo + idx * (hi - lo) / (count - 1)
            return hi - (count - 1 - idx) * (hi - lo) / (count - 1)

        return [
            (ix, iy, axis(self.xmin, self.xmax, self.nx, ix), axis(self.ymin, self.ymax, self.ny, iy))
            for iy in range(self.ny)
            for ix in range(self.nx)
        ]


@dataclass(frozen=True)
class BasinCell:
    ix: int
    iy: int
    x0: float
    y0: float
    label: str
    reason: str
    x_final: float
    y_final: float
    matched_family: str | None


def probe_points(
    plan: HierarchyPlan,
    df: DesiredFormation,
    cfg: IntegratorConfig,
    k_gain: float,
    points: Sequence[tuple[int, int, float, float]],
) -> list[BasinCell]:
    """Run one pinned-triangle probe per point and label the terminal state.

    Agents 1 and 2 start on the pins (-a, 0) and (a, 0) with a = d_star/2 and
    never move; agent 3 starts at the point.  Each converged run is judged by
    :func:`~triform.analysis.terminal_equilibrium`, as ``simulate`` runs are:
    "correct" for the target apex, "incorrect" for any other equilibrium,
    "unresolved" when nothing matches within 1e-4 or the run did not converge.
    An error raised by one cell's run propagates and aborts the sweep.  Distinct
    points are independent, so callers may split them across worker processes.
    """
    if plan.graph.n != 3:
        raise ValueError(f"basin probe needs the pinned 3-agent scenario, got n={plan.graph.n}")
    a = 0.5 * df.d_star
    pins = [Position(-a, 0.0), Position(a, 0.0)]
    cells: list[BasinCell] = []
    for ix, iy, x0, y0 in points:
        result = simulate(plan, df, [*pins, Position(x0, y0)], cfg, k_gain=k_gain)
        final = result.final_positions()
        label = LABEL_UNRESOLVED
        family = None
        if result.converged:
            verdict = terminal_equilibrium(plan, df, k_gain, final)
            family = verdict["matched"]
            if family is not None:
                label = LABEL_CORRECT if verdict["in_target_set"] else LABEL_INCORRECT
        cells.append(BasinCell(ix, iy, x0, y0, label, result.reason, *final[2].as_tuple(), family))
    return cells
