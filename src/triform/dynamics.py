"""Fixed-step integration of the formation gradient flow.

The coupled system moves every agent along its own control input.  Runs end
when the largest control norm drops below a tolerance (converged), when the
time budget runs out (timeout), or when any coordinate leaves a large bound
or the state or the control field stops being finite (diverged).  The inner
loop works on flat coordinate lists, or on float64 arrays for formations of
at least ``ARRAY_MIN_AGENTS`` agents; trajectories are recorded on a stride
and returned as arrays.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import FAMILY_APEX, match_equilibrium
from .geometry import Position
from .graph import DesiredFormation, formation_errors
from .hierarchy import HierarchyPlan, compile_field, uses_array_kernel

CONVERGED = "converged"
TIMEOUT = "timeout"
DIVERGED = "diverged"

LABEL_CORRECT = "correct"
LABEL_INCORRECT = "incorrect"
LABEL_UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integrator settings.

    method is "rk4" or "euler".  Convergence is declared on the largest
    per-agent control norm, not on position increments.
    """

    method: str = "rk4"
    dt: float = 1e-3
    t_max: float = 50.0
    grad_norm_tol: float = 1e-9
    record_stride: int = 100
    divergence_bound: float = 1e6

    def __post_init__(self) -> None:
        if self.method not in ("rk4", "euler"):
            raise ValueError(f"method must be 'rk4' or 'euler', got {self.method!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be finite and positive, got {self.t_max}")
        if self.dt >= self.t_max:
            raise ValueError(f"dt={self.dt} must be smaller than t_max={self.t_max}")
        if not (math.isfinite(self.grad_norm_tol) and self.grad_norm_tol > 0):
            raise ValueError(f"grad_norm_tol must be positive, got {self.grad_norm_tol}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
        if not (math.isfinite(self.divergence_bound) and self.divergence_bound > 0):
            raise ValueError(f"divergence_bound must be positive, got {self.divergence_bound}")


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
    init: Sequence[Position | Sequence[float]],
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
        if not isinstance(q, Position):
            q = Position(float(q[0]), float(q[1]))  # validates finiteness
        p.extend((q.x, q.y))

    field_eval = compile_field(plan, df, k_gain=k_gain, kappa=kappa)
    size = 2 * n
    # Large formations hold the state and the RK4 stages as float64 arrays and
    # update them whole; the expressions and their order match the scalar loops.
    arrays = uses_array_kernel(n)
    if arrays:
        p = np.array(p)
        u = np.zeros(size)
        k2 = np.zeros(size)
        k3 = np.zeros(size)
        k4 = np.zeros(size)
    else:
        u = [0.0] * size
        k2 = [0.0] * size
        k3 = [0.0] * size
        k4 = [0.0] * size
        tmp = [0.0] * size

    dt = cfg.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    tol2 = cfg.grad_norm_tol * cfg.grad_norm_tol
    bound = cfg.divergence_bound
    max_steps = int(math.ceil(cfg.t_max / dt))
    rk4 = cfg.method == "rk4"

    # Samples go to flat buffers: coordinates, times and field norms; the
    # formation errors of all samples are computed once at the end.
    coords = array("d")
    times = array("d")
    u_norms = array("d")
    last_recorded = -1

    def record(step: int, gmax2: float) -> None:
        nonlocal last_recorded
        coords.fromlist(p.tolist() if arrays else p)
        times.append(step * dt)
        u_norms.append(math.sqrt(gmax2))
        last_recorded = step

    reason = TIMEOUT
    step = 0
    worst = 0.0
    while True:
        field_eval(p, u)
        if arrays:
            gmax2 = float(np.max(u[0::2] * u[0::2] + u[1::2] * u[1::2]))
        else:
            gmax2 = 0.0
            for m in range(0, size, 2):
                g2 = u[m] * u[m] + u[m + 1] * u[m + 1]
                if g2 > gmax2 or g2 != g2:  # a NaN sticks, as in np.max
                    gmax2 = g2
        if step % cfg.record_stride == 0:
            record(step, gmax2)
        if not math.isfinite(gmax2):  # NaN or overflowing field
            reason = DIVERGED
            break
        if gmax2 < tol2:
            reason = CONVERGED
            break
        if step >= max_steps:
            reason = TIMEOUT
            break

        if arrays:
            if rk4:
                field_eval(p + half * u, k2)
                field_eval(p + half * k2, k3)
                field_eval(p + dt * k3, k4)
                p += sixth * (u + 2.0 * (k2 + k3) + k4)
            else:
                p += dt * u
            worst = float(np.max(np.abs(p)))
        else:
            if rk4:
                for m in range(size):
                    tmp[m] = p[m] + half * u[m]
                field_eval(tmp, k2)
                for m in range(size):
                    tmp[m] = p[m] + half * k2[m]
                field_eval(tmp, k3)
                for m in range(size):
                    tmp[m] = p[m] + dt * k3[m]
                field_eval(tmp, k4)
                for m in range(size):
                    p[m] += sixth * (u[m] + 2.0 * (k2[m] + k3[m]) + k4[m])
            else:
                for m in range(size):
                    p[m] += dt * u[m]
            worst = 0.0
            for m in range(size):
                a = abs(p[m])
                if a > worst or a != a:
                    worst = a
        step += 1
        if not worst <= bound:  # NaN too
            reason = DIVERGED
            break

    # After a divergence the state may no longer be finite (worst is then inf
    # or NaN); the last good sample is kept instead.
    if last_recorded != step and math.isfinite(worst):
        record(step, gmax2)

    states = np.frombuffer(coords).reshape(len(times), n, 2)
    dist_err, area_err = formation_errors(df, states)
    trajectory = Trajectory(
        times=np.frombuffer(times),
        states=states,
        metrics=np.column_stack((dist_err, area_err, np.frombuffer(u_norms))),
    )
    return SimulationResult(trajectory=trajectory, reason=reason, t_final=step * dt, steps=step)


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
            if count == 1:
                return 0.5 * (lo + hi)
            return lo + idx * (hi - lo) / (count - 1)

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
    equilibria: Sequence,
    points: Sequence[tuple[int, int, float, float]],
) -> list[BasinCell]:
    """Run one pinned-triangle probe per point and label the terminal state.

    Agents 1 and 2 start on the pins (-a, 0) and (a, 0) with a = d_star/2 and
    never move; agent 3 starts at the point.  Each terminal point is matched
    against ``equilibria``: "correct" for the target apex, "incorrect" for
    any other equilibrium, "unresolved" when nothing matches within 1e-4 or
    the run did not converge.  A failure in one cell never aborts the sweep.
    Distinct points are independent, so callers may split them across worker
    processes.
    """
    if plan.graph.n != 3:
        raise ValueError(f"basin probe needs the pinned 3-agent scenario, got n={plan.graph.n}")
    a = 0.5 * df.d_star
    pins = [Position(-a, 0.0), Position(a, 0.0)]
    cells: list[BasinCell] = []
    for ix, iy, x0, y0 in points:
        result = simulate(plan, df, [*pins, Position(x0, y0)], cfg, k_gain=k_gain)
        fx, fy = (float(v) for v in result.trajectory.states[-1][2])
        label = LABEL_UNRESOLVED
        family = None
        if result.converged:
            best = match_equilibrium(equilibria, Position(fx, fy))
            if best is not None:
                family = best.family
                label = LABEL_CORRECT if family == FAMILY_APEX else LABEL_INCORRECT
        cells.append(
            BasinCell(
                ix=ix,
                iy=iy,
                x0=x0,
                y0=y0,
                label=label,
                reason=result.reason,
                x_final=fx,
                y_final=fy,
                matched_family=family,
            )
        )
    return cells

