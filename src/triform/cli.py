"""Command-line front end: simulate, analyze, basin, sweep-gain.

Every run writes a manifest.json naming the termination reason, even when the
configuration or the command line is rejected.  Exit codes: 0 converged/ok,
2 timeout, 3 diverged, 64 configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, fields, replace
from functools import partial
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from . import __version__
from .analysis import (
    FAMILY_APEX,
    K_LOW,
    STABLE,
    align_to_pinned_frame,
    classify_gain,
    enumerate_triangle_equilibria,
    match_equilibrium,
)
from .dynamics import (
    CONVERGED,
    DIVERGED,
    LABEL_CORRECT,
    TIMEOUT,
    BasinCell,
    GridSpec,
    IntegratorConfig,
    Trajectory,
    probe_points,
    simulate,
)
from .geometry import Position
# Unused here, but kept: perfbench/tracer.py patches this attribute, and
# test_tracer_call_sites_resolve checks that it exists.
from .graph import formation_errors
from .scenario import (
    ConfigError,
    InitialSpec,
    config_to_dict,
    load_scenario,
    make_builtin_scenario,
    resolve,
)

EXIT_OK = 0
EXIT_TIMEOUT = 2
EXIT_DIVERGED = 3
EXIT_CONFIG = 64

_REASON_EXIT = {CONVERGED: EXIT_OK, TIMEOUT: EXIT_TIMEOUT, DIVERGED: EXIT_DIVERGED}
_MAX_GAINS = 10_000  # --k-range enumerates at most this many gains
_MAX_CELLS = 1_000_000  # --grid holds at most this many cells
_VERSIONS = {"triform": __version__, "python": platform.python_version(), "numpy": np.__version__}


def _fmt(value: Any) -> str:
    return "" if value is None else str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(_fmt, row)) + "\n")


def _write_trajectory(out_dir: Path, traj: Trajectory) -> None:
    """Write trajectory.csv and metrics.csv, one row per recorded sample.

    Each sample's time and metric fields are formatted once and shared by
    both files; floats are written as their repr.
    """
    samples, n, _ = traj.states.shape
    coords = [f"{axis}_{i}" for i in range(1, n + 1) for axis in "xy"]
    errors = ["max_dist_err", "max_area_err", "max_u_norm"]
    with (out_dir / "trajectory.csv").open("w") as traj_f, (out_dir / "metrics.csv").open("w") as met_f:
        traj_f.write(",".join(["t", *coords, *errors]) + "\n")
        met_f.write(",".join(["t", *errors]) + "\n")
        rows = zip(traj.times.tolist(), traj.states.reshape(samples, 2 * n), traj.metrics.tolist())
        for t, state, metric in rows:
            head = repr(t)
            tail = ",".join(map(repr, metric))
            traj_f.write(f"{head},{','.join(map(repr, state.tolist()))},{tail}\n")
            met_f.write(f"{head},{tail}\n")


def _finite_or_none(value: float) -> float | None:
    """Strict JSON has no inf or NaN; such values are written as null."""
    return value if math.isfinite(value) else None


def _write_manifest(out_dir: Path, command: str, started: float, **payload: Any) -> None:
    """Write manifest.json: the command, its fields, versions and the wall time, as strict JSON."""
    payload.update(command=command, versions=_VERSIONS, wall_time_s=time.perf_counter() - started)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, allow_nan=False)
    (out_dir / "manifest.json").write_text(text + "\n")


def _config_error(args: argparse.Namespace, started: float, exc: Exception) -> int:
    _write_manifest(
        Path(args.out_dir), args.command, started, termination_reason="config-error", error=str(exc)
    )
    print(f"config error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nx, ny = text.lower().split("x")
        return int(nx), int(ny)
    except ValueError as exc:
        raise ConfigError("--grid", f"expected NXxNY, got {text!r}") from exc


def _parse_k_range(text: str) -> list[float]:
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise ConfigError("--k-range", f"expected START:STOP:STEP, got {text!r}") from exc
    if not (step > 0 and 0 < start <= stop < math.inf):
        raise ConfigError("--k-range", f"need step > 0 and 0 < start <= stop < inf, got {text!r}")
    out = []
    k = start
    while k <= stop + 1e-12:
        if len(out) == _MAX_GAINS:  # also stops a step too small to advance k
            raise ConfigError("--k-range", f"more than {_MAX_GAINS} gains in {text!r}")
        out.append(round(k, 12))
        k += step
    return out


def cmd_simulate(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    started = time.perf_counter()
    try:
        config = load_scenario(args.config)
        if args.k is not None:
            config = replace(config, k_gain=args.k)
        integ = config.integrator
        if args.dt is not None:
            integ = replace(integ, dt=args.dt)
        if args.t_max is not None:
            integ = replace(integ, t_max=args.t_max)
        config = replace(config, integrator=integ)
        if args.seed is not None:
            if config.initial.box is None:
                raise ConfigError("--seed", "the scenario has no random box to reseed")
            config = replace(
                config, initial=InitialSpec(seed=args.seed, box=config.initial.box)
            )
        scenario = resolve(config)
    except (ConfigError, ValueError) as exc:
        return _config_error(args, started, exc)

    result = simulate(
        scenario.plan,
        scenario.formation,
        scenario.initial_positions,
        scenario.config.integrator,
        k_gain=scenario.config.k_gain,
        kappa=scenario.config.kappa,
    )
    traj = result.trajectory
    n = scenario.plan.graph.n

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_trajectory(out_dir, traj)

    dist_err, area_err = traj.metrics[-1, :2].tolist()
    manifest: dict[str, Any] = {
        "config": config_to_dict(scenario.config),
        "termination_reason": result.reason,
        "t_final": result.t_final,
        "steps": result.steps,
        "final_max_dist_err": _finite_or_none(dist_err),
        "final_max_area_err": _finite_or_none(area_err),
        "outputs": ["trajectory.csv", "metrics.csv"],
    }
    if result.diverged_at is not None:
        manifest["diverged_at"] = result.diverged_at
    if n == 3 and result.reason == CONVERGED:
        manifest["terminal_equilibrium"] = _terminal_equilibrium(scenario, result.final_positions())
    _write_manifest(out_dir, "simulate", started, **manifest)
    print(f"{result.reason}: t={result.t_final:.3f} max_dist_err={dist_err:.3e} max_area_err={area_err:.3e}")
    return _REASON_EXIT[result.reason]


def _terminal_equilibrium(scenario, final: list[Position]) -> dict[str, Any]:
    """Label a converged 3-agent run against the pinned equilibrium catalogue.

    The triangle agent is the apex; its base is ordered so that the target
    has positive signed area, where the catalogue's correct apex lies.
    """
    (tri,) = scenario.plan.triangles
    base1, base2, apex = (final[i - 1] for i in (tri.base1, tri.base2, tri.agent))
    if scenario.formation.z_star_signs[tri.clique_index] < 0:
        base1, base2 = base2, base1
    d = scenario.formation.d_star
    # Checked before aligning: coincident base agents have no canonical frame.
    if abs(math.dist(base1.as_tuple(), base2.as_tuple()) - d) > 1e-6 * d:
        return {"matched": None, "detail": "base agents did not settle at d_star"}
    _, pk = align_to_pinned_frame(base1, base2, apex)
    try:
        eqs = enumerate_triangle_equilibria(0.5 * d, scenario.config.k_gain)
    except ValueError as exc:  # d_star beyond the catalogue's float range
        return {"matched": None, "detail": str(exc)}
    match = match_equilibrium(eqs, pk)
    if match is None:
        return {"matched": None, "detail": "no equilibrium within 1e-4"}
    return {
        "matched": match.family,
        "stability": match.stability,
        "in_target_set": match.family == FAMILY_APEX,
        "canonical_xy": [pk.x, pk.y],
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    started = time.perf_counter()
    try:
        gains: list[float] = list(args.k or [])
        if args.k_range:
            gains.extend(_parse_k_range(args.k_range))
        if args.exact_boundary:
            gains.append(K_LOW)
        if not gains:
            raise ConfigError("--k", "need at least one gain (--k, --k-range or --exact-boundary)")
        if args.a <= 0:
            raise ConfigError("--a", f"must be positive, got {args.a}")
        catalogue = [(k, classify_gain(k), enumerate_triangle_equilibria(args.a, k)) for k in gains]
    except (ConfigError, ValueError) as exc:
        return _config_error(args, started, exc)

    rows = []
    summary_rows = []
    for k, regime, eqs in catalogue:
        stable = sum(1 for e in eqs if e.stability == STABLE)
        summary_rows.append([k, regime.regime, int(regime.at_boundary), len(eqs), stable])
        for eq in eqs:
            lam2 = eq.eigenvalues[1] if len(eq.eigenvalues) > 1 else None
            rows.append(
                [
                    k,
                    regime.regime,
                    int(regime.at_boundary),
                    eq.family,
                    eq.position.x,
                    eq.position.y,
                    eq.eigenvalues[0],
                    lam2,
                    eq.stability,
                    eq.note,
                ]
            )
        print(f"K={k!r}: regime={regime.regime} equilibria={len(eqs)} stable={stable}")

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "equilibria.csv",
        ["k_gain", "regime", "at_boundary", "family", "x", "y", "lambda1", "lambda2", "stability", "note"],
        rows,
    )
    _write_csv(
        out_dir / "summary.csv",
        ["k_gain", "regime", "at_boundary", "n_equilibria", "n_stable"],
        summary_rows,
    )
    _write_manifest(
        out_dir,
        "analyze",
        started,
        a=args.a,
        gains=gains,
        termination_reason="ok",
        outputs=["equilibria.csv", "summary.csv"],
    )
    return EXIT_OK


def _basin_setup(args: argparse.Namespace, gains: list[float]):
    """Check every basin input; return the pinned triangle, grid, integrator and catalogues."""
    nx, ny = _parse_grid(args.grid)
    if nx * ny > _MAX_CELLS:
        raise ConfigError("--grid", f"more than {_MAX_CELLS} cells in {args.grid!r}")
    grid = GridSpec(nx=nx, ny=ny, xmin=args.xmin, xmax=args.xmax, ymin=args.ymin, ymax=args.ymax)
    cfg = IntegratorConfig(dt=args.dt, t_max=args.t_max)
    if args.jobs < 1:
        raise ConfigError("--jobs", f"need at least one worker, got {args.jobs}")
    scenario = resolve(make_builtin_scenario("triangle", k_gain=1.0, d_star=args.d_star))
    catalogues = [enumerate_triangle_equilibria(0.5 * args.d_star, k) for k in gains]
    return scenario, grid, cfg, catalogues


def _run_basin(
    scenario, k_gain: float, equilibria, grid: GridSpec, cfg: IntegratorConfig, jobs: int
) -> tuple[list[BasinCell], float | None]:
    """Probe every grid cell; return the cells and the correct fraction (None when empty)."""
    points = grid.points()
    jobs = min(jobs, os.cpu_count() or 1, len(points))
    worker = partial(probe_points, scenario.plan, scenario.formation, cfg, k_gain, equilibria)
    if jobs <= 1:
        cells = worker(points)
    else:
        chunk = (len(points) + jobs - 1) // jobs
        batches = [points[i : i + chunk] for i in range(0, len(points), chunk)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = [cell for batch in pool.map(worker, batches) for cell in batch]
    correct = sum(1 for c in cells if c.label == LABEL_CORRECT)
    return cells, (correct / len(cells) if cells else None)


def cmd_basin(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    started = time.perf_counter()
    try:
        if not args.k > 0:
            raise ConfigError("--k", f"need a positive gain, got {args.k}")
        scenario, grid, cfg, (equilibria,) = _basin_setup(args, [args.k])
    except (ConfigError, ValueError) as exc:
        return _config_error(args, started, exc)

    cells, fraction = _run_basin(scenario, args.k, equilibria, grid, cfg, args.jobs)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "basin.csv", [f.name for f in fields(BasinCell)], map(astuple, cells))
    _write_manifest(
        out_dir,
        "basin",
        started,
        k_gain=args.k,
        d_star=args.d_star,
        grid=[grid.nx, grid.ny, grid.xmin, grid.xmax, grid.ymin, grid.ymax],
        cells=len(cells),
        fraction_correct=fraction,
        termination_reason="ok",
        outputs=["basin.csv"],
    )
    print(f"fraction_correct={fraction!r}")
    return EXIT_OK


def cmd_sweep_gain(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    started = time.perf_counter()
    try:
        gains = _parse_k_range(args.k_range)
        scenario, grid, cfg, catalogues = _basin_setup(args, gains)
    except (ConfigError, ValueError) as exc:
        return _config_error(args, started, exc)

    rows = []
    for k, eqs in zip(gains, catalogues):
        regime = classify_gain(k).regime
        stable = sum(1 for e in eqs if e.stability == STABLE)
        _, fraction = _run_basin(scenario, k, eqs, grid, cfg, args.jobs)
        rows.append([k, regime, len(eqs), stable, fraction])
        print(
            f"K={k!r}: regime={regime} equilibria={len(eqs)} stable={stable} "
            f"fraction_correct={fraction!r}"
        )

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "sweep.csv",
        ["k_gain", "regime", "n_equilibria", "n_stable", "fraction_correct"],
        rows,
    )
    _write_manifest(
        out_dir,
        "sweep-gain",
        started,
        d_star=args.d_star,
        gains=gains,
        termination_reason="ok",
        outputs=["sweep.csv"],
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ConfigError instead of exiting with 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError("usage", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="triform",
        description="Formation shape control on triangulated graphs with signed-area flip avoidance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate one scenario file")
    sim.add_argument("--config", required=True, help="scenario JSON document")
    sim.add_argument("--out-dir", default="out", help="artifact directory")
    sim.add_argument("--k", type=float, default=None, help="override the area gain")
    sim.add_argument("--dt", type=float, default=None, help="override the time step")
    sim.add_argument("--t-max", type=float, default=None, help="override the time budget")
    sim.add_argument("--seed", type=int, default=None, help="override the random-layout seed")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="closed-form equilibrium report over gains")
    ana.add_argument("--a", type=float, default=1.0, help="half pin distance")
    ana.add_argument("--k", type=float, action="append", help="gain to analyze (repeatable)")
    ana.add_argument("--k-range", default=None, help="START:STOP:STEP sweep of gains")
    ana.add_argument(
        "--exact-boundary",
        action="store_true",
        help="include the stability-exchange gain 2*sqrt(3)-2 exactly",
    )
    ana.add_argument("--out-dir", default="out", help="artifact directory")
    ana.set_defaults(func=cmd_analyze)

    grid_run = _Parser(add_help=False)
    grid_run.add_argument("--d-star", type=float, default=2.0, help="desired edge length")
    grid_run.add_argument("--xmin", type=float, default=-3.0)
    grid_run.add_argument("--xmax", type=float, default=3.0)
    grid_run.add_argument("--ymin", type=float, default=-3.0)
    grid_run.add_argument("--ymax", type=float, default=3.0)
    grid_run.add_argument("--dt", type=float, default=1e-3)
    grid_run.add_argument("--t-max", type=float, default=50.0)
    grid_run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    grid_run.add_argument("--out-dir", default="out", help="artifact directory")

    bas = sub.add_parser(
        "basin", parents=[grid_run], help="terminal-equilibrium labels over an initial grid"
    )
    bas.add_argument("--k", type=float, required=True, help="area gain")
    bas.add_argument("--grid", default="9x9", help="grid size NXxNY")
    bas.set_defaults(func=cmd_basin)

    swp = sub.add_parser(
        "sweep-gain", parents=[grid_run], help="regime table plus basin fractions over a gain range"
    )
    swp.add_argument("--k-range", required=True, help="START:STOP:STEP sweep of gains")
    swp.add_argument("--grid", default="5x5", help="grid size NXxNY")
    swp.set_defaults(func=cmd_sweep_gain)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        # A usage error writes its manifest into the --out-dir the command
        # line names, or the default one, under the command word it gives.
        pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
        pre.add_argument("--out-dir", default="out")
        try:
            out_dir = pre.parse_known_args(argv)[0].out_dir
        except argparse.ArgumentError:
            out_dir = "out"
        command = argv[0] if argv and not argv[0].startswith("-") else None
        return _config_error(argparse.Namespace(out_dir=out_dir, command=command), started, exc)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
