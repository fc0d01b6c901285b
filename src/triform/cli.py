"""Command-line front end: simulate, analyze, basin, sweep-gain.

``main`` writes every run's manifest.json naming the termination reason, even
when the configuration or the command line is rejected.  Exit codes:
0 converged/ok, 2 timeout, 3 diverged, 64 configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, astuple, fields, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .analysis import K_LOW, STABLE, classify_gain, enumerate_triangle_equilibria, terminal_equilibrium
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
from .geometry import require_positive
# formation_errors is unused here, but kept: perfbench/tracer.py patches this
# attribute, and test_tracer_call_sites_resolve checks that it exists.
from .graph import _BLOCK_VALUES, formation_errors
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

# A command checks its inputs and returns its run: called with the created
# output directory, it writes the outputs and returns (exit code, manifest fields).
Run = Callable[[Path], tuple[int, dict[str, Any]]]


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write one CSV; None is written as an empty field."""
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join("" if v is None else str(v) for v in row) + "\n")


def _write_trajectory(out_dir: Path, traj: Trajectory) -> None:
    """Write trajectory.csv and metrics.csv, one row per recorded sample.

    Each sample's time and metric fields are formatted once and shared by
    both files; floats are written as their repr.  Rows are converted in
    blocks of ``_BLOCK_VALUES`` values, so memory stays bounded.
    """
    samples, n, _ = traj.states.shape
    coords = [f"{axis}_{i}" for i in range(1, n + 1) for axis in "xy"]
    errors = ["max_dist_err", "max_area_err", "max_u_norm"]
    states = traj.states.reshape(samples, 2 * n)
    size = max(1, _BLOCK_VALUES // (2 * n + 4))  # rows per block: t, 2n coordinates, 3 metrics
    with (out_dir / "trajectory.csv").open("w") as traj_f, (out_dir / "metrics.csv").open("w") as met_f:
        traj_f.write(",".join(["t", *coords, *errors]) + "\n")
        met_f.write(",".join(["t", *errors]) + "\n")
        for b in range(0, samples, size):
            block = (traj.times[b : b + size], states[b : b + size], traj.metrics[b : b + size])
            for t, state, metric in zip(*(a.tolist() for a in block)):
                head = repr(t)
                tail = ",".join(map(repr, metric))
                traj_f.write(f"{head},{','.join(map(repr, state))},{tail}\n")
                met_f.write(f"{head},{tail}\n")


def _finite_or_none(value: float) -> float | None:
    """Strict JSON has no inf or NaN; such values are written as null."""
    return value if math.isfinite(value) else None


def _write_manifest(out_dir: Path, command: str | None, started: float, **payload: Any) -> None:
    """Write manifest.json: the command, its fields, versions and the wall time, as strict JSON."""
    payload.update(command=command, versions=_VERSIONS, wall_time_s=time.perf_counter() - started)
    text = json.dumps(payload, sort_keys=True, allow_nan=False)
    (out_dir / "manifest.json").write_text(text + "\n")


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
    if start == stop:  # one gain, however small the step (one that cannot advance k too)
        return [float(f"{start:.12g}")]
    out = []
    k = start
    # Slack and rounding are relative: an absolute 1e-12 would round gains
    # below it to 0 and let them run past STOP.
    while k <= stop * (1 + 1e-12):
        if len(out) == _MAX_GAINS:  # also stops a step too small to advance k
            raise ConfigError("--k-range", f"more than {_MAX_GAINS} gains in {text!r}")
        out.append(float(f"{k:.12g}"))
        k += step
    return out


def _integrator(base: IntegratorConfig, args: argparse.Namespace) -> IntegratorConfig:
    """``base`` with the --dt and --t-max given on the command line, checked together
    and refused under the flags given."""
    given = {k: v for k, v in dict(dt=args.dt, t_max=args.t_max).items() if v is not None}
    try:
        return replace(base, **given)
    except ValueError as exc:
        raise ConfigError(" and ".join("--" + k.replace("_", "-") for k in given), str(exc)) from exc


def cmd_simulate(args: argparse.Namespace) -> Run:
    config = load_scenario(args.config)
    if args.k is not None:
        config = replace(config, k_gain=args.k)
    config = replace(config, integrator=_integrator(config.integrator, args))
    if args.seed is not None:
        if config.initial.box is None:
            raise ConfigError("--seed", "the scenario has no random box to reseed")
        config = replace(config, initial=InitialSpec(seed=args.seed, box=config.initial.box))
    scenario = resolve(config)

    def run(out_dir: Path) -> tuple[int, dict[str, Any]]:
        started = time.perf_counter()
        result = simulate(
            scenario.plan,
            scenario.formation,
            scenario.initial_positions,
            scenario.config.integrator,
            k_gain=scenario.config.k_gain,
            kappa=scenario.config.kappa,
        )
        seconds = time.perf_counter() - started
        traj = result.trajectory
        _write_trajectory(out_dir, traj)
        dist_err, area_err = traj.metrics[-1, :2].tolist()
        manifest: dict[str, Any] = {
            "config": config_to_dict(scenario.config),
            "termination_reason": result.reason,
            "t_final": result.t_final,
            "steps": result.steps,
            "field_evals": result.field_evals,
            "steps_per_s": result.steps / seconds,
            "final_max_dist_err": _finite_or_none(dist_err),
            "final_max_area_err": _finite_or_none(area_err),
            "outputs": ["trajectory.csv", "metrics.csv"],
        }
        if result.diverged_at is not None:
            manifest["diverged_at"] = result.diverged_at
        if result.reason == CONVERGED and scenario.plan.triangles:
            verdict = terminal_equilibrium(scenario.plan, scenario.formation, config.k_gain, result.final_positions())
            manifest["terminal_equilibrium"] = verdict
        print(f"{result.reason}: t={result.t_final:.3f} max_dist_err={dist_err:.3e} max_area_err={area_err:.3e}")
        return _REASON_EXIT[result.reason], manifest

    return run


def cmd_analyze(args: argparse.Namespace) -> Run:
    gains: list[float] = list(args.k or [])
    if args.k_range:
        gains.extend(_parse_k_range(args.k_range))
    if args.exact_boundary:
        gains.append(K_LOW)
    if not gains:
        raise ConfigError("--k", "need at least one gain (--k, --k-range or --exact-boundary)")
    catalogue = [(k, classify_gain(k), enumerate_triangle_equilibria(args.a, k)) for k in gains]

    def run(out_dir: Path) -> tuple[int, dict[str, Any]]:
        rows = []
        summary_rows = []
        for k, regime, eqs in catalogue:
            stable = sum(1 for e in eqs if e.stability == STABLE)
            head = [k, regime.regime, int(regime.at_boundary)]
            summary_rows.append([*head, len(eqs), stable])
            for eq in eqs:
                lam1, lam2 = eq.eigenvalues  # every triangle entry carries both
                rows.append([*head, eq.family, eq.position.x, eq.position.y, lam1, lam2, eq.stability, eq.note])
            print(f"K={k!r}: regime={regime.regime} equilibria={len(eqs)} stable={stable}")
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
        return EXIT_OK, dict(
            a=args.a, gains=gains, termination_reason="ok", outputs=["equilibria.csv", "summary.csv"]
        )

    return run


def _basin_setup(args: argparse.Namespace, gains: list[float]):
    """Check every basin input; return the pinned triangle, grid, integrator and catalogues."""
    nx, ny = _parse_grid(args.grid)
    if nx * ny > _MAX_CELLS:
        raise ConfigError("--grid", f"more than {_MAX_CELLS} cells in {args.grid!r}")
    grid = GridSpec(nx=nx, ny=ny, xmin=args.xmin, xmax=args.xmax, ymin=args.ymin, ymax=args.ymax)
    cfg = _integrator(IntegratorConfig(), args)
    if args.jobs < 1:
        raise ConfigError("--jobs", f"need at least one worker, got {args.jobs}")
    scenario = resolve(make_builtin_scenario("triangle", k_gain=1.0, d_star=args.d_star))
    catalogues = [enumerate_triangle_equilibria(0.5 * args.d_star, k) for k in gains]
    return scenario, grid, cfg, catalogues


def ProcessPoolExecutor(max_workers: int):
    """The process pool, imported on first use: its imports add about 1.1 MB to a process."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def _run_basin(
    scenario, gains: Sequence[float], grid: GridSpec, cfg: IntegratorConfig, jobs: int
) -> Iterator[tuple[list[BasinCell], float | None]]:
    """Probe every grid cell at every gain through one pool of at most ``jobs`` workers;
    yield each gain's cells and correct fraction (None when empty) as they arrive."""
    points = grid.points()
    jobs = min(jobs, os.cpu_count() or 1, len(points))
    chunk = (len(points) + jobs - 1) // jobs if jobs else 1
    batches = [points[i : i + chunk] for i in range(0, len(points), chunk)]
    worker = partial(probe_points, scenario.plan, scenario.formation, cfg)
    tasks = [k for k in gains for _ in batches], batches * len(gains)
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        done = (pool.map if pool else map)(worker, *tasks)
        for _ in gains:  # zip takes a batch first, so it stops before the next gain's results
            cells = [cell for _, batch in zip(batches, done) for cell in batch]
            correct = sum(1 for c in cells if c.label == LABEL_CORRECT)
            yield cells, (correct / len(cells) if cells else None)


def cmd_basin(args: argparse.Namespace) -> Run:
    scenario, grid, cfg, _ = _basin_setup(args, [args.k])

    def run(out_dir: Path) -> tuple[int, dict[str, Any]]:
        [(cells, fraction)] = _run_basin(scenario, [args.k], grid, cfg, args.jobs)
        _write_csv(out_dir / "basin.csv", [f.name for f in fields(BasinCell)], map(astuple, cells))
        print(f"fraction_correct={fraction!r}")
        return EXIT_OK, dict(
            k_gain=args.k,
            d_star=args.d_star,
            grid=[grid.nx, grid.ny, grid.xmin, grid.xmax, grid.ymin, grid.ymax],
            integrator=asdict(cfg),
            cells=len(cells),
            fraction_correct=fraction,
            termination_reason="ok",
            outputs=["basin.csv"],
        )

    return run


def cmd_sweep_gain(args: argparse.Namespace) -> Run:
    gains = _parse_k_range(args.k_range)
    scenario, grid, cfg, catalogues = _basin_setup(args, gains)

    def run(out_dir: Path) -> tuple[int, dict[str, Any]]:
        rows = []
        basins = _run_basin(scenario, gains, grid, cfg, args.jobs)
        for (_, fraction), k, eqs in zip(basins, gains, catalogues):  # the pool closes as basins ends
            regime = classify_gain(k).regime
            stable = sum(1 for e in eqs if e.stability == STABLE)
            rows.append([k, regime, len(eqs), stable, fraction])
            print(
                f"K={k!r}: regime={regime} equilibria={len(eqs)} stable={stable} "
                f"fraction_correct={fraction!r}"
            )
        _write_csv(
            out_dir / "sweep.csv",
            ["k_gain", "regime", "n_equilibria", "n_stable", "fraction_correct"],
            rows,
        )
        return EXIT_OK, dict(
            d_star=args.d_star, gains=gains, integrator=asdict(cfg), termination_reason="ok", outputs=["sweep.csv"]
        )

    return run


class _Parser(argparse.ArgumentParser):
    """Argument parser that reads -3e-3 as a number and raises ConfigError on usage errors."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

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
    grid_run.add_argument("--dt", type=float, default=None, help="time step (default: the integrator's)")
    grid_run.add_argument("--t-max", type=float, default=None, help="time budget (default: the integrator's)")
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
    """Run one command: write its outputs and manifest.json, return its exit code.

    A usage error or an input that the command's checks reject exits 64 with
    a config-error manifest.  Only parsing and those checks are caught: an
    exception raised while the command runs propagates as a traceback.
    """
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else list(argv)
    out_dir = run = None
    try:
        args = build_parser().parse_args(argv)
        command, out_dir = args.command, args.out_dir
        for flag in ("k", "a", "d_star", "dt", "t_max"):  # each refused under the flag's own name
            values = getattr(args, flag, None)  # analyze's --k is a list
            for value in values if isinstance(values, list) else [] if values is None else [values]:
                require_positive("--" + flag.replace("_", "-"), value)
        run = args.func(args)
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        code, payload = EXIT_CONFIG, {"termination_reason": "config-error", "error": str(exc)}
        if out_dir is None:
            # A usage error writes its manifest into the --out-dir the command
            # line names, or the default one, under the command word it gives.
            command = argv[0] if argv and not argv[0].startswith("-") else None
            pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
            pre.add_argument("--out-dir", default="out")
            try:
                out_dir = pre.parse_known_args(argv)[0].out_dir
            except argparse.ArgumentError:
                out_dir = "out"
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if run is not None:
        code, payload = run(out_dir)
    _write_manifest(out_dir, command, started, **payload)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
