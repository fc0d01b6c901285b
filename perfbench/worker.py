"""One benchmark run of one workload, in its own process.

Started by run.py from the root of a source checkout.  It generates the
workload's inputs from the seed, then runs operations in a closed loop, one
at a time: each operation is one ``triform.cli.main(argv)`` call in this
process.  Every output is checked.  Prints one JSON object as the last line
of standard output; run.py adds the process's peak memory.

Untraced (--trace 0): times set-up and operations; reports end-to-end metrics.
Traced (--trace 1): alternates untraced and traced passes over the inputs and
reports per-layer metrics; spans go to .perfbench_out/spans-<workload>.json
when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import triform.cli as tcli  # noqa: E402
from triform.graph import formation_errors  # noqa: E402
from triform.hierarchy import target_positions  # noqa: E402
from triform.scenario import builtin_graph, load_scenario  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads as gen  # noqa: E402

OUT_ROOT = ROOT / ".perfbench_out"
ERR_TOL = 1e-4
CSV_OUTPUTS = ("trajectory.csv", "metrics.csv", "basin.csv")
SETUP_SLICE_S = 0.05
CHUNK_BYTES = 1 << 16
# On a shared 2-core host the CPU speed drifts by up to 2x within seconds and
# by ~20% between runs minutes apart, which swamps medians of raw wall times.
# End-to-end times are divided by the time of a fixed pure-Python loop measured
# around them and multiplied by REF_NOMINAL_S (about that loop's time on a
# 2.0 GHz Xeon core under Python 3.11), so they read as seconds at one fixed
# host speed.  Ten runs then agree to a few percent instead of 15-25%.  The
# loop walks a list of floats with a working set of about 0.6 MB: it then slows
# down under cache contention from other processes as the 469-agent field
# kernel does, which a loop over a few registers does not.
REF_FLOATS = [float(i) for i in range(20_000)]
REF_NOMINAL_S = 1.1e-3


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def read_manifest(out_dir: Path) -> dict:
    """manifest.json parsed strictly: NaN and Infinity are errors."""
    return json.loads((out_dir / "manifest.json").read_text(), parse_constant=_reject_constant)


def csv_bytes(out_dir: Path) -> int:
    return sum((out_dir / name).stat().st_size for name in CSV_OUTPUTS if (out_dir / name).exists())


def scan_lines(path: Path, digest=None) -> tuple[int, bytes]:
    """Line count and last line of a file, read in chunks so the check's own
    memory stays small; feeds every chunk to ``digest`` when one is given."""
    lines, tail = 0, b""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(CHUNK_BYTES), b""):
            lines += chunk.count(b"\n")
            if digest is not None:
                digest.update(chunk)
            tail += chunk
            # Keep the last complete line and whatever follows it.
            cut = tail.rfind(b"\n", 0, len(tail) - 1)
            if cut >= 0:
                tail = tail[cut + 1:]
    return lines, tail.rstrip(b"\n")


class SimulateInput:
    """A ``simulate`` command on one scenario file."""

    def __init__(self, key: str, path: Path, dense: bool = False, lattice=None):
        self.key = key
        self.path = path
        self.argv = ["simulate", "--config", str(path)]
        self.dense = dense
        self.digest: str | None = None
        self.lattice = lattice
        config = load_scenario(path)
        graph = builtin_graph(config.graph) if isinstance(config.graph, str) else config.graph
        self.cliques = graph.cliques
        self.signs = config.z_star_signs or (1,) * len(graph.cliques)

    def setup(self):
        # The calls `simulate` makes before it integrates.
        return tcli.resolve(tcli.load_scenario(self.path))

    def verify_setup(self, scenario) -> list[str]:
        """Check that the generated lattice is the program's own target."""
        if self.lattice is None:
            return []
        target = target_positions(scenario.plan, scenario.formation)
        problems = []
        if max(formation_errors(scenario.formation, target)) > 1e-9:
            problems.append(f"{self.key}: target_positions does not realise the formation")
        if max(max(abs(p.x - x), abs(p.y - y)) for p, (x, y) in zip(target, self.lattice)) > 1e-9:
            problems.append(f"{self.key}: target_positions differs from the generated lattice")
        return problems

    def check(self, out_dir: Path, rc: int) -> tuple[list[str], dict, int]:
        problems = []
        manifest = read_manifest(out_dir)
        reason = manifest["termination_reason"]
        steps = manifest["steps"]
        if rc != 0 or reason != "converged":
            problems.append(f"exit {rc}, {reason}")
        for name in ("final_max_dist_err", "final_max_area_err"):
            if not manifest[name] < ERR_TOL:
                problems.append(f"{name}={manifest[name]}")
        digest = hashlib.sha256() if self.dense else None
        lines, last_line = scan_lines(out_dir / "trajectory.csv", digest)
        rows = lines - 1
        xy = [float(v) for v in last_line.split(b",")][1:-3]
        for (i, j, k), sign in zip(self.cliques, self.signs):
            xi, yi, xj, yj, xk, yk = (xy[2 * (a - 1) + c] for a in (i, j, k) for c in (0, 1))
            z = 0.5 * ((xj - xi) * (yk - yi) - (xk - xi) * (yj - yi))
            if z * sign <= 0:
                problems.append(f"clique {(i, j, k)} flipped (signed area {z})")
                break
        if self.dense:
            if rows != steps + 1:
                problems.append(f"{rows} trajectory rows for {steps} steps")
            scan_lines(out_dir / "metrics.csv", digest)
            if self.digest is not None and digest.hexdigest() != self.digest:
                problems.append("CSV outputs differ from an earlier run of the same input")
            self.digest = digest.hexdigest()
        counts = {"steps": steps, "samples": rows, "reasons": {reason: 1}, "bytes": csv_bytes(out_dir)}
        return problems, counts, steps


class BasinInput:
    """A ``basin`` command at one gain over the seeded window."""

    def __init__(self, key: str, k_gain: float, mirror, window, setup_path: Path):
        self.key = key
        self.mirror = mirror
        self.setup_path = setup_path
        xmin, xmax, ymin, ymax = window
        self.argv = [
            "basin", "--k", repr(k_gain), "--grid", gen.BASIN_GRID, "--jobs", "1",
            "--xmin", repr(xmin), "--xmax", repr(xmax), "--ymin", repr(ymin), "--ymax", repr(ymax),
        ]

    def setup(self):
        config = tcli.load_scenario(self.setup_path)
        scenario = tcli.resolve(config)
        tcli.enumerate_triangle_equilibria(0.5 * config.d_star, config.k_gain)
        return scenario

    def verify_setup(self, scenario) -> list[str]:
        return []

    def check(self, out_dir: Path, rc: int) -> tuple[list[str], dict, int]:
        problems = []
        manifest = read_manifest(out_dir)
        nx, ny = (int(v) for v in gen.BASIN_GRID.split("x"))
        if rc != 0 or manifest["cells"] != nx * ny:
            problems.append(f"exit {rc}, {manifest['cells']} cells")
        with open(out_dir / "basin.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        label = {(int(r["ix"]), int(r["iy"])): r["label"] for r in rows}
        if any(label.get((nx - 1 - ix, iy)) != lab for (ix, iy), lab in label.items()):
            problems.append("labels are not mirror-symmetric in x")
        if self.mirror is None and manifest["fraction_correct"] != 1.0:
            problems.append(f"fraction_correct={manifest['fraction_correct']} in the global regime")
        for r in rows:
            if r["label"] != "incorrect":
                continue
            if self.mirror is None or math.dist(
                (float(r["x_final"]), float(r["y_final"])), self.mirror
            ) > ERR_TOL:
                problems.append(f"incorrect cell ({r['ix']}, {r['iy']}) is off the mirror point")
                break
        counts = {
            "labels": _tally(r["label"] for r in rows),
            "reasons": _tally(r["reason"] for r in rows),
            "bytes": csv_bytes(out_dir),
        }
        return problems, counts, len(rows)


def _tally(values) -> dict[str, int]:
    return dict(sorted(Counter(values).items()))


def make_inputs(workload: str, seed: int, scratch: Path) -> tuple[list, int]:
    """The workload's inputs and how many passes over them a run needs at least."""
    if workload in ("paper10", "paper10-dense"):
        dense = workload == "paper10-dense"
        paths = gen.paper10_scenarios(seed, 3 if dense else 7, 1 if dense else 100, scratch)
        # Dense runs repeat every input once so the byte-identity check has a pair.
        return [SimulateInput(p.stem, p, dense=dense) for p in paths], 2 if dense else 1
    if workload == "basin":
        window = gen.basin_window(seed)
        return [
            BasinInput(f"basin-k{k:g}", k, mirror, window, gen.basin_setup_scenario(k, scratch))
            for k, mirror in gen.BASIN_GAINS
        ], 1
    if workload == "scale":
        path, lattice = gen.hex_scenario(seed, scratch)
        return [SimulateInput(path.stem, path, lattice=lattice)], 1
    raise SystemExit(f"unknown workload {workload!r}")


class Run:
    """Per-run bookkeeping: operation outcomes and per-input counts."""

    def __init__(self, scratch: Path):
        self.out_dir = scratch / "op"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict[str, dict] = {}

    def record_counts(self, key: str, counts: dict) -> None:
        """Merge an operation's counts; any value that differs is drift."""
        seen = self.counts.setdefault(key, {})
        for name, value in counts.items():
            if name in seen and seen[name] != value:
                self.problems.append(f"count drift on {key}: {name} {seen[name]} -> {value}")
            seen[name] = value

    def operate(self, inp, around=contextlib.nullcontext) -> tuple[float, int, dict] | None:
        """One CLI command, timed inside ``around()``, then checked.  None when it fails."""
        self.attempted += 1
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = [*inp.argv, "--out-dir", str(self.out_dir)]
        # Free the garbage of earlier work first, so every command starts from
        # the same heap and the peak memory is the command's own.
        gc.collect()
        try:
            with contextlib.redirect_stdout(io.StringIO()), around():
                t0 = perf_counter()
                rc = tcli.main(argv)
                wall = perf_counter() - t0
            problems, counts, work = inp.check(self.out_dir, rc)
        except (Exception, SystemExit):
            traceback.print_exc()
            problems, counts, work, wall = ["raised"], {}, 0, 0.0
        if problems:
            self.failed += 1
            print(f"{inp.key}: {'; '.join(problems)}", file=sys.stderr)
            return None
        return wall, work, counts

    def time_setup(self, inp) -> list[float]:
        """Repeat the input's set-up calls for SETUP_SLICE_S (at least once)."""
        times = []
        started = perf_counter()
        while not times or perf_counter() - started < SETUP_SLICE_S:
            t0 = perf_counter()
            inp.setup()
            times.append(perf_counter() - t0)
        return times

    def nominal_operate(self, inp, before: float) -> tuple[float, int] | None:
        """One untraced operation after the reference timing ``before``: its
        wall time at the nominal host speed and its work, with its counts
        recorded.  None when it fails."""
        outcome = self.operate(inp)
        scale = nominal_scale(before)
        if outcome is None:
            return None
        wall, work, counts = outcome
        self.record_counts(inp.key, counts)
        return wall * scale, work


def reference_time() -> float:
    """Median of five timings of a fixed pure-Python loop: the host's speed now."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        total = 0.0
        for x in REF_FLOATS:
            total += (x * 0.5) * (x - 3.0)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def nominal_scale(before: float) -> float:
    """Factor turning a wall time that began after the reference timing
    ``before`` and ends now into seconds at the nominal host speed."""
    return REF_NOMINAL_S / (0.5 * (before + reference_time()))


def per_input_median(samples: dict[str, list[float]]) -> float:
    """Median of each input's samples, then the median over inputs."""
    return statistics.median(statistics.median(v) for v in samples.values())


def measure(run: Run, inputs: list, min_passes: int, seconds: float) -> dict:
    """End-to-end metrics from whole passes over the inputs until ``seconds``
    have passed.  Each operation is preceded by a slice of set-up timing and
    bracketed by reference timings, which rescale both to the nominal speed."""
    setup, walls, rates = {}, {}, {}
    t0 = perf_counter()
    passes = 0
    while passes < min_passes or perf_counter() - t0 < seconds:
        for inp in inputs:
            before = reference_time()
            setup.setdefault(inp.key, []).extend(
                t * REF_NOMINAL_S / before for t in run.time_setup(inp)
            )
            outcome = run.nominal_operate(inp, before)
            if outcome is not None:
                wall, work = outcome
                walls.setdefault(inp.key, []).append(wall)
                rates.setdefault(inp.key, []).append(work / wall)
        passes += 1
    if not walls:
        return {}
    return {
        "wall_s": (per_input_median(walls), "s"),
        "setup_s": (per_input_median(setup), "s"),
        "work_per_s": (per_input_median(rates), "1/s"),
    }


def measure_traced(run: Run, inputs: list, min_passes: int, seconds: float, spans_path: Path, **header) -> dict:
    """Per-layer metrics: untraced and traced passes alternate.  A traced
    operation is the CLI command alone, so every span is the program's."""
    tr = tracing.Tracer()
    plain, traced = {}, {}
    cli_bytes = 0
    t0 = perf_counter()
    passes = 0
    while passes < min_passes or perf_counter() - t0 < seconds:
        for inp in inputs:
            outcome = run.nominal_operate(inp, reference_time())
            if outcome is not None:
                plain.setdefault(inp.key, []).append(outcome[0])
        for inp in inputs:
            first = len(tr.spans)
            with tr.patched():
                before = reference_time()
                outcome = run.operate(inp, lambda: tr.span("cli.main"))
                scale = nominal_scale(before)
            if outcome is not None:
                traced.setdefault(inp.key, []).append(outcome[0] * scale)
                cli_bytes += outcome[2]["bytes"]
                run.record_counts(inp.key, {**outcome[2], **_span_counts(tr.spans[first:])})
        passes += 1
    tr.write(spans_path, **header)
    if not traced or not plain:
        return {}
    ops = sum(len(v) for v in traced.values())
    return _layer_metrics(tr.spans, ops, cli_bytes, per_input_median(traced) - per_input_median(plain))


def _span_counts(spans) -> dict:
    """The counts of one traced operation that must repeat exactly."""
    sims = [sp for sp in spans if sp.name == "dynamics.simulate"]
    return {
        "field_evals": sum(sp.field_evals for sp in spans),
        "steps": sum(sp.attrs["steps"] for sp in sims),
        "samples": sum(sp.attrs["samples"] for sp in sims),
        "reasons": _tally(sp.attrs["reason"] for sp in sims),
    }


def _layer_metrics(spans, ops: int, cli_bytes: int, overhead: float) -> dict:
    own = tracing.self_times(spans)
    by_name: dict[str, list] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    sims = by_name.get("dynamics.simulate", [])
    probes = by_name.get("dynamics.probe_points", [])
    evals = sum(sp.field_evals for sp in spans)
    field_s = sum(sp.field_s for sp in spans)
    reasons = _tally(sp.attrs["reason"] for sp in sims)
    if probes:
        unresolved = sum(sp.attrs["unresolved"] for sp in probes) / sum(sp.attrs["cells"] for sp in probes)
    else:
        unresolved = (len(sims) - reasons.get("converged", 0)) / len(sims)

    def per_op(value, unit):
        return (value / ops, unit)

    return {
        "scenario.load_s": per_op(own.get("scenario.load", 0.0), "s"),
        "scenario.resolve_s": per_op(own.get("scenario.resolve", 0.0), "s"),
        "graph.validate_s": per_op(own.get("graph.validate", 0.0), "s"),
        "hierarchy.build_s": per_op(own.get("hierarchy.build", 0.0), "s"),
        "hierarchy.compile_s": per_op(own.get("hierarchy.compile", 0.0), "s"),
        "hierarchy.field_evals": per_op(evals, "count"),
        "hierarchy.field_s": per_op(field_s, "s"),
        "hierarchy.field_us_per_eval": (1e6 * field_s / evals, "us"),
        "dynamics.simulate_calls": per_op(len(sims), "count"),
        "dynamics.steps": per_op(sum(sp.attrs["steps"] for sp in sims), "count"),
        "dynamics.converged": per_op(reasons.get("converged", 0), "count"),
        "dynamics.timeout": per_op(reasons.get("timeout", 0), "count"),
        "dynamics.diverged": per_op(reasons.get("diverged", 0), "count"),
        "dynamics.self_s": per_op(own.get("dynamics.simulate", 0.0), "s"),
        "dynamics.unresolved_ratio": (unresolved, "ratio"),
        "dynamics.samples": per_op(sum(sp.attrs["samples"] for sp in sims), "count"),
        "graph.formation_errors_calls": per_op(len(by_name.get("graph.formation_errors", [])), "count"),
        "graph.formation_errors_s": per_op(own.get("graph.formation_errors", 0.0), "s"),
        "cli.write_s": per_op(own.get("cli.main", 0.0), "s"),
        "cli.bytes_written": per_op(cli_bytes, "bytes"),
        "analysis.catalogue_calls": per_op(len(by_name.get("analysis.catalogue", [])), "count"),
        "analysis.catalogue_s": per_op(own.get("analysis.catalogue", 0.0), "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "triform").glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_against_earlier_runs(run: Run, workload: str, seed: int) -> None:
    """Counts must repeat across runs of the same code, workload and seed."""
    path = OUT_ROOT / "counts" / f"{workload}-seed{seed}-{source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        for key, counts in earlier.items():
            for name, value in counts.items():
                now = run.counts.get(key, {}).get(name, value)
                if now != value:
                    run.problems.append(f"count drift on {key} since an earlier run: {name} {value} -> {now}")
        for key, counts in run.counts.items():
            earlier.setdefault(key, {}).update(counts)
    else:
        earlier = run.counts
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(earlier, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    scratch = OUT_ROOT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        inputs, min_passes = make_inputs(args.workload, args.seed, scratch)
        run = Run(scratch)
        for inp in inputs:
            run.problems.extend(inp.verify_setup(inp.setup()))
        if args.trace:
            # One span file per workload, overwritten by its next traced run.
            spans_path = OUT_ROOT / f"spans-{args.workload}.json"
            metrics = measure_traced(run, inputs, min_passes, args.seconds, spans_path,
                                     workload=args.workload, seed=args.seed)
        else:
            metrics = measure(run, inputs, min_passes, args.seconds)
        check_against_earlier_runs(run, args.workload, args.seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in run.problems:
        print(problem, file=sys.stderr)
    result = {
        "correct": run.failed == 0 and not run.problems and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
