"""Run the benchmark over several seeds and summarise it as JSON.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/baseline.json

Runs run.py for BENCHMARK.json's run_seconds once per (workload, seed)
untraced and, with --traced, once traced per workload on the first seed.
For every end-to-end metric it reports the median, the quartiles and the
spread (interquartile distance over the median) across seeds, and it records
the host's CPU count and the Python and numpy versions.  Use it for
before/after comparisons on one machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="A-B or a comma list")
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", default=None, help="write the summary here as well")
    args = ap.parse_args(argv)

    import numpy

    seeds = parse_seeds(args.seeds)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    summary: dict = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "machine": platform.machine()},
        "seeds": seeds,
        "run_seconds": seconds,
        "workloads": {},
    }
    ok = True
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry: dict = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                name: summarise([r["metrics"][name]["value"] for r in runs])
                for name in runs[0]["metrics"]
            },
        }
        if args.traced:
            traced = run_once(workload, seeds[0], seconds, 1)
            entry["traced_correct"] = traced["correct"]
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        ok = ok and entry["correct"] and entry.get("traced_correct", True)
        summary["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            print(f"{workload:14s} {name:12s} median {stats['median']:.6g} spread {stats['spread']:.3f}",
                  file=sys.stderr)
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
