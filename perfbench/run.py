"""Benchmark of the triform CLI: one workload per invocation.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper10 --seed 1 --seconds 10 --trace 0

The workload runs in a fresh child process (worker.py), which imports the
package from ./src and calls ``triform.cli.main`` in a closed loop.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  Exits non-zero, without
a result line, when the child fails or the checkout has no triform sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper10", "paper10-dense", "basin", "scale")
# Every run has to end within 180 s; leave room to kill and reap the child.
CHILD_TIMEOUT_S = 170.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="triform CLI benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/triform/cli.py", "scenarios") if not (ROOT / p).exists()]
    if missing:
        print(f"not a triform checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    # A fixed hash seed gives every run the same set and dict layouts, so
    # set-up times do not jump between per-process modes.  A fixed mmap
    # threshold keeps glibc from raising it after large frees, which made the
    # peak memory depend on the order of earlier allocations.
    env = {**os.environ, "PYTHONHASHSEED": "0", "MALLOC_MMAP_THRESHOLD_": "131072"}
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        print(f"worker did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if child.returncode != 0:
        print(f"worker exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        # ru_maxrss is in KiB on Linux; the only child waited for is the worker.
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
    print(f"{args.workload} seed {args.seed}: {time.perf_counter() - started:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
