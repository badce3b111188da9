"""The jensengeo benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace T``.

Runs one workload (see README.md) in fresh processes from the checkout
this file lies in, with the package imported from its ``src`` directory.
Without tracing it first starts four processes that only set up, then
the measured one, and reports the median set-up time of the five. The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("classical-certify", "quantum-certify", "bounds-sweep", "cli-oneshot")
SETUP_PROBES = 4
DEADLINE_S = 170.0
# One BLAS thread: with OpenBLAS's default of two on two cores, the first
# calls of a fresh process sometimes stalled for ~140 ms (see README.md).
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "jensengeo" / "__init__.py").is_file():
        print(f"no jensengeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup_s = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        setup_s.append(run_process(cmd + ["--setup-only"], env, deadline)[0])
    main_setup_s, result = run_process(cmd, env, deadline)
    setup_s.append(main_setup_s)
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "task_p50_ms": {"value": result["task_p50_ms"], "unit": "ms"},
            "task_p95_ms": {"value": result["task_p95_ms"], "unit": "ms"},
            "tasks_per_s": {"value": result["tasks_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{args.workload}: {result['tasks']} tasks in {result['rounds']} rounds", file=sys.stderr)
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def run_process(cmd: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run one workload process; return its set-up time from spawn and its summary."""
    start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with {proc.returncode}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    return (summary["setup_done_ns"] - start_ns) / 1e9, summary


if __name__ == "__main__":
    sys.exit(main())
