"""stochgraph benchmark: run workloads, each in a fresh process, print metrics.

    python3 perfbench/run.py --workload campaign-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without it,
every workload runs, untraced then traced, and the last line maps each
workload to its two results.

Workloads, metrics and checks are described in perfbench/README.md.  Each
worker process runs with the BLAS/OpenMP pools pinned to one thread, a fixed
hash seed, and writes no bytecode caches.  Exit status is 0 only when every worker
succeeded; a failed check still exits 0 with ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The keys of workloads.WORKLOADS; this process does not import the package.
WORKLOADS = ("campaign-small", "ladder-large", "oracle-exact")
# A run measures --seconds; set-up and the last operation come on top.
TIMEOUT_SLACK_S = 120.0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = dict(os.environ)
    # A fixed hash seed gives every worker the same set and dict orders, so
    # runs differ only by the workload seed; with random hash seeds the
    # per-run median of ladder-large's cc operation moved about twice as much.
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=seconds + TIMEOUT_SLACK_S
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"{workload}: worker exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise RuntimeError(f"{workload}: malformed result line {lines[-1]!r}")
    print("\n".join(lines[:-1]), flush=True)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="stochgraph benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Exit through Python on SIGTERM so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (HERE.parent / "src" / "stochgraph").is_dir():
        print("src/stochgraph not found next to perfbench/", file=sys.stderr)
        return 2
    try:
        if args.workload:
            result = run_worker(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps(result))
            return 0
        results = {
            wl: {
                "untraced": run_worker(wl, args.seed, args.seconds, 0),
                "traced": run_worker(wl, args.seed, args.seconds, 1),
            }
            for wl in WORKLOADS
        }
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
