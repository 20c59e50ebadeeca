"""Run one workload in this process and print its metrics.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

``run.py`` starts this in a fresh process per workload.  The last line of
standard output is the result object; earlier lines are a readable report.

Untraced (``--trace 0``): time several set-ups, each in a fresh process, then
repeat the workload's operations for ``--seconds`` and report the end-to-end
metrics.  Times per pass are sums over operations of each operation's median
across passes.  Times are calibrated: a fixed pure-Python/numpy kernel
(``calibration_s``) runs between operations, and each operation's time is
scaled by ``KERNEL_REF_S`` over the kernel time measured around it, so the
metrics read as seconds at the reference host speed whatever the host's
current load.  The set-up time is scaled by the run's median of these
factors.  The raw times are printed in the readable report.

Traced (``--trace 1``): run every operation twice per pass with the same
seed, once as is and once with the tracer installed, and report per-layer
metrics per pass from the traced runs plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer, deterministic_terms  # noqa: E402
from workloads import EPSILON, Op, Outcome, check_op, round_seed, within  # noqa: E402

SETUP_REPEATS = 5
# calibration_s() on the 2-vCPU Xeon the benchmark was built on, in its
# faster state.  Calibrated times are raw times * KERNEL_REF_S / kernel time.
KERNEL_REF_S = 2.0e-3
CALIBRATION_REPS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload and warm up, then exit (one timed set-up)")
    return ap.parse_args(argv)


def machine_record() -> dict:
    import networkx
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def calibration_s() -> float:
    """Median seconds of CALIBRATION_REPS runs of a fixed kernel of dict
    updates, integer arithmetic, sorting and small numpy sorts -- the mix the
    package spends its time on.  It does not call the package, so only the
    host's speed moves it; the median drops a repetition that was preempted."""
    times = []
    for _ in range(CALIBRATION_REPS):
        t = time.perf_counter()
        d: dict[int, int] = {}
        s = 0
        for i in range(6000):
            k = (i * 7919) & 1023
            d[k] = d.get(k, 0) + i
            s += i * i
        sorted(d.values(), reverse=True)
        a = np.arange(4000.0)
        for _ in range(8):
            a = np.sort(a[::-1] * 1.0001)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def timed_setups(args) -> list[float]:
    """Raw seconds of SETUP_REPEATS set-ups, each a fresh interpreter that
    imports the package, builds the workload (instances and reference values)
    and warms up.  The child prints ``time.perf_counter()`` (a system-wide
    monotonic clock) when its set-up ends, so neither its exit nor the
    parent's polling for it is counted."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        proc = subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.PIPE, text=True)
        times.append(float(proc.stdout.split()[-1]) - t)
    return times


@dataclass
class Record:
    """One operation run: its outcome (None if it raised), raw wall and CPU
    seconds, the reason it failed (or None), and the calibration scale
    KERNEL_REF_S / kernel seconds around it (1.0 when not calibrated)."""

    op: Op
    seed: int
    out: Optional[Outcome]
    wall: float
    cpu: float
    err: Optional[str]
    scale: float = 1.0


def timed(op, seed) -> Record:
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out = op.run(seed)
    except Exception:  # a raising operation counts as failed, the run goes on
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        traceback.print_exc()
        return Record(op, seed, None, wall, cpu, "raised")
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return Record(op, seed, out, wall, cpu, check_op(op, out))


def median_sum(records, ops, field="wall", calibrated=True) -> float:
    """Sum over ``ops`` of each operation's median time across passes."""
    by_label: dict[str, list[float]] = {}
    for r in records:
        by_label.setdefault(r.op.label, []).append(
            getattr(r, field) * (r.scale if calibrated else 1.0)
        )
    return math.fsum(statistics.median(by_label[op.label]) for op in ops)


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def measure(wl, seed, seconds) -> list[Record]:
    """Repeat passes over wl.ops, with the calibration kernel between
    operations, until the next operation would end after ``seconds``; every
    operation runs at least once."""
    records = []
    last: dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    k_before = calibration_s()
    rnd = 0
    while True:
        s = round_seed(seed, rnd)
        for op in wl.ops:
            if rnd and time.perf_counter() + last[op.label] > deadline:
                return records
            rec = timed(op, s)
            k_after = calibration_s()
            rec.scale = KERNEL_REF_S / (0.5 * (k_before + k_after))
            k_before = k_after
            last[op.label] = rec.wall + CALIBRATION_REPS * k_after
            records.append(rec)
        rnd += 1


def end_to_end(wl, records, setup_s):
    """The bounded metrics, calibrated times included."""
    wall_s = median_sum(records, wl.ops)
    work = sum((op.samples or 0) + (op.realizations or 0) for op in wl.ops)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "cpu_s": (median_sum(records, wl.ops, "cpu"), "s"),
    }
    for f in ("mst", "mpm", "cc"):
        metrics[f"{f}_s"] = (median_sum(records, [op for op in wl.ops if op.functional == f]), "s")
    metrics["realizations_per_s"] = (work / wall_s, "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    scored = [within(r.out.value, r.op.reference, EPSILON) for r in records if r.out is not None]
    metrics["within_eps_frac"] = (sum(scored) / len(scored) if scored else 0.0, "frac")
    return metrics


def detail(wl, records, raw_setup_s):
    """Breakdown printed above the result line: per-estimator metrics that
    apply to the workload (calibrated), then the raw, uncalibrated times."""
    out = {}
    for kind in ("mst-home", "mst-dp", "oracle"):
        ops = [op for op in wl.ops if op.kind == kind]
        if ops:
            name = "exact_s" if kind == "oracle" else kind.replace("-", "_") + "_s"
            out[name] = (median_sum(records, ops), "s")
    est = [r.wall * r.scale for r in records if r.op.kind != "oracle"]
    if est:
        out["estimate_s.p50"] = (statistics.median(est), "s")
        if len(est) >= 100:
            out["estimate_s.p90"] = (statistics.quantiles(est, n=10)[-1], "s")
        out["estimate_calls"] = (len(est), "count")
        samples = sum(op.samples for op in wl.ops if op.kind != "oracle")
        est_s = median_sum(records, [op for op in wl.ops if op.kind != "oracle"])
        out["samples_per_s"] = (samples / est_s, "1/s")
    if "exact_s" in out:
        count = sum(op.realizations for op in wl.ops if op.kind == "oracle")
        out["realizations_enumerated_per_s"] = (count / out["exact_s"][0], "1/s")
    out["failed_frac"] = (sum(1 for r in records if r.err) / len(records), "frac")
    out["passes"] = (len(records) / len(wl.ops), "count")
    out["raw.setup_s"] = (raw_setup_s, "s")
    out["raw.wall_s"] = (median_sum(records, wl.ops, calibrated=False), "s")
    out["raw.cpu_s"] = (median_sum(records, wl.ops, "cpu", calibrated=False), "s")
    out["host_speed"] = (statistics.median(r.scale for r in records), "frac")
    return out


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def measure_traced(wl, seed, seconds, tracer):
    """Whole passes, each operation untraced and traced with the same seed
    (order alternating by pass), until the next pass would end late."""
    records, totals = [], {}
    plain = traced = 0.0
    reported = 0  # Monte Carlo samples the traced operations' reports show
    deadline = time.perf_counter() + seconds
    rnd, last_pass = 0, 0.0
    while rnd == 0 or time.perf_counter() + last_pass <= deadline:
        t_pass = time.perf_counter()
        s = round_seed(seed, rnd)
        for op in wl.ops:
            for with_trace in ((False, True) if rnd % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                    try:
                        rec, _sp = tracer.span(f"op.{op.kind}", timed, op, s)
                    finally:
                        tracer.uninstall()
                    add_totals(totals, tracer.drain())
                    traced += rec.wall
                    reported += rec.out.samples if rec.out else 0
                else:
                    rec = timed(op, s)
                    plain += rec.wall
                records.append(rec)
        last_pass = time.perf_counter() - t_pass
        rnd += 1
    return records, totals, rnd, traced / plain - 1.0, reported


def add_totals(acc: dict, new: dict) -> None:
    for key, row in new.items():
        cur = acc.setdefault(key, [0, 0.0, 0.0, 0.0])
        for i, v in enumerate(row):
            cur[i] += v


def per_layer(totals: dict, setup_totals: dict, passes: int, overhead: float) -> dict:
    """Per-layer metrics per pass from drained span totals."""

    def get(name, field, root=None, src=totals):
        i = ("calls", "total", "self", "cpu").index(field)
        return math.fsum(
            row[i] for (r, n), row in src.items() if n == name and (root is None or r == root)
        )

    def count(key):
        return totals.get(("", key), [0])[0]

    def ratio(a, b):
        return a / b if b else 0.0

    est_roots = ["op.mst-home", "op.mst-dp", "op.mpm", "op.cc"]
    solver_names = ["solvers.mst", "solvers.mpm", "solvers.cc", "solvers.nn"]

    def solver_s(roots):
        return math.fsum(get(n, "total", r) for n in solver_names for r in roots)

    est_s = math.fsum(get(r, "total", r) for r in est_roots)
    m = {
        "rng.uniforms_s": get("rng.uniforms", "self"),
        "rng.uniforms_calls": get("rng.uniforms", "calls"),
        "rng.useful_frac": ratio(count("rng.useful_draws"), count("rng.stream_draws")),
        "sampling.draw_block_s": get("sampling.draw_block", "self"),
        "sampling.rows": count("sampling.rows"),
        "sampling.builds": get("sampling.build", "calls"),
        "sampling.build_s": get("sampling.build", "total"),
        "mc.self_s": get("mc.run", "self"),
        "mc.samples": count("mc.samples"),
        "mc.blocks": count("mc.blocks"),
        "mc.classes": count("mc.classes"),
        "mc.class_ratio": ratio(count("mc.classes"), count("mc.samples")),
        "mc.cpu_per_wall": ratio(get("mc.run", "cpu"), get("mc.run", "total")),
        "oracle.enumerate_s": get("oracle.enumerate", "self"),
        "oracle.realizations": count("oracle.realizations"),
        "oracle.eval_s": get("oracle.eval", "self") + get("oracle.compute", "self"),
        "oracle.eval_calls": get("oracle.eval", "calls"),
        "oracle.solver_calls": get("oracle.compute", "calls"),
        "oracle.hit_ratio": 1.0 - ratio(get("oracle.compute", "calls"), get("oracle.eval", "calls"))
        if get("oracle.eval", "calls") else 0.0,
    }
    for name in solver_names:
        short = name.split(".")[1]
        m[f"solvers.{short}_s"] = get(name, "total")
        m[f"solvers.{short}_calls"] = get(name, "calls")
    pair_values = get("cc.pair_values", "calls")
    m.update({
        "mst_home.find_home_s": get("mst_home.find_home", "total"),
        "mpm.find_home_clusters_s": get("mpm.find_home_clusters", "total"),
        "cc.split_points_s": get("cc.split_points", "total"),
        "cc.prob_s": get("cc.prob", "total"),
        "cc.pair_values_s": get("cc.pair_values", "self"),
        "cc.pair_terms": get("cc.pair_term", "calls"),
        "cc.cache_hit_ratio": 1.0 - ratio(get("solvers.cc", "calls", "op.cc"), pair_values)
        if pair_values else 0.0,
        "mst_dp.mc_leaves": get("mst_dp.leaf", "calls"),
    })
    for root in est_roots:
        key = root[3:].replace("-", "_")
        m[f"{key}.plan_s"] = get(root, "total", root) - get("mc.run", "total", root)
    m.update({
        "estimators.s": est_s,
        "estimators.mc_rng_frac": ratio(
            math.fsum(get("mc.run", "self", r) + get("rng.uniforms", "self", r) for r in est_roots),
            est_s,
        ),
        "estimators.solver_frac": ratio(solver_s(est_roots), est_s),
        "mpm.solver_frac": ratio(solver_s(["op.mpm"]), get("op.mpm", "total", "op.mpm")),
        "cc.solver_frac": ratio(solver_s(["op.cc"]), get("op.cc", "total", "op.cc")),
    })
    # times and counts per pass; ratios as they are
    out = {k: v if _unit(k) == "frac" else v / passes for k, v in m.items()}
    out["generate.s"] = get("generate", "self", src=setup_totals)
    out["model.load_s"] = get("model.load", "total", src=setup_totals)
    out["trace.overhead_frac"] = overhead
    return {k: (v, _unit(k)) for k, v in out.items()}


def _unit(key: str) -> str:
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith(("_frac", "_ratio", "_per_wall")):
        return "frac"
    return "count"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    ref = workloads.load_reference()

    if args.setup_only:
        make(args.seed, ref)
        workloads.warm_up()
        print(time.perf_counter())
        return 0

    tracer = Tracer() if args.trace else None
    tracer_errors: list[str] = []
    if tracer is None:
        setups = timed_setups(args)
    wl = make(args.seed, ref)
    workloads.warm_up()

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("# machine " + json.dumps(machine_record(), sort_keys=True))
    if tracer is None:
        records = measure(wl, args.seed, args.seconds)
        # Set-ups run in child processes, on whichever vCPU is free, so the
        # kernel next to one set-up does not follow it; scale their median by
        # the host speed measured over the whole run instead.
        host_speed = statistics.median(r.scale for r in records)
        metrics = end_to_end(wl, records, statistics.median(setups) * host_speed)
        shown = {**metrics, **detail(wl, records, statistics.median(setups))}
    else:
        tracer.install()
        try:
            make(args.seed, ref)
        finally:
            tracer.uninstall()
        setup_totals = tracer.drain()
        for name in tracer.missing:
            print(f"# trace: entry point {name} not found; its metrics read 0")
        records, totals, passes, overhead, reported = measure_traced(
            wl, args.seed, args.seconds, tracer
        )
        metrics = per_layer(totals, setup_totals, passes, overhead)
        shown = metrics
        counted = totals.get(("", "mc.samples"), [0])[0] + deterministic_terms(totals)
        if counted != reported:
            tracer_errors.append(f"tracer counted {counted} Monte Carlo samples, reports show {reported}")

    for name, (value, unit) in shown.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")
    errors = [f"{r.op.label} seed {r.seed}: {r.err}" for r in records if r.err]
    results = [(r.op, r.seed, r.out) for r in records if r.out is not None]
    errors += [e for e in (check(results) for check in wl.run_checks) if e]
    errors += tracer_errors
    for e in errors:
        print(f"# check failed: {e}")
    result = {
        "correct": not errors,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.err),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
