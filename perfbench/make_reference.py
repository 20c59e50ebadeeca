"""Regenerate perfbench/reference.json, the values the benchmark checks against.

    python3 perfbench/make_reference.py

Stored per workload:

* Monte Carlo sample counts per estimator operation.  They follow from the
  budgets and caps alone, not from the random streams (checked here on two
  seeds), so a change that cuts budgets fails the benchmark's check instead
  of reading as a speed-up.
* ladder-large: reference values from the same estimator at ``REF_FACTOR``
  times the benchmark's cap, since enumeration is out of reach.
* oracle-exact: exact values and realization counts of the instances in
  their generated labelling.

Only rerun this when a change is meant to alter these values, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as w  # noqa: E402
from stochgraph import generate, model, oracle  # noqa: E402

REF_FACTOR = 10
REF_SEED = 0


def sample_count(estimate, g, cap, threads) -> int:
    counts = {
        sum(t.samples for t in estimate(g, w.EPSILON, seed, budget_cap=cap, threads=threads).terms)
        for seed in (1000, 2000)
    }
    if len(counts) != 1:
        raise SystemExit(f"sample count depends on the seed: {counts}")
    return counts.pop()


def main() -> None:
    campaign = {}
    for name, kind, n, m, gseed in w.SUITE_SPEC:
        g = generate.gen_graph(kind, n, m, gseed)
        for est, estimate in w.ESTIMATE.items():
            if est == "mpm" and g.n % 2:
                continue
            campaign[f"{est}/{name}"] = sample_count(estimate, g, w.CAMPAIGN_CAPS[est], 1)

    ladder = {"samples": {}, "values": {}}
    for est, kind, n, m, gseed, cap in w.LADDER:
        g = generate.gen_graph(kind, n, m, gseed)
        label = f"{est}/{kind}-{n}-{m}-{gseed}"
        estimate = w.ESTIMATE[est]
        ladder["samples"][label] = sample_count(estimate, g, cap, w.LADDER_THREADS)
        ref = estimate(g, w.EPSILON, REF_SEED, budget_cap=REF_FACTOR * cap, threads=w.LADDER_THREADS)
        ladder["values"][label] = ref.value
        print(label, ref.value, flush=True)

    exact = {"values": {}, "realizations": {}}
    for name, functional, n, m, gseed, existential in w.ORACLE:
        g = model.instance_from_dict(w.oracle_doc(n, m, gseed, existential))
        value, count = oracle.enumerate_term(g, oracle.Functional(functional))
        exact["values"][name] = value
        exact["realizations"][name] = count

    doc = {
        "campaign-small": {"samples": campaign},
        "ladder-large": ladder,
        "oracle-exact": exact,
    }
    w.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
