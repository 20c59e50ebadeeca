"""The benchmark's workloads: fixed instances, the operations run on them, and
the checks applied to every result.

An operation is one estimator call or one oracle call.  A workload's
operation list is one pass; the measured phase repeats passes, each pass with
its own estimator seed derived from the workload seed.

Why these workloads:

* campaign-small -- the 10-instance acceptance suite at the documented caps,
  single-threaded: the validation campaign users run.  Few distinct
  realization classes occur, so class dedup and random draws dominate and the
  solvers barely run.
* ladder-large -- one larger instance per estimator at two threads: almost
  every sampled class is distinct, so solvers and per-term planning dominate,
  and the block thread pool runs.
* oracle-exact -- exhaustive enumeration only: no random streams, sampling or
  Monte Carlo.  A change to the Monte Carlo engine should not move it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import stochgraph
from stochgraph import generate, model, oracle

EPSILON = 0.25
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Development seed used while the benchmark was built, and a seed held out
# from that work so a later claim can be re-checked on unseen inputs.
DEV_SEED = 1
HELD_OUT_SEED = 101

# The acceptance suite, as SUITE_SPEC in tests/test_acceptance.py:
# (name, generator kind, n, m, generator seed).
SUITE_SPEC = [
    ("eu-2-3", "euclidean-uniform", 2, 3, 11),
    ("eu-3-4", "euclidean-uniform", 3, 4, 12),
    ("eu-4-5", "euclidean-uniform", 4, 5, 13),
    ("eu-5-6", "euclidean-uniform", 5, 6, 14),
    ("rm-3-5", "random-metric", 3, 5, 15),
    ("rm-4-4", "random-metric", 4, 4, 16),
    ("hs-3-4", "home-separated", 3, 4, 17),
    ("hs-4-5", "home-separated", 4, 5, 18),
    ("cm-4-4", "colocated-mass", 4, 4, 19),
    ("cm-2-3", "colocated-mass", 2, 3, 20),
]
# Documented per-term sample caps of the acceptance campaign (README).
CAMPAIGN_CAPS = {"mst-home": 20_000, "mst-dp": 4_000, "mpm": 20_000, "cc": 2_500}

# ladder-large: (estimator, generator kind, n, m, generator seed, cap).  Caps
# are sized so one pass takes about 6 s on a 2-core Xeon and a 30 s run
# completes several passes; mst-home's cap spans two 4096-sample blocks so
# both pool threads work.
LADDER = [
    ("mst-home", "euclidean-uniform", 16, 24, 1, 8192),
    ("mst-dp", "euclidean-uniform", 16, 24, 1, 50),
    ("mpm", "euclidean-uniform", 12, 16, 1, 75),
    ("cc", "euclidean-uniform", 10, 14, 1, 50),
]
LADDER_THREADS = 2

# oracle-exact: (name, functional, n, m, generator seed, existential).
ORACLE = [
    ("mst-10-12", "mst", 10, 12, 4, False),
    ("cc-10-12", "cc", 10, 12, 4, False),
    ("mpm-8-10", "mpm", 8, 10, 23, False),
    ("exist-mst-8-10", "mst", 8, 10, 23, True),
]
# Share of each node's mass moved to "absent" in the existential instance.
ABSENT_SHARE = 0.15
# Relabelling changes only the summation order, so exact values must agree
# to rounding.
ORACLE_RTOL = 1e-9

FUNCTIONAL_OF = {"mst-home": "mst", "mst-dp": "mst", "mpm": "mpm", "cc": "cc"}
ESTIMATE = {
    "mst-home": stochgraph.estimate_emst,
    "mst-dp": stochgraph.estimate_emst_dp,
    "mpm": stochgraph.estimate_empm,
    "cc": stochgraph.estimate_ecc,
}


@dataclass
class Outcome:
    value: float
    samples: int = 0  # Monte Carlo samples, summed over the report's terms
    realizations: int = 0  # realizations enumerated by the oracle


@dataclass
class Op:
    """One benchmark operation: ``run(seed)`` calls into the package."""

    label: str  # "<estimator or oracle>/<instance>"
    kind: str  # estimator name, or "oracle"
    functional: str  # "mst" | "mpm" | "cc"
    run: Callable[[int], Outcome]
    reference: float  # value the result is scored against
    samples: Optional[int] = None  # expected Monte Carlo sample count
    realizations: Optional[int] = None  # expected enumeration count


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # Checks over all (op, seed, outcome) results of a run; each returns an
    # error message or None.
    run_checks: list[Callable[[list[tuple[Op, int, Outcome]]], Optional[str]]] = field(
        default_factory=list
    )


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def round_seed(seed: int, rnd: int) -> int:
    """Estimator seed of pass ``rnd`` in a run with workload seed ``seed``."""
    return 1000 * int(seed) + rnd


def _estimator_op(name, instance, g, cap, threads, reference, samples) -> Op:
    estimate = ESTIMATE[name]

    def run(seed: int) -> Outcome:
        report = estimate(g, EPSILON, seed, budget_cap=cap, threads=threads)
        return Outcome(report.value, samples=sum(t.samples for t in report.terms))

    return Op(f"{name}/{instance}", name, FUNCTIONAL_OF[name], run, reference, samples=samples)


def _oracle_op(instance, functional, g, reference, realizations) -> Op:
    f = oracle.Functional(functional)

    def run(_seed: int) -> Outcome:
        value, count = oracle.enumerate_term(g, f)
        return Outcome(value, realizations=count)

    return Op(f"oracle/{instance}", "oracle", functional, run, reference, realizations=realizations)


# ---------------------------------------------------------------------------
# campaign-small
# ---------------------------------------------------------------------------


def campaign_small(seed: int, ref: dict) -> Workload:
    """Estimators on the acceptance suite, scored against the exact oracle.

    The instances are fixed; the seed picks the estimator seeds.  Reference
    values come from the exact oracle at set-up time, as a campaign does.
    """
    expected = ref["campaign-small"]["samples"]
    ops = []
    suite = [(name, generate.gen_graph(kind, n, m, gseed)) for name, kind, n, m, gseed in SUITE_SPEC]
    exact = {}
    for name, g in suite:
        for f in ("mst", "mpm", "cc"):
            if f == "mpm" and g.n % 2:
                continue
            exact[name, f] = oracle.exact_expectation(g, oracle.Functional(f))
    for est in ESTIMATE:
        for name, g in suite:
            f = FUNCTIONAL_OF[est]
            if (name, f) not in exact:
                continue  # matchings need an even node count
            label = f"{est}/{name}"
            ops.append(
                _estimator_op(est, name, g, CAMPAIGN_CAPS[est], 1, exact[name, f], expected[label])
            )
    return Workload("campaign-small", ops, [_fraction_within_eps])


def _fraction_within_eps(results) -> Optional[str]:
    """Acceptance criterion 1: per estimator, >= 3/4 of estimates within eps."""
    by_kind: dict[str, list[bool]] = {}
    for op, _seed, out in results:
        by_kind.setdefault(op.kind, []).append(within(out.value, op.reference, EPSILON))
    low = {k: sum(v) / len(v) for k, v in by_kind.items() if sum(v) < 0.75 * len(v)}
    return f"within-eps fraction below 0.75: {low}" if low else None


# ---------------------------------------------------------------------------
# ladder-large
# ---------------------------------------------------------------------------


def ladder_large(seed: int, ref: dict) -> Workload:
    """One larger instance per estimator at two threads.

    Enumeration is out of reach at these sizes, so estimates are scored
    against stored high-budget estimates (see make_reference.py), and the
    two MST estimators must agree with each other (``_mst_methods_agree``).
    """
    stored = ref["ladder-large"]
    ops = []
    for est, kind, n, m, gseed, cap in LADDER:
        g = generate.gen_graph(kind, n, m, gseed)
        instance = f"{kind}-{n}-{m}-{gseed}"
        label = f"{est}/{instance}"
        ops.append(
            _estimator_op(
                est, instance, g, cap, LADDER_THREADS,
                stored["values"][label], stored["samples"][label],
            )
        )
    return Workload("ladder-large", ops, [_fraction_within_eps, _mst_methods_agree])


def _mst_methods_agree(results) -> Optional[str]:
    """Acceptance criterion 9: over the run's seeds, >= 3/4 of the mst-home /
    mst-dp pairs lie within a (1 + eps)^2 ratio band of each other."""
    band = (1 + EPSILON) ** 2
    home = {seed: out.value for op, seed, out in results if op.kind == "mst-home"}
    dp = {seed: out.value for op, seed, out in results if op.kind == "mst-dp"}
    seeds = sorted(home.keys() & dp.keys())
    agree = sum(
        1 for s in seeds
        if home[s] == dp[s] == 0.0 or (home[s] > 0 and dp[s] > 0 and 1 / band <= home[s] / dp[s] <= band)
    )
    if seeds and agree < 0.75 * len(seeds):
        return f"mst-home and mst-dp agree within (1+eps)^2 on {agree} of {len(seeds)} seeds"
    return None


# ---------------------------------------------------------------------------
# oracle-exact
# ---------------------------------------------------------------------------


def oracle_doc(n: int, m: int, gseed: int, existential: bool) -> dict:
    """Instance document of one oracle-exact entry, before relabelling."""
    doc = generate.gen_instance("euclidean-uniform", n, m, gseed)
    if existential:
        doc["presence_mode"] = "existential"
        for node in doc["nodes"]:
            node["dist"] = {p: (1.0 - ABSENT_SHARE) * w for p, w in node["dist"].items()}
    return doc


def relabel(doc: dict, seed: int) -> dict:
    """The same instance with nodes and points listed in a seed-chosen order.

    Expectations are invariant under relabelling, while the enumeration order
    and the solvers' inputs change with the seed.
    """
    rng = np.random.default_rng(int(seed))
    points = [doc["points"][i] for i in rng.permutation(len(doc["points"]))]
    nodes = [doc["nodes"][i] for i in rng.permutation(len(doc["nodes"]))]
    return dict(doc, points=points, nodes=nodes)


def oracle_exact(seed: int, ref: dict) -> Workload:
    """Exhaustive enumeration of relabelled instances against stored values."""
    stored = ref["oracle-exact"]
    ops = []
    for name, functional, n, m, gseed, existential in ORACLE:
        doc = relabel(oracle_doc(n, m, gseed, existential), seed)
        g = model.instance_from_dict(doc)
        ops.append(
            _oracle_op(name, functional, g, stored["values"][name], stored["realizations"][name])
        )
    return Workload("oracle-exact", ops)


WORKLOADS = {
    "campaign-small": campaign_small,
    "ladder-large": ladder_large,
    "oracle-exact": oracle_exact,
}


def within(value: float, reference: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * abs(reference)


def check_op(op: Op, out: Outcome) -> Optional[str]:
    """Why one operation's result fails its checks, or None.

    An estimate outside eps is scored (the per-estimator 3/4 criterion)
    rather than failed: the (1 +- eps) guarantee allows some misses.
    """
    if not math.isfinite(out.value):
        return f"non-finite value {out.value!r}"
    if op.samples is not None and out.samples != op.samples:
        return f"{out.samples} Monte Carlo samples, caps imply {op.samples}"
    if op.realizations is not None and out.realizations != op.realizations:
        return f"{out.realizations} realizations, expected {op.realizations}"
    if op.kind == "oracle" and not within(out.value, op.reference, ORACLE_RTOL):
        return f"exact value {out.value!r} differs from stored {op.reference!r}"
    return None


def warm_up() -> None:
    """First calls that pay one-off costs: Philox streams, scipy's assignment
    solver (cycle covers), networkx's blossom (matchings of 4+ points)."""
    g = generate.gen_graph("euclidean-uniform", 4, 5, 3)
    for estimate in ESTIMATE.values():
        estimate(g, EPSILON, 0, budget_cap=64)
    oracle.exact_expectation(g, oracle.Functional.MPM)
