"""Home decomposition shared by the E[MST] and E[MPM] estimators.

Every node v has a home point set (one heavy ball for MST, the node's
cluster for MPM) and D bounds the home diameters.  The estimate is a sum of
exactly three kinds of terms:

* all-home: every node lands in its home; the conditional mean is a
  low-variance Monte Carlo target because the functional is bounded by a
  multiple of n * D there.
* near(v): node v alone escapes to a point closer than (n/eps) * D to its
  home; the event probability is exact, the conditional mean is Monte Carlo.
* far(v): v alone escapes beyond that threshold; there the escape distance
  itself is a (1 +- eps) surrogate for the conditional mean, so the term is
  computed exactly with no sampling.

Events where two or more nodes escape are deliberately dropped; their total
contribution is dominated by the one-escape terms.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .mc import (
    EstimateReport, TermReport, chernoff_budget, check_run_settings, estimate_conditional
)
from .model import CERTAIN, Event, StochasticGraph
from .oracle import Functional, FunctionalEvaluator


def check_inputs(g: StochasticGraph, epsilon: float) -> None:
    check_run_settings(epsilon=epsilon)
    if g.presence_mode != CERTAIN:
        raise DomainError("the home decomposition requires certain presence mode")


def estimate_by_homes(
    report: EstimateReport,
    g: StochasticGraph,
    functional: Functional,
    homes: Sequence[Sequence[int]],
    diameter: float,
    row_masses: Callable[[np.ndarray], np.ndarray],
    all_home: tuple[float, float],
    near: tuple[float, float],
) -> None:
    """Append the all-home, near(v) and far(v) terms to ``report``.

    ``homes[v]`` holds node v's home point indices.  ``row_masses(mask)``
    returns every node v's probability mass on the points ``mask[v]``; the
    two estimators sum these masses in different orders, which can differ in
    the last bit, so each supplies its own.  ``all_home`` and ``near`` are
    the (U, mu_lb) Chernoff bounds of the all-home and near(v) terms, both
    linear in D and formed with D's mantissa ``math.frexp(diameter)[0]`` in
    place of D: they are the bounds divided by 2**frexp(D)[1], exactly, so
    they give the same budgets, and a tiny D cannot underflow them.  Run
    parameters (seed, epsilon, budget scale and cap) and the stream
    tag prefix come from ``report``.
    """
    n, m = g.n, g.m
    threshold = (n / report.epsilon) * diameter
    home_mask = np.zeros((n, m), dtype=bool)
    near_mask = np.zeros((n, m), dtype=bool)
    d_to_home, far_pts = [], []
    for v, pts in enumerate(homes):
        home_mask[v, pts] = True
        d = g.space.dist[:, pts].min(axis=1)
        near_mask[v] = ~home_mask[v] & (d < threshold)
        far_pts.append([s for s in range(m) if not home_mask[v, s] and d[s] >= threshold])
        d_to_home.append(d)
    p_home = row_masses(home_mask)
    p_near = row_masses(near_mask)

    def prod_except(v: Optional[int]) -> float:
        out = 1.0
        for u in range(n):
            if u != v:
                out *= float(p_home[u])
        return out

    # Term plan first: the per-term failure probability is union-bounded.
    prob_all = prod_except(None)
    near_nodes = [v for v in range(n) if p_near[v] > 0.0 and prod_except(v) > 0.0]
    mc_terms = int(prob_all > 0.0 and diameter > 0.0) + len(near_nodes)
    delta = 1.0 / (8.0 * max(1, mc_terms))
    evaluator = FunctionalEvaluator(g, functional)
    nobody_absent = np.zeros(n, dtype=bool)

    jobs, pending = [], []  # (event, n_samples, tag, key), and (report, mu_lb)

    def sampled(
        name: str, tag: str, prob: float, allowed: np.ndarray, bounds: tuple[float, float]
    ) -> TermReport:
        full = chernoff_budget(*bounds, report.epsilon_mc, delta)
        event = Event(allowed, nobody_absent)
        jobs.append((event, report.budget(full), f"{report.estimator}/{tag}", None))
        pending.append(
            (TermReport(name, 0.0, "monte-carlo", probability=prob, full_budget=full), bounds[1])
        )
        return pending[-1][0]

    if prob_all <= 0.0:
        report.terms.append(TermReport("all-home", 0.0, "exact", probability=0.0))
    elif diameter == 0.0:
        report.terms.append(
            TermReport("all-home", 0.0, "exact", probability=prob_all, mean=0.0)
        )
    else:
        report.terms.append(sampled("all-home", "all-home", prob_all, home_mask, all_home))

    for v in range(n):
        vname = g.node_ids[v]
        others = prod_except(v)
        # near(v): v escapes within the near field, everyone else is home.
        if v in near_nodes:
            allowed = home_mask.copy()
            allowed[v] = near_mask[v]
            prob = float(p_near[v]) * others
            report.terms.append(sampled(f"near({vname})", f"near/{vname}", prob, allowed, near))
        # far(v): the escape distance stands in for the conditional mean.
        if far_pts[v] and others > 0.0:
            term = math.fsum(
                float(g.probs[v, s]) * others * float(d_to_home[v][s])
                for s in far_pts[v]
                if g.probs[v, s] > 0.0
            )
            if term > 0.0:
                report.terms.append(TermReport(f"far({vname})", term, "far-field"))

    results = estimate_conditional(g, jobs, evaluator.class_fn, seed=report.seed)
    exponent = math.frexp(diameter)[1]  # mu_lb was formed at D's mantissa
    for (term, mu_lb), (mean, _, samples) in zip(pending, results):
        term.value, term.mean, term.samples = term.probability * mean, mean, samples
        term.possibly_negligible = mean < 0.5 * math.ldexp(mu_lb, exponent)
    report.flags["epsilon_split"] = "half to sampling error, half to truncation"
