"""Alternate expected-MST estimator: recursive conditioning over point order.

Points are globally ordered u_1..u_m (descending total mass, index
tie-break).  Conditioning on "all nodes realize within the suffix
{u_i..u_m}", the recursion peels off whether anything sits at u_i; the inner
recursion reorders the suffix by distance from u_i and peels off the furthest
occupied point r_j.  At the leaf, something sits at u_i, something at r_j and
everything lives between them, so the conditional MST is squeezed between
d(u_i, r_j) and n * d(u_i, r_j): an ideal Monte Carlo target.

Because the estimate is a weighted sum over leaves with exactly computable
probability weights (each point has a single owning node after splitting),
this method has no truncation error at all and cross-validates the
home-decomposition estimator.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .cc import SplitSpace, split_points
from .mc import EstimateReport, TermReport, chernoff_budget, estimate_conditional
from .model import StochasticGraph, mass_in, pinned_event
from .oracle import Functional, FunctionalEvaluator


def estimate_emst_dp(
    g: StochasticGraph,
    epsilon: float,
    seed: int,
    *,
    budget_scale: float = 1.0,
    budget_cap: Optional[int] = None,
    threads: int = 1,
) -> EstimateReport:
    """Expected MST length by recursive conditioning with MC leaves.

    Works in both presence modes; "inside the suffix" reads as "inside or
    absent" when nodes may be missing.
    """
    report = EstimateReport(
        estimator="mst-dp",
        epsilon=epsilon,
        seed=seed,
        epsilon_mc=epsilon / 2.0,
        budget_scale=budget_scale,
        budget_cap=budget_cap,
        threads=threads,
    )
    if g.n == 1:
        report.terms.append(TermReport("trivial", 0.0, "exact", probability=1.0))
        return report.finish()

    sp: SplitSpace = split_points(g)
    work = sp.graph
    m, n = work.m, work.n
    space = work.space
    mass = work.probs.sum(axis=0)
    order = sorted(range(m), key=lambda s: (-float(mass[s]), s))
    report.extras["point_order"] = [space.point_ids[s] for s in order]

    max_leaves = m * (m - 1) // 2
    delta_each = 1.0 / (8.0 * max(1, max_leaves))
    evaluator = FunctionalEvaluator(work, Functional.MST)
    outer_weights: list[float] = []
    leaves, leaf_terms = [], []  # (event, n_samples, tag, key) and its report

    outer_weight = 1.0  # Pr[nothing yet at u_1..u_{i-1} | their suffix events]
    for pos in range(m):
        if outer_weight <= 0.0:
            outer_weights.append(0.0)
            continue
        ui = order[pos]
        suffix = order[pos:]
        vi = sp.owner[ui]
        if vi < 0 or work.probs[vi, ui] <= 0.0:
            outer_weights.append(0.0)
            continue
        g_vi = mass_in(work, vi, sorted(suffix))
        p_exists = float(work.probs[vi, ui]) / g_vi if g_vi > 0.0 else 0.0
        top_w = outer_weight * p_exists
        outer_weight *= 1.0 - p_exists
        outer_weights.append(top_w)
        if top_w <= 0.0:
            continue

        # Inner reorder of the suffix by distance from u_i (u_i pinned first).
        r_order = [ui] + sorted(
            (s for s in suffix if s != ui),
            key=lambda s: (float(space.dist[ui, s]), s),
        )
        inner_weight = 1.0  # Pr[nothing yet at r_m..r_{j+1} | ...]
        for j in range(len(r_order) - 1, 0, -1):
            if inner_weight <= 0.0:
                break
            rj = r_order[j]
            wj = sp.owner[rj]
            if wj < 0 or wj == vi or work.probs[wj, rj] <= 0.0:
                continue  # nothing can newly appear at r_j
            prefix = np.zeros(m, dtype=bool)
            prefix[r_order[: j + 1]] = True
            g_wj = mass_in(work, wj, prefix)
            p_here = float(work.probs[wj, rj]) / g_wj if g_wj > 0.0 else 0.0
            leaf_w = top_w * inner_weight * p_here
            inner_weight *= 1.0 - p_here
            if leaf_w <= 0.0:
                continue

            d_ij = float(space.dist[ui, rj])
            name = f"dp({space.point_ids[ui]},{space.point_ids[rj]})"
            if d_ij == 0.0:
                report.terms.append(
                    TermReport(name, 0.0, "exact", probability=leaf_w, mean=0.0)
                )
                continue
            # v_i sits at u_i and w_j at r_j; everyone else stays inside the
            # prefix or is absent.
            event = pinned_event(work, prefix, vi, ui, wj, rj)
            full = chernoff_budget(n * d_ij, d_ij, report.epsilon_mc, delta_each)
            tag = f"mst-dp/{space.point_ids[ui]}/{space.point_ids[rj]}"
            leaves.append((event, report.budget(full), tag, None))
            leaf_terms.append(
                TermReport(name, 0.0, "monte-carlo", probability=leaf_w, full_budget=full)
            )
            report.terms.append(leaf_terms[-1])

    results = estimate_conditional(work, leaves, evaluator.class_fn, seed=seed, threads=threads)
    for term, (mean, _, samples) in zip(leaf_terms, results):
        term.value, term.mean, term.samples = term.probability * mean, mean, samples
    report.extras["outer_weights"] = outer_weights
    report.extras["residual_weight"] = outer_weight
    return report.finish()
