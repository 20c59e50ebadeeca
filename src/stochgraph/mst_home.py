"""Expected-MST estimator via home-set conditioning.

Every node shares one home: the ball H around the furthest pair of heavy
points.  The estimate is the all-home / near(v) / far(v) sum of
``stochgraph.home`` with D = diam(H); MST is bounded by n * D when everyone
is home.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InternalAssertionError
from .home import check_inputs, estimate_by_homes
from .mc import EstimateReport, TermReport
from .model import StochasticGraph, diam, expected_mass
from .oracle import Functional
from .solvers import edge_order


@dataclass(frozen=True)
class HomeSet:
    """Ball of points holding almost all probability mass.

    ``p_of_H`` is at least n - eps/16 by construction; the conditional MST
    mean given "everyone home" is bounded below by diam * eps^2 / (32 m^2),
    which sizes the all-home sample budget.
    """

    center: int
    radius: float
    members: tuple[int, ...]
    diameter: float
    p_of_H: float

    def to_dict(self, space) -> dict:
        return {
            "center": space.point_ids[self.center],
            "radius": self.radius,
            "members": [space.point_ids[i] for i in self.members],
            "diameter": self.diameter,
            "p_of_H": self.p_of_H,
        }


def find_home(g: StochasticGraph, epsilon: float) -> HomeSet:
    """Ball around one endpoint of the furthest pair of heavy points.

    Heavy means expected node count >= eps / (16 m).  Every point outside the
    returned ball is light, so the ball captures all but eps/16 of the total
    expected mass.
    """
    check_inputs(g, epsilon)
    heavy = g.probs.sum(axis=0) >= epsilon / (16.0 * g.m)
    if not heavy.any():
        raise InternalAssertionError(
            "no heavy point found; impossible since max_s p(s) >= n/m"
        )
    lo, hi = edge_order(g.space)
    heavy_edges = np.flatnonzero(heavy[lo] & heavy[hi])
    if heavy_edges.size == 0:  # a single heavy point
        center, radius = int(np.flatnonzero(heavy)[0]), 0.0
    else:
        e = heavy_edges[-1]
        center, radius = int(lo[e]), float(g.space.dist[lo[e], hi[e]])
    members = tuple(np.flatnonzero(g.space.dist[center] <= radius).tolist())
    diameter, p_of_H = diam(g.space, members), expected_mass(g, members)
    if p_of_H < g.n - epsilon / 16.0 - 1e-9:
        raise InternalAssertionError(
            f"home mass {p_of_H} below n - eps/16 = {g.n - epsilon / 16.0}"
        )
    if diameter > 2.0 * radius * (1.0 + 1e-12):
        raise InternalAssertionError("home diameter exceeds twice its radius")
    return HomeSet(center, radius, members, diameter, p_of_H)


def estimate_emst(
    g: StochasticGraph,
    epsilon: float,
    seed: int,
    *,
    budget_scale: float = 1.0,
    budget_cap: Optional[int] = None,
    threads: int = 1,
) -> EstimateReport:
    """FPRAS estimate of the expected minimum spanning tree length."""
    report = EstimateReport(
        estimator="mst-home",
        epsilon=epsilon,
        seed=seed,
        epsilon_mc=epsilon / 2.0,
        budget_scale=budget_scale,
        budget_cap=budget_cap,
        threads=threads,
    )
    if g.n == 1:
        check_inputs(g, epsilon)
        report.terms.append(TermReport("all-home", 0.0, "exact", probability=1.0))
    else:
        home = find_home(g, epsilon)  # checks the inputs
        report.extras["home"] = home.to_dict(g.space)
        f = math.frexp(home.diameter)[0]  # the bounds are formed at D's mantissa
        estimate_by_homes(
            report,
            g,
            Functional.MST,
            [list(home.members)] * g.n,
            home.diameter,
            lambda mask: g.probs[:, mask[0]].sum(axis=1),  # one home for all
            all_home=(g.n * f, f * epsilon * epsilon / (32.0 * g.m * g.m)),
            near=((g.n / epsilon) * f + g.n * f, f * epsilon * epsilon / (64.0 * g.m * g.m)),
        )
    return report.finish()
