"""Expected-perfect-matching estimator via clustered homes.

The home is a disjoint family of point clusters found by a single-linkage
sweep: grow a radius t, merge components of the graph on {d(s,s') <= 2t}, and
stop at the first t where every node keeps all but a theta-fraction of its
mass inside one cluster (its home) and every cluster is home to an even
number of nodes.  The estimate is then the all-home / near(v) / far(v) sum
of ``stochgraph.home``, with escapes measured from the node's own cluster
and D the largest cluster diameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InternalAssertionError
from .home import check_inputs, estimate_by_homes
from .mc import EstimateReport
from .model import StochasticGraph, diam
from .oracle import Functional
from .solvers import edge_order


@dataclass(frozen=True)
class HomeClustering:
    """Disjoint point clusters with per-node home assignment.

    ``merge_radius`` is the sweep radius t at acceptance (clusters are
    components of {d <= 2t}); ``max_diameter`` is the largest cluster
    diameter D; ``theta`` the per-node escape bound eps / (16 n m^3).
    """

    clusters: tuple[tuple[int, ...], ...]
    home_of: tuple[int, ...]  # node index -> cluster index
    merge_radius: float
    max_diameter: float
    theta: float

    def to_dict(self, g: StochasticGraph) -> dict:
        return {
            "clusters": [
                [g.space.point_ids[s] for s in cluster] for cluster in self.clusters
            ],
            "home_of": {
                g.node_ids[v]: ci for v, ci in enumerate(self.home_of)
            },
            "merge_radius": self.merge_radius,
            "max_diameter": self.max_diameter,
            "theta": self.theta,
        }


def find_home_clusters(g: StochasticGraph, epsilon: float) -> HomeClustering:
    """Single-linkage sweep stopping at the first radius where both hold:
    every node has a cluster with all but theta of its mass, and every
    cluster is home to an even number of nodes.

    The sweep walks the edges once in `edge_order`, labelling each
    component by its least point, and checks the two conditions where the
    edge length grows after a merge: the components change nowhere else.
    The first condition compares each node's mass outside its home with
    theta: 1 - theta rounds to 1.0 at a tiny epsilon, which a row's float
    sum may never reach.  So the sweep always terminates: once everything
    has merged into one component no mass is outside (0.0 exactly) and the
    second condition reduces to n being even.
    """
    check_inputs(g, epsilon)
    if g.n % 2 != 0:
        raise DomainError("perfect matchings need an even number of nodes (>= 2)")
    m = g.m
    theta = epsilon / (16.0 * g.n * m**3)
    if theta >= 0.5:
        raise InternalAssertionError("theta must stay below 1/2 for home uniqueness")
    # A home holds all but theta < 1/m of its node's mass, so it holds the
    # node's heaviest point: that point's component is the only candidate.
    heaviest = g.probs.argmax(axis=1)

    def settled(label: np.ndarray) -> bool:
        home = label[heaviest]
        return all(
            float(g.probs[v, label != home[v]].sum()) <= theta for v in range(g.n)
        ) and not (np.unique(home, return_counts=True)[1] % 2).any()

    lo, hi = edge_order(g.space)
    label = np.arange(m)
    length, merged = 0.0, True
    for a, b, d in zip(lo.tolist(), hi.tolist(), g.space.dist[lo, hi].tolist()):
        if d != length:
            if merged and settled(label):
                break
            length, merged = d, False
        if label[a] != label[b]:
            label[label == max(label[a], label[b])] = min(label[a], label[b])
            merged = True
    else:
        if not (merged and settled(label)):
            raise InternalAssertionError("cluster sweep failed to terminate")
    roots = np.unique(label)
    clusters = tuple(tuple(np.flatnonzero(label == r).tolist()) for r in roots)
    return HomeClustering(
        clusters=clusters,
        home_of=tuple(np.searchsorted(roots, label[heaviest]).tolist()),
        merge_radius=length / 2.0,
        max_diameter=max(diam(g.space, c) for c in clusters),
        theta=theta,
    )


def estimate_empm(
    g: StochasticGraph,
    epsilon: float,
    seed: int,
    *,
    budget_scale: float = 1.0,
    budget_cap: Optional[int] = None,
    threads: int = 1,
) -> EstimateReport:
    """FPRAS estimate of the expected minimum perfect matching length."""
    report = EstimateReport(
        estimator="mpm",
        epsilon=epsilon,
        seed=seed,
        epsilon_mc=epsilon / 2.0,
        budget_scale=budget_scale,
        budget_cap=budget_cap,
        threads=threads,
    )
    clustering = find_home_clusters(g, epsilon)  # checks the inputs
    f = math.frexp(clustering.max_diameter)[0]  # the bounds are formed at D's mantissa
    n, m = g.n, g.m
    report.extras["homes"] = clustering.to_dict(g)
    estimate_by_homes(
        report,
        g,
        Functional.MPM,
        [clustering.clusters[ci] for ci in clustering.home_of],
        clustering.max_diameter,
        lambda mask: np.array([float(g.probs[v, row].sum()) for v, row in enumerate(mask)]),
        all_home=(n * f, epsilon * f / (64.0 * n * m**5)),
        near=((n / epsilon) * f + (n + 1) * f, epsilon * f / (128.0 * n * m**5)),
    )
    return report.finish()
