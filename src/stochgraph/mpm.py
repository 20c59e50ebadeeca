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

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InternalAssertionError
from .home import check_inputs, estimate_by_homes
from .mc import EstimateReport
from .model import StochasticGraph
from .oracle import Functional


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


class _DSU:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _components(dsu: _DSU, m: int) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    for s in range(m):
        groups.setdefault(dsu.find(s), []).append(s)
    return [groups[r] for r in sorted(groups)]


def find_home_clusters(g: StochasticGraph, epsilon: float) -> HomeClustering:
    """Single-linkage sweep stopping at the first radius where both hold:
    every node has a cluster with all but theta of its mass, and every
    cluster is home to an even number of nodes.

    The sweep always terminates: once everything has merged into one
    component the first condition holds with full mass and the second
    reduces to n being even.
    """
    check_inputs(g, epsilon)
    if g.n % 2 != 0:
        raise DomainError("perfect matchings need an even number of nodes")
    m = g.m
    theta = epsilon / (16.0 * g.n * m**3)
    if theta >= 0.5:
        raise InternalAssertionError("theta must stay below 1/2 for home uniqueness")

    def check(dsu: _DSU):
        comps = _components(dsu, m)
        home_of = []
        for v in range(g.n):
            home = None
            for ci, comp in enumerate(comps):
                if float(g.probs[v, comp].sum()) >= 1.0 - theta:
                    home = ci
                    break
            if home is None:
                return None
            home_of.append(home)
        counts = [0] * len(comps)
        for ci in home_of:
            counts[ci] += 1
        if any(c % 2 for c in counts):
            return None
        return comps, home_of

    lengths: dict[float, list[tuple[int, int]]] = {}
    for a in range(m):
        for b in range(a + 1, m):
            lengths.setdefault(float(g.space.dist[a, b]), []).append((a, b))

    dsu = _DSU(m)
    radius = 0.0
    if 0.0 in lengths:
        for a, b in lengths.pop(0.0):
            dsu.union(a, b)
    result = check(dsu)
    for length in sorted(lengths):
        if result is not None:
            break
        for a, b in lengths[length]:
            dsu.union(a, b)
        radius = length / 2.0
        result = check(dsu)
    if result is None:
        raise InternalAssertionError("cluster sweep failed to terminate")
    comps, home_of = result
    diameters = [
        float(g.space.dist[np.ix_(comp, comp)].max()) for comp in comps
    ]
    return HomeClustering(
        clusters=tuple(tuple(comp) for comp in comps),
        home_of=tuple(home_of),
        merge_radius=radius,
        max_diameter=max(diameters),
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
    check_inputs(g, epsilon)
    if g.n % 2 != 0 or g.n < 2:
        raise DomainError("perfect matchings need an even number of nodes (>= 2)")
    t0 = time.perf_counter()
    clustering = find_home_clusters(g, epsilon)
    D = clustering.max_diameter
    n, m = g.n, g.m
    report = EstimateReport(
        estimator="mpm",
        epsilon=epsilon,
        seed=seed,
        epsilon_mc=epsilon / 2.0,
        budget_scale=budget_scale,
        budget_cap=budget_cap,
        threads=threads,
    )
    report.extras["homes"] = clustering.to_dict(g)
    estimate_by_homes(
        report,
        g,
        Functional.MPM,
        [clustering.clusters[ci] for ci in clustering.home_of],
        D,
        lambda mask: np.array([float(g.probs[v, row].sum()) for v, row in enumerate(mask)]),
        all_home=(n * D, epsilon * D / (64.0 * n * m**5)),
        near=((n / epsilon) * D + (n + 1) * D, epsilon * D / (128.0 * n * m**5)),
    )
    report.elapsed = time.perf_counter() - t0
    return report
