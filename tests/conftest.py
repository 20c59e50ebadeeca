"""Shared fixtures and independent reference oracles.

The oracles here deliberately use different algorithms than the package:
MST by Pruefer-sequence enumeration of all spanning trees, perfect matching
by bitmask DP, cycle cover by brute force over fixed-point-free permutations.
They are the ground truth the solvers and estimators are measured against.
"""

from __future__ import annotations

import math
from itertools import permutations, product

import numpy as np
import pytest
from numpy.random import Generator, Philox

from stochgraph.errors import DomainError
from stochgraph.model import EventSpec, MetricSpace, Realization, StochasticGraph
from stochgraph.solvers import EdgeKey, nn_graph


def rng_for(seed: int) -> Generator:
    return Generator(Philox(key=seed))


# ---------------------------------------------------------------------------
# Instance builders
# ---------------------------------------------------------------------------

def euclidean_space(rng: Generator, m: int, scale: float = 1.0) -> MetricSpace:
    coords = rng.random((m, 2)) * scale
    return MetricSpace([f"p{i}" for i in range(m)], coords=coords)


def random_graph(
    rng: Generator,
    n: int,
    m: int,
    *,
    space: MetricSpace | None = None,
    max_support: int | None = None,
    presence_mode: str = "certain",
) -> StochasticGraph:
    space = space if space is not None else euclidean_space(rng, m)
    max_support = max_support or m
    P = np.zeros((n, m))
    for v in range(n):
        k = int(rng.integers(1, min(m, max_support) + 1))
        pts = rng.choice(m, size=k, replace=False)
        w = rng.random(k) + 0.05
        w /= w.sum()
        if presence_mode == "existential":
            w *= rng.uniform(0.4, 1.0)
        P[v, pts] = w
    return StochasticGraph(
        [f"v{v}" for v in range(n)], space, P, presence_mode=presence_mode
    )


# ---------------------------------------------------------------------------
# Reference oracles
# ---------------------------------------------------------------------------

def mst_by_tree_enumeration(space: MetricSpace, points) -> float:
    """Minimum over all spanning trees, enumerated via Pruefer sequences."""
    idx = [space.index(p) for p in points]
    k = len(idx)
    if k <= 1:
        return 0.0
    D = space.dist
    if k == 2:
        return float(D[idx[0], idx[1]])
    best: float | None = None
    best_edges: list[tuple[int, int]] | None = None
    for seq in product(range(k), repeat=k - 2):
        degree = [1] * k
        for x in seq:
            degree[x] += 1
        seq_list = list(seq)
        edges = []
        total = 0.0
        for x in seq_list:
            leaf = min(i for i in range(k) if degree[i] == 1)
            edges.append((leaf, x))
            total += float(D[idx[leaf], idx[x]])
            degree[leaf] -= 1
            degree[x] -= 1
        u, w = [i for i in range(k) if degree[i] == 1]
        edges.append((u, w))
        total += float(D[idx[u], idx[w]])
        if best is None or total < best:
            best = total
            best_edges = edges
    assert best_edges is not None
    return math.fsum(float(D[idx[a], idx[b]]) for a, b in best_edges)


def mpm_by_subset_dp(space: MetricSpace, points) -> float:
    """Minimum perfect matching by DP over even subsets, O(2^k k^2)."""
    idx = [space.index(p) for p in points]
    k = len(idx)
    assert k % 2 == 0
    if k == 0:
        return 0.0
    D = space.dist
    full = (1 << k) - 1
    cost = {0: 0.0}
    choice: dict[int, tuple[int, int]] = {}
    for mask in range(1, full + 1):
        if bin(mask).count("1") % 2:
            continue
        i = (mask & -mask).bit_length() - 1
        best = None
        arg = None
        rest_base = mask & ~(1 << i)
        for j in range(i + 1, k):
            if not mask & (1 << j):
                continue
            c = cost[rest_base & ~(1 << j)] + float(D[idx[i], idx[j]])
            if best is None or c < best:
                best, arg = c, (i, j)
        cost[mask] = best
        choice[mask] = arg
    pairs = []
    mask = full
    while mask:
        i, j = choice[mask]
        pairs.append((i, j))
        mask &= ~(1 << i) & ~(1 << j)
    return math.fsum(float(D[idx[a], idx[b]]) for a, b in pairs)


def cc_by_permutation_enumeration(space: MetricSpace, points) -> float:
    """Minimum cycle cover by brute force over fixed-point-free assignments."""
    idx = [space.index(p) for p in points]
    k = len(idx)
    assert k >= 2
    D = space.dist
    best = None
    best_perm = None
    for perm in permutations(range(k)):
        if any(perm[i] == i for i in range(k)):
            continue
        total = 0.0
        for i in range(k):
            total += float(D[idx[i], idx[perm[i]]])
        if best is None or total < best:
            best, best_perm = total, perm
    assert best_perm is not None
    return math.fsum(float(D[idx[i], idx[best_perm[i]]]) for i in range(k))


def set_distance(space: MetricSpace, p, H) -> float:
    """Closest distance from point ``p`` to the nonempty point set ``H``."""
    idx = space.indices(H)
    if not idx:
        raise DomainError("set_distance: empty point set")
    return float(space.dist[space.index(p), idx].min())


def set_set_distance(space: MetricSpace, H1, H2) -> float:
    """min over s in H1, t in H2 of d(s, t); both sets must be nonempty."""
    i1, i2 = space.indices(H1), space.indices(H2)
    if not i1 or not i2:
        raise DomainError("set_set_distance: empty point set")
    return float(space.dist[np.ix_(i1, i2)].min())


def longest_nn_edge(space: MetricSpace, points) -> EdgeKey:
    """The maximum EdgeKey among nearest-neighbor edges."""
    return nn_graph(space, points).longest


def event_contains(ev: EventSpec, g: StochasticGraph, r: Realization) -> bool:
    """Whether realization ``r`` lies in the event ``ev``."""
    event = ev.to_event(g)
    return all(
        event.absent[v] if s < 0 else event.allowed[v, s] for v, s in enumerate(r.indices)
    )


def enumerate_realizations(g: StochasticGraph):
    """Yield (assignment tuple, probability) with positive probability.

    Independent of the package's enumeration: plain itertools.product over
    per-node outcome lists.  Absent is encoded as -1.
    """
    per_node = []
    for v in range(g.n):
        outs = [(s, float(g.probs[v, s])) for s in range(g.m) if g.probs[v, s] > 0]
        if g.presence_mode == "existential":
            a = g.absent_mass(v)
            if a > 0:
                outs.append((-1, a))
        per_node.append(outs)
    for combo in product(*per_node):
        prob = 1.0
        for _, p in combo:
            prob *= p
        yield tuple(s for s, _ in combo), prob


def nearest_map(space: MetricSpace, realized: tuple[int, ...]) -> dict[int, int]:
    """For each realized point, its nearest realized point by (d, lo, hi)."""
    out = {}
    for a in realized:
        best = None
        for b in realized:
            if a == b:
                continue
            lo, hi = (a, b) if a < b else (b, a)
            key = (float(space.dist[lo, hi]), lo, hi)
            if best is None or key < best[0]:
                best = (key, b)
        out[a] = best[1]
    return out


def nn_edges_of(space: MetricSpace, realized: tuple[int, ...]):
    """Undirected NN edge keys (d, lo, hi) of a realized point set."""
    near = nearest_map(space, realized)
    edges = set()
    for a, b in near.items():
        lo, hi = (a, b) if a < b else (b, a)
        edges.add((float(space.dist[lo, hi]), lo, hi))
    return sorted(edges)


class NNEventStats:
    """Enumerated probabilities/terms of nearest-neighbor events.

    Keys: ordered point-index pairs for N_s(t) and A_s(t) = N_s(t) and
    "(s,t) is the longest NN edge"; (lo, hi) pairs for the mutual variants;
    EdgeKey-style (d, lo, hi) triples for the longest-edge decomposition.
    Values of CC come from the permutation-enumeration oracle.
    """

    def __init__(self, g: StochasticGraph):
        space = g.space
        acc: dict[str, dict] = {
            k: {}
            for k in (
                "ns", "as_prob", "as_term", "mut", "as_mut_prob",
                "as_mut_term", "lam_prob", "lam_term",
            )
        }
        present_mass = []
        for assignment, p in enumerate_realizations(g):
            present = tuple(sorted(i for i in assignment if i >= 0))
            if len(present) < 2:
                continue
            present_mass.append(p)
            near = nearest_map(space, present)
            edge_of = {}
            for a in present:
                b = near[a]
                lo, hi = (a, b) if a < b else (b, a)
                edge_of[a] = (float(space.dist[lo, hi]), lo, hi)
            lam = max(edge_of[a] for a in present)
            cc = cc_by_permutation_enumeration(
                space, [space.point_ids[i] for i in present]
            )
            acc["lam_prob"].setdefault(lam, []).append(p)
            acc["lam_term"].setdefault(lam, []).append(p * cc)
            for a in present:
                b = near[a]
                acc["ns"].setdefault((a, b), []).append(p)
                if lam == edge_of[a]:
                    acc["as_prob"].setdefault((a, b), []).append(p)
                    acc["as_term"].setdefault((a, b), []).append(p * cc)
            for a in present:
                b = near[a]
                if a < b and near[b] == a:
                    acc["mut"].setdefault((a, b), []).append(p)
                    if lam == edge_of[a]:
                        acc["as_mut_prob"].setdefault((a, b), []).append(p)
                        acc["as_mut_term"].setdefault((a, b), []).append(p * cc)
        self.tables = {k: {key: math.fsum(v) for key, v in d.items()} for k, d in acc.items()}
        self.present_mass = math.fsum(present_mass)

    def get(self, table: str, key, default=0.0) -> float:
        return self.tables[table].get(key, default)


def count_groups(rows, block: int) -> int:
    """Groups that terms handing ``class_fn`` these row counts, each less than
    ``block``, form when a group closes once its rows reach ``block``.  A
    deferred term (support above its sample count) hands one row per sample;
    the 64-block bound on held samples never closes a group of such terms."""
    groups, total = 0, 0
    for n in rows:
        total += n
        if total >= block:
            groups, total = groups + 1, 0
    return groups + (total > 0)


@pytest.fixture
def rng():
    return rng_for(20240817)
