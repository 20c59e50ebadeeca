"""Exact deterministic solvers evaluated per realization.

All lengths are recomputed from the chosen edge/pair multiset with
``math.fsum``, so two optimal solutions with the same true total produce the
same float.  Edge comparisons never use raw lengths alone: ``EdgeKey`` breaks
ties by endpoint indices under the space's canonical point order, which
replaces the usual "perturb so no two edges have equal length" assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

import networkx as nx
import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DomainError
from .model import MetricSpace


class EdgeKey(NamedTuple):
    """Totally ordered edge handle: compare by (length, lo, hi).

    ``lo < hi`` are point indices in the space's canonical order; distinct
    edges never compare equal even when their lengths coincide.
    """

    length: float
    lo: int
    hi: int


def edge_key(space: MetricSpace, a: Union[str, int], b: Union[str, int]) -> EdgeKey:
    ai, bi = space.index(a), space.index(b)
    if ai == bi:
        raise DomainError("an edge needs two distinct points")
    lo, hi = (ai, bi) if ai < bi else (bi, ai)
    return EdgeKey(float(space.dist[lo, hi]), lo, hi)


# ---------------------------------------------------------------------------
# Minimum spanning tree
# ---------------------------------------------------------------------------

def _mst_indices(space: MetricSpace, idx: Sequence[int]) -> float:
    k = len(idx)
    if k <= 1:
        return 0.0
    D = space.dist[np.ix_(idx, idx)]
    in_tree = np.zeros(k, dtype=bool)
    in_tree[0] = True
    best = D[0].copy()
    best[0] = np.inf
    picked: list[float] = []
    for _ in range(k - 1):
        j = int(np.argmin(best))
        picked.append(float(best[j]))
        in_tree[j] = True
        best[j] = np.inf
        np.minimum(best, np.where(in_tree, np.inf, D[j]), out=best)
    return math.fsum(picked)


def mst_length(space: MetricSpace, points: Sequence) -> float:
    """Exact MST weight over a realized point multiset (duplicates cost 0)."""
    return _mst_indices(space, space.indices(points))


# ---------------------------------------------------------------------------
# Minimum-weight perfect matching
# ---------------------------------------------------------------------------

def _mpm_indices(space: MetricSpace, idx: Sequence[int]) -> float:
    k = len(idx)
    if k % 2 != 0:
        raise DomainError(f"perfect matching needs an even point count, got {k}")
    if k == 0:
        return 0.0
    if k == 2:
        return float(space.dist[idx[0], idx[1]])
    # Blossom on exact Fraction weights: float ties cannot corrupt optimality.
    G = nx.Graph()
    for a in range(k):
        for b in range(a + 1, k):
            G.add_edge(a, b, weight=Fraction(float(space.dist[idx[a], idx[b]])))
    mate = nx.min_weight_matching(G)
    if 2 * len(mate) != k:
        raise DomainError("matching solver failed to return a perfect matching")
    return math.fsum(float(space.dist[idx[a], idx[b]]) for a, b in mate)


def mpm_length(space: MetricSpace, points: Sequence) -> float:
    """Exact minimum-weight perfect matching over an even point multiset."""
    return _mpm_indices(space, space.indices(points))


# ---------------------------------------------------------------------------
# Minimum cycle cover (2-cycles allowed, paying both directions)
# ---------------------------------------------------------------------------

def _cc_indices(space: MetricSpace, idx: Sequence[int]) -> float:
    k = len(idx)
    if k < 2:
        raise DomainError(f"cycle cover needs at least 2 points, got {k}")
    D = space.dist[np.ix_(idx, idx)].copy()
    # Forbid fixed points with a cost no optimal solution can touch.
    forbid = float(k) * (float(D.max()) + 1.0)
    np.fill_diagonal(D, forbid)
    rows, cols = linear_sum_assignment(D)
    sub = space.dist[np.ix_(idx, idx)]
    return math.fsum(float(sub[r, c]) for r, c in zip(rows, cols))


def cc_length(space: MetricSpace, points: Sequence) -> float:
    """Exact minimum cycle cover length via the assignment-problem reduction.

    A fixed-point-free assignment on the realized points is exactly a cover
    by cycles of length >= 2; a 2-cycle pays both directed copies of its edge.
    """
    return _cc_indices(space, space.indices(points))


# ---------------------------------------------------------------------------
# Nearest-neighbor graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NNGraph:
    """Undirected nearest-neighbor graph of a realized point set."""

    edges: tuple[EdgeKey, ...]
    longest: EdgeKey
    total_length: float


def _nn_indices(space: MetricSpace, idx: Sequence[int]) -> NNGraph:
    k = len(idx)
    if k < 2:
        raise DomainError(f"nearest-neighbor graph needs at least 2 points, got {k}")
    if len(set(idx)) != k:
        raise DomainError(
            "nearest-neighbor graph needs distinct points; split co-located nodes first"
        )
    edges: set[EdgeKey] = set()
    for a in range(k):
        best: EdgeKey | None = None
        for b in range(k):
            if a == b:
                continue
            lo, hi = (idx[a], idx[b]) if idx[a] < idx[b] else (idx[b], idx[a])
            key = EdgeKey(float(space.dist[lo, hi]), lo, hi)
            if best is None or key < best:
                best = key
        assert best is not None
        edges.add(best)
    ordered = tuple(sorted(edges))
    return NNGraph(
        edges=ordered,
        longest=ordered[-1],
        total_length=math.fsum(e.length for e in ordered),
    )


def nn_graph(space: MetricSpace, points: Sequence) -> NNGraph:
    """Nearest-neighbor graph under EdgeKey order over distinct points."""
    return _nn_indices(space, space.indices(points))


def longest_nn_edge(space: MetricSpace, points: Sequence) -> EdgeKey:
    """The maximum EdgeKey among nearest-neighbor edges."""
    return nn_graph(space, points).longest
