"""Exact deterministic solvers, batched over blocks of realizations.

Each private kernel (``_mst_indices``, ``_mpm_indices``, ``_cc_indices``,
``_nn_indices``) takes a ``(B, k)`` array of point indices, one realized
point set per row, and solves every row in one call; a row's value never
depends on the other rows of its block.  The public functions are one-row
calls on point ids.

All lengths are recomputed from the chosen edge/pair multiset with
``math.fsum``, so two optimal solutions with the same true total produce the
same float.  Edge comparisons never use raw lengths alone: ``EdgeKey`` breaks
ties by endpoint indices under the space's canonical point order, which
replaces the usual "perturb so no two edges have equal length" assumption.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

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


def edge_order(space: MetricSpace) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (lo, hi) of every edge of ``space`` in EdgeKey order.

    ``np.triu_indices`` lists the edges by (lo, hi), so a stable sort on
    length alone breaks ties as EdgeKey does.
    """
    lo, hi = np.triu_indices(space.m, 1)
    order = np.argsort(space.dist[lo, hi], kind="stable")
    return lo[order], hi[order]


# ---------------------------------------------------------------------------
# Blocks of realization classes
# ---------------------------------------------------------------------------

def fill_memo(
    rows: np.ndarray, memo: dict, solve: Callable[[np.ndarray], Iterable]
) -> list[tuple[int, ...]]:
    """Present point indices of each row of a row-sorted block, after adding
    to ``memo`` the point sets it lacks.

    Absent nodes are -1, so they sort to the front of their row.  ``solve``
    maps a (B, k) block of distinct k-point sets to their values; it is
    called once per present count, ascending.
    """
    rows = np.asarray(rows)
    absent = (rows < 0).sum(axis=1).tolist()
    keys = [tuple(row[a:]) for row, a in zip(rows.tolist(), absent)]
    groups: dict[int, dict[tuple[int, ...], None]] = {}
    for key in keys:
        if key not in memo:
            groups.setdefault(len(key), {})[key] = None
    for k in sorted(groups):
        sets = list(groups[k])
        memo.update(zip(sets, solve(np.array(sets, dtype=np.intp).reshape(len(sets), k))))
    return keys


def _one_row(space: MetricSpace, points: Sequence) -> np.ndarray:
    return np.array([space.indices(points)], dtype=np.intp)


_CHUNK_BYTES = 1 << 18  # bound on a kernel's per-chunk temporaries


def _chunks(B: int, row_bytes: int) -> Iterator[slice]:
    """Row slices of a block whose temporaries of ``row_bytes`` per row stay
    within ``_CHUNK_BYTES``; larger chunks raised peak memory without
    running faster."""
    step = max(1, _CHUNK_BYTES // row_bytes)
    return (slice(start, start + step) for start in range(0, B, step))


# ---------------------------------------------------------------------------
# Minimum spanning tree
# ---------------------------------------------------------------------------

def _mst_indices(space: MetricSpace, idx: np.ndarray) -> np.ndarray:
    """Prim's algorithm on every row at once, one gathered distance row per step."""
    B, k = idx.shape
    if k <= 1:
        return np.zeros(B)
    dist = space.dist
    rows = np.arange(B)
    in_tree = np.zeros((B, k), dtype=bool)
    in_tree[:, 0] = True
    best = dist[idx[:, :1], idx]
    best[:, 0] = np.inf
    picked = np.empty((B, k - 1))
    for step in range(k - 1):
        j = best.argmin(axis=1)
        picked[:, step] = best[rows, j]
        in_tree[rows, j] = True
        best[rows, j] = np.inf
        np.minimum(best, np.where(in_tree, np.inf, dist[idx[rows, j][:, None], idx]), out=best)
    return np.array([math.fsum(p) for p in picked.tolist()])


def mst_length(space: MetricSpace, points: Sequence) -> float:
    """Exact MST weight over a realized point multiset (duplicates cost 0)."""
    return float(_mst_indices(space, _one_row(space, points))[0])


# ---------------------------------------------------------------------------
# Minimum-weight perfect matching
# ---------------------------------------------------------------------------

_ENUMERATE_MAX = 12  # (k - 1)!! matchings: 10,395 at k = 12, 135,135 at k = 14


@functools.cache
def _pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(k, 1)``, read-only: the pairs that pair ids index."""
    a, b = np.triu_indices(k, 1)
    a.flags.writeable = b.flags.writeable = False
    return a, b


@functools.cache
def _matchings(k: int) -> np.ndarray:
    """Every perfect matching of K_k, one row of k/2 pair ids each.

    A pair id indexes ``_pairs(k)``.  Column 0 pairs point 0 with each j > 0
    in turn; the other columns are the matchings of K_(k-2) relabelled onto
    the points left over.  The table is stored column by column, the order
    ``_mpm_enumerate`` reads it in.
    """
    if k == 0:
        out = np.zeros((1, 0), dtype=np.intp)
    else:
        pair = np.zeros((k, k), dtype=np.intp)
        pair[_pairs(k)] = np.arange(k * (k - 1) // 2)
        a, b = _pairs(k - 2)
        sub = _matchings(k - 2)
        # rest[j - 1] lists the points other than 0 and j, ascending
        i, j = np.arange(k - 2), np.arange(1, k)[:, None]
        rest = 1 + i + (1 + i >= j)
        tail = pair[rest[:, a[sub]], rest[:, b[sub]]]
        head = np.broadcast_to(pair[0, 1:, None, None], tail.shape[:2] + (1,))
        out = np.concatenate([head, tail], axis=2).reshape(-1, k // 2)
    out = np.asfortranarray(out)
    out.flags.writeable = False
    return out


def _mpm_enumerate(space: MetricSpace, idx: np.ndarray) -> np.ndarray:
    """Minimum perfect matchings by a float screen over all (k-1)!! matchings.

    Each row's float sums S are accumulated left to right, one matching
    column at a time.  The h = k/2 weights are nonnegative doubles, so
    |S - E| <= g*E for a matching of exact weight E, with
    g = (h-1)u / (1 - (h-1)u) and u = 2**-53; an addition that underflows
    is exact, so this holds at every magnitude.  Hence min S >= (1-g)*E*,
    and an optimal matching has S <= (1+g)*E* <= min S * (1+g)/(1-g), less
    than min S * (1 + 4hu) * (1-u), which bounds the threshold
    min S * (1 + 4hu) rounded to a double from below.  (Where min S is below
    the normal range and that bound fails, sums up to min S are exact, so an
    optimal matching has S = E* <= min S.)  Every optimal matching is thus a
    candidate.  ``math.fsum`` of a candidate's weights is its exact weight
    correctly rounded, and rounding is monotone, so the least candidate fsum
    is E* correctly rounded: the float that fsum of any exact optimum, such
    as blossom's in ``_mpm_blossom``, gives.
    """
    B, k = idx.shape
    h = k // 2
    matchings = _matchings(k)
    columns = matchings.T
    M = len(matchings)
    a, b = _pairs(k)
    slack = 1.0 + 4 * h * 2.0**-53
    out = np.full(B, np.inf)
    for rows in _chunks(B, 8 * max(M, len(a))):
        w = space.dist[idx[rows, a], idx[rows, b]]
        S = np.take(w, columns[0], axis=1)
        term = np.empty_like(S)
        for col in columns[1:]:
            S += np.take(w, col, axis=1, out=term)
        r, m = np.divmod(np.flatnonzero(S <= S.min(axis=1, keepdims=True) * slack), M)
        fsums = [math.fsum(x) for x in w[r[:, None], matchings[m]].tolist()]
        np.minimum.at(out[rows], r, fsums)
    return out


def _matching_weights(k: int, a: list[int], b: list[int], w: list[float]) -> list[float]:
    """Edge weights of a minimum-weight perfect matching of K_k whose edge e
    joins a[e] and b[e] with weight w[e].

    Every double is an integer times a power of two, so the weights are scaled
    by their common power-of-two denominator to exact integers: networkx then
    runs blossom in integer arithmetic and verifies the optimum.
    """
    import networkx as nx  # loaded on first use: only blossom needs it

    ratios = [x.as_integer_ratio() for x in w]
    den = max(d for _, d in ratios)
    G = nx.Graph()
    for e, (num, d) in enumerate(ratios):
        G.add_edge(a[e], b[e], weight=num * (den // d), e=e)
    mate = nx.min_weight_matching(G)
    if 2 * len(mate) != k:
        raise DomainError("matching solver failed to return a perfect matching")
    return [w[G.edges[pair]["e"]] for pair in mate]


def _mpm_blossom(space: MetricSpace, idx: np.ndarray) -> np.ndarray:
    """Minimum perfect matchings by exact-integer blossom, one row at a time."""
    k = idx.shape[1]
    a, b = _pairs(k)
    weights = space.dist[idx[:, a], idx[:, b]].tolist()
    a, b = a.tolist(), b.tolist()
    return np.array([math.fsum(_matching_weights(k, a, b, w)) for w in weights])


def _mpm_indices(space: MetricSpace, idx: np.ndarray) -> np.ndarray:
    """Enumeration up to ``_ENUMERATE_MAX`` points, where (k-1)!! stays
    small, and blossom above; both give the correctly rounded optimum."""
    B, k = idx.shape
    if k % 2 != 0:
        raise DomainError(f"perfect matching needs an even point count, got {k}")
    if k == 0:
        return np.zeros(B)
    if k == 2:
        return space.dist[idx[:, 0], idx[:, 1]]
    if k <= _ENUMERATE_MAX:
        return _mpm_enumerate(space, idx)
    return _mpm_blossom(space, idx)


def mpm_length(space: MetricSpace, points: Sequence) -> float:
    """Exact minimum-weight perfect matching over an even point multiset."""
    return float(_mpm_indices(space, _one_row(space, points))[0])


# ---------------------------------------------------------------------------
# Minimum cycle cover (2-cycles allowed, paying both directions)
# ---------------------------------------------------------------------------

def _cc_indices(space: MetricSpace, idx: np.ndarray) -> np.ndarray:
    B, k = idx.shape
    if k < 2:
        raise DomainError(f"cycle cover needs at least 2 points, got {k}")
    cols = np.arange(k)
    out = []
    for rows in _chunks(B, 8 * k * k):
        D = space.dist[idx[rows, :, None], idx[rows, None, :]]
        # Forbid fixed points with a cost above any derangement's, so the
        # optimum never reads the diagonal.
        D[:, cols, cols] = (k * (D.max(axis=(1, 2)) + 1.0))[:, None]
        for Dr in D:
            rr, cc = linear_sum_assignment(Dr)
            out.append(math.fsum(Dr[rr, cc].tolist()))
    return np.array(out)


def cc_length(space: MetricSpace, points: Sequence) -> float:
    """Exact minimum cycle cover length via the assignment-problem reduction.

    A fixed-point-free assignment on the realized points is exactly a cover
    by cycles of length >= 2; a 2-cycle pays both directed copies of its edge.
    """
    return float(_cc_indices(space, _one_row(space, points))[0])


# ---------------------------------------------------------------------------
# Nearest-neighbor graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NNGraph:
    """Undirected nearest-neighbor graph of a realized point set."""

    edges: tuple[EdgeKey, ...]
    longest: EdgeKey
    total_length: float


class NNBlock(NamedTuple):
    """Nearest-neighbor graphs of a block, one row each."""

    nearest: np.ndarray  # (B, k): column of each point's nearest neighbor
    total: np.ndarray  # (B,): fsum of the distinct edge lengths
    longest: np.ndarray  # (B, 2): point indices (lo, hi) of the longest edge


def _nn_indices(space: MetricSpace, idx: np.ndarray) -> NNBlock:
    """Nearest-neighbor graphs of a block of row-sorted distinct point sets.

    With indices ascending along a row, the first minimum of a point's
    distance row is its least neighbor under EdgeKey order, and column order
    is point order, so the longest edge is the largest (length, lo, hi).
    """
    B, k = idx.shape
    if k < 2:
        raise DomainError(f"nearest-neighbor graph needs at least 2 points, got {k}")
    if np.any(idx[:, 1:] <= idx[:, :-1]):
        raise DomainError(
            "nearest-neighbor graph needs distinct points; split co-located nodes first"
        )
    r = np.arange(B)
    rows = r[:, None]
    cols = np.arange(k)
    D = space.dist[idx[:, :, None], idx[:, None, :]]
    D[:, cols, cols] = np.inf
    nearest = D.argmin(axis=2)
    lo, hi = np.minimum(cols, nearest), np.maximum(cols, nearest)
    # a mutual pair is one edge: keep it from its lower column only
    kept = (nearest[rows, nearest] != cols) | (cols < nearest)
    length = np.where(kept, D[rows, lo, hi], 0.0)
    total = np.array([math.fsum(x) for x in length.tolist()])
    top = kept & (length == length.max(axis=1, keepdims=True))
    e = np.where(top, lo * k + hi, -1).argmax(axis=1)
    longest = np.stack([idx[r, lo[r, e]], idx[r, hi[r, e]]], axis=1)
    return NNBlock(nearest, total, longest)


def nn_graph(space: MetricSpace, points: Sequence) -> NNGraph:
    """Nearest-neighbor graph under EdgeKey order over distinct points."""
    idx = np.sort(_one_row(space, points), axis=1)
    block = _nn_indices(space, idx)
    row = idx[0].tolist()
    edges = {edge_key(space, row[a], row[b]) for a, b in enumerate(block.nearest[0].tolist())}
    lo, hi = block.longest[0].tolist()
    return NNGraph(
        edges=tuple(sorted(edges)),
        longest=EdgeKey(float(space.dist[lo, hi]), lo, hi),
        total_length=float(block.total[0]),
    )


def longest_nn_edge(space: MetricSpace, points: Sequence) -> EdgeKey:
    """The maximum EdgeKey among nearest-neighbor edges."""
    return nn_graph(space, points).longest
