"""Exact deterministic solvers, batched over blocks of realizations.

Each private kernel (``_mst_indices``, ``_mpm_indices``, ``_cc_indices``,
``_nn_indices``) takes a ``(B, k)`` array of point indices, one realized
point set per row, and solves every row in one call; a row's value never
depends on the other rows of its block.  The public functions are one-row
calls on point ids.  Matchings of up to 12 points and cycle covers of up to
5 are found by enumeration; larger ones import networkx's blossom and
scipy's assignment solver at first use, so importing the package loads
neither.

All lengths are recomputed from the chosen edge/pair multiset as its
correctly rounded sum, so two optimal solutions with the same true total
produce the same float.  The batched kernels sum a block's rows with
``exact_sums``, which certifies each vectorized sum equal to ``math.fsum``'s
and falls back to ``math.fsum`` where it cannot.  Edge comparisons never use
raw lengths alone: ``EdgeKey`` breaks ties by endpoint indices under the
space's canonical point order, which replaces the usual "perturb so no two
edges have equal length" assumption.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

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

@functools.lru_cache(maxsize=8)
def rank_table(m: int, n: int) -> Optional[np.ndarray]:
    """Terms of the multiset rank sum_j C(row[j] + 1 + j, j + 1) of a sorted
    row of n point indices in [-1, m), or None when C(m + n, n) >= 2**63.

    Returns a read-only flat int64 table holding C(x + j, j + 1) at
    j * (m + 1) + x, for x = row[j] + 1 in [0, m].  The y_j = x_j + j of a
    sorted row rise strictly in [0, m + n), so the rank is the combinatorial
    number of an n-subset: a bijection of the rows onto [0, C(m + n, n)),
    every partial sum within int64.  A leading -1 adds C(j, j + 1) = 0, so a
    k-wide block read through the table's last k columns gives each set the
    rank of its padded n-wide row.  Column j is the running sum of column
    j - 1 (hockey stick), each entry at most the largest rank.
    """
    if math.comb(m + n, n) >= 2**63:
        return None
    columns = [np.arange(m + 1, dtype=np.int64)]
    for _ in range(n - 1):
        columns.append(np.cumsum(columns[-1]))
    table = np.concatenate(columns)
    table.flags.writeable = False
    return table


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(keys, return_index=True, return_inverse=True)`` of a
    non-empty array, from one unstable argsort: a key's first index is the
    least index among its copies."""
    order = keys.argsort()
    ordered = keys[order]
    head = np.empty(len(keys), dtype=bool)
    head[0] = True
    head[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(head)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(head) - 1
    return ordered[starts], np.minimum.reduceat(order, starts), inverse


class PointSetMemo:
    """Values of realized point sets, each set solved once, shared by threads.

    ``find(rows, solve)`` takes a row-sorted block of point indices in
    [-1, m) (-1 absent, sorted first) at most n wide and returns each row's
    slot in ``values``, after solving the sets the memo lacks.  ``solve`` maps a
    (B, k) block of distinct k-point sets to a tuple of value arrays; it is
    called once per present count, ascending, on the first row of each new
    set, in first-occurrence order.

    A row's key is one int64, its multiset rank under ``rank_table(m, n)``;
    a block k wide reads the table's last k columns.  Where the rank could
    reach 2**63, the key is the row's own digits: ``rows + 1`` in the last k
    columns of a zeroed (B, n) array of ``np.min_scalar_type(m)``, viewed as
    one ``np.void``, so absent entries and missing columns alike read 0.
    Either way a set has one key at any width.  Keys sit in sorted runs,
    each at most half the size of the one before, so a block is looked up
    with one ``searchsorted`` per run and a set is merged O(log) times.
    Slots never move and ``values`` only grows, so a slot reads the same
    value from any later ``values``.  Threads solve outside the lock and
    merge under it; a set two threads solved at once is kept once.
    """

    def __init__(self, m: int, n: int):
        self.n = n
        self.values: tuple = ()  # one array per value, grown by doubling
        self._count = 0
        self._runs: tuple = ()  # (sorted keys, their slots), largest first
        self._lock = threading.Lock()
        self._table = rank_table(m, n)
        if self._table is not None:
            self._offsets = np.arange(n) * (m + 1) + 1
        else:
            self._digit = np.min_scalar_type(m)
            self._void = np.dtype((np.void, n * self._digit.itemsize))

    def __len__(self) -> int:
        return self._count

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """One key per row of a row-sorted block."""
        w = rows.shape[1]
        if self._table is not None:
            at = rows + self._offsets[self.n - w:]
            # in range by construction; "clip" skips take's buffered bounds check
            self._table.take(at, out=at, mode="clip")
            return at.sum(axis=1)
        digits = np.zeros((len(rows), self.n), dtype=self._digit)
        np.add(rows, 1, out=digits[:, self.n - w:], casting="unsafe")
        return digits.view(self._void).reshape(-1)

    def find(self, rows: np.ndarray, solve: Callable[[np.ndarray], tuple]) -> np.ndarray:
        """Slot of each row's set in ``values``, solving the sets not held."""
        if not len(rows):
            return np.zeros(0, dtype=np.intp)
        runs = self._runs
        keys, first, inverse = _distinct(self.keys(rows))
        slots = self._lookup(runs, keys)
        new = np.flatnonzero(slots < 0)
        if new.size:
            new = new[np.argsort(first[new])]  # first-occurrence order
            at = first[new]
            w = rows.shape[1]
            if w and rows[at, 0].min() < 0:
                present = np.count_nonzero(rows[at] >= 0, axis=1)
            else:
                present = np.full(len(at), w)
            counts = np.unique(present)
            if len(counts) > 1:
                order = np.argsort(present, kind="stable")
                new, at, present = new[order], at[order], present[order]
            solved = []
            for k in counts.tolist():
                sel = at[present == k]
                # a view when every row is new: cold blocks skip a gather
                sets = rows[:, w - k:] if len(sel) == len(rows) else rows[sel, w - k:]
                solved.append(solve(sets))
            values = [np.concatenate(c) for c in zip(*solved)]
            slots[new] = self._merge(runs, keys[new], values)
        return slots[inverse]

    @staticmethod
    def _lookup(runs: tuple, keys: np.ndarray) -> np.ndarray:
        """Slot of each of the sorted ``keys`` in ``runs``; -1 if absent."""
        slots = np.full(len(keys), -1, dtype=np.intp)
        for run, run_slots in runs:
            at = np.minimum(np.searchsorted(run, keys), len(run) - 1)
            hit = run[at] == keys
            slots[hit] = run_slots[at[hit]]
        return slots

    def _merge(self, runs: tuple, keys: np.ndarray, values: list) -> np.ndarray:
        """Slots of distinct ``keys`` missing from ``runs``, after storing
        the ``values`` of those no other thread stored since."""
        with self._lock:
            if self._runs is runs:
                slots = np.full(len(keys), -1, dtype=np.intp)
            else:
                slots = self._lookup(self._runs, keys)
            new = np.flatnonzero(slots < 0)
            if new.size:
                start, end = self._count, self._count + new.size
                slots[new] = np.arange(start, end)
                stored = list(self.values) or [np.empty(0, dtype=v.dtype) for v in values]
                for i, v in enumerate(values):
                    if len(stored[i]) < end:
                        grown = np.empty(max(end, 2 * len(stored[i])), dtype=stored[i].dtype)
                        grown[:start] = stored[i][:start]
                        stored[i] = grown
                    stored[i][start:end] = v[new]
                # values before runs: a slot is found only once it is stored
                self.values, self._count = tuple(stored), end
                new = new[np.argsort(keys[new])]
                runs = list(self._runs) + [(keys[new], slots[new])]
                while len(runs) > 1 and len(runs[-2][0]) <= 2 * len(runs[-1][0]):
                    (a, sa), (b, sb) = runs.pop(-2), runs.pop()
                    at = np.searchsorted(a, b)
                    runs.append((np.insert(a, at, b), np.insert(sa, at, sb)))
                self._runs = tuple(runs)
        return slots


def _one_row(space: MetricSpace, points: Sequence) -> np.ndarray:
    return np.array([space.indices(points)], dtype=np.intp)


_CHUNK_BYTES = 1 << 18  # bound on a kernel's per-chunk temporaries


def _chunks(B: int, row_bytes: int) -> Iterator[slice]:
    """Row slices of a block whose temporaries of ``row_bytes`` per row stay
    within ``_CHUNK_BYTES``; larger chunks raised peak memory without
    running faster."""
    step = max(1, _CHUNK_BYTES // row_bytes)
    return (slice(start, start + step) for start in range(0, B, step))


_SUM_MIN_ENTRIES = 512  # measured: below it, one fsum per column beats ~20 numpy calls


def exact_sums(x: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each column of a (K, B) float array, bit for bit.

    One error-free extraction (Rump, Ogita and Oishi) splits every entry at
    sigma, a power of two at least 2K times the block's largest magnitude:
    q = (x + sigma) - sigma and p = x - q are exact, each q is a multiple of
    u*sigma (u = 2**-53) and |p| <= u*sigma.  A column's q's sum exactly,
    every partial sum being a multiple of u*sigma no larger than sigma; its
    p's sum within gamma_(K-1) * K*u*sigma <= K*K*u*u*sigma of their exact
    sum (K*K*u < 1; additions below the normal range are exact).  With
    r = fl(hi + lo) and its exact remainder t (TwoSum), the exact column sum
    lies within |t| + K*K*u*u*sigma of r, so r is its correctly rounded
    value, fsum's result, when that distance is below half the gap from |r|
    down to the next float.  Rounding is monotone, so the float test
    2 * fl(|t| + bound) < gap implies the exact one.  Columns it cannot
    settle (zero or tiny sums, near-ties, heavy cancellation), blocks with
    a non-finite or huge entry and blocks under ``_SUM_MIN_ENTRIES`` entries
    take ``math.fsum``.
    """
    K, B = x.shape
    if x.size >= _SUM_MIN_ENTRIES and K < 1 << 26:
        top = max(x.max(), -x.min())  # nan when any entry is
        e = math.frexp(top)[1] + (K - 1).bit_length() + 1  # 2**e >= 2K * top
        if math.isfinite(top) and e <= 1023:
            sigma = math.ldexp(1.0, max(e, -900))  # sigma and the bound stay normal
            w = x + sigma
            w -= sigma
            hi = w.sum(axis=0)
            lo = np.subtract(x, w, out=w).sum(axis=0)
            r = hi + lo
            z = r - hi
            t = hi - (r - z)
            lo -= z
            t += lo
            np.abs(t, out=t)
            t += sigma * (K * K * 2.0**-106)
            t += t
            np.abs(r, out=hi)
            hi -= np.nextafter(hi, 0.0)
            ok = t < hi
            if not ok.all():
                bad = np.flatnonzero(~ok)
                r[bad] = [math.fsum(col) for col in x[:, bad].T.tolist()]
            return r
    return np.array([math.fsum(col) for col in x.T.tolist()], dtype=float)


# ---------------------------------------------------------------------------
# Minimum spanning tree
# ---------------------------------------------------------------------------

def _mst_indices(space: MetricSpace, idx: np.ndarray) -> np.ndarray:
    """Prim's algorithm on every row at once, one gathered distance row per step.

    ``live`` holds each row's points with every tree point replaced by m, so
    gathering the new tree point's row of ``space.padded_dist`` at ``live``
    reads +inf at the tree points and no tree mask is kept.
    """
    B, k = idx.shape
    if k <= 1:
        return np.zeros(B)
    m, pad = space.m, space.padded_dist
    picked = np.empty((k - 1, B))
    for part in _chunks(B, 32 * k):  # four (rows, k) temporaries of 8-byte items
        live = idx[part].astype(np.intp)
        at = np.arange(0, live.size, k)  # flat position of each row's column 0
        offset = live.reshape(-1) * (m + 1)  # where each entry's row starts in pad
        live[:, 0] = m
        best = pad.take(offset[at, None] + live)
        for step in range(k - 1):
            cell = best.argmin(axis=1)
            cell += at
            best.take(cell, out=picked[step, part])
            if step == k - 2:
                break
            best.put(cell, np.inf)
            live.put(cell, m)
            np.minimum(best, pad.take(offset.take(cell)[:, None] + live), out=best)
    return exact_sums(picked)


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
    ``_least_sums`` reads it in.
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


def _least_sums(
    space: MetricSpace, idx: np.ndarray, a: np.ndarray, b: np.ndarray, table: np.ndarray
) -> np.ndarray:
    """Each row's least correctly rounded candidate sum, by a float screen.

    Weight e of a row is ``space.dist[row[a[e]], row[b[e]]]``; each row of
    ``table`` (stored column by column) lists the ids of the h weights one
    candidate sums.  A row's float sums S are accumulated left to right, one
    table column at a time.  The weights are nonnegative doubles, so
    |S - E| <= g*E for a candidate of exact sum E, with
    g = (h-1)u / (1 - (h-1)u) and u = 2**-53; an addition that underflows
    is exact, so this holds at every magnitude.  Hence min S >= (1-g)*E*,
    and a least candidate has S <= (1+g)*E* <= min S * (1+g)/(1-g), less
    than min S * (1 + 4hu) * (1-u), which bounds the threshold
    min S * (1 + 4hu) rounded to a double from below.  (Where min S is below
    the normal range and that bound fails, sums up to min S are exact, so a
    least candidate has S = E* <= min S.)  Every least candidate thus
    passes.  ``exact_sums`` of a passing candidate's weights, ``math.fsum``'s
    float, is its exact sum correctly rounded, and rounding is monotone, so
    the least of them is E* correctly rounded: the float that fsum of any
    exact optimum gives.
    """
    B = len(idx)
    M, h = table.shape
    columns = table.T
    slack = 1.0 + 4 * h * 2.0**-53
    out = np.full(B, np.inf)
    for rows in _chunks(B, 8 * max(M, len(a))):
        w = space.dist[idx[rows, a], idx[rows, b]]
        S = np.take(w, columns[0], axis=1)
        term = np.empty_like(S)
        for col in columns[1:]:
            S += np.take(w, col, axis=1, out=term)
        r, m = np.divmod(np.flatnonzero(S <= S.min(axis=1, keepdims=True) * slack), M)
        np.minimum.at(out[rows], r, exact_sums(w[r, table[m].T]))
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
        return _least_sums(space, idx, *_pairs(k), _matchings(k))
    return _mpm_blossom(space, idx)


def mpm_length(space: MetricSpace, points: Sequence) -> float:
    """Exact minimum-weight perfect matching over an even point multiset."""
    return float(_mpm_indices(space, _one_row(space, points))[0])


# ---------------------------------------------------------------------------
# Minimum cycle cover (2-cycles allowed, paying both directions)
# ---------------------------------------------------------------------------

_CC_ENUMERATE_MAX = 5  # measured: from 6 points (265 derangements) one assignment a row is faster


@functools.cache
def _derangements(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every fixed-point-free permutation p of k points, as ``_least_sums``
    reads it: the cell endpoints (a, b) = divmod(range(k * k), k) of a
    row's k x k distance table, and one row of the flat cells i * k + p[i]
    per permutation, stored column by column."""
    a, b = np.divmod(np.arange(k * k), k)
    table = [
        [i * k + j for i, j in enumerate(p)]
        for p in itertools.permutations(range(k))
        if all(i != j for i, j in enumerate(p))
    ]
    table = np.asfortranarray(np.array(table, dtype=np.intp))
    for x in (a, b, table):
        x.flags.writeable = False
    return a, b, table


def _cc_assign(space: MetricSpace, idx: np.ndarray) -> np.ndarray:
    """Minimum cycle covers by one assignment per row."""
    from scipy.optimize import linear_sum_assignment  # loaded on first use: only k > 5 needs it

    B, k = idx.shape
    cols = np.arange(k)
    lengths = np.empty((k, B))
    for rows in _chunks(B, 8 * k * k):
        D = space.dist[idx[rows, :, None], idx[rows, None, :]]
        # Forbid fixed points with a cost above any derangement's, so the
        # optimum never reads the diagonal.
        D[:, cols, cols] = (k * (D.max(axis=(1, 2)) + 1.0))[:, None]
        chosen = np.array([linear_sum_assignment(Dr)[1] for Dr in D])  # row r's column
        lengths[:, rows] = D[np.arange(len(D)), cols[:, None], chosen.T]
    return exact_sums(lengths)


def _cc_indices(space: MetricSpace, idx: np.ndarray) -> np.ndarray:
    """Minimum cycle covers: a fixed-point-free assignment of least length.

    Up to ``_CC_ENUMERATE_MAX`` points every derangement (1, 2, 9 and 44 at
    k = 2 ... 5) is screened by ``_least_sums``; above that each row solves
    the assignment problem with fixed points priced out, and scipy is
    imported at the first such row.  Both give the optimum correctly
    rounded.
    """
    B, k = idx.shape
    if k < 2:
        raise DomainError(f"cycle cover needs at least 2 points, got {k}")
    if k <= _CC_ENUMERATE_MAX:
        return _least_sums(space, idx, *_derangements(k))
    return _cc_assign(space, idx)


def cc_length(space: MetricSpace, points: Sequence) -> float:
    """Exact minimum cycle cover length over a realized point multiset.

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
    total: np.ndarray  # (B,): correctly rounded sum of the distinct edge lengths
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
    cols = np.arange(k)
    lengths = np.empty((k, B))
    nearest, longest = [], []
    for chunk in _chunks(B, 8 * k * k):
        at = idx[chunk]
        D = space.dist[at[:, :, None], at[:, None, :]]
        D[:, cols, cols] = np.inf
        near = D.argmin(axis=2)
        r = np.arange(len(D))
        rows = r[:, None]
        lo, hi = np.minimum(cols, near), np.maximum(cols, near)
        # a mutual pair is one edge: keep it from its lower column only
        kept = (near[rows, near] != cols) | (cols < near)
        length = np.where(kept, D[rows, lo, hi], 0.0)
        lengths[:, chunk] = length.T
        top = kept & (length == length.max(axis=1, keepdims=True))
        e = np.where(top, lo * k + hi, -1).argmax(axis=1)
        nearest.append(near)
        longest.append(np.stack([at[r, lo[r, e]], at[r, hi[r, e]]], axis=1))
    return NNBlock(np.concatenate(nearest), exact_sums(lengths), np.concatenate(longest))


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
