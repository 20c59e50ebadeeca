"""Expected-cycle-cover estimator conditioned on nearest-neighbor events.

Decomposition: let L be the longest edge of the nearest-neighbor graph of a
realization.  Summed over point pairs e = (s, t),

    E[CC] = sum_e  Pr[L = e] * E[CC | L = e]

and each edge term splits by inclusion-exclusion over "t is s's nearest
neighbor and e is longest" (A_s(t)), the symmetric A_t(s), and their
conjunction.  Conditioned on the plain nearest-neighbor event N_s(t) the
sampler is cheap and exact, and the longest-edge part rides along as an
indicator inside the sample average.

Points shared by several nodes are first split into co-located copies so each
point has a unique owning node; all distances are preserved, only the edge
tie-breaking order is refined, so solver values are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import DomainError, InternalAssertionError
from .mc import (
    EstimateReport,
    TermReport,
    estimate_conditional,
    run_conditional_mc,  # unused; perfbench's tracer swaps it
    sample_count,
)
from .model import Event, MetricSpace, StochasticGraph, pinned_event
from .solvers import PointSetMemo, _cc_indices, _nn_indices, edge_order

_SLACK = 1e-9  # relative float slack in per-sample sandwich assertions


@dataclass(frozen=True)
class SplitSpace:
    """Derived graph in which every point has at most one owning node."""

    graph: StochasticGraph
    owner: tuple[int, ...]   # split point index -> node index (-1 unowned)
    origin: tuple[int, ...]  # split point index -> original point index

    @cached_property
    def rank(self) -> np.ndarray:
        """(m, m) position of each edge in EdgeKey order; the diagonal ranks
        after every edge.  Built on first use, so mst-dp never pays for it."""
        lo, hi = edge_order(self.graph.space)
        rank = np.full((self.graph.m, self.graph.m), lo.size)
        rank[lo, hi] = rank[hi, lo] = np.arange(lo.size)
        return rank


def split_points(g: StochasticGraph) -> SplitSpace:
    """Copy each point once per node that may realize there.

    Copies are co-located (zero distance); the canonical point order of the
    new space is the deterministic tie-breaker standing in for the usual
    "no two edges have equal length" assumption.  A copy of point ``a`` for
    node ``v`` is named ``a~v``; if an unsplit point or an earlier copy holds
    that name already, the copy takes the first free ``a~v#k`` (k = 1, 2, ...).
    """
    ids: list[str] = []
    origin: list[int] = []
    owner: list[int] = []
    copies: list[int] = []
    held: set[str] = set()  # names taken so far: unsplit points, then copies
    for s in range(g.m):
        owners = [v for v in range(g.n) if g.probs[v, s] > 0.0]
        if len(owners) <= 1:
            held.add(g.space.point_ids[s])
            ids.append(g.space.point_ids[s])
            origin.append(s)
            owner.append(owners[0] if owners else -1)
        else:
            for v in owners:
                copies.append(len(ids))
                ids.append(f"{g.space.point_ids[s]}~{g.node_ids[v]}")
                origin.append(s)
                owner.append(v)
    used = set(ids)
    for i in copies:
        if ids[i] in held:
            k = 1
            while f"{ids[i]}#{k}" in used:
                k += 1
            ids[i] = f"{ids[i]}#{k}"
            used.add(ids[i])
        held.add(ids[i])
    origin_arr = np.asarray(origin)
    dist = g.space.dist[np.ix_(origin_arr, origin_arr)].copy()
    space = MetricSpace(ids, dist=dist, validate=False)
    probs = np.zeros((g.n, len(ids)))
    for sp_idx, (v, s) in enumerate(zip(owner, origin)):
        if v >= 0:
            probs[v, sp_idx] = g.probs[v, s]
    graph = StochasticGraph(
        g.node_ids, space, probs, presence_mode=g.presence_mode, validate=False
    )
    return SplitSpace(graph, tuple(owner), tuple(origin))


def _outside(sp: SplitSpace, si: int, ti: int, mutual: bool) -> np.ndarray:
    """Points the other nodes may take when t is s's nearest neighbor (and
    s is t's, if ``mutual``): those outside the ball of points nearer to s
    than t under EdgeKey order."""
    rank = sp.rank
    ball = rank[si] < rank[si, ti]
    if mutual:
        ball |= rank[ti] < rank[si, ti]
    return ~ball


def _resolve_pair(sp: SplitSpace, s, t) -> tuple[int, int, int, int]:
    si, ti = sp.graph.space.index(s), sp.graph.space.index(t)
    if si == ti:
        raise DomainError("the two points must be distinct")
    v, u = sp.owner[si], sp.owner[ti]
    if v >= 0 and v == u:
        raise DomainError("both points belong to the same node")
    return si, ti, v, u


def _masses(g: StochasticGraph, outside: np.ndarray) -> list[float]:
    """``mass_in(g, w, outside)`` of every node w, as one row-sum:
    ``np.compress`` gives C-ordered rows, each summed by numpy's 1-D
    pairwise routine, as ``mass_in`` sums its one row."""
    return (np.compress(outside, g.probs, axis=1).sum(axis=1) + g.outcome_probs[:, -1]).tolist()


def _pair_prob(sp: SplitSpace, si: int, ti: int, v: int, u: int, outside: np.ndarray) -> float:
    """Pr[v at si, u at ti, every other node in ``outside`` or absent]: the
    ``_masses`` of the other nodes multiplied in node order."""
    if v < 0 or u < 0:
        return 0.0
    masses = _masses(sp.graph, outside)
    masses[v] = masses[u] = 1.0  # exact factors
    if 0.0 in masses:  # no need to multiply further
        return 0.0
    return math.prod(masses, start=float(sp.graph.probs[v, si]) * float(sp.graph.probs[u, ti]))


def prob_nearest(sp: SplitSpace, s: Union[str, int], t: Union[str, int]) -> float:
    """Exact probability that t is the realized nearest neighbor of s."""
    si, ti, v, u = _resolve_pair(sp, s, t)
    return _pair_prob(sp, si, ti, v, u, _outside(sp, si, ti, False))


def prob_mutual_nearest(sp: SplitSpace, s: Union[str, int], t: Union[str, int]) -> float:
    """Exact probability that s and t are each other's nearest neighbors."""
    si, ti, v, u = _resolve_pair(sp, s, t)
    return _pair_prob(sp, si, ti, v, u, _outside(sp, si, ti, True))


@dataclass
class PairTerm:
    """One conditioned sub-term of the cycle-cover decomposition."""

    s: str
    t: str
    node_s: str
    node_t: str
    kind: str  # "nearest(s->t)" | "nearest(t->s)" | "mutual"
    prob: float = 0.0  # Pr[N_s(t)], or Pr[mutual] for "mutual"
    estimate: float = 0.0
    samples: int = 0
    indicator_hits: int = 0

    def to_dict(self) -> dict:
        return dict(vars(self))


def _check_rows(ok: np.ndarray, message: str, **values) -> None:
    """Raise ``InternalAssertionError`` at the first False row of ``ok``, with
    ``message`` formatted from that row of each array in ``values``."""
    if not ok.all():
        r = int(np.argmin(ok))
        row = {k: v[r].item() if isinstance(v, np.ndarray) else v for k, v in values.items()}
        raise InternalAssertionError(message.format(**row))


class _PairValues:
    """Shared per-run memos of realized point sets (``PointSetMemo``).

    ``nn`` holds a set's NN total and longest nearest-neighbor edge as
    lo * m + hi and is filled for every sampled set; ``cc`` holds a set's
    cycle cover and is filled only for the sets a pair term asks for,
    those whose longest edge is the term's pair.  Enforces the
    per-realization sandwiches: NN/k <= longest <= NN on every solved set,
    and NN <= CC <= 2 NN on every solved cycle cover.
    """

    def __init__(self, g: StochasticGraph):
        self.space = g.space
        self.nn = PointSetMemo(g.m, g.n)
        self.cc = PointSetMemo(g.m, g.n)

    def get(self, rows: np.ndarray) -> np.ndarray:
        """Longest nearest-neighbor edge (lo * m + hi) of each row of a
        row-sorted block (-1 for absent).

        Uncached point sets are solved with one call of the kernel per
        present count.
        """
        slots = self.nn.find(rows, self._solve_nn)
        return self.nn.values[1][slots]

    def class_fn(self, rows: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values, indicators) of row-sorted classes, each for the pair term
        whose pair (lo * m + hi) is its key: the indicator that the class's
        longest nearest-neighbor edge is that pair and, on those hits, its
        cycle cover, which must lie in d <= CC <= 2 n d (d the pair's length).
        """
        hit = self.get(rows) == keys
        out = np.zeros(len(rows))
        if hit.any():
            cc = self.cycle_covers(rows[hit])
            d, n = self.space.dist.flat[keys[hit]], rows.shape[1]
            _check_rows(
                (d * (1.0 - _SLACK) <= cc) & (cc <= 2.0 * n * d * (1.0 + _SLACK) + 1e-300),
                "conditioned cycle-cover bound violated: d={d}, CC={CC}", d=d, CC=cc,
            )
            out[hit] = cc
        return out, hit.astype(np.int64)

    def cycle_covers(self, rows: np.ndarray) -> np.ndarray:
        """CC of each row of a row-sorted block already passed to ``get``."""
        slots = self.cc.find(rows, self._solve_cc)
        return self.cc.values[0][slots]

    def _solve_nn(self, idx: np.ndarray):
        nn = _nn_indices(self.space, idx)
        total, (lo, hi), k = nn.total, nn.longest.T, idx.shape[1]
        lam = self.space.dist[lo, hi]
        _check_rows(
            (total / k * (1.0 - _SLACK) <= lam) & (lam <= total * (1.0 + _SLACK)),
            "longest-edge sandwich violated: NN={NN}, longest={longest}, k={k}",
            NN=total, longest=lam, k=k,
        )
        return total, lo * self.space.m + hi

    def _solve_cc(self, idx: np.ndarray):
        cc = _cc_indices(self.space, idx)
        # every set here was passed to get, so this only reads NN totals
        slots = self.nn.find(idx, self._solve_nn)
        total = self.nn.values[0][slots]
        _check_rows(
            (total * (1.0 - _SLACK) <= cc) & (cc <= 2.0 * total * (1.0 + _SLACK) + 1e-300),
            "cycle-cover sandwich violated: NN={NN}, CC={CC}", NN=total, CC=cc,
        )
        return (cc,)


def _finish(term: PairTerm, mean: float, hits: int, samples: int) -> None:
    term.estimate, term.indicator_hits, term.samples = term.prob * mean, hits, samples


def _plan_term(
    sp: SplitSpace, si: int, ti: int, v: int, u: int, n_samples: int, *, mutual: bool = False
) -> tuple[PairTerm, Optional[tuple[Event, int, str, int]]]:
    """The pair term of resolved points si, ti (owners v, u) with its exact
    probability and, when that is positive, its ``(event, n_samples, tag,
    key)`` term for ``estimate_conditional``: v at si, u at ti, every other
    node outside the ball or absent.  The key is the pair as lo * m + hi,
    the longest edge the term counts."""
    g, ids = sp.graph, sp.graph.space.point_ids
    kind = "mutual" if mutual else f"nearest({ids[si]}->{ids[ti]})"
    nodes = [g.node_ids[w] if w >= 0 else "" for w in (v, u)]
    term = PairTerm(ids[si], ids[ti], *nodes, kind)
    outside = _outside(sp, si, ti, mutual)
    term.prob = _pair_prob(sp, si, ti, v, u, outside)
    if term.prob <= 0.0:
        return term, None
    lo, hi = (si, ti) if si < ti else (ti, si)
    event = pinned_event(g, outside, v, si, u, ti)
    return term, (event, n_samples, f"cc/{term.s}/{term.t}/{kind}", lo * g.m + hi)


def estimate_pair_term(
    sp: SplitSpace,
    s: Union[str, int],
    t: Union[str, int],
    n_samples: int,
    seed: int,
    *,
    mutual: bool = False,
) -> PairTerm:
    """Indicator-weighted sample mean for one conditioned pair event.

    Samples are drawn given "t is s's nearest neighbor" (both directions for
    ``mutual``); each sample contributes CC times the indicator that (s, t)
    is the longest nearest-neighbor edge.  The returned estimate is the
    conditioning probability times that mean; its expectation is exactly
    Pr[A_s(t)] * E[CC | A_s(t)].  The term runs alone through
    ``estimate_conditional`` and equals the same term of ``estimate_ecc``
    bit for bit.
    """
    term, sampled = _plan_term(sp, *_resolve_pair(sp, s, t), n_samples, mutual=mutual)
    if sampled is not None:
        [result] = estimate_conditional(sp.graph, [sampled], _PairValues(sp.graph).class_fn, seed=seed)
        _finish(term, *result)
    return term


def pair_budget(n: int, m: int, epsilon: float) -> int:
    """Per-pair sample count: ceil(4 n^2 m^3 (ln n + ln m) / eps^3)."""
    return sample_count(4.0 * n * n * m**3 * (math.log(n) + math.log(m)), epsilon**3)


def estimate_ecc(
    g: StochasticGraph,
    epsilon: float,
    seed: int,
    *,
    budget_scale: float = 1.0,
    budget_cap: Optional[int] = None,
    threads: int = 1,
) -> EstimateReport:
    """FPRAS estimate of the expected minimum cycle cover length.

    Pair terms are sampled by ``estimate_conditional`` as they are planned;
    the edge terms are summed once the last one has run.
    """
    report = EstimateReport(
        estimator="cc",
        epsilon=epsilon,
        seed=seed,
        budget_scale=budget_scale,
        budget_cap=budget_cap,
        threads=threads,
    )
    if g.n < 2:
        raise DomainError("a cycle cover needs at least 2 nodes")
    sp = split_points(g)
    work = sp.graph
    full = pair_budget(g.n, work.m, epsilon)
    used = report.budget(full)
    report.extras["split_points"] = work.m
    report.extras["pair_budget"] = {"full": full, "used": used}
    if g.presence_mode != "certain":
        report.flags["cc_of_fewer_than_2_present_is_zero"] = True

    edges, sampled = [], []

    def pair_terms():
        """Plan each edge's three pair terms; yield those to be sampled."""
        for a in range(work.m):
            v = sp.owner[a]
            if v < 0:
                continue
            for b in range(a + 1, work.m):
                u = sp.owner[b]
                if u < 0 or u == v:
                    continue
                planned = [_plan_term(sp, a, b, v, u, used), _plan_term(sp, b, a, u, v, used)]
                t_ab, t_ba = planned[0][0], planned[1][0]
                # the mutual event lies inside both directional ones
                if t_ab.prob == 0.0 or t_ba.prob == 0.0:
                    t_mut = PairTerm(t_ab.s, t_ab.t, t_ab.node_s, t_ab.node_t, "mutual")
                else:
                    planned.append(_plan_term(sp, a, b, v, u, used, mutual=True))
                    t_mut = planned[2][0]
                edges.append((a, b, t_ab, t_ba, t_mut))
                for term, job in planned:
                    if job is not None:
                        sampled.append(term)
                        yield job

    results = estimate_conditional(work, pair_terms(), _PairValues(work).class_fn, seed=seed)
    for term, result in zip(sampled, results):
        _finish(term, *result)

    pairs: list[dict] = []
    for a, b, t_ab, t_ba, t_mut in edges:
        contribution = t_ab.estimate + t_ba.estimate - t_mut.estimate
        union_prob = t_ab.prob + t_ba.prob - t_mut.prob
        if union_prob <= 0.0:
            continue
        pairs.extend([t_ab.to_dict(), t_ba.to_dict(), t_mut.to_dict()])
        report.terms.append(
            TermReport(
                f"edge({work.space.point_ids[a]},{work.space.point_ids[b]})",
                contribution,
                "monte-carlo",
                probability=union_prob,
                samples=t_ab.samples + t_ba.samples + t_mut.samples,
                full_budget=full,
            )
        )
    report.extras["pairs"] = pairs
    return report.finish()
