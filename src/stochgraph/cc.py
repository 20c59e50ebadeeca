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
    run_conditional_mc,  # noqa: F401  (perfbench/tracer.py wraps this binding)
    sample_count,
)
from .model import MetricSpace, StochasticGraph, mass_in, pinned_event
from .solvers import _cc_indices, _nn_indices, edge_order, fill_memo

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
    "no two edges have equal length" assumption.
    """
    ids: list[str] = []
    origin: list[int] = []
    owner: list[int] = []
    for s in range(g.m):
        owners = [v for v in range(g.n) if g.probs[v, s] > 0.0]
        if len(owners) <= 1:
            ids.append(g.space.point_ids[s])
            origin.append(s)
            owner.append(owners[0] if owners else -1)
        else:
            for v in owners:
                ids.append(f"{g.space.point_ids[s]}~{g.node_ids[v]}")
                origin.append(s)
                owner.append(v)
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


def _pair_prob(sp: SplitSpace, s, t, mutual: bool) -> float:
    si, ti, v, u = _resolve_pair(sp, s, t)
    if v < 0 or u < 0:
        return 0.0
    g = sp.graph
    outside = _outside(sp, si, ti, mutual)
    prob = float(g.probs[v, si]) * float(g.probs[u, ti])
    for w in range(g.n):
        if w not in (v, u):
            prob *= mass_in(g, w, outside)
    return prob


def prob_nearest(sp: SplitSpace, s: Union[str, int], t: Union[str, int]) -> float:
    """Exact probability that t is the realized nearest neighbor of s."""
    return _pair_prob(sp, s, t, mutual=False)


def prob_mutual_nearest(sp: SplitSpace, s: Union[str, int], t: Union[str, int]) -> float:
    """Exact probability that s and t are each other's nearest neighbors."""
    return _pair_prob(sp, s, t, mutual=True)


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
    """Shared per-run cache: realized point set -> (CC, longest NN edge as
    lo * m + hi).

    Also enforces the per-realization sandwiches: NN <= CC <= 2 NN and
    NN/k <= longest <= NN.
    """

    def __init__(self, space: MetricSpace):
        self.space = space
        self.cache: dict[tuple[int, ...], tuple[float, int]] = {}

    def get(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CC and longest nearest-neighbor edge (lo * m + hi) of each row of
        a row-sorted block (-1 for absent).

        Uncached point sets are solved with one call of each kernel per
        present count.
        """
        keys = fill_memo(rows, self.cache, self._solve)
        cc, edge = zip(*map(self.cache.__getitem__, keys))
        return np.array(cc), np.array(edge)

    def _solve(self, idx: np.ndarray):
        nn = _nn_indices(self.space, idx)
        cc = _cc_indices(self.space, idx)
        total, (lo, hi), k = nn.total, nn.longest.T, idx.shape[1]
        _check_rows(
            (total * (1.0 - _SLACK) <= cc) & (cc <= 2.0 * total * (1.0 + _SLACK) + 1e-300),
            "cycle-cover sandwich violated: NN={NN}, CC={CC}", NN=total, CC=cc,
        )
        lam = self.space.dist[lo, hi]
        _check_rows(
            (total / k * (1.0 - _SLACK) <= lam) & (lam <= total * (1.0 + _SLACK)),
            "longest-edge sandwich violated: NN={NN}, longest={longest}, k={k}",
            NN=total, longest=lam, k=k,
        )
        return zip(cc.tolist(), (lo * self.space.m + hi).tolist())


def estimate_pair_term(
    sp: SplitSpace,
    s: Union[str, int],
    t: Union[str, int],
    n_samples: int,
    seed: int,
    *,
    mutual: bool = False,
    threads: int = 1,
    values: Optional[_PairValues] = None,
) -> PairTerm:
    """Indicator-weighted sample mean for one conditioned pair event.

    Samples are drawn given "t is s's nearest neighbor" (both directions for
    ``mutual``); each sample contributes CC times the indicator that (s, t)
    is the longest nearest-neighbor edge.  The returned estimate is the
    conditioning probability times that mean; its expectation is exactly
    Pr[A_s(t)] * E[CC | A_s(t)].
    """
    si, ti, v, u = _resolve_pair(sp, s, t)
    g = sp.graph
    kind = "mutual" if mutual else f"nearest({g.space.point_ids[si]}->{g.space.point_ids[ti]})"
    term = PairTerm(
        s=g.space.point_ids[si],
        t=g.space.point_ids[ti],
        node_s=g.node_ids[v] if v >= 0 else "",
        node_t=g.node_ids[u] if u >= 0 else "",
        kind=kind,
    )
    prob = prob_mutual_nearest(sp, si, ti) if mutual else prob_nearest(sp, si, ti)
    if prob <= 0.0:
        return term
    term.prob = prob

    values = values or _PairValues(g.space)
    lo, hi = (si, ti) if si < ti else (ti, si)
    target, d = lo * g.m + hi, float(g.space.dist[lo, hi])
    low, high = d * (1.0 - _SLACK), 2.0 * g.n * d * (1.0 + _SLACK) + 1e-300

    def class_fn(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cc, longest = values.get(rows)
        hit = longest == target
        _check_rows(
            ~hit | ((low <= cc) & (cc <= high)),
            "conditioned cycle-cover bound violated: d={d}, CC={CC}", d=d, CC=cc,
        )
        return np.where(hit, cc, 0.0), hit.astype(np.int64)

    mean, term.indicator_hits, term.samples = estimate_conditional(
        g,
        pinned_event(g, _outside(sp, si, ti, mutual), v, si, u, ti),
        class_fn,
        n_samples,
        seed=seed,
        tag=f"cc/{term.s}/{term.t}/{kind}",
        threads=threads,
    )
    term.estimate = prob * mean
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
    """FPRAS estimate of the expected minimum cycle cover length."""
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

    values = _PairValues(work.space)
    pairs: list[dict] = []
    for a in range(work.m):
        if sp.owner[a] < 0:
            continue
        for b in range(a + 1, work.m):
            if sp.owner[b] < 0 or sp.owner[b] == sp.owner[a]:
                continue
            t_ab = estimate_pair_term(
                sp, a, b, used, seed, threads=threads, values=values
            )
            t_ba = estimate_pair_term(
                sp, b, a, used, seed, threads=threads, values=values
            )
            t_mut = estimate_pair_term(
                sp, a, b, used, seed, mutual=True, threads=threads, values=values
            )
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
