"""Seeded Monte Carlo engine with explicit sample budgets.

Budgets invert the two-sided Chernoff bound for variables in [0, U] with mean
at least mu_lower: N = ceil(4 * U * ln(2/delta) / (mu_lower * epsilon^2))
samples make the failure probability at most delta.

Determinism: sample i draws from a counter-based substream owned by its index,
blocks have a fixed size, and aggregation is a fixed-fan-in pairwise tree over
sample order, so the result is bit-identical at any worker count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError
from .model import Event, EventSpec, StochasticGraph
from .rng import STREAM_VERSION, SampleStream
from .sampling import ConditionalSampler

BLOCK_SIZE = 4096


def tree_sum(values) -> float:
    """Pairwise (fan-in 2) sum in index order; independent of chunking."""
    a = np.asarray(values, dtype=float).ravel()
    if a.size == 0:
        return 0.0
    while a.size > 1:
        half = a.size // 2
        paired = a[0 : 2 * half : 2] + a[1 : 2 * half : 2]
        a = np.concatenate([paired, a[2 * half :]]) if a.size % 2 else paired
    return float(a[0])


def chernoff_budget(U: float, mu_lower: float, epsilon: float, delta: float) -> int:
    """Smallest N making the Chernoff failure bound <= delta, with the mean
    replaced by its lower bound."""
    if mu_lower <= 0.0:
        raise DomainError("mu_lower must be positive")
    if U < mu_lower:
        raise DomainError("U must be at least mu_lower")
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must be in (0, 1)")
    # U and mu_lower scaled by the same power of two: the budget is the same
    # float, and a U near the float range does not overflow the numerator
    _, e = math.frexp(U)
    U, mu_lower = math.ldexp(U, -e), math.ldexp(mu_lower, -e)
    return sample_count(4.0 * U * math.log(2.0 / delta), mu_lower * epsilon * epsilon)


def sample_count(numerator: float, denominator: float) -> int:
    """A full budget ``max(1, ceil(numerator / denominator))``; raises
    ``DomainError`` when epsilon is so small that the denominator underflows
    to 0 or the ratio overflows."""
    if not (denominator > 0.0 and math.isfinite(numerator / denominator)):
        raise DomainError("epsilon is too small: the full sample budget is not finite")
    return max(1, math.ceil(numerator / denominator))


def check_run_settings(
    scale: float = 1.0, cap: Optional[int] = None, threads: int = 1, epsilon: float = 1.0
) -> None:
    """Reject an epsilon outside (0, 1], a budget scale that is not positive
    and finite, and a sample cap or thread count below 1."""
    if not 0.0 < epsilon <= 1.0:
        raise DomainError("epsilon must be in (0, 1]")
    if not (math.isfinite(scale) and scale > 0.0):
        raise DomainError("budget scale must be positive and finite")
    if cap is not None and cap < 1:
        raise DomainError("budget cap must be at least 1")
    if threads < 1:
        raise DomainError("thread count must be at least 1")


def apply_budget_scale(full_n: int, scale: float = 1.0, cap: Optional[int] = None) -> int:
    """Scaled-down sample count: ceil(full * scale), clipped by cap, floor 1.

    The cap clips the product before it is rounded up, which gives the same
    count for an integer cap and keeps a huge scale from overflowing.
    """
    check_run_settings(scale, cap)
    n = full_n if scale == 1.0 else full_n * scale
    if cap is not None:
        n = min(n, int(cap))
    if not math.isfinite(n):
        raise DomainError("scaled sample budget is not finite; give a budget cap")
    return max(1, math.ceil(n))


def realization_classes(rows: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a row-sorted index block and each row's class.

    ``rows`` holds point indices in [-1, m).  Returns (classes, inverse) with
    ``classes[inverse]`` equal to ``rows``.  Each row is encoded as one int64
    mixed-radix key sum((row[j] + 1) * (m + 1)**(n - 1 - j)), which keeps
    lexicographic row order; when (m + 1)**n does not fit in int64 the rows
    are compared as raw bytes instead.
    """
    n = rows.shape[1]
    if (m + 1) ** n < 2**63:
        keys = np.zeros(len(rows), dtype=np.int64)
        for j in range(n):
            keys *= m + 1
            keys += rows[:, j] + 1
    else:
        rows = np.ascontiguousarray(rows)
        keys = rows.view(np.dtype((np.void, rows.itemsize * n))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], inverse


def run_conditional_mc(
    sampler: ConditionalSampler,
    class_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    n_samples: int,
    stream: SampleStream,
    threads: int = 1,
) -> tuple[float, int]:
    """Mean of a per-realization value over n_samples conditional draws.

    ``class_fn`` maps a block's (B, n) array of distinct row-sorted
    realization classes (point indices, -1 for absent) to (values,
    indicators), one of each per class; it is called once per block and may
    cache.  Returns (mean, indicator_hits).

    Values are summed times ``scale``, a power of two below 1 / n_samples, so
    no sum of finite values overflows; above the subnormal range that is exact.
    """
    n_blocks = (n_samples + BLOCK_SIZE - 1) // BLOCK_SIZE
    scale = 2.0 ** -int(n_samples).bit_length()

    def process(b: int) -> tuple[float, int]:
        start = b * BLOCK_SIZE
        count = min(BLOCK_SIZE, n_samples - start)
        rows = sampler.draw_block(stream, start, count)
        rows.sort(axis=1)
        classes, inverse = realization_classes(rows, sampler.g.m)
        vals, hits = class_fn(classes)
        vals = np.asarray(vals, dtype=float)
        hits = np.asarray(hits, dtype=np.int64)
        return tree_sum(vals[inverse] * scale), int(hits[inverse].sum())

    if threads > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(process, range(n_blocks)))
    else:
        results = [process(b) for b in range(n_blocks)]

    total = tree_sum(np.array([s for s, _ in results]))
    hits = sum(h for _, h in results)
    return total / n_samples / scale, hits


def estimate_conditional(
    g: StochasticGraph,
    event: Union[EventSpec, Event, None],
    class_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    n_samples: int,
    *,
    seed: int,
    tag: str,
    threads: int = 1,
) -> tuple[float, int, int]:
    """Sample mean of ``class_fn`` under the conditioning event.

    ``class_fn`` is as in ``run_conditional_mc``; draws come from the
    ``(seed, tag)`` stream.  Returns (mean, indicator_hits, samples_used).
    If the event pins every node, ``class_fn`` runs once on that
    realization, outside the engine, and counts as one sample.
    """
    sampler = ConditionalSampler(g, event)
    if sampler.is_deterministic:
        vals, hits = class_fn(np.sort([[int(o[0]) for o in sampler.outcomes]], axis=1))
        return float(vals[0]), int(hits[0]), 1
    stream = SampleStream(seed, tag, g.n)
    mean, hits = run_conditional_mc(sampler, class_fn, n_samples, stream, threads)
    return mean, hits, n_samples


# ---------------------------------------------------------------------------
# Estimator reports
# ---------------------------------------------------------------------------

@dataclass
class TermReport:
    """One additive term of an estimate and how it was obtained."""

    name: str
    value: float
    method: str  # "exact" | "monte-carlo" | "far-field"
    probability: Optional[float] = None
    mean: Optional[float] = None
    samples: int = 0
    full_budget: Optional[int] = None
    possibly_negligible: bool = False

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "value": self.value,
            "method": self.method,
            "samples": self.samples,
        }
        if self.probability is not None:
            d["probability"] = self.probability
        if self.mean is not None:
            d["mean"] = self.mean
        if self.full_budget is not None:
            d["full_budget"] = self.full_budget
        if self.possibly_negligible:
            d["possibly_negligible"] = True
        return d


@dataclass
class EstimateReport:
    """Estimator output: the value, its term breakdown, and run parameters.

    Every estimator builds its report first, which checks the run settings in
    one order and starts the clock; ``finish`` totals the terms and stops it.
    """

    estimator: str
    epsilon: float
    seed: int
    value: float = 0.0
    terms: list[TermReport] = field(default_factory=list)
    epsilon_mc: Optional[float] = None
    budget_scale: float = 1.0
    budget_cap: Optional[int] = None
    threads: int = 1
    flags: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def __post_init__(self):
        check_run_settings(self.budget_scale, self.budget_cap, self.threads, self.epsilon)
        self._t0 = time.perf_counter()

    def budget(self, full_n: int) -> int:
        """A term's sample count: its full budget scaled and capped."""
        return apply_budget_scale(full_n, self.budget_scale, self.budget_cap)

    def finish(self) -> "EstimateReport":
        """Set the value to the exact (fsum) total of the term values and the
        elapsed time; return the report."""
        self.value = math.fsum(t.value for t in self.terms)
        self.elapsed = time.perf_counter() - self._t0
        return self

    def to_dict(self, include_timing: bool = False) -> dict:
        d = {
            "schema_version": 1,
            "stream_version": STREAM_VERSION,
            "estimator": self.estimator,
            "value": self.value,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "budget_scale": self.budget_scale,
            "budget_cap": self.budget_cap,
            "threads": self.threads,
            "terms": [t.to_dict() for t in self.terms],
        }
        if self.epsilon_mc is not None:
            d["epsilon_mc"] = self.epsilon_mc
        if self.flags:
            d["flags"] = dict(sorted(self.flags.items()))
        if self.extras:
            d["extras"] = self.extras
        if include_timing:
            d["elapsed_seconds"] = self.elapsed
        return d

