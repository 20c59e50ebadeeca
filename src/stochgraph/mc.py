"""Seeded Monte Carlo engine with explicit sample budgets.

Budgets invert the two-sided Chernoff bound for variables in [0, U] with mean
at least mu_lower: N = ceil(4 * U * ln(2/delta) / (mu_lower * epsilon^2))
samples make the failure probability at most delta.

Determinism: sample i draws from a counter-based substream owned by its index,
blocks have a fixed size, and aggregation is a fixed-fan-in pairwise tree over
sample order, so the result does not depend on how samples are grouped into
blocks or terms.  Every block runs on the calling thread.  The small
terms of a group are reduced together: those of one sample count are stacked
and each row is summed by the same tree (``tree_sums``), so each term equals
its run alone.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor  # unused; perfbench's tracer swaps it
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import DomainError
from .model import Event, EventSpec, StochasticGraph
from .rng import STREAM_VERSION, SampleStream
from .sampling import BLOCK_SIZE, ConditionalSampler, draw_terms


def tree_sums(a: np.ndarray) -> np.ndarray:
    """Pairwise (fan-in 2) sum of each row of a 2-D array in column order,
    an odd last column carried up a level; one row is summed as 1-D."""
    k = len(a)
    a = a[0] if k == 1 else a.T
    while len(a) > 1:
        half = len(a) // 2
        paired = a[0 : 2 * half : 2] + a[1 : 2 * half : 2]
        a = np.concatenate([paired, a[2 * half :]]) if len(a) % 2 else paired
    return a[:1].reshape(-1) if len(a) else np.zeros(k)


def tree_sum(values) -> float:
    """Pairwise (fan-in 2) sum in index order; independent of chunking."""
    return float(tree_sums(np.asarray(values, dtype=float).reshape(1, -1))[0])


def chernoff_budget(U: float, mu_lower: float, epsilon: float, delta: float) -> int:
    """Smallest N making the Chernoff failure bound <= delta, with the mean
    replaced by its lower bound.  A lower bound of 0 (an epsilon-scaled bound
    underflows to it at a tiny epsilon) leaves no finite budget."""
    if not mu_lower >= 0.0:
        raise DomainError("mu_lower must not be negative")
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


def draw_classes(
    sampler: ConditionalSampler, stream: SampleStream, n_samples: int, b: int
) -> tuple[np.ndarray, np.ndarray]:
    """(classes, inverse) of block ``b`` of a term's ``n_samples`` draws:
    ``classes[inverse]`` is the drawn block.  Above a support of one block
    the rows are nearly all distinct and are their own classes.  Otherwise
    ``draw_block`` gives only each row's position key, and the classes are
    the ``decode`` of the present keys, in key order, with a uint16
    inverse."""
    start = b * BLOCK_SIZE
    count = min(BLOCK_SIZE, n_samples - start)
    if sampler.support > BLOCK_SIZE:
        return sampler.draw_block(stream, start, count), np.arange(count)
    keys = sampler.draw_block(stream, start, count, keyed=True)
    present = np.flatnonzero(np.bincount(keys, minlength=sampler.support))
    # uint16 throughout: a cast on assignment costs more than the pick
    slot = np.empty(sampler.support, dtype=np.uint16)
    slot[present] = np.arange(len(present), dtype=np.uint16)
    return sampler.decode(present), slot[keys]


_RESUM_BELOW = 2.0**-969  # 2**53 times the least normal double


def block_sums(
    vals: np.ndarray, hits: np.ndarray, starts: Sequence[int], inverses: Sequence, n_samples: int
) -> list[tuple[float, Optional[float], int]]:
    """(scaled sum, unscaled sum or None, indicator hits) of each block
    ``vals[start + inverse]``, ``hits[start + inverse]`` of a term of
    n_samples, the blocks stacked and reduced row by row by ``tree_sums``.
    Values are summed times a power of two below 1 / n_samples, so no sum of
    finite values overflows; above the subnormal range that is exact.  A
    block whose scaled sum is under ``_RESUM_BELOW`` may have lost bits, and
    is summed again unscaled."""
    at = np.array(inverses, dtype=np.intp)
    at += np.array(starts)[:, None]
    vals, hits = np.asarray(vals, dtype=float)[at], np.asarray(hits, dtype=np.int64)[at]
    totals = tree_sums(vals * 2.0 ** -int(n_samples).bit_length()).tolist()
    low = [r for r, total in enumerate(totals) if not abs(total) >= _RESUM_BELOW]  # and NaN
    unscaled = dict.fromkeys(low, 0.0)  # an all-zero block sums to 0.0
    resum = np.array(low, dtype=np.intp)[vals[low].any(axis=1)] if low else []
    if len(resum):
        unscaled.update(zip(resum.tolist(), tree_sums(vals[resum]).tolist()))
    rows = zip(totals, hits.sum(axis=1).tolist())
    return [(total, unscaled.get(r), h) for r, (total, h) in enumerate(rows)]


def run_conditional_mc(
    sampler: Optional[ConditionalSampler],
    class_fn: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]],
    n_samples: int,
    stream: Optional[SampleStream],
    sums: Optional[Sequence[tuple[float, Optional[float], int]]] = None,
) -> tuple[float, int]:
    """Mean of a per-realization value over n_samples conditional draws.

    ``class_fn`` maps a ``BLOCK_SIZE`` block's (B, n) array of realization
    classes (point indices in node order, -1 for absent; a point set may
    appear more than once) to (values, indicators), one of each per class;
    it is called once per block and may cache.  Each block is drawn with
    ``draw_classes`` and reduced by ``block_sums``; ``sums``, if given, are
    the blocks' sums, reduced beforehand, and nothing else is read.  The mean
    is the ``tree_sum`` of the blocks' unscaled sums if each has one and one
    is not 0, else of their scaled sums, unscaled.  Returns (mean, hits).
    """
    if sums is None:
        sums = []
        for b in range((n_samples + BLOCK_SIZE - 1) // BLOCK_SIZE):
            classes, inverse = draw_classes(sampler, stream, n_samples, b)
            sums += block_sums(*class_fn(classes), [0], [inverse], n_samples)
    totals, unscaled, hits = zip(*sums)
    if None not in unscaled and any(unscaled):
        return tree_sum(unscaled) / n_samples, sum(hits)
    return tree_sum(totals) / n_samples / 2.0 ** -int(n_samples).bit_length(), sum(hits)


_HELD_SAMPLES = 64 * BLOCK_SIZE  # 512 KiB of uint16 inverses


def estimate_conditional(
    g: StochasticGraph,
    terms: Iterable[tuple[Union[EventSpec, Event, None], int, str, Any]],
    class_fn: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    *,
    seed: int,
) -> list[tuple[float, int, int]]:
    """(mean, indicator_hits, samples) of each ``(event, n_samples, tag, key)``
    term: the sample mean of ``class_fn`` under the conditioning event, drawn
    from the ``(seed, tag)`` stream.

    ``class_fn(rows, keys)`` is as in ``run_conditional_mc``, and ``keys``
    holds each row's term key.  Terms are read lazily, in order.  A term of
    ``BLOCK_SIZE`` samples or more runs at once through ``run_conditional_mc``,
    block by block.  A smaller term frees its sampler and waits in a group; a
    pinned term (support 1) gives its one realization, ``decode`` of key 0,
    one sample.  A term whose support is at most its sample count draws its
    block on joining and is keyed; the others are drawn by one ``draw_terms``
    call when the group closes, each row its own class.  One ``class_fn`` call
    solves the classes of the whole group; its terms are reduced by
    ``block_sums``, stacked by sample count, so each equals its run alone.

    A group closes once the rows it will hand ``class_fn`` reach
    ``BLOCK_SIZE``: a pinned term's one row, a keyed term's classes, a
    deferred term's samples.  A keyed term's inverse is uint16
    (``draw_classes``); the group also closes once its terms hold
    64 * ``BLOCK_SIZE`` samples, so a group waiting for its next term holds
    at most 512 KiB of inverses.
    """
    results: list = []
    group: list = []  # [position, key, samples, classes, inverse]; inverse None if pinned
    deferred: list = []  # (group slot, words, table) of the terms drawn at its close
    rows = held = 0  # rows the group hands class_fn; samples its terms hold

    def solve_group() -> None:
        if deferred:
            slots, words, tables = zip(*deferred)
            ends = np.cumsum([len(w) for w in words])[:-1]
            for slot, block in zip(slots, np.split(draw_terms(words, tables), ends)):
                group[slot][3:] = block, np.arange(len(block))
        counts = [len(classes) for _, _, _, classes, _ in group]
        vals, hits = class_fn(
            np.concatenate([classes for _, _, _, classes, _ in group]),
            np.repeat([key for _, key, _, _, _ in group], counts),
        )
        stacks: dict = {}  # n_samples -> [(position, start, inverse)]
        for (i, _, n, _, inverse), start in zip(group, np.cumsum([0] + counts[:-1]).tolist()):
            if inverse is None:
                results[i] = (float(vals[start]), int(hits[start]), 1)
            else:
                stacks.setdefault(n, []).append((i, start, inverse))
        for n, stack in stacks.items():
            step = max(1, 4 * BLOCK_SIZE // n)  # samples block_sums gathers at once
            for c in range(0, len(stack), step):
                positions, starts, inverses = zip(*stack[c : c + step])
                for i, sums in zip(positions, block_sums(vals, hits, starts, inverses, n)):
                    # one engine run per term: perfbench's tracer counts samples by these runs
                    results[i] = (*run_conditional_mc(None, None, n, None, sums=[sums]), n)

    for i, (event, n_samples, tag, key) in enumerate(terms):
        results.append(None)
        sampler = ConditionalSampler(g, event)
        classes = inverse = None
        if sampler.support == 1:
            classes, n_samples = sampler.decode([0]), 1
        else:
            stream = SampleStream(seed, tag, g.n)
            if n_samples >= BLOCK_SIZE:

                def term_fn(rows: np.ndarray, key=key):
                    return class_fn(rows, np.full(len(rows), key))

                mean, hits = run_conditional_mc(sampler, term_fn, n_samples, stream)
                results[i] = (mean, hits, n_samples)
                continue
            if sampler.support > n_samples:  # rows mostly distinct: drawn with the group
                deferred.append((len(group), stream.words(0, n_samples), sampler.table))
            else:
                classes, inverse = draw_classes(sampler, stream, n_samples, 0)
        del sampler  # a waiting term holds its drawn block, or its words and table, only
        group.append([i, key, n_samples, classes, inverse])
        rows += n_samples if classes is None else len(classes)
        held += n_samples
        if rows >= BLOCK_SIZE or held >= _HELD_SAMPLES:
            solve_group()
            group, deferred, rows, held = [], [], 0, 0
    if group:
        solve_group()
    return results


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
        """Every field but those left at None or False; 0 and 0.0 stay."""
        return {k: v for k, v in vars(self).items() if v is not None and v is not False}


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
    threads: int = 1  # recorded only: every block runs on the calling thread
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

