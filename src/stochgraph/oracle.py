"""Ground-truth expectations by exhaustive enumeration.

Exponential by design: every estimator in this package is validated against
these sums at small scale.  Enumeration walks realizations in mixed-radix
order over nodes (node order, last node fastest) and sums the products
Pr[r] * f(r) with ``math.fsum``: each total is the correctly rounded sum,
reproducible bit for bit and independent of the order.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from typing import Union

import numpy as np

from .errors import DomainError, EnumerationCapError
from .model import Event, EventSpec, StochasticGraph, as_event, event_probability
from .sampling import node_outcomes
from .solvers import PointSetMemo, _cc_indices, _mpm_indices, _mst_indices, _nn_indices

DEFAULT_CAP = 10_000_000
CHUNK = 4096  # realizations per values() call in enumerate_term


class Functional(str, Enum):
    """Realization functionals the oracle and the estimators understand."""

    MST = "mst"
    MPM = "mpm"
    CC = "cc"
    NN_TOTAL = "nn-total"
    NN_LONGEST = "nn-longest"


class FunctionalEvaluator:
    """Evaluates a functional on realized point sets of a graph, memoized.

    All supported functionals depend only on the multiset of realized points,
    so the values sit in one ``PointSetMemo`` under the graph's m and n,
    shared by every thread that calls ``values``.  Conventions for
    degenerate realizations (possible in existential mode): MST of <=1 point
    is 0; MPM of 0 points is 0 and of an odd count is an error; CC and the
    nearest-neighbor functionals of <2 points are 0.
    """

    def __init__(self, g: StochasticGraph, functional: Functional):
        self.space = g.space
        self.functional = Functional(functional)
        self._memo = PointSetMemo(g.m, g.n)

    def values(self, rows: np.ndarray) -> np.ndarray:
        """Values of a block of row-sorted realizations (-1 for absent).

        Uncached point sets are solved with one kernel call per present
        count; rows sharing a point set share its value.
        """
        slots = self._memo.find(rows, lambda idx: (self._compute(idx),))
        # one memo read for every caller: perfbench's tracer times value()
        return np.array([self.value(slot) for slot in slots.tolist()], dtype=float)

    def class_fn(self, rows: np.ndarray, keys=None) -> tuple[np.ndarray, np.ndarray]:
        """``values(rows)`` and zero indicator hits: the ``class_fn`` form
        the Monte Carlo engine takes.  The rows' term ``keys`` are not read."""
        return self.values(rows), np.zeros(len(rows), dtype=np.int64)

    def value(self, slot: int) -> float:
        """Cached value of one point set, by the slot ``find`` returned."""
        return self._memo.values[0][slot]

    def value_of_assignment(self, assignment) -> float:
        return float(self.values(np.sort([assignment], axis=1))[0])

    def _compute(self, idx: np.ndarray) -> np.ndarray:
        """Values of a (B, k) block of point sets with k present points each."""
        f = self.functional
        k = idx.shape[1]
        if f is Functional.MST:
            return _mst_indices(self.space, idx)
        if f is Functional.MPM:
            if k % 2 != 0:
                raise DomainError(
                    "perfect matching undefined for an odd number of present nodes"
                )
            return _mpm_indices(self.space, idx)
        if k < 2:
            return np.zeros(len(idx))
        if f is Functional.CC:
            return _cc_indices(self.space, idx)
        nn = _nn_indices(self.space, idx)
        if f is Functional.NN_TOTAL:
            return nn.total
        return self.space.dist[nn.longest[:, 0], nn.longest[:, 1]]


def check_cap(cap: int) -> None:
    """Reject a negative enumeration cap; a cap of 0 refuses every
    enumeration."""
    if cap < 0:
        raise DomainError("enumeration cap must not be negative")


def enumerate_term(
    g: StochasticGraph,
    functional: Functional,
    event: Union[EventSpec, Event, None] = None,
    cap: int = DEFAULT_CAP,
) -> tuple[float, int]:
    """Sum of Pr[r] * f(r) over realizations in the event; returns (term, count).

    Realizations are walked in chunks of ``CHUNK`` consecutive mixed-radix
    indices; each probability is the left-to-right product of its nodes'
    outcome probabilities.  The products Pr[r] * f(r) are summed by one
    ``math.fsum``, so the term is their correctly rounded sum, whatever the
    chunking.  Where the largest distance is below 0.5, the values are first
    scaled up by 2**s, s = -frexp(largest distance)[1], and the sum scaled
    back once: products that would fall below the normal range keep their
    relative precision, and any other product rounds exactly as unscaled.
    """
    check_cap(cap)
    table = node_outcomes(g, event)
    radices = [len(outs) for outs, _ in table]
    count = math.prod(radices)
    if count > cap:
        raise EnumerationCapError(required=count, cap=cap)
    if count == 0:
        return 0.0, 0

    evaluator = FunctionalEvaluator(g, functional)
    top = float(g.space.dist.max(initial=0.0))
    s = -math.frexp(top)[1] if 0.0 < top < 0.5 else 0

    def products(start: int) -> list[float]:
        digits = np.unravel_index(np.arange(start, min(start + CHUNK, count)), radices)
        prob = np.ones(len(digits[0]))
        for (_, weights), d in zip(table, digits):
            prob *= weights[d]
        rows = np.sort(np.column_stack([outs[d] for (outs, _), d in zip(table, digits)]), axis=1)
        return (prob * np.ldexp(evaluator.values(rows), s)).tolist()

    chunks = map(products, range(0, count, CHUNK))
    return math.ldexp(math.fsum(itertools.chain.from_iterable(chunks)), -s), count


def exact_term(
    g: StochasticGraph,
    functional: Functional,
    event: Union[EventSpec, Event, None] = None,
    cap: int = DEFAULT_CAP,
) -> float:
    """Pr[event] * E[f | event] in one enumeration pass (no division)."""
    term, _ = enumerate_term(g, functional, event, cap)
    return term


def exact_expectation(
    g: StochasticGraph,
    functional: Functional,
    event: Union[EventSpec, Event, None] = None,
    cap: int = DEFAULT_CAP,
) -> float:
    """E[f | event] by exhaustive enumeration (unconditional if no event)."""
    prob = 1.0
    if event is not None:
        event = as_event(g, event)
        prob = event_probability(g, event)
    if prob <= 0.0:
        raise DomainError("conditioning event has zero probability")
    term, _ = enumerate_term(g, functional, event, cap)
    return term / prob
