"""Ground-truth expectations by exhaustive enumeration.

Exponential by design: every estimator in this package is validated against
these sums at small scale.  Enumeration walks realizations in mixed-radix
order over nodes (node order, last node fastest) and accumulates with Kahan
compensation so results are reproducible bit-for-bit.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Optional

from .errors import DomainError, EnumerationCapError
from .model import EventSpec, StochasticGraph, event_probability
from .sampling import ABSENT_IDX
from .solvers import _cc_indices, _mpm_indices, _mst_indices, _nn_indices

DEFAULT_CAP = 10_000_000


class Functional(str, Enum):
    """Realization functionals the oracle and the estimators understand."""

    MST = "mst"
    MPM = "mpm"
    CC = "cc"
    NN_TOTAL = "nn-total"
    NN_LONGEST = "nn-longest"


class FunctionalEvaluator:
    """Evaluates a functional on realized point index tuples, memoized.

    All supported functionals depend only on the multiset of realized points,
    so the cache key is the sorted tuple of present point indices.  Conventions
    for degenerate realizations (possible in existential mode): MST of <=1
    point is 0; MPM of 0 points is 0 and of an odd count is an error; CC and
    the nearest-neighbor functionals of <2 points are 0.
    """

    def __init__(self, space, functional: Functional):
        self.space = space
        self.functional = Functional(functional)
        self._cache: dict[tuple[int, ...], float] = {}

    def value(self, present_sorted: tuple[int, ...]) -> float:
        try:
            return self._cache[present_sorted]
        except KeyError:
            pass
        v = self._compute(present_sorted)
        self._cache[present_sorted] = v
        return v

    def value_of_assignment(self, assignment) -> float:
        return self.value(tuple(sorted(i for i in assignment if i >= 0)))

    def _compute(self, idx: tuple[int, ...]) -> float:
        f = self.functional
        k = len(idx)
        if f is Functional.MST:
            return _mst_indices(self.space, idx)
        if f is Functional.MPM:
            if k % 2 != 0:
                raise DomainError(
                    "perfect matching undefined for an odd number of present nodes"
                )
            return _mpm_indices(self.space, idx)
        if f is Functional.CC:
            return 0.0 if k < 2 else _cc_indices(self.space, idx)
        if k < 2:
            return 0.0
        nn = _nn_indices(self.space, idx)
        return nn.total_length if f is Functional.NN_TOTAL else nn.longest.length


class _Kahan:
    __slots__ = ("total", "comp")

    def __init__(self) -> None:
        self.total = 0.0
        self.comp = 0.0

    def add(self, x: float) -> None:
        y = x - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t


def _node_outcomes(g: StochasticGraph, event: Optional[EventSpec]):
    """Per node: list of (point index or -1, probability), zero-mass dropped."""
    event = event if event is not None else EventSpec()
    per_node = []
    for ni in range(g.n):
        outs = [
            (s, float(g.probs[ni, s]))
            for s in event.allowed_indices(g, ni)
            if g.probs[ni, s] > 0.0
        ]
        if event.absent_allowed(g, ni):
            a = g.absent_mass(ni)
            if a > 0.0:
                outs.append((ABSENT_IDX, a))
        per_node.append(outs)
    return per_node


def enumerate_term(
    g: StochasticGraph,
    functional: Functional,
    event: Optional[EventSpec] = None,
    cap: int = DEFAULT_CAP,
    value_fn: Optional[Callable[[tuple[int, ...]], float]] = None,
) -> tuple[float, int]:
    """Sum of Pr[r] * f(r) over realizations in the event; returns (term, count).

    ``value_fn`` (taking the raw assignment tuple) overrides the functional;
    used by tests that integrate indicator-weighted quantities.
    """
    per_node = _node_outcomes(g, event)
    count = 1
    for outs in per_node:
        count *= len(outs)
    if count > cap:
        raise EnumerationCapError(required=count, cap=cap)
    if count == 0:
        return 0.0, 0

    evaluator = FunctionalEvaluator(g.space, functional) if value_fn is None else None
    acc = _Kahan()
    n = g.n
    assignment = [0] * n

    def rec(level: int, prefix: float) -> None:
        if level == n:
            if value_fn is not None:
                acc.add(prefix * value_fn(tuple(assignment)))
            else:
                acc.add(prefix * evaluator.value_of_assignment(assignment))
            return
        for idx, p in per_node[level]:
            assignment[level] = idx
            rec(level + 1, prefix * p)

    rec(0, 1.0)
    return acc.total, count


def exact_term(
    g: StochasticGraph,
    functional: Functional,
    event: Optional[EventSpec] = None,
    cap: int = DEFAULT_CAP,
) -> float:
    """Pr[event] * E[f | event] in one enumeration pass (no division)."""
    term, _ = enumerate_term(g, functional, event, cap)
    return term


def exact_expectation(
    g: StochasticGraph,
    functional: Functional,
    event: Optional[EventSpec] = None,
    cap: int = DEFAULT_CAP,
) -> float:
    """E[f | event] by exhaustive enumeration (unconditional if no event)."""
    prob = event_probability(g, event) if event is not None else 1.0
    if prob <= 0.0:
        raise DomainError("conditioning event has zero probability")
    term, _ = enumerate_term(g, functional, event, cap)
    return term / prob
