"""Conditional sampling of realizations.

Conditioning is always on a product-form event, so each node can be sampled
independently from its restricted, renormalized distribution.  This induces
exactly the same law as rejection sampling against the event but at a fixed
deterministic cost per draw, which matters when the conditioning probability
is tiny.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import DomainError
from .model import Event, EventSpec, Realization, StochasticGraph, as_event
from .rng import SampleStream

ABSENT_IDX = -1
BLOCK_SIZE = 4096  # samples per Monte Carlo engine block


@functools.cache
def _outcome_ids(m: int) -> np.ndarray:
    """Each outcome-table column's outcome: points 0..m-1, then ``ABSENT_IDX``."""
    return np.append(np.arange(m), ABSENT_IDX)


def _allowed(g: StochasticGraph, event: EventSpec | Event | None) -> tuple[np.ndarray, np.ndarray]:
    """Outcome indices (``_outcome_ids``) and the (n, m + 1) mask of those
    the event allows with positive probability in ``g.outcome_probs``."""
    event = as_event(g, event)
    mask = np.column_stack([event.allowed, event.absent]) & (g.outcome_probs > 0.0)
    return _outcome_ids(g.m), mask


def node_outcomes(
    g: StochasticGraph, event: EventSpec | Event | None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per node: the outcomes the event allows that have positive probability
    (point indices ascending, then ``ABSENT_IDX``) and their probabilities,
    sliced from ``g.outcome_probs``."""
    outcomes, mask = _allowed(g, event)
    return [(outcomes[row], probs[row]) for row, probs in zip(mask, g.outcome_probs)]


class ConditionalSampler:
    """Compiled per-node inverse-CDF tables for a product event.

    A build computes only ``mask``, the (n, m + 1) outcomes (points, then
    absent) the event allows with positive probability, ``table``, their
    cumulative probabilities along each row after renormalization, and
    ``support``, the number of outcome tuples.  Built on first read:
    ``outcomes[j]`` and ``cum[j]``, node ``j``'s allowed point indices (-1
    for absent) and its slice of ``table``.  ``draw_block`` can also give
    each drawn row's position key.  Raises ``DomainError`` if a node has no
    mass under the event.
    """

    def __init__(self, g: StochasticGraph, event: EventSpec | Event | None = None):
        self.g = g
        _, self.mask = _allowed(g, event)
        counts = self.mask.sum(axis=1)
        if not counts.all():
            name = g.node_ids[int(np.argmin(counts))]
            raise DomainError(f"node {name}: zero probability mass under the conditioning event")
        # Adding the masked-out 0.0 entries is exact, so each node's table
        # equals the cumsum of its own outcomes over its own total.
        self.table = np.cumsum(np.where(self.mask, g.outcome_probs, 0.0), axis=1)
        self.table /= self.table[:, -1:]
        self.support = math.prod(counts.tolist())

    @functools.cached_property
    def outcomes(self) -> list[np.ndarray]:
        return [_outcome_ids(self.g.m)[row] for row in self.mask]

    @functools.cached_property
    def cum(self) -> list[np.ndarray]:
        return [c[row] for c, row in zip(self.table, self.mask)]

    @property
    def is_deterministic(self) -> bool:
        """True when every node has exactly one possible outcome."""
        return self.support == 1

    def draw_block(
        self, stream: SampleStream, start: int, count: int, keys: np.ndarray | None = None
    ) -> np.ndarray:
        """(count, n) matrix of point indices for sample indices start..start+count-1.

        ``keys``, a zeroed int64 array of ``count`` entries, receives each
        row's position key: the C-order index in ``[0, support)`` of its
        tuple of outcome positions (node j's position is the index of its
        outcome in ``outcomes[j]``), from the searches that draw the row.
        The rows do not depend on it.
        """
        n = self.g.n
        if n > stream.width:
            raise DomainError(
                f"stream width {stream.width} too small for {n} nodes"
            )
        u = stream.uniforms(start, count)
        out = np.empty((count, n), dtype=np.int64)
        for j in range(n):
            if len(self.cum[j]) == 1:  # cum is [1.0] and u < 1: no search
                out[:, j] = self.outcomes[j][0]
                continue
            # cum ends in 1.0 exactly and u < 1, so every u lands inside
            at = np.searchsorted(self.cum[j], u[:, j], side="right")
            out[:, j] = self.outcomes[j][at]
            if keys is not None:  # Horner's rule over the mixed radix
                keys *= len(self.cum[j])
                keys += at
        return out


_SPAN = 2**53 + 1  # term t's thresholds lie in [t * _SPAN, t * _SPAN + 2**53]
_TERMS_PER_SEARCH = 2**63 // _SPAN  # 1023 terms' spans fit in int64


def draw_terms(uniforms: Sequence[np.ndarray], tables: Sequence[np.ndarray]) -> np.ndarray:
    """Each term's ``draw_block`` rows, stacked, from its ``SampleStream.uniforms``
    (first n columns) and its sampler's ``table``: one ``np.searchsorted`` per
    node column on exact integers, needles ``u * 2**53`` (``random()`` gives
    ``(x >> 11) * 2**-53``) and thresholds ``ceil(table * 2**53) + t * _SPAN``
    for term t.  The first full-row entry above u is an allowed outcome (a
    masked-out entry repeats the one before it), so rows match bit for bit.
    """
    parts = []
    for s in range(0, len(tables), _TERMS_PER_SEARCH):
        chunk = slice(s, s + _TERMS_PER_SEARCH)
        table = np.stack(tables[chunk])  # (terms, n, m + 1)
        term = np.arange(len(table))
        row_term = np.repeat(term, [len(u) for u in uniforms[chunk]])[:, None]
        needles = (np.concatenate(uniforms[chunk])[:, : table.shape[1]] * 2.0**53).astype(np.int64)
        needles += row_term * _SPAN
        pos = np.empty(needles.shape, dtype=np.int64)
        for j in range(needles.shape[1]):  # one column's thresholds at a time: small temporaries
            thresholds = np.ceil(table[:, j] * 2.0**53).astype(np.int64) + term[:, None] * _SPAN
            pos[:, j] = np.searchsorted(thresholds.ravel(), needles[:, j], side="right")
        parts.append(_outcome_ids(table.shape[2] - 1)[pos - row_term * table.shape[2]])
    return np.concatenate(parts)


def sample(
    g: StochasticGraph,
    event: EventSpec | Event | None,
    stream: SampleStream,
    index: int = 0,
) -> Realization:
    """One realization of ``g`` conditioned on ``event`` at sample ``index``.

    The draw is a pure function of (stream.seed, stream.tag, index).
    """
    row = ConditionalSampler(g, event).draw_block(stream, index, 1)[0]
    return Realization(tuple(int(x) for x in row))
