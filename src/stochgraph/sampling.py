"""Conditional sampling of realizations.

Conditioning is always on a product-form event, so each node can be sampled
independently from its restricted, renormalized distribution.  This induces
exactly the same law as rejection sampling against the event but at a fixed
deterministic cost per draw, which matters when the conditioning probability
is tiny.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .model import Event, EventSpec, Realization, StochasticGraph, as_event
from .rng import SampleStream

ABSENT_IDX = -1
BLOCK_SIZE = 4096  # samples per Monte Carlo engine block


def _allowed(g: StochasticGraph, event: EventSpec | Event | None) -> tuple[np.ndarray, np.ndarray]:
    """Outcome indices (points ascending, then ``ABSENT_IDX``) and the (n,
    m + 1) mask of those the event allows with positive probability in
    ``g.outcome_probs``."""
    event = as_event(g, event)
    mask = np.column_stack([event.allowed, event.absent]) & (g.outcome_probs > 0.0)
    return np.append(np.arange(g.m), ABSENT_IDX), mask


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

    ``outcomes[j]`` lists the point indices node ``j`` may take (-1 for
    absent), ``cum[j]`` the matching cumulative probabilities after
    renormalization, and ``support`` the number of outcome tuples.  When that
    is at most ``BLOCK_SIZE``, ``lookups`` holds ``(j, lookup)`` per node
    with several outcomes: ``lookup`` maps a point index (-1 reads the last
    entry) to its outcome position times the node's C-order stride, and
    ``position_keys`` sums them; otherwise it is None.  Raises
    ``DomainError`` if any node has zero mass under its restriction.
    """

    def __init__(self, g: StochasticGraph, event: EventSpec | Event | None = None):
        self.g = g
        outcomes, mask = _allowed(g, event)
        live = mask.any(axis=1)
        if not live.all():
            name = g.node_ids[int(np.argmin(live))]
            raise DomainError(f"node {name}: zero probability mass under the conditioning event")
        # Adding the masked-out 0.0 entries is exact, so each node's table
        # equals the cumsum of its own outcomes over its own total.
        cum = np.cumsum(np.where(mask, g.outcome_probs, 0.0), axis=1)
        cum /= cum[:, -1:]
        self.outcomes = [outcomes[row] for row in mask]
        self.cum = [c[row] for c, row in zip(cum, mask)]
        self.support = math.prod(len(outs) for outs in self.outcomes)
        self.lookups: list[tuple[int, np.ndarray]] | None = None
        if self.support <= BLOCK_SIZE:
            self.lookups = []
            stride, width = self.support, g.m + 1
            for j, outs in enumerate(self.outcomes):
                r = len(outs)
                stride //= r
                if r > 1:
                    lookup = np.zeros(width, dtype=np.int64)
                    lookup[outs] = np.arange(0, r * stride, stride)
                    self.lookups.append((j, lookup))

    @property
    def is_deterministic(self) -> bool:
        """True when every node has exactly one possible outcome."""
        return self.support == 1

    def position_keys(self, rows: np.ndarray) -> np.ndarray:
        """Each row's position key in ``[0, support)``; needs ``lookups``."""
        keys = np.zeros(len(rows), dtype=np.int64)
        for j, lookup in self.lookups:
            keys += lookup[rows[:, j]]
        return keys

    def draw_block(self, stream: SampleStream, start: int, count: int) -> np.ndarray:
        """(count, n) matrix of point indices for sample indices start..start+count-1."""
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
            pos = np.searchsorted(self.cum[j], u[:, j], side="right")
            np.minimum(pos, len(self.cum[j]) - 1, out=pos)
            out[:, j] = self.outcomes[j][pos]
        return out


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
