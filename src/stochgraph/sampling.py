"""Conditional sampling of realizations.

Conditioning is always on a product-form event, so each node can be sampled
independently from its restricted, renormalized distribution.  This induces
exactly the same law as rejection sampling against the event but at a fixed
deterministic cost per draw, which matters when the conditioning probability
is tiny.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .model import Event, EventSpec, Realization, StochasticGraph, as_event
from .rng import SampleStream

ABSENT_IDX = -1


def node_outcomes(
    g: StochasticGraph, event: EventSpec | Event | None
) -> list[tuple[list[int], list[float]]]:
    """Per node: the outcomes the event allows that have positive probability
    (point indices ascending, then ``ABSENT_IDX``) and their probabilities."""
    event = as_event(g, event)
    table = []
    for v in range(g.n):
        outs = [int(s) for s in np.flatnonzero(event.allowed[v] & (g.probs[v] > 0.0))]
        weights = [float(g.probs[v, s]) for s in outs]
        if event.absent[v]:
            a = g.absent_mass(v)
            if a > 0.0:
                outs.append(ABSENT_IDX)
                weights.append(a)
        table.append((outs, weights))
    return table


class ConditionalSampler:
    """Compiled per-node inverse-CDF tables for a product event.

    ``outcomes[j]`` lists the point indices node ``j`` may take (-1 for
    absent), ``cum[j]`` the matching cumulative probabilities after
    renormalization.  Raises ``DomainError`` if any node has zero mass under
    its restriction.
    """

    def __init__(self, g: StochasticGraph, event: EventSpec | Event | None = None):
        self.g = g
        self.outcomes: list[np.ndarray] = []
        self.cum: list[np.ndarray] = []
        for name, (outs, weights) in zip(g.node_ids, node_outcomes(g, event)):
            if not weights:
                raise DomainError(
                    f"node {name}: zero probability mass under the conditioning event"
                )
            self.outcomes.append(np.asarray(outs, dtype=np.int64))
            self.cum.append(np.cumsum(weights) / float(sum(weights)))

    @property
    def is_deterministic(self) -> bool:
        """True when every node has exactly one possible outcome."""
        return all(len(o) == 1 for o in self.outcomes)

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
