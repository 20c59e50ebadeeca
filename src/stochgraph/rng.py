"""Counter-based random streams for reproducible, schedule-independent sampling.

Philox is a counter-based generator: output depends only on (key, counter),
never on call history.  ``SampleStream`` derives a key from (seed, tag) and
gives every sample index its own fixed window of draws, so the value of
sample ``i`` is identical no matter how the index range is partitioned into
blocks or spread across workers.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import Generator, Philox

# Changes whenever the draws of a (seed, tag, index) triple change; reports
# record it.  2: windows of 4 * ceil(n / 4) draws for n nodes (1: 64 draws).
STREAM_VERSION = 2


class SampleStream:
    """Substream handle for one estimator run: key = (seed, tag).

    ``uniforms(start, count)`` yields a (count, width) block of float64
    uniforms in [0, 1); row ``r`` holds the draws owned by sample index
    ``start + r``.  ``draws`` is how many uniforms each index needs; the
    window ``width`` rounds it up to a multiple of 4, because Philox emits 4
    words per counter tick.
    """

    def __init__(self, seed: int, tag: str, draws: int):
        if draws <= 0:
            raise ValueError("draws must be positive")
        self.seed = int(seed)
        self.tag = str(tag)
        self.width = 4 * -(-int(draws) // 4)
        digest = hashlib.sha256(f"{self.seed}:{self.tag}".encode()).digest()
        self._key = int.from_bytes(digest[:16], "little")

    def uniforms(self, start: int, count: int) -> np.ndarray:
        if count <= 0:
            return np.empty((0, self.width))
        bitgen = Philox(key=self._key, counter=start * (self.width // 4))
        flat = Generator(bitgen).random(count * self.width)
        return flat.reshape(count, self.width)
