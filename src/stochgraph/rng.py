"""Counter-based random streams for reproducible, schedule-independent sampling.

Philox is a counter-based generator: output depends only on (key, counter),
never on call history.  ``SampleStream`` derives a key from (seed, tag) and
gives every sample index its own fixed window of draws, so the value of
sample ``i`` is identical no matter how the index range is partitioned into
blocks or spread across workers.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np
from numpy.random import Generator, Philox

# Changes whenever the draws of a (seed, tag, index) triple change; reports
# record it.  2: windows of 4 * ceil(n / 4) draws for n nodes (1: 64 draws).
STREAM_VERSION = 2

_WORD = 2**64 - 1
_EMPTY_BUFFER = np.zeros(4, dtype=np.uint64)
_local = threading.local()  # each thread's reused Generator(Philox)


def _philox(key: np.ndarray, counter: int) -> Generator:
    """This thread's one ``Generator(Philox)``, set to (key, counter) with an
    empty output buffer: it draws what ``Generator(Philox(key, counter))``
    would, without building a bit generator per call."""
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = Generator(Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([(counter >> s) & _WORD for s in (0, 64, 128, 192)], dtype=np.uint64),
            "key": key,
        },
        "buffer": _EMPTY_BUFFER,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


class SampleStream:
    """Substream handle for one estimator run: key = (seed, tag).

    ``words(start, count)`` yields a (count, width) block of raw uint64
    Philox words; row ``r`` holds the draws owned by sample index
    ``start + r``.  ``uniforms`` gives the same block as float64 uniforms in
    [0, 1), ``(word >> 11) * 2**-53``, which is ``random()`` byte for byte.
    ``draws`` is how many draws each index needs; the window ``width`` rounds
    it up to a multiple of 4, because Philox emits 4 words per counter tick.
    """

    def __init__(self, seed: int, tag: str, draws: int):
        if draws <= 0:
            raise ValueError("draws must be positive")
        self.seed = int(seed)
        self.tag = str(tag)
        self.width = 4 * -(-int(draws) // 4)
        digest = hashlib.sha256(f"{self.seed}:{self.tag}".encode()).digest()
        key = int.from_bytes(digest[:16], "little")
        self._key = np.array([key & _WORD, key >> 64], dtype=np.uint64)

    def words(self, start: int, count: int) -> np.ndarray:
        gen = _philox(self._key, start * (self.width // 4))
        return gen.bit_generator.random_raw(max(count, 0) * self.width).reshape(-1, self.width)

    def uniforms(self, start: int, count: int) -> np.ndarray:
        return (self.words(start, count) >> 11) * 2.0**-53
