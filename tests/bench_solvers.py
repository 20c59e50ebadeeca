"""Micro-benchmarks of the batched exact solvers: one kernel call per case.

    PYTHONPATH=src python -m pytest tests/bench_solvers.py --benchmark-only

Each case solves a block of B random k-point sets (row-sorted, distinct
points of a 64-point Euclidean space) with one call of a kernel, at
k in {4, 8, 16, 32} and B in {1, 4096}.  Matching also runs at k = 12, the
largest k it solves by enumerating every matching.  Above that it runs
blossom once per row, so its cost per row does not depend on B; there it is
measured at B = 64 instead of 4096, where k = 32 would take over a minute
per round.  The file name keeps it out of the default ``test_*.py``
collection.
"""

from __future__ import annotations

import numpy as np
import pytest

from stochgraph.model import MetricSpace
from stochgraph.solvers import _cc_indices, _mpm_indices, _mst_indices, _nn_indices

M = 64
SPACE = MetricSpace(
    [f"p{i}" for i in range(M)], coords=np.random.default_rng(0).random((M, 2))
)
KERNELS = {"mst": _mst_indices, "mpm": _mpm_indices, "cc": _cc_indices, "nn": _nn_indices}
CASES = [
    (name, k, B)
    for name in KERNELS
    for k in ((4, 8, 12, 16, 32) if name == "mpm" else (4, 8, 16, 32))
    for B in ((1, 64) if name == "mpm" and k > 12 else (1, 4096))
]


def block(k: int, B: int) -> np.ndarray:
    rng = np.random.default_rng(1000 * k + B)
    rows = [np.sort(rng.choice(M, size=k, replace=False)) for _ in range(B)]
    return np.array(rows, dtype=np.intp)


@pytest.mark.parametrize("name,k,B", CASES, ids=[f"{n}-k{k}-B{b}" for n, k, b in CASES])
def test_kernel(benchmark, name, k, B):
    idx = block(k, B)
    benchmark.group = f"{name} k={k}"
    out = benchmark(KERNELS[name], SPACE, idx)
    assert len(out.total if name == "nn" else out) == B
