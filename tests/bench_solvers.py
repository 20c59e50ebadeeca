"""Micro-benchmarks of the batched exact solvers: one kernel call per case.

    PYTHONPATH=src python -m pytest tests/bench_solvers.py --benchmark-only

Each case solves a block of B random k-point sets (row-sorted, distinct
points of a 64-point Euclidean space) with one call of a kernel, at
k in {4, 8, 16, 32} and B in {1, 4096}.  Matching also runs at k = 12, the
largest k it solves by enumerating every matching, and cycle cover at k = 5,
the largest it solves by enumerating every derangement, and k = 6, the
smallest it solves by one assignment per row.  Above 12 matching runs
blossom once per row, so its cost per row does not depend on B; there it is
measured at B = 64 instead of 4096, where k = 32 would take over a minute
per round.

The ``point_set_memo`` cases time the memo layer alone, with a constant
``solve``, from a block to its values: ``PointSetMemo.find`` and the gather
of each row's value.  The blocks are one 4096-row chunk of the oracle's
enumeration of the benchmark's oracle-exact ``mst-10-12`` instance
(``euclidean-uniform 10 12``, generator seed 4), built as ``enumerate_term``
builds it, and blocks of its first 2 and 50 distinct point sets, the sizes
the Monte Carlo estimators pass on campaign-small and ladder-large.  A
``cold`` memo is empty, so every set is solved and stored; a ``warm`` one
already holds every set.  Two more blocks are 4096-row unconditioned blocks:
``n16-4096`` of ladder-large's MST instance (``euclidean-uniform 16 24``,
generator seed 1), whose int64 rank keys reach 6.3e10, and ``n32-4096`` of
``euclidean-uniform 32 48`` (generator seed 1), whose rank would pass 2**63,
so its keys are ``np.void`` views of each row's 32 one-byte digits.

``test_row_sums`` times ``exact_sums`` against one ``math.fsum`` per
column on a (K, B) block of uniform [0, 1) lengths, K in {3, 9, 15, 31} (the
edge counts of the MST kernel at k = 4, 10, 16, 32) and B in {1, 64, 4096}:
below ``_SUM_MIN_ENTRIES`` entries the helper runs the same fsum loop, so the
pairs record where its vectorized pass starts to pay.

``test_calibration`` never calls the package: it is fixed numpy and Python
work shaped like the MST kernel (a gather, ``argmin`` and ``minimum`` over a
4096 x 16 array, then one ``math.fsum`` per row).  Its time tracks only the
host's speed, so a kernel case divided by it compares runs made at
different host speeds.

The file name keeps it out of the default ``test_*.py`` collection.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from stochgraph.generate import gen_graph
from stochgraph.model import MetricSpace
from stochgraph.oracle import CHUNK
from stochgraph.rng import SampleStream
from stochgraph.sampling import ConditionalSampler, node_outcomes
from stochgraph.solvers import (
    _cc_indices,
    _mpm_indices,
    _mst_indices,
    _nn_indices,
    PointSetMemo,
    exact_sums,
)

M = 64
SPACE = MetricSpace(
    [f"p{i}" for i in range(M)], coords=np.random.default_rng(0).random((M, 2))
)
KERNELS = {"mst": _mst_indices, "mpm": _mpm_indices, "cc": _cc_indices, "nn": _nn_indices}
SIZES = {"mpm": (4, 8, 12, 16, 32), "cc": (4, 5, 6, 8, 16, 32)}
CASES = [
    (name, k, B)
    for name in KERNELS
    for k in SIZES.get(name, (4, 8, 16, 32))
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


ROW_SUM_CASES = [
    (way, K, B) for way in ("exact_sums", "fsum") for K in (3, 9, 15, 31) for B in (1, 64, 4096)
]


def fsum_columns(x: np.ndarray) -> np.ndarray:
    return np.array([math.fsum(col) for col in x.T.tolist()], dtype=float)


@pytest.mark.parametrize("way,K,B", ROW_SUM_CASES, ids=[f"{w}-K{k}-B{b}" for w, k, b in ROW_SUM_CASES])
def test_row_sums(benchmark, way, K, B):
    x = np.random.default_rng(100 * K + B).random((K, B))
    benchmark.group = f"row sums K={K} B={B}"
    out = benchmark(exact_sums if way == "exact_sums" else fsum_columns, x)
    assert np.array_equal(out, fsum_columns(x))


CALIBRATION_TABLE = np.random.default_rng(7).random(4096 * 16)
CALIBRATION_INDEX = np.random.default_rng(8).integers(0, 4096 * 15, (4096, 16))


def calibration_work() -> list[float]:
    """Fixed work on fixed data; nothing from the package."""
    best = CALIBRATION_TABLE.take(CALIBRATION_INDEX)
    for _ in range(15):
        j = best.argmin(axis=1)
        np.minimum(best, CALIBRATION_TABLE.take(CALIBRATION_INDEX + j[:, None]), out=best)
    return [math.fsum(row) for row in best.tolist()]


def test_calibration(benchmark):
    benchmark.group = "calibration"
    assert len(benchmark(calibration_work)) == 4096


def oracle_chunk() -> np.ndarray:
    """The first ``CHUNK`` realizations of ``MEMO_GRAPH``, row-sorted, in
    ``enumerate_term``'s order."""
    table = node_outcomes(MEMO_GRAPH, None)
    digits = np.unravel_index(np.arange(CHUNK), [len(outs) for outs, _ in table])
    return np.sort(np.column_stack([outs[d] for (outs, _), d in zip(table, digits)]), axis=1)


def distinct_sets(rows: np.ndarray, B: int) -> np.ndarray:
    first = np.sort(np.unique(rows, axis=0, return_index=True)[1])
    return rows[first[:B]]


def constant_solve(idx: np.ndarray) -> tuple[np.ndarray]:
    return (np.ones(len(idx)),)


def sampled_block(g) -> np.ndarray:
    """One row-sorted, unconditioned 4096-sample block of ``g``."""
    rows = ConditionalSampler(g).draw_block(SampleStream(1, "bench", g.n), 0, 4096)
    rows.sort(axis=1)
    return rows


MEMO_GRAPH = gen_graph("euclidean-uniform", 10, 12, 4)
N16_GRAPH = gen_graph("euclidean-uniform", 16, 24, 1)
N32_GRAPH = gen_graph("euclidean-uniform", 32, 48, 1)
CHUNK_ROWS = oracle_chunk()
MEMO_BLOCKS = {
    "oracle-4096": (CHUNK_ROWS, MEMO_GRAPH),
    "sets-2": (distinct_sets(CHUNK_ROWS, 2), MEMO_GRAPH),
    "sets-50": (distinct_sets(CHUNK_ROWS, 50), MEMO_GRAPH),
    "n16-4096": (sampled_block(N16_GRAPH), N16_GRAPH),
    "n32-4096": (sampled_block(N32_GRAPH), N32_GRAPH),
}


def memo_values(rows: np.ndarray, memo: PointSetMemo) -> np.ndarray:
    slots = memo.find(rows, constant_solve)  # before reading values, which it may grow
    return memo.values[0][slots]


@pytest.mark.parametrize("memo", ["cold", "warm"])
@pytest.mark.parametrize("block", list(MEMO_BLOCKS))
def test_point_set_memo(benchmark, block, memo):
    rows, g = MEMO_BLOCKS[block]
    benchmark.group = f"point_set_memo {block}"
    if memo == "warm":
        warm = PointSetMemo(g.m, g.n)
        memo_values(rows, warm)
        values = benchmark(memo_values, rows, warm)
    else:
        values = benchmark.pedantic(
            memo_values,
            setup=lambda: ((rows, PointSetMemo(g.m, g.n)), {}),
            rounds=2000 if len(rows) < 100 else 200,
        )
    assert (values == 1.0).all() and len(values) == len(rows)
