"""Monte Carlo engine: budgets, determinism, statistical calibration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stochgraph import (
    DomainError,
    EventSpec,
    Functional,
    MetricSpace,
    SampleBudget,
    StochasticGraph,
    chernoff_budget,
    estimate_conditional,
    exact_expectation,
    tree_sum,
)
from stochgraph.mc import BLOCK_SIZE, realization_classes, run_conditional_mc
from stochgraph.rng import SampleStream
from stochgraph.sampling import ConditionalSampler

from conftest import random_graph, rng_for


def line_space(*xs):
    return MetricSpace(
        [f"p{i}" for i in range(len(xs))],
        coords=np.array([[x, 0.0] for x in xs]),
    )


# ---------------------------------------------------------------------------
# chernoff_budget
# ---------------------------------------------------------------------------

def test_budget_closed_form():
    # ceil(16 ln 8) = 34
    assert chernoff_budget(1.0, 1.0, 0.5, 0.25) == 34


def test_budget_linear_in_u():
    n1 = chernoff_budget(1.0, 1.0, 0.5, 0.25)
    n2 = chernoff_budget(2.0, 1.0, 0.5, 0.25)
    assert n2 == math.ceil(2 * 16 * math.log(8))
    assert n2 == 2 * n1 or n2 == 2 * n1 - 1  # ceil of exactly doubled argument


def test_budget_monotonicity():
    base = chernoff_budget(2.0, 1.0, 0.25, 0.1)
    assert chernoff_budget(3.0, 1.0, 0.25, 0.1) >= base
    assert chernoff_budget(2.0, 1.5, 0.25, 0.1) <= base
    assert chernoff_budget(2.0, 1.0, 0.5, 0.1) <= base
    assert chernoff_budget(2.0, 1.0, 0.25, 0.2) <= base


def test_budget_domain_errors():
    with pytest.raises(DomainError):
        chernoff_budget(1.0, 0.0, 0.5, 0.25)
    with pytest.raises(DomainError):
        chernoff_budget(0.5, 1.0, 0.5, 0.25)
    with pytest.raises(DomainError):
        chernoff_budget(1.0, 1.0, -0.1, 0.25)
    with pytest.raises(DomainError):
        chernoff_budget(1.0, 1.0, 0.5, 1.5)


def test_budget_achieves_coverage_on_bernoulli():
    # |mean - 0.5| <= eps * 0.5 in at least 1 - delta of 200 trials
    rng = rng_for(42)
    for eps, delta in ((0.5, 0.25), (0.25, 0.1)):
        n = chernoff_budget(1.0, 1.0, eps, delta)
        failures = 0
        for _ in range(200):
            mean = rng.random(n).round().mean()
            if abs(mean - 0.5) > eps * 0.5:
                failures += 1
        assert failures / 200 <= delta


def test_sample_budget_validation():
    SampleBudget(10, 2.0, 1.0, 0.5, 0.25)
    with pytest.raises(DomainError):
        SampleBudget(0, 2.0, 1.0, 0.5, 0.25)
    with pytest.raises(DomainError):
        SampleBudget(10, 0.5, 1.0, 0.5, 0.25)


# ---------------------------------------------------------------------------
# tree_sum
# ---------------------------------------------------------------------------

def test_tree_sum_matches_exact_on_integers():
    rng = rng_for(1)
    vals = rng.integers(-100, 100, size=1000).astype(float)
    assert tree_sum(vals) == float(vals.sum())
    assert tree_sum([]) == 0.0
    assert tree_sum([3.5]) == 3.5


def test_tree_sum_independent_of_chunk_boundaries():
    rng = rng_for(2)
    vals = rng.random(10_000)
    total = tree_sum(vals)
    assert tree_sum(vals.copy()) == total


# ---------------------------------------------------------------------------
# realization_classes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n, m, radix_keys",
    [(5, 6, True), (16, 10, True), (16, 24, False)],
)
def test_realization_classes_partition_matches_rowwise_unique(n, m, radix_keys):
    assert ((m + 1) ** n < 2**63) == radix_keys
    rng = rng_for(100 * n + m)
    for _ in range(5):
        count = int(rng.integers(1, 3000))
        # few distinct values per column so that rows repeat; -1 is absent
        support = rng.integers(0, m, size=(n, 3))
        support[::2, 0] = -1
        rows = support[np.arange(n), rng.integers(0, 3, size=(count, n))]
        rows.sort(axis=1)
        assert (rows == -1).any()
        classes, inverse = realization_classes(rows.copy(), m)
        ref, ref_inverse = np.unique(rows, axis=0, return_inverse=True)
        assert len(classes) == len(ref)
        np.testing.assert_array_equal(classes[inverse], rows)
        # same partition: rows share a class exactly when they share one
        # under the row-wise unique
        pairs = set(zip(inverse.tolist(), ref_inverse.ravel().tolist()))
        assert len(pairs) == len(ref)
        if radix_keys:  # radix keys keep lexicographic class order
            np.testing.assert_array_equal(classes, ref)


def test_class_fn_gets_each_block_distinct_sorted_classes(rng):
    g = random_graph(rng, 4, 5)
    sampler = ConditionalSampler(g)
    blocks = []

    def class_fn(rows):
        blocks.append(rows.copy())
        return rows[:, -1].astype(float), (rows[:, 0] == rows[:, -1]).astype(int)

    n = 2 * BLOCK_SIZE + 7
    mean, hits = run_conditional_mc(sampler, class_fn, n, SampleStream(1, "blocks", g.n))
    assert len(blocks) == 3
    rows = np.sort(sampler.draw_block(SampleStream(1, "blocks", g.n), 0, n), axis=1)
    # integer values sum exactly, so block boundaries cannot matter
    assert mean == tree_sum(rows[:, -1].astype(float)) / n
    assert hits == int((rows[:, 0] == rows[:, -1]).sum())
    for block in blocks:
        assert block.shape[1] == g.n
        assert np.all(block[:, 1:] >= block[:, :-1])
        assert len(np.unique(block, axis=0)) == len(block)


# ---------------------------------------------------------------------------
# estimate_conditional
# ---------------------------------------------------------------------------

def test_conditional_deterministic_event_is_exact():
    space = line_space(0.0, 3.0)
    g = StochasticGraph(
        ["v1", "v2"],
        space,
        {v: {"p0": 0.5, "p1": 0.5} for v in ("v1", "v2")},
    )
    ev = EventSpec(allowed={"v1": "p0", "v2": "p1"})
    budget = SampleBudget(1000, 3.0, 0.1, 0.25, 0.1)
    mean, samples = estimate_conditional(
        g, Functional.MST, ev, budget, seed=5, tag="t"
    )
    assert mean == 3.0
    assert samples == 1


def test_conditional_tracks_oracle():
    space = line_space(0.0, 1.0, 7.0)
    g = StochasticGraph(
        ["v1", "v2"],
        space,
        {
            "v1": {"p0": 0.6, "p1": 0.3, "p2": 0.1},
            "v2": {"p0": 0.2, "p1": 0.7, "p2": 0.1},
        },
    )
    ev = EventSpec(allowed={v: ["p0", "p1"] for v in ("v1", "v2")})
    oracle = exact_expectation(g, Functional.MST, ev)
    hits = 0
    for seed in range(20):
        budget = SampleBudget(2000, 1.0, 0.1, 0.2, 0.1)
        mean, _ = estimate_conditional(
            g, Functional.MST, ev, budget, seed=seed, tag="vs-oracle"
        )
        if abs(mean - oracle) <= 0.2 * oracle:
            hits += 1
    assert hits >= 15


def test_conditional_thread_count_invariance(rng):
    g = random_graph(rng, 4, 5)
    budget = SampleBudget(20_000, 1.0, 0.01, 0.25, 0.1)
    means = {
        threads: estimate_conditional(
            g, Functional.MST, None, budget, seed=3, tag="threads", threads=threads
        )[0]
        for threads in (1, 4, 8)
    }
    assert means[1] == means[4] == means[8]


def test_conditional_thread_count_invariance_without_radix_keys(rng):
    # 25**16 overflows int64, so the engine compares rows as raw bytes
    g = random_graph(rng, 16, 24, max_support=3)
    assert (g.m + 1) ** g.n >= 2**63
    budget = SampleBudget(2 * 4096 + 500, 1.0, 0.01, 0.25, 0.1)
    means = {
        threads: estimate_conditional(
            g, Functional.MST, None, budget, seed=4, tag="threads", threads=threads
        )[0]
        for threads in (1, 2, 4)
    }
    assert means[1] == means[2] == means[4]


def test_conditional_unbiased_at_sampler_level(rng):
    # mean over many samples approaches the oracle-computed expectation
    g = random_graph(rng, 3, 4)
    oracle = exact_expectation(g, Functional.CC)
    budget = SampleBudget(60_000, 1.0, 0.01, 0.25, 0.1)
    mean, _ = estimate_conditional(
        g, Functional.CC, None, budget, seed=17, tag="unbiased"
    )
    assert mean == pytest.approx(oracle, rel=0.05)
