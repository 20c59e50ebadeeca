"""Monte Carlo engine: budgets, determinism, statistical calibration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stochgraph import (
    DomainError,
    EstimateReport,
    EventSpec,
    Functional,
    MetricSpace,
    StochasticGraph,
    chernoff_budget,
    estimate_conditional,
    exact_expectation,
    tree_sum,
)
from stochgraph.mc import BLOCK_SIZE, apply_budget_scale, realization_classes, run_conditional_mc
from stochgraph.model import Event
from stochgraph.oracle import FunctionalEvaluator
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


def test_budget_cap_and_threads_below_1_are_domain_errors():
    assert apply_budget_scale(10, 1.0, 1) == 1
    for cap in (0, -5):
        with pytest.raises(DomainError):
            apply_budget_scale(10, 1.0, cap)
    for settings in ({"budget_cap": 0}, {"threads": 0}, {"threads": -3}):
        with pytest.raises(DomainError):
            EstimateReport("mst-home", 0.25, 1, **settings)


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

def mst_class_fn(g):
    return FunctionalEvaluator(g.space, Functional.MST).class_fn


def test_conditional_deterministic_event_is_exact():
    space = line_space(0.0, 3.0)
    g = StochasticGraph(
        ["v1", "v2"],
        space,
        {v: {"p0": 0.5, "p1": 0.5} for v in ("v1", "v2")},
    )
    ev = EventSpec(allowed={"v1": "p0", "v2": "p1"})
    mean, hits, samples = estimate_conditional(
        g, ev, mst_class_fn(g), 1000, seed=5, tag="t"
    )
    assert mean == 3.0
    assert hits == 0
    assert samples == 1


def test_conditional_pinned_existential_event_is_the_oracle_value():
    space = line_space(0.0, 3.0, 5.0)
    g = StochasticGraph(
        ["v1", "v2", "v3"],
        space,
        {
            "v1": {"p0": 0.5, "p1": 0.3},
            "v2": {"p1": 0.6, "p2": 0.2},
            "v3": {"p0": 0.1, "p2": 0.7},
        },
        presence_mode="existential",
    )
    # v1 at p0, v2 at p2, v3 pinned absent
    event = Event(
        np.array([[True, False, False], [False, False, True], [False, False, False]]),
        np.array([False, False, True]),
    )
    oracle = exact_expectation(g, Functional.MST, event)
    mean, hits, samples = estimate_conditional(
        g, event, mst_class_fn(g), 1000, seed=5, tag="absent"
    )
    assert mean == oracle == 5.0
    assert (hits, samples) == (0, 1)


def test_conditional_hits_count_indicator_samples(rng):
    g = random_graph(rng, 4, 5)

    def class_fn(rows):
        return rows[:, -1].astype(float), (rows[:, -1] % 2 == 0).astype(int)

    n = BLOCK_SIZE + 321
    mean, hits, samples = estimate_conditional(g, None, class_fn, n, seed=9, tag="hits")
    rows = np.sort(ConditionalSampler(g).draw_block(SampleStream(9, "hits", g.n), 0, n), axis=1)
    assert samples == n
    assert hits == int((rows[:, -1] % 2 == 0).sum())
    assert 0 < hits < n
    assert mean == tree_sum(rows[:, -1].astype(float)) / n


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
        mean, _, _ = estimate_conditional(
            g, ev, mst_class_fn(g), 2000, seed=seed, tag="vs-oracle"
        )
        if abs(mean - oracle) <= 0.2 * oracle:
            hits += 1
    assert hits >= 15


def test_conditional_thread_count_invariance(rng):
    g = random_graph(rng, 4, 5)
    means = {
        threads: estimate_conditional(
            g, None, mst_class_fn(g), 20_000, seed=3, tag="threads", threads=threads
        )[0]
        for threads in (1, 4, 8)
    }
    assert means[1] == means[4] == means[8]


def test_conditional_thread_count_invariance_without_radix_keys(rng):
    # 25**16 overflows int64, so the engine compares rows as raw bytes
    g = random_graph(rng, 16, 24, max_support=3)
    assert (g.m + 1) ** g.n >= 2**63
    means = {
        threads: estimate_conditional(
            g, None, mst_class_fn(g), 2 * 4096 + 500, seed=4, tag="threads", threads=threads
        )[0]
        for threads in (1, 2, 4)
    }
    assert means[1] == means[2] == means[4]


def test_conditional_unbiased_at_sampler_level(rng):
    # mean over many samples approaches the oracle-computed expectation
    g = random_graph(rng, 3, 4)
    oracle = exact_expectation(g, Functional.CC)
    class_fn = FunctionalEvaluator(g.space, Functional.CC).class_fn
    mean, _, _ = estimate_conditional(g, None, class_fn, 60_000, seed=17, tag="unbiased")
    assert mean == pytest.approx(oracle, rel=0.05)
