"""Monte Carlo engine: budgets, determinism, statistical calibration."""

from __future__ import annotations

import math
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from stochgraph import (
    DomainError,
    EstimateReport,
    EventSpec,
    Functional,
    MetricSpace,
    StochasticGraph,
    TermReport,
    chernoff_budget,
    estimate_conditional,
    estimate_ecc,
    estimate_emst,
    estimate_emst_dp,
    estimate_empm,
    exact_expectation,
    tree_sum,
)
import stochgraph.cc as cc_module
import stochgraph.mc as mc_module
import stochgraph.oracle as oracle_module
import stochgraph.sampling as sampling_module
from stochgraph.generate import gen_graph
from stochgraph.mc import (
    BLOCK_SIZE,
    apply_budget_scale,
    block_classes,
    draw_classes,
    group_classes,
    run_conditional_mc,
    tree_sums,
)
from stochgraph.model import Event
from stochgraph.oracle import FunctionalEvaluator
from stochgraph.rng import SampleStream
from stochgraph.sampling import ConditionalSampler, draw_terms

from conftest import count_groups, euclidean_space, node_cums, random_graph, rng_for


def line_space(*xs):
    return MetricSpace(
        [f"p{i}" for i in range(len(xs))],
        coords=np.array([[x, 0.0] for x in xs]),
    )


def on_threads(threads: int, fn):
    """``fn()`` run at once on each of ``threads`` threads of the caller's
    own, as a caller may run estimators; the results, in thread order.  Each
    call builds its own samplers and class_fn: a memo belongs to one thread."""
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn) for _ in range(threads)]
        return [f.result(timeout=300) for f in futures]


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


def test_cap_applies_before_rounding_so_a_huge_scale_does_not_overflow():
    assert apply_budget_scale(10**6, 1e308, 100) == 100
    assert apply_budget_scale(1000, 0.0123, 7) == min(math.ceil(1000 * 0.0123), 7)
    assert apply_budget_scale(1000, 0.0123, 100) == math.ceil(1000 * 0.0123)
    report = EstimateReport("cc", 0.25, 1, budget_scale=0.0123, budget_cap=7)
    assert report.budget(1000) == 7 and report.budget(100) == math.ceil(100 * 0.0123)
    with pytest.raises(DomainError):
        apply_budget_scale(10**6, 1e308)


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


def pairwise_reference(xs: list) -> float:
    """Fan-in 2 sum in index order, an odd last value carried up a level."""
    while len(xs) > 1:
        xs = [xs[i] + xs[i + 1] for i in range(0, len(xs) - 1, 2)] + xs[len(xs) - len(xs) % 2 :]
    return xs[0] if xs else 0.0


def test_tree_sums_pair_each_row_in_index_order():
    # magnitudes 2**-60 .. 2**60 of both signs, so every grouping shows in the bits
    rng = rng_for(3)
    for width in [0, 1, 2, 3, 5, 7, 8, 13, 50, 129]:
        for rows in (1, 2, 9):
            a = rng.random((rows, width)) * 2.0 ** rng.integers(-60, 61, (rows, width))
            a *= rng.choice([-1.0, 1.0], (rows, width))
            expected = [pairwise_reference(row) for row in a.tolist()]
            assert tree_sums(a).tolist() == expected
            assert [tree_sum(row) for row in a] == expected


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("unit", [2.0**-1074, 2.0**-1000, 2.0**1010])
def test_mean_of_tiny_and_huge_values_is_exact(rng, threads, unit):
    """Values of 1..5 units over three blocks: the mean is their exact sum
    over n, correctly rounded.  Summed times the engine's overflow scale, the
    subnormal units would lose bits; the 2**1010 units overflow unscaled."""
    g = random_graph(rng, 3, 5)
    n = 2 * BLOCK_SIZE + 7
    sampler, stream = ConditionalSampler(g), SampleStream(3, "tiny", g.n)

    def class_fn(rows):
        return (1 + rows[:, -1] % 5) * unit, np.zeros(len(rows), dtype=int)

    def mean():
        stream = SampleStream(3, "tiny", g.n)
        return run_conditional_mc(ConditionalSampler(g), class_fn, n, stream)[0]

    units = 1 + np.sort(sampler.draw_block(stream, 0, n), axis=1)[:, -1] % 5
    exact = float(Fraction(int(units.sum()), n) * Fraction(unit))
    assert on_threads(threads, mean) == [exact] * threads


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
    drawn = sampler.draw_block(SampleStream(1, "blocks", g.n), 0, n)
    rows = np.sort(drawn, axis=1)
    # integer values sum exactly, so block boundaries cannot matter
    assert mean == tree_sum(rows[:, -1].astype(float)) / n
    assert hits == int((rows[:, 0] == rows[:, -1]).sum())
    # keyed by outcome position: one class per distinct outcome tuple
    assert sampler.support <= BLOCK_SIZE
    for b, block in enumerate(blocks):
        assert block.shape[1] == g.n
        assert np.all(block[:, 1:] >= block[:, :-1])
        tuples = drawn[b * BLOCK_SIZE : (b + 1) * BLOCK_SIZE]
        assert len(block) == len(np.unique(tuples, axis=0))


# ---------------------------------------------------------------------------
# block_classes: position keys when the support fits in one block
# ---------------------------------------------------------------------------

def support_graph(rng, sizes, m, existential=False):
    """Node j has exactly sizes[j] outcomes, its points drawn from m points
    so that nodes share them; existential nodes also count absent."""
    P = np.zeros((len(sizes), m))
    for v, size in enumerate(sizes):
        k = size - existential
        if k:  # an existential node with no point is pinned absent
            P[v, rng.choice(m, size=k, replace=False)] = rng.random(k) + 0.05
            P[v] /= P[v].sum() * (2.0 if existential else 1.0)
    g = StochasticGraph(
        [f"v{v}" for v in range(len(sizes))],
        euclidean_space(rng, m),
        P,
        presence_mode="existential" if existential else "certain",
    )
    assert ConditionalSampler(g).support == math.prod(sizes)
    return g


SUPPORT_CASES = {
    "pinned": ((1, 3, 1, 2, 1), 4, False),
    "existential": ((2, 3, 2, 1, 3), 4, True),
    "shared-points": ((4, 4, 4, 4), 5, False),
    "block-size": ((8, 8, 8, 8), 9, False),
    "block-size-existential": ((8, 8, 8, 8), 9, True),
    "block-size-plus-1": ((17, 241), 241, False),
}


@pytest.mark.parametrize("case", SUPPORT_CASES)
def test_position_keys_give_the_classes_of_sorted_rows(case):
    sizes, m, existential = SUPPORT_CASES[case]
    for seed in range(4):
        g = support_graph(rng_for(seed), sizes, m, existential)
        sampler = ConditionalSampler(g)
        stream = SampleStream(seed, case, g.n)
        rows = sampler.draw_block(stream, 0, BLOCK_SIZE)
        classes, inverse = draw_classes(sampler, stream, BLOCK_SIZE, 0)
        row_sorted = np.sort(rows, axis=1)
        assert classes.dtype == rows.dtype
        np.testing.assert_array_equal(classes[inverse], row_sorted)
        if sampler.support > BLOCK_SIZE:  # the whole block, row-sorted, is its classes
            assert inverse.dtype == np.intp
            np.testing.assert_array_equal(classes, row_sorted)
            np.testing.assert_array_equal(inverse, np.arange(len(rows)))
        else:
            assert inverse.dtype == np.uint16
            # rows share a class exactly when they share an outcome tuple
            tuples, ref_inverse = np.unique(rows, axis=0, return_inverse=True)
            assert len(classes) == len(tuples)
            assert len(set(zip(inverse.tolist(), ref_inverse.ravel().tolist()))) == len(tuples)
            # the unkeyed classes of the same rows hold the same rows
            unkeyed, at = block_classes(rows.copy())
            np.testing.assert_array_equal(classes[inverse], unkeyed[at])
        if case == "shared-points":  # distinct outcome tuples, one point set: one class each
            assert len(np.unique(classes, axis=0)) < len(classes) == len(tuples)
        if existential:
            assert (rows == -1).any()


def test_position_keys_number_outcome_tuples_in_c_order():
    g = support_graph(rng_for(3), (2, 1, 3, 2), 4, existential=True)
    sampler = ConditionalSampler(g)
    stream = SampleStream(3, "c-order", g.n)
    keys = sampler.draw_block(stream, 0, BLOCK_SIZE, keyed=True)
    rows = sampler.draw_block(stream, 0, BLOCK_SIZE)
    # the keys decode to the rows drawn without them
    assert keys.dtype == np.int64 and keys.shape == (BLOCK_SIZE,)
    np.testing.assert_array_equal(sampler.decode(keys), rows)
    # each node's outcome position, the last node fastest
    outcomes = [o.tolist() for o in sampler.outcomes]
    positions = [[outs.index(x) for x, outs in zip(row, outcomes)] for row in rows.tolist()]
    sizes = [len(outs) for outs in outcomes]
    np.testing.assert_array_equal(keys, np.ravel_multi_index(np.array(positions).T, sizes))
    assert sorted(set(keys.tolist())) == list(range(sampler.support))


def test_position_keyed_term_is_thread_invariant_and_matches_sorted_rows(monkeypatch):
    g = support_graph(rng_for(5), (3, 1, 4, 2, 3), 6, existential=True)
    sampler = ConditionalSampler(g)
    assert sampler.support <= BLOCK_SIZE
    class_fn = mst_class_fn(g)
    n = 2 * BLOCK_SIZE + 100  # three blocks

    def run():
        stream = SampleStream(2, "keyed", g.n)
        return run_conditional_mc(ConditionalSampler(g), mst_class_fn(g), n, stream)

    whole, drawn_whole = mc_module.block_classes, []

    def whole_block(rows):  # the path of a support above one block
        drawn_whole.append(len(rows))
        return whole(rows)

    monkeypatch.setattr(mc_module, "block_classes", whole_block)
    runs = [run(), *on_threads(2, run)]
    assert drawn_whole == []  # keyed: no rows are drawn
    sampler.support = BLOCK_SIZE + 1  # rows drawn whole, as for a larger support
    ref = run_conditional_mc(sampler, class_fn, n, SampleStream(2, "keyed", g.n))
    assert drawn_whole == [BLOCK_SIZE, BLOCK_SIZE, 100]
    assert runs == [ref] * 3
    assert 0.0 < ref[0]


def test_pinned_columns_equal_a_search_on_every_node():
    g = support_graph(rng_for(6), (1, 3, 1, 1, 2), 4, existential=True)
    sampler = ConditionalSampler(g)
    stream = SampleStream(8, "pinned", g.n)
    u = stream.uniforms(5, 500)
    ref = np.column_stack([
        outs[np.minimum(np.searchsorted(cum, u[:, j], side="right"), len(cum) - 1)]
        for j, (outs, cum) in enumerate(zip(sampler.outcomes, node_cums(sampler)))
    ])
    np.testing.assert_array_equal(sampler.draw_block(stream, 5, 500), ref)


def test_is_deterministic_means_support_1(rng):
    seen = set()
    for _ in range(30):
        g = random_graph(rng, 3, 4, max_support=2, presence_mode="existential")
        allowed = rng.random((g.n, g.m)) < 0.5
        allowed[np.arange(g.n), g.probs.argmax(axis=1)] = True
        sampler = ConditionalSampler(g, Event(allowed, rng.random(g.n) < 0.3))
        assert sampler.support == math.prod(len(o) for o in sampler.outcomes)
        assert sampler.is_deterministic == (sampler.support == 1)
        seen.add(sampler.is_deterministic)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# estimate_conditional
# ---------------------------------------------------------------------------

def mst_class_fn(g):
    return FunctionalEvaluator(g, Functional.MST).class_fn


def one_term(g, event, class_fn, n_samples, *, seed, tag):
    """``estimate_conditional`` of the one term ``(event, n_samples, tag)``."""
    [result] = estimate_conditional(g, [(event, n_samples, tag, None)], class_fn, seed=seed)
    return result


def test_conditional_deterministic_event_is_exact():
    space = line_space(0.0, 3.0)
    g = StochasticGraph(
        ["v1", "v2"],
        space,
        {v: {"p0": 0.5, "p1": 0.5} for v in ("v1", "v2")},
    )
    ev = EventSpec(allowed={"v1": "p0", "v2": "p1"})
    mean, hits, samples = one_term(
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
    mean, hits, samples = one_term(
        g, event, mst_class_fn(g), 1000, seed=5, tag="absent"
    )
    assert mean == oracle == 5.0
    assert (hits, samples) == (0, 1)


def test_conditional_hits_count_indicator_samples(rng):
    g = random_graph(rng, 4, 5)

    def class_fn(rows, keys):
        return rows[:, -1].astype(float), (rows[:, -1] % 2 == 0).astype(int)

    n = BLOCK_SIZE + 321
    mean, hits, samples = one_term(g, None, class_fn, n, seed=9, tag="hits")
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
        mean, _, _ = one_term(
            g, ev, mst_class_fn(g), 2000, seed=seed, tag="vs-oracle"
        )
        if abs(mean - oracle) <= 0.2 * oracle:
            hits += 1
    assert hits >= 15


def test_conditional_thread_count_invariance(rng):
    g = random_graph(rng, 4, 5)

    def mean():
        return one_term(g, None, mst_class_fn(g), 20_000, seed=3, tag="threads")[0]

    means = [m for threads in (1, 4, 8) for m in on_threads(threads, mean)]
    assert means == [means[0]] * 13


def test_conditional_thread_count_invariance_with_two_word_keys(rng):
    # 25**16 digits pass int64, but the memo keys a row by its multiset
    # rank, C(40, 16) < 2**63, in one
    g = random_graph(rng, 16, 24, max_support=3)
    assert (g.m + 1) ** g.n >= 2**63 > math.comb(g.m + g.n, g.n)

    def mean():
        return one_term(g, None, mst_class_fn(g), 2 * 4096 + 500, seed=4, tag="threads")[0]

    means = [m for threads in (1, 2, 4) for m in on_threads(threads, mean)]
    assert means == [means[0]] * 7


def test_estimators_run_every_block_on_the_calling_thread(monkeypatch):
    # eu-4-5 of the suite at a cap of two blocks: each estimator has a term
    # of more than one block
    g = gen_graph("euclidean-uniform", 4, 5, 13)
    cap = 2 * BLOCK_SIZE
    estimators = (estimate_emst, estimate_emst_dp, estimate_empm, estimate_ecc)
    serial = [est(g, 0.25, 1, budget_cap=cap).to_dict() for est in estimators]
    pairs = serial[-1]["extras"]["pairs"]
    for doc in serial[:-1]:
        assert max(t["samples"] for t in doc["terms"]) > BLOCK_SIZE
    d = next(d for d in pairs if d["samples"] > BLOCK_SIZE)

    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(mc_module, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    for est, want in zip(estimators, serial):
        doc = est(g, 0.25, 1, budget_cap=cap, threads=4).to_dict()
        assert doc.pop("threads") == 4 and want.pop("threads") == 1
        assert doc == want
    sp = cc_module.split_points(g)
    mutual = d["kind"] == "mutual"
    alone = cc_module.estimate_pair_term(sp, d["s"], d["t"], d["samples"], 1, mutual=mutual)
    assert alone.to_dict() == d


def test_conditional_unbiased_at_sampler_level(rng):
    # mean over many samples approaches the oracle-computed expectation
    g = random_graph(rng, 3, 4)
    oracle = exact_expectation(g, Functional.CC)
    class_fn = FunctionalEvaluator(g, Functional.CC).class_fn
    mean, _, _ = one_term(g, None, class_fn, 60_000, seed=17, tag="unbiased")
    assert mean == pytest.approx(oracle, rel=0.05)


def each_term_alone(g, terms, class_fn, seed):
    """(mean, hits, samples) of each ``(event, n_samples, tag, key)`` term run
    alone: ``run_conditional_mc`` on its own stream, over one sample if its
    event pins every node."""
    alone = []
    for event, n, tag, key in terms:
        def fn(rows, key=key):
            return class_fn(rows, np.full(len(rows), key))

        sampler = ConditionalSampler(g, event)
        n = 1 if sampler.is_deterministic else n
        alone.append((*run_conditional_mc(sampler, fn, n, SampleStream(seed, tag, g.n)), n))
    return alone


def test_grouped_terms_equal_each_term_run_alone(rng):
    g = random_graph(rng, 4, 5, max_support=3)
    evaluator = FunctionalEvaluator(g, Functional.MST)
    tiny = 2.0**-1060  # an MST value times this is subnormal

    def class_fn(rows, keys):
        # values times a positive key; all zero for key 0; subnormal for a negative key
        weight = np.where(keys > 0, keys, np.where(keys < 0, tiny, 0.0))
        return evaluator.values(rows) * weight, (rows[:, -1] % 3 == keys % 3).astype(int)

    pinned = np.zeros((g.n, g.m), dtype=bool)
    pinned[np.arange(g.n), g.probs.argmax(axis=1)] = True
    narrow = g.probs > 0.0
    narrow[0] = pinned[0]
    nobody_absent = np.zeros(g.n, dtype=bool)
    pinned, narrow = Event(pinned, nobody_absent), Event(narrow, nobody_absent)
    # pinned terms (1 sample), small ones of several sizes (groups close
    # mid-list) and terms of a block or more, each with its own key
    sizes = [10, 1, 300, 2000, BLOCK_SIZE, 3000, 1, 5, BLOCK_SIZE + 7, 700, 2 * BLOCK_SIZE + 1]
    terms = [
        (pinned if n == 1 else narrow if k % 2 else None, n, f"term-{k}", k + 1)
        for k, n in enumerate(sizes)
    ]
    alone = each_term_alone(g, terms, class_fn, seed=3)
    assert [samples for _, _, samples in alone] == sizes
    assert estimate_conditional(g, iter(terms), class_fn, seed=3) == alone

    def kinds(key):  # the same terms with all-zero, subnormal and plain values
        return [(e, n, f"{tag}/{key}", key * k) for e, n, tag, k in terms]

    # groups mixing sample counts (1 to 2,000) and value kinds; and 20 keyed
    # terms of 2,000 samples in one group, more than one stack of them
    counts = [1, 50, 5, 1, 500, 50, 5, 2000, 1, 50]
    mixed = [(narrow if k % 3 else None, n, f"mixed-{k}", k % 3 - 1) for k, n in enumerate(counts)]
    stacked = [(narrow, 2000, f"stacked-{k}", k % 3 - 1) for k in range(20)]
    assert ConditionalSampler(g, narrow).support <= 2000
    assert 20 * 2000 > 4 * BLOCK_SIZE  # a stack gathers at most 4 blocks of samples
    for case in (kinds(0), kinds(-1), mixed * 3, stacked):
        alone = each_term_alone(g, case, class_fn, seed=5)
        assert estimate_conditional(g, iter(case), class_fn, seed=5) == alone
    tiny_means = [mean for mean, _, _ in each_term_alone(g, kinds(-1), class_fn, seed=5)]
    assert all(0.0 < mean < 2.0**-1022 for mean in tiny_means)  # the unscaled re-sums


def keyed_class_fn(g, calls):
    """A keyed MST ``class_fn`` that records the rows of each call."""
    evaluator = FunctionalEvaluator(g, Functional.MST)

    def class_fn(rows, keys):
        calls.append(len(rows))
        return evaluator.values(rows) * keys, (rows[:, 0] % 2 == keys % 2).astype(int)

    return class_fn


@pytest.mark.parametrize("threads", [1, 2])
def test_keyed_terms_group_by_the_classes_they_hand_class_fn(threads):
    # 60 terms of 2,500 samples, support at most 50: their classes fill one
    # group, where closing by samples drawn made 30
    g = random_graph(rng_for(31), 4, 6)
    rng = rng_for(32)
    terms = []
    while len(terms) < 60:
        allowed = np.zeros((g.n, g.m), dtype=bool)
        for v in range(g.n):
            points = np.flatnonzero(g.probs[v] > 0.0)
            size = min(len(points), int(rng.integers(1, 4)))
            allowed[v, rng.choice(points, size=size, replace=False)] = True
        event = Event(allowed, np.zeros(g.n, dtype=bool))
        if 1 < ConditionalSampler(g, event).support <= 50:
            terms.append((event, 2500, f"keyed-{len(terms)}", len(terms) + 1))

    def run():
        calls: list = []
        class_fn = keyed_class_fn(g, calls)
        return calls, class_fn, estimate_conditional(g, terms, class_fn, seed=4)

    # each of ``threads`` caller threads groups the terms alike
    for calls, class_fn, got in on_threads(threads, run):
        rows = sum(calls)
        assert len(calls) == -(-rows // BLOCK_SIZE) == 1
        assert got == each_term_alone(g, terms, class_fn, seed=4)


def test_one_class_terms_close_their_groups_by_the_samples_they_hold(monkeypatch):
    # support 2, but the second outcome has probability 1e-15: each term of
    # BLOCK_SIZE - 1 samples hands class_fn one row and holds 4,095 samples
    g = StochasticGraph(
        ["v0", "v1"], line_space(0.0, 1.0, 3.0),
        np.array([[1.0 - 1e-15, 1e-15, 0.0], [0.0, 0.0, 1.0]]),
    )
    n = BLOCK_SIZE - 1
    terms = [(None, n, f"one-{k}", k + 1) for k in range(150)]
    held, reduce = [], mc_module.block_sums

    def recorded(vals, hits, starts, inverses, n_samples):
        held.extend(inverse.dtype for inverse in inverses)
        return reduce(vals, hits, starts, inverses, n_samples)

    monkeypatch.setattr(mc_module, "block_sums", recorded)
    calls: list = []
    class_fn = keyed_class_fn(g, calls)
    got = estimate_conditional(g, terms, class_fn, seed=6)
    per_group = -(-64 * BLOCK_SIZE // n)  # 65 terms reach 64 blocks of samples
    assert calls == [per_group, per_group, 150 - 2 * per_group]
    assert (per_group - 1) * n < 64 * BLOCK_SIZE  # waiting: under 512 KiB of uint16
    assert held == [np.dtype(np.uint16)] * 150
    assert got == each_term_alone(g, terms, class_fn, seed=6)


def test_campaign_cc_instance_solves_its_nearest_neighbors_in_few_calls(monkeypatch):
    # the acceptance suite's eu-5-6 at the cc cap: 166 keyed pair terms
    calls = []
    kernel = cc_module._nn_indices

    def counted(space, idx):
        calls.append(len(idx))
        return kernel(space, idx)

    monkeypatch.setattr(cc_module, "_nn_indices", counted)
    report = estimate_ecc(gen_graph("euclidean-uniform", 5, 6, 14), 0.25, 1, budget_cap=2500)
    assert len([d for d in report.extras["pairs"] if d["prob"] > 0.0]) == 166
    assert 1 <= len(calls) <= 3


def words_of(u: np.ndarray) -> np.ndarray:
    """Philox words whose uniforms are ``u`` (multiples of 2**-53), with
    noise in the 11 bits ``random()`` drops."""
    noise = rng_for(12).integers(0, 2**11, size=u.shape, dtype=np.uint64)
    return (u * 2.0**53).astype(np.uint64) << np.uint64(11) | noise


class FixedStream:
    """Stands in for a ``SampleStream``: sample i's words are row i of ``words``."""

    def __init__(self, words: np.ndarray):
        self.block, self.width = words, words.shape[1]

    def words(self, start: int, count: int) -> np.ndarray:
        return self.block[start : start + count]


def edge_case_terms():
    """Three terms of one existential graph, each with uniforms ``k * 2**-53``
    on and around every threshold of its table, in every node column."""
    P = np.array([
        [0.1, 0.2, 0.3, 0.2, 0.2],  # the event masks p0 (leading) and p3, p4 (trailing)
        [0.2, 0.3, 0.5, 0.0, 0.0],  # pinned to p2 by the event
        [0.3, 0.0, 0.0, 0.0, 0.2],  # p0, p4 or absent (mass 0.5)
        [0.5, 0.25, 0.25, 1e-30, 0.0],  # cum reaches 1.0 before p3
        [0.25, 0.25, 0.25, 0.25, 0.0],  # dyadic: uniforms equal its thresholds
    ])
    g = StochasticGraph(
        [f"v{v}" for v in range(5)], line_space(0.0, 1.0, 3.0, 4.5, 7.0), P,
        presence_mode="existential",
    )
    allowed = P > 0.0
    allowed[0, [0, 3, 4]] = False
    allowed[1] = [False, False, True, False, False]
    edge = Event(allowed, np.array([False, False, True, False, False]))
    samplers = [ConditionalSampler(g, e) for e in (edge, None, Event(allowed, np.ones(5, bool)))]
    assert samplers[0].outcomes[1].tolist() == [2]
    assert node_cums(samplers[0])[3].tolist() == [0.5, 0.75, 1.0, 1.0]
    rng = rng_for(11)
    uniforms = []
    for sampler in samplers:
        exact = sampler.table.ravel() * 2.0**53
        near = np.concatenate([np.floor(exact), np.ceil(exact)])[:, None] + [-1, 0, 1]
        k = np.unique(np.clip(near, 0, 2**53 - 1))
        uniforms.append(np.column_stack([rng.permutation(k) for _ in range(g.n)]) * 2.0**-53)
    return g, samplers, uniforms


def test_group_draw_equals_each_term_drawn_alone():
    g, samplers, uniforms = edge_case_terms()
    words = [words_of(u) for u in uniforms]
    drawn = [s.draw_block(FixedStream(w), 0, len(w)) for s, w in zip(samplers, words)]
    tables = [s.table for s in samplers]
    rows = np.concatenate(drawn)
    assert draw_terms(words, tables).tobytes() == rows.tobytes()
    # a uniform on a threshold, an absent node, and no draw past cum's 1.0
    assert (uniforms[0][:, 4] == 0.5).any() and (rows[:, 2] == -1).any()
    assert (rows[:, 3] != 3).all()
    grouped = group_classes(words, tables)
    for (classes, inverse), block in zip(grouped, drawn):
        assert classes.dtype == block.dtype and inverse.dtype == np.intp
        np.testing.assert_array_equal(classes[inverse], np.sort(block, axis=1))
    for sampler, w, block in zip(samplers, words, drawn):  # keyed: decoded present keys
        assert sampler.support <= BLOCK_SIZE
        classes, inverse = draw_classes(sampler, FixedStream(w), len(w), 0)
        np.testing.assert_array_equal(classes[inverse], np.sort(block, axis=1))


def threshold_graph(sizes) -> StochasticGraph:
    """An existential graph with one node of each number of outcomes in
    ``sizes`` (an even number holds an absent column), then a node whose cum
    reaches 1.0 before its last outcome (trailing masses of 1e-300) and one
    with subnormal masses."""
    big = max(*sizes, 4)
    rng = rng_for(21)
    rows = []
    for r in sizes:
        p = np.zeros(big)
        points = r - (r % 2 == 0)
        p[rng.choice(big, size=points, replace=False)] = rng.random(points) + 0.01
        p /= p.sum()
        if r % 2:
            p[np.argmax(p)] += 1e-15  # sums past 1.0: no absent column
        else:
            p *= 0.75
        rows.append(p)
    rows.append(np.r_[[0.5, 0.5, 1e-300, 1e-300], np.zeros(big - 4)])
    rows.append(np.r_[[1e-310, 3e-310, 5e-324, 0.5], np.zeros(big - 4)])
    return StochasticGraph(
        [f"v{v}" for v in range(len(rows))], line_space(*range(big)), np.array(rows),
        presence_mode="existential",
    )


# outcome counts 1 to 24, and 255 to 257 (254 to 256 thresholds: past a uint8
# count), split so that each support fits an int64 key
THRESHOLD_SIZES = [range(1, 9), range(9, 15), range(15, 25), range(255, 258)]


@pytest.mark.parametrize("sizes", THRESHOLD_SIZES, ids=lambda r: f"r{r.start}-{r.stop - 1}")
def test_threshold_counts_equal_a_float_search_on_and_around_every_threshold(sizes):
    g = threshold_graph(sizes)
    allowed = g.probs > 0.0
    allowed[-1, 3] = False  # the subnormal node keeps only its subnormal points, renormalized
    samplers = [ConditionalSampler(g), ConditionalSampler(g, Event(allowed, np.zeros(g.n, bool)))]
    assert [len(outs) for outs in samplers[0].outcomes] == [*sizes, 4, 5]
    assert node_cums(samplers[0])[-2].tolist() == [0.5, 1.0, 1.0, 1.0]
    assert 0.0 < node_cums(samplers[0])[-1][0] < 2.0**-1022  # a subnormal threshold
    rng, absent = rng_for(22), []
    for sampler in samplers:
        exact = np.concatenate(node_cums(sampler)) * 2.0**53
        near = np.concatenate([np.floor(exact), np.ceil(exact)])[:, None] + [-1, 0, 1]
        x = np.unique(np.clip(np.r_[near.ravel(), 0, 2**53 - 1], 0, 2**53 - 1)).astype(np.uint64)
        base = np.column_stack([rng.permutation(x) for _ in range(g.n)]) << np.uint64(11)
        noise = rng.integers(0, 2**11, size=base.shape, dtype=np.uint64)
        # the dropped bits all clear, random, and all set
        words = np.concatenate([base, base | noise, base | np.uint64(2**11 - 1)])
        u = (words >> np.uint64(11)) * 2.0**-53
        at = np.column_stack([
            np.searchsorted(cum, u[:, j], side="right") for j, cum in enumerate(node_cums(sampler))
        ])
        rows = np.column_stack([outs[at[:, j]] for j, outs in enumerate(sampler.outcomes)])
        stream = FixedStream(words)
        np.testing.assert_array_equal(sampler.draw_block(stream, 0, len(words)), rows)
        keys = sampler.draw_block(stream, 0, len(words), keyed=True)
        radix = [len(outs) for outs in sampler.outcomes]
        np.testing.assert_array_equal(keys, np.ravel_multi_index(at.T, radix))
        np.testing.assert_array_equal(sampler.decode(keys), rows)
        assert draw_terms([words], [sampler.table]).tobytes() == rows.tobytes()
        assert (rows[:, -2] < 2).all()  # never past cum's first 1.0
        absent.append((rows == -1).any())
    assert absent == [True, False]


def test_more_deferred_terms_than_one_search_holds(monkeypatch):
    # 1,207 cc pair terms of one sample each: one group, two searches
    g = gen_graph("euclidean-uniform", 16, 20, 1)
    searched = []
    original = mc_module.draw_terms

    def counted(words, tables):
        searched.append(len(tables))
        return original(words, tables)

    monkeypatch.setattr(mc_module, "draw_terms", counted)
    reports = [estimate_ecc(g, 0.25, 1, budget_cap=1, threads=threads) for threads in (1, 2)]
    assert searched == [1207, 1207] and sampling_module._TERMS_PER_SEARCH == 1023
    assert [r.value for r in reports] == [reports[0].value] * 2
    assert reports[0].extras == reports[1].extras
    sp = cc_module.split_points(g)
    pairs = [d for d in reports[0].extras["pairs"] if d["prob"] > 0.0]
    assert len(pairs) == 1207
    for d in pairs:
        alone = cc_module.estimate_pair_term(sp, d["s"], d["t"], 1, 1, mutual=d["kind"] == "mutual")
        assert alone.to_dict() == d
    assert searched[2:] == [1] * len(pairs)  # each alone, a search of its own
    # and through the runner: terms of one sample, each against its engine run
    rg = random_graph(rng_for(12), 5, 6)
    evaluator = FunctionalEvaluator(rg, Functional.MST)
    terms = [(None, 1, f"one-{k}", k) for k in range(1100)]
    got = estimate_conditional(rg, terms, evaluator.class_fn, seed=2)
    sampler = ConditionalSampler(rg)
    assert got == [
        (*run_conditional_mc(sampler, evaluator.class_fn, 1, SampleStream(2, tag, rg.n)), 1)
        for _, _, tag, _ in terms
    ]
    assert searched[2 + len(pairs):] == [1100]


def ladder_cc_terms():
    """A run of ladder-large's cc op: 436 pair terms of 50 samples."""
    g = gen_graph("euclidean-uniform", 10, 14, 1)
    return lambda: estimate_ecc(g, 0.25, 1, budget_cap=50)


def small_terms():
    """A run of six terms of less than a block, in two groups."""
    g = random_graph(rng_for(5), 4, 5)
    terms = [(None, n, f"small-{n}", n) for n in (1000, 2000, 1500, 30, 900, 3000)]
    evaluator = FunctionalEvaluator(g, Functional.MST)
    return lambda: estimate_conditional(g, terms, evaluator.class_fn, seed=1)


@pytest.mark.parametrize("run", [small_terms(), ladder_cc_terms()], ids=["runner", "cc"])
def test_no_waiting_term_keeps_its_sampler_while_its_group_is_solved(monkeypatch, run):
    samplers: list[weakref.ref] = []
    solved = []

    class Recorded(ConditionalSampler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            samplers.append(weakref.ref(self))

    values, pair_values = FunctionalEvaluator.values, cc_module._PairValues.get

    def check(original):
        def solve(self, rows):
            # no term here reaches a block, so a live sampler is a waiting term's
            solved.append([ref for ref in samplers if ref() is not None])
            return original(self, rows)

        return solve

    monkeypatch.setattr(mc_module, "ConditionalSampler", Recorded)
    monkeypatch.setattr(FunctionalEvaluator, "values", check(values))
    monkeypatch.setattr(cc_module._PairValues, "get", check(pair_values))
    run()
    assert solved and len(samplers) > len(solved)
    assert solved == [[]] * len(solved)


@pytest.mark.parametrize(
    "estimate, kernel, spec, cap, terms, groups",
    [
        (estimate_emst_dp, "_mst_indices", (16, 24, 1), 50, 173, 3),  # ladder-large's mst-dp op
        (estimate_empm, "_mpm_indices", (12, 16, 1), 75, 1, 1),  # and its mpm op
    ],
    ids=["mst-dp", "mpm"],
)
def test_oracle_kernel_runs_once_per_group_on_the_ladder_instances(
    monkeypatch, estimate, kernel, spec, cap, terms, groups
):
    calls = []
    original = getattr(oracle_module, kernel)

    def counted(space, idx):
        calls.append(len(idx))
        return original(space, idx)

    monkeypatch.setattr(oracle_module, kernel, counted)
    report = estimate(gen_graph("euclidean-uniform", *spec), 0.25, 1, budget_cap=cap)
    sampled = [t.samples for t in report.terms if t.method == "monte-carlo"]
    assert len(sampled) == terms and count_groups(sampled, BLOCK_SIZE) == groups
    # every row has all n points present: one kernel call per group
    assert len(calls) == groups


# ---------------------------------------------------------------------------
# Estimator reports
# ---------------------------------------------------------------------------

ESTIMATORS = [estimate_emst, estimate_emst_dp, estimate_empm, estimate_ecc]


@pytest.mark.parametrize("estimate", ESTIMATORS)
def test_every_estimator_reports_run_setting_faults_in_one_order(estimate):
    g = random_graph(rng_for(8), 2, 4)
    with pytest.raises(DomainError, match=r"epsilon must be in \(0, 1\]"):
        estimate(g, 0.0, 1, budget_cap=0)
    with pytest.raises(DomainError, match="budget cap must be at least 1"):
        estimate(g, 0.25, 1, budget_cap=0, threads=0)


@pytest.mark.parametrize("estimate", ESTIMATORS)
def test_every_estimator_report_is_timed_and_totals_its_terms(estimate):
    report = estimate(random_graph(rng_for(9), 2, 4), 0.25, 1, budget_cap=50)
    assert report.elapsed > 0.0
    assert report.value == math.fsum(t.value for t in report.terms)


def test_small_estimates_never_import_networkx():
    # blossom, the only networkx user, serves matchings of 14 or more points
    code = (
        "import sys, stochgraph\n"
        "from stochgraph.model import MetricSpace, StochasticGraph\n"
        "space = MetricSpace(['a', 'b', 'c'], coords=[[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])\n"
        "g = StochasticGraph(['u', 'v'], space, [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])\n"
        "for estimate in (stochgraph.estimate_emst, stochgraph.estimate_emst_dp,\n"
        "                 stochgraph.estimate_empm, stochgraph.estimate_ecc):\n"
        "    estimate(g, 0.25, 1, budget_cap=20)\n"
        "print('networkx' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_term_report_dict_drops_unset_fields_and_keeps_zeros():
    exact = TermReport("all-home", 0.0, "exact", probability=0.0)
    assert exact.to_dict() == {
        "name": "all-home", "value": 0.0, "method": "exact", "probability": 0.0, "samples": 0
    }
    sampled = TermReport("near(v0)", 1.5, "monte-carlo", probability=0.5, mean=3.0,
                         samples=10, full_budget=100, possibly_negligible=True)
    assert sampled.to_dict() == {
        "name": "near(v0)", "value": 1.5, "method": "monte-carlo", "probability": 0.5,
        "mean": 3.0, "samples": 10, "full_budget": 100, "possibly_negligible": True,
    }
