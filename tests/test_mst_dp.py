"""Recursive-conditioning MST estimator: exactness, telescoping, agreement."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stochgraph import (
    EventSpec,
    Functional,
    MetricSpace,
    StochasticGraph,
    estimate_emst,
    estimate_emst_dp,
    event_probability,
    exact_expectation,
    split_points,
)

from conftest import enumerate_realizations, random_graph, rng_for


def line_space(*xs):
    return MetricSpace(
        [f"p{i}" for i in range(len(xs))],
        coords=np.array([[x, 0.0] for x in xs]),
    )


def test_deterministic_instance_exact_no_sampling():
    space = line_space(0.0, 1.0, 4.0)
    g = StochasticGraph(
        ["v1", "v2", "v3"],
        space,
        {"v1": {"p0": 1.0}, "v2": {"p1": 1.0}, "v3": {"p2": 1.0}},
    )
    report = estimate_emst_dp(g, 0.25, seed=1)
    assert report.value == 4.0
    assert all(t.samples <= 1 for t in report.terms)


def test_subnormal_leaves_sum_to_the_exact_value():
    # every leaf is pinned, with mean d; each leaf's probability times d,
    # rounded alone below the normal range, summed to 13 units of 2**-1074
    points = ["a", "b", "c", "e"]
    space = MetricSpace(points, dist=np.where(np.eye(4, dtype=bool), 0.0, 1e-322))
    g = StochasticGraph(
        ["v0", "v1"], space, {"v0": {"a": 0.5, "b": 0.5}, "v1": {"c": 0.25, "e": 0.25, "a": 0.5}}
    )
    report = estimate_emst_dp(g, 0.25, 1, budget_cap=50)
    assert report.value == exact_expectation(g, Functional.MST) == 7.4e-323
    assert [t.mean for t in report.terms if t.mean] == [1e-322] * 5


def test_single_node_zero():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(["v"], space, {"v": {"p0": 0.4, "p1": 0.6}})
    assert estimate_emst_dp(g, 0.25, seed=1).value == 0.0


def test_against_oracle_small_instances():
    rng = rng_for(55)
    hits = trials = 0
    for _ in range(4):
        g = random_graph(rng, int(rng.integers(2, 5)), int(rng.integers(3, 6)))
        oracle = exact_expectation(g, Functional.MST)
        for seed in range(5):
            est = estimate_emst_dp(g, 0.25, seed=seed, budget_cap=4000).value
            trials += 1
            if oracle == 0.0:
                hits += int(est == 0.0)
            elif abs(est - oracle) <= 0.25 * oracle:
                hits += 1
    assert hits / trials >= 0.75


def test_cross_validates_home_method():
    rng = rng_for(56)
    eps = 0.25
    band = (1 + eps) ** 2
    agree = total = 0
    for _ in range(4):
        g = random_graph(rng, 3, 4)
        for seed in range(5):
            a = estimate_emst(g, eps, seed=seed, budget_cap=20_000).value
            b = estimate_emst_dp(g, eps, seed=seed, budget_cap=4000).value
            total += 1
            if a == b == 0.0 or (b > 0 and 1 / band <= a / b <= band):
                agree += 1
    assert agree / total >= 0.75


def test_outer_weights_telescope_to_one():
    rng = rng_for(57)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
        report = estimate_emst_dp(g, 0.25, seed=1, budget_cap=500)
        weights = report.extras["outer_weights"]
        residual = report.extras["residual_weight"]
        assert math.fsum(weights) + residual == pytest.approx(1.0, abs=1e-10)


def test_suffix_event_probability_closed_form_matches_enumeration():
    rng = rng_for(58)
    for _ in range(10):
        g = split_points(random_graph(rng, 3, 4)).graph
        mass = g.probs.sum(axis=0)
        order = sorted(range(g.m), key=lambda s: (-float(mass[s]), s))
        for i in range(g.m):
            suffix = [g.space.point_ids[s] for s in order[i:]]
            ev = EventSpec(allowed={v: suffix for v in g.node_ids})
            closed = event_probability(g, ev)
            enumerated = math.fsum(
                p
                for a, p in enumerate_realizations(g)
                if all(idx in [g.space.index(x) for x in suffix] for idx in a)
            )
            assert closed == pytest.approx(enumerated, abs=1e-12)


def test_existential_mode_supported():
    space = line_space(0.0, 3.0)
    g = StochasticGraph(
        ["v1", "v2"],
        space,
        {"v1": {"p0": 0.5}, "v2": {"p1": 0.5}},
        presence_mode="existential",
    )
    oracle = exact_expectation(g, Functional.MST)  # 0.25 * 3
    report = estimate_emst_dp(g, 0.25, seed=2)
    assert report.value == pytest.approx(oracle, rel=1e-12)


def test_existential_statistical(rng):
    hits = trials = 0
    for _ in range(3):
        g = random_graph(rng, 3, 4, presence_mode="existential")
        oracle = exact_expectation(g, Functional.MST)
        for seed in range(5):
            est = estimate_emst_dp(g, 0.25, seed=seed, budget_cap=4000).value
            trials += 1
            if oracle == 0.0:
                hits += int(est == 0.0)
            elif abs(est - oracle) <= 0.25 * oracle:
                hits += 1
    assert hits / trials >= 0.75
