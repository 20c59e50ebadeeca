"""Clustered-home MPM estimator: sweep, estimate, structural matching lemmas."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stochgraph import (
    DomainError,
    Functional,
    MetricSpace,
    StochasticGraph,
    estimate_empm,
    exact_expectation,
    find_home_clusters,
    mpm_length,
    node_mass,
)
from stochgraph.generate import gen_graph

from conftest import euclidean_space, random_graph, rng_for, set_set_distance
from test_acceptance import SUITE_SPEC


def line_space(*xs):
    return MetricSpace(
        [f"p{i}" for i in range(len(xs))],
        coords=np.array([[x, 0.0] for x in xs]),
    )


def even_random_graph(rng, n_low=2, n_high=6, m_low=2, m_high=7):
    n = 2 * int(rng.integers(max(1, n_low // 2), n_high // 2 + 1))
    m = int(rng.integers(m_low, m_high))
    return random_graph(rng, n, m)


# ---------------------------------------------------------------------------
# find_home_clusters
# ---------------------------------------------------------------------------

def test_sweep_hand_trace_two_pairs():
    space = line_space(0.0, 1.0, 10.0, 11.0)
    g = StochasticGraph(
        [f"v{i}" for i in range(4)],
        space,
        {f"v{i}": {f"p{i}": 1.0} for i in range(4)},
    )
    hc = find_home_clusters(g, 0.25)
    assert hc.merge_radius == 0.5
    assert hc.clusters == ((0, 1), (2, 3))
    assert hc.home_of == (0, 0, 1, 1)
    assert hc.max_diameter == 1.0


def test_sweep_colocated_single_cluster():
    space = MetricSpace(["a", "b"], dist=np.zeros((2, 2)))
    g = StochasticGraph(
        ["v1", "v2"], space, {"v1": {"a": 1.0}, "v2": {"b": 1.0}}
    )
    hc = find_home_clusters(g, 0.25)
    assert hc.merge_radius == 0.0
    assert hc.max_diameter == 0.0
    assert len(hc.clusters) == 1


@pytest.mark.parametrize("name", ["cm-4-4", "hs-4-5"])
def test_sweep_settles_where_one_minus_theta_rounds_to_1(name):
    """At epsilon 1e-13, 1 - theta is 1.0, above a node's float row sum
    (0.9999999999999998 on cm-4-4), so the sweep must settle on the mass
    outside each home, which a full merge makes exactly 0."""
    g = gen_graph(*next(spec for n, *spec in SUITE_SPEC if n == name))
    hc = find_home_clusters(g, 1e-13)
    assert 1.0 - hc.theta == 1.0
    assert sorted(s for c in hc.clusters for s in c) == list(range(g.m))


def test_sweep_odd_n_rejected():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(
        [f"v{i}" for i in range(3)],
        space,
        {f"v{i}": {"p0": 0.5, "p1": 0.5} for i in range(3)},
    )
    with pytest.raises(DomainError):
        find_home_clusters(g, 0.25)


def test_sweep_q1_q2_on_random_instances():
    rng = rng_for(31)
    for _ in range(200):
        g = even_random_graph(rng)
        hc = find_home_clusters(g, 0.25)
        counts = [0] * len(hc.clusters)
        for v in range(g.n):
            ci = hc.home_of[v]
            counts[ci] += 1
            mass = node_mass(
                g, v, [g.space.point_ids[s] for s in hc.clusters[ci]]
            )
            assert mass >= 1.0 - hc.theta - 1e-12
        assert all(c % 2 == 0 for c in counts)
        # clusters are pairwise disjoint and separated by more than 2T
        seen = set()
        for cluster in hc.clusters:
            assert not (seen & set(cluster))
            seen |= set(cluster)
        for i in range(len(hc.clusters)):
            for j in range(i + 1, len(hc.clusters)):
                gap = set_set_distance(
                    g.space,
                    [g.space.point_ids[s] for s in hc.clusters[i]],
                    [g.space.point_ids[s] for s in hc.clusters[j]],
                )
                assert gap > 2 * hc.merge_radius


# ---------------------------------------------------------------------------
# estimate_empm
# ---------------------------------------------------------------------------

def test_two_deterministic_nodes():
    space = line_space(0.0, 4.0)
    g = StochasticGraph(
        ["v1", "v2"], space, {"v1": {"p0": 1.0}, "v2": {"p1": 1.0}}
    )
    assert estimate_empm(g, 0.25, seed=1).value == 4.0


def test_odd_node_count_rejected():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(
        [f"v{i}" for i in range(3)],
        space,
        {f"v{i}": {"p0": 0.5, "p1": 0.5} for i in range(3)},
    )
    with pytest.raises(DomainError):
        estimate_empm(g, 0.25, seed=1)


def test_statistical_contract_small_instances():
    rng = rng_for(32)
    hits = trials = 0
    for _ in range(4):
        g = random_graph(rng, 4, 4)
        oracle = exact_expectation(g, Functional.MPM)
        for seed in range(5):
            est = estimate_empm(g, 0.25, seed=seed, budget_cap=20_000).value
            trials += 1
            if abs(est - oracle) <= 0.25 * oracle:
                hits += 1
    assert hits / trials >= 0.75


def test_parity_stress_two_clusters():
    # two co-located pairs far apart with a sliver of cross-cluster mass:
    # the estimate must follow the oracle, which mixes the all-home value
    # with the rare expensive cross-cluster matchings
    space = line_space(0.0, 0.5, 100.0, 100.5)
    eps = 0.25
    g = StochasticGraph(
        [f"v{i}" for i in range(4)],
        space,
        {
            "v0": {"p0": 0.999, "p2": 0.001},
            "v1": {"p1": 1.0},
            "v2": {"p2": 1.0},
            "v3": {"p3": 1.0},
        },
    )
    oracle = exact_expectation(g, Functional.MPM)
    report = estimate_empm(g, eps, seed=4, budget_cap=20_000)
    assert abs(report.value - oracle) <= eps * oracle


def test_value_is_sum_of_terms_and_scaling():
    rng = rng_for(33)
    g = random_graph(rng, 4, 5)
    report = estimate_empm(g, 0.25, seed=2, budget_cap=8000)
    assert report.value == math.fsum(t.value for t in report.terms)
    scaled_space = MetricSpace(g.space.point_ids, dist=g.space.dist * 4.0)
    g2 = StochasticGraph(g.node_ids, scaled_space, g.probs.copy())
    assert estimate_empm(g2, 0.25, seed=2, budget_cap=8000).value == 4.0 * report.value


def test_expected_mpm_lower_bound_via_disjoint_sets():
    # for any disjoint point sets and any node: E[MPM] >= min mass / m * gap
    rng = rng_for(34)
    for _ in range(100):
        g = even_random_graph(rng, m_low=3)
        oracle = exact_expectation(g, Functional.MPM)
        m = g.m
        perm = list(rng.permutation(m))
        cut = int(rng.integers(1, m))
        H1 = [g.space.point_ids[s] for s in perm[:cut]]
        H2 = [g.space.point_ids[s] for s in perm[cut:]]
        gap = set_set_distance(g.space, H1, H2)
        for v in g.node_ids:
            bound = min(node_mass(g, v, H1), node_mass(g, v, H2)) / m * gap
            assert oracle >= bound - 1e-9 * max(1.0, bound)


def test_q3_consequence_lower_bound():
    # with the committed constant: E[MPM] >= eps * D / (64 n m^5) whenever
    # the sweep returns a positive max diameter
    rng = rng_for(35)
    eps = 0.25
    checked = 0
    for _ in range(200):
        g = even_random_graph(rng)
        hc = find_home_clusters(g, eps)
        if hc.max_diameter == 0.0:
            continue
        oracle = exact_expectation(g, Functional.MPM)
        bound = eps * hc.max_diameter / (64.0 * g.n * g.m**5)
        assert oracle >= bound
        checked += 1
    assert checked >= 50


# ---------------------------------------------------------------------------
# structural matching lemmas
# ---------------------------------------------------------------------------

def test_matching_path_bound_sum_form():
    # fixing everyone but v, the two matchings with v at s and at t together
    # cost at least d(s, t)
    rng = rng_for(36)
    for _ in range(500):
        m = int(rng.integers(2, 8))
        space = euclidean_space(rng, m)
        n = 2 * int(rng.integers(1, 4))
        others = [int(rng.integers(m)) for _ in range(n - 1)]
        s, t = rng.choice(m, size=2, replace=False)
        ids = space.point_ids
        mpm1 = mpm_length(space, [ids[int(s)]] + [ids[i] for i in others])
        mpm2 = mpm_length(space, [ids[int(t)]] + [ids[i] for i in others])
        d_st = float(space.dist[int(s), int(t)])
        assert mpm1 + mpm2 >= d_st * (1 - 1e-9)


def test_removal_bound_two_sends_home():
    # sending home the two closest-to-home escapees bounds the original
    # matching by 2 (m + 2) times the two reduced matchings combined
    rng = rng_for(37)
    checked = 0
    instance: tuple | None = None
    reuse = 0
    while checked < 500:
        if instance is None or reuse >= 25:
            g = even_random_graph(rng, m_low=3)
            if g.n < 4:
                continue
            hc = find_home_clusters(g, 0.25)
            if len(hc.clusters) < 2:
                continue  # nowhere to escape to
            instance, reuse = (g, hc, {}), 0
        g, hc, cache = instance
        reuse += 1

        def mpm_of(positions):
            key = tuple(sorted(positions))
            if key not in cache:
                ids = g.space.point_ids
                cache[key] = mpm_length(g.space, [ids[p] for p in key])
            return cache[key]
        n, m = g.n, g.m
        out_count = int(rng.integers(2, n))
        nodes = list(rng.permutation(n))
        S, rest = nodes[:out_count], nodes[out_count:]
        pos = [0] * n
        ok = True
        for v in rest:
            pos[v] = int(rng.choice(hc.clusters[hc.home_of[v]]))
        for v in S:
            outside = [
                s for s in range(m) if s not in hc.clusters[hc.home_of[v]]
            ]
            if not outside:
                ok = False
                break
            pos[v] = int(rng.choice(outside))
        if not ok:
            continue
        ell = {
            v: min(
                float(g.space.dist[pos[v], h])
                for h in hc.clusters[hc.home_of[v]]
            )
            for v in S
        }
        ranked = sorted(S, key=lambda v: (ell[v], v))
        v1, v2 = ranked[0], ranked[1]
        before = mpm_of(pos)
        pos1 = pos.copy()
        pos1[v1] = int(rng.choice(hc.clusters[hc.home_of[v1]]))
        middle = mpm_of(pos1)
        pos2 = pos1.copy()
        pos2[v2] = int(rng.choice(hc.clusters[hc.home_of[v2]]))
        after = mpm_of(pos2)
        bound = 2.0 * (m + 2) * middle + 2.0 * (m + 2) * after
        assert before <= bound * (1 + 1e-9)
        checked += 1
