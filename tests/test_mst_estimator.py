"""Home-decomposition MST estimator: construction, terms, statistical contract."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from stochgraph import (
    ConditionalSampler,
    DomainError,
    EventSpec,
    Functional,
    MetricSpace,
    SampleStream,
    StochasticGraph,
    estimate_emst,
    exact_expectation,
    find_home,
    mst_length,
)

from stochgraph.generate import gen_graph

from conftest import euclidean_space, random_graph, rng_for


def line_space(*xs):
    return MetricSpace(
        [f"p{i}" for i in range(len(xs))],
        coords=np.array([[x, 0.0] for x in xs]),
    )


# ---------------------------------------------------------------------------
# find_home
# ---------------------------------------------------------------------------

def test_home_all_mass_on_one_point():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(["v1", "v2"], space, {v: {"p0": 1.0} for v in ("v1", "v2")})
    home = find_home(g, 0.25)
    assert home.members == (0,)
    assert home.diameter == 0.0


def test_home_hand_trace_light_far_point():
    # heavy points 0 and 1; the far point carries mass below eps/(16 m)
    space = line_space(0.0, 1.0, 10.0)
    g = StochasticGraph(
        ["v1", "v2"],
        space,
        {
            "v1": {"p0": 0.999, "p2": 0.001},
            "v2": {"p1": 0.999, "p2": 0.001},
        },
    )
    home = find_home(g, 0.1)
    # p(p2) = 0.002 < 0.1/48; heavy set is {p0, p1}; ball B(p0, 1)
    assert home.center == 0
    assert home.radius == 1.0
    assert home.members == (0, 1)
    assert home.diameter == 1.0


def test_home_mass_property_on_random_instances():
    for eps in (0.1, 0.25):
        rng = rng_for(int(eps * 1000))
        for _ in range(200):
            g = random_graph(rng, int(rng.integers(2, 6)), int(rng.integers(2, 7)))
            home = find_home(g, eps)
            assert home.p_of_H >= g.n - eps / 16.0 - 1e-9
            assert home.diameter <= 2 * home.radius + 1e-12


def test_home_requires_certain_mode():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(
        ["v"], space, {"v": {"p0": 0.5}}, presence_mode="existential"
    )
    with pytest.raises(DomainError):
        find_home(g, 0.25)
    with pytest.raises(DomainError):
        find_home(StochasticGraph(["v"], space, {"v": {"p0": 1.0}}), 0.0)


# ---------------------------------------------------------------------------
# estimate_emst
# ---------------------------------------------------------------------------

def test_deterministic_instance_is_exact():
    space = line_space(0.0, 2.0, 5.0)
    g = StochasticGraph(
        ["v1", "v2", "v3"],
        space,
        {"v1": {"p0": 1.0}, "v2": {"p1": 1.0}, "v3": {"p2": 1.0}},
    )
    report = estimate_emst(g, 0.25, seed=1)
    assert report.value == 5.0
    assert all(t.samples <= 1 for t in report.terms)


def test_single_node_is_zero():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(["v"], space, {"v": {"p0": 0.5, "p1": 0.5}})
    assert estimate_emst(g, 0.25, seed=1).value == 0.0


def test_statistical_contract_small_instances():
    rng = rng_for(77)
    hits = trials = 0
    for k in range(4):
        g = random_graph(rng, 3, 4)
        oracle = exact_expectation(g, Functional.MST)
        for seed in range(5):
            est = estimate_emst(g, 0.25, seed=seed, budget_cap=20_000).value
            trials += 1
            if abs(est - oracle) <= 0.25 * oracle:
                hits += 1
    assert hits / trials >= 0.75


def test_far_field_dominated_instance():
    # one node escapes with mass 1e-3 to a point 1e6 away: the far-field term
    # carries the estimate and matches the enumerated expectation within eps
    space = line_space(0.0, 1.0, 1e6)
    g = StochasticGraph(
        ["v1", "v2"],
        space,
        {
            "v1": {"p0": 0.999, "p2": 0.001},
            "v2": {"p0": 0.5, "p1": 0.5},
        },
    )
    eps = 0.25
    oracle = exact_expectation(g, Functional.MST)
    report = estimate_emst(g, eps, seed=3, budget_cap=20_000)
    far_total = math.fsum(t.value for t in report.terms if t.method == "far-field")
    assert far_total > 0.5 * report.value
    assert abs(report.value - oracle) <= eps * oracle


def test_value_is_sum_of_terms():
    rng = rng_for(88)
    g = random_graph(rng, 4, 5)
    report = estimate_emst(g, 0.25, seed=2, budget_cap=5000)
    assert report.value == math.fsum(t.value for t in report.terms)
    for t in report.terms:
        if t.method == "monte-carlo":
            assert t.full_budget is not None and t.samples >= 1


def test_more_than_64_nodes():
    # each sample index owns a window of 4 * ceil(n / 4) draws, so n is not
    # limited by a fixed stream width
    rng = rng_for(68)
    g = random_graph(rng, 68, 70, max_support=3)
    assert SampleStream(1, "wide", 67).width == 68
    sampler = ConditionalSampler(g, None)
    rows = sampler.draw_block(SampleStream(1, "wide", g.n), 0, 50)
    assert rows.shape == (50, 68)
    for j, outcomes in enumerate(sampler.outcomes):
        assert np.isin(rows[:, j], outcomes).all()
    report = estimate_emst(g, 0.25, seed=1, budget_cap=10)
    assert report.value > 0.0
    assert all(t.samples <= 10 for t in report.terms)


def test_ladder_instance_is_bit_identical_at_two_threads():
    # two 4096-sample blocks; the thread count is recorded and changes nothing else
    docs = []
    for threads in (1, 2):
        g = gen_graph("euclidean-uniform", 16, 24, 1)
        doc = estimate_emst(g, 0.25, seed=1, budget_cap=8192, threads=threads).to_dict()
        assert doc.pop("threads") == threads
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_scaling_equivariance_same_seed():
    rng = rng_for(99)
    g = random_graph(rng, 4, 5)
    for c in (0.5, 4.0):
        scaled_space = MetricSpace(g.space.point_ids, dist=g.space.dist * c)
        g2 = StochasticGraph(g.node_ids, scaled_space, g.probs.copy())
        a = estimate_emst(g, 0.25, seed=11, budget_cap=8000).value
        b = estimate_emst(g2, 0.25, seed=11, budget_cap=8000).value
        assert b == c * a


def test_far_field_soundness_on_sampled_realizations():
    # conditioned on a far escape, the MST is squeezed between the escape
    # distance and (1 + eps) times it
    space = line_space(0.0, 0.5, 1.0, 400.0)
    eps = 0.25
    g = StochasticGraph(
        ["v1", "v2", "v3"],
        space,
        {
            # p3 keeps mass below eps/(16 m) so it stays out of the home
            "v1": {"p0": 0.907, "p1": 0.05, "p2": 0.04, "p3": 0.003},
            "v2": {"p0": 0.5, "p1": 0.5},
            "v3": {"p1": 0.6, "p2": 0.4},
        },
    )
    home = find_home(g, eps)
    H = [g.space.point_ids[s] for s in home.members]
    assert home.diameter > 0
    far = [
        s
        for s in range(g.m)
        if s not in home.members
        and float(g.space.dist[s, list(home.members)].min())
        >= (g.n / eps) * home.diameter
    ]
    assert far, "construction should leave p3 in the far field"
    s = far[0]
    d_s = float(g.space.dist[s, list(home.members)].min())
    ev = EventSpec(
        allowed={
            "v1": [g.space.point_ids[s]],
            "v2": H,
            "v3": H,
        }
    )
    sampler = ConditionalSampler(g, ev)
    rows = sampler.draw_block(SampleStream(5, "far", g.n), 0, 500)
    for row in rows:
        pts = [g.space.point_ids[i] for i in row]
        value = mst_length(g.space, pts)
        assert value >= d_s * (1 - 1e-12)
        assert value <= d_s + g.n * home.diameter + 1e-12
        assert value <= (1 + eps) * d_s * (1 + 1e-12)


# ---------------------------------------------------------------------------
# the 4x structural bound behind dropping multi-escape terms
# ---------------------------------------------------------------------------

def test_mst_four_times_bound_on_random_constructions():
    rng = rng_for(123)
    checked = 0
    while checked < 500:
        m = int(rng.integers(4, 9))
        space = euclidean_space(rng, m, scale=float(rng.choice([1.0, 10.0])))
        home_size = int(rng.integers(1, m - 1))
        perm = list(rng.permutation(m))
        H, F = perm[:home_size], perm[home_size:]
        n = int(rng.integers(3, 8))
        out_count = int(rng.integers(2, n))  # |S| >= 2, at least one node home
        out_pos = [int(rng.choice(F)) for _ in range(out_count)]
        home_pos = [int(rng.choice(H)) for _ in range(n - out_count)]
        if not home_pos:
            continue
        # node among S whose point is closest to a realized home point
        d_home = [
            min(float(space.dist[f, h]) for h in home_pos) for f in out_pos
        ]
        v = int(np.argmin(d_home))
        moved = out_pos.copy()
        moved[v] = int(rng.choice(H))  # send home to an arbitrary home point
        ids = space.point_ids
        before = mst_length(space, [ids[i] for i in out_pos + home_pos])
        after = mst_length(space, [ids[i] for i in moved + home_pos])
        assert before <= 4.0 * after * (1 + 1e-9)
        checked += 1
