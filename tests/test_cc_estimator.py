"""Cycle-cover estimator: splitting, exact event probabilities, pair terms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stochgraph import (
    DomainError,
    Functional,
    InternalAssertionError,
    MetricSpace,
    StochasticGraph,
    cc_length,
    estimate_ecc,
    estimate_pair_term,
    exact_expectation,
    mpm_length,
    mst_length,
    prob_mutual_nearest,
    prob_nearest,
    split_points,
)
import stochgraph.cc as cc_module
from stochgraph.cc import _SLACK, _PairValues, pair_budget

from conftest import NNEventStats, random_graph, rng_for


def line_space(*xs):
    return MetricSpace(
        [f"p{i}" for i in range(len(xs))],
        coords=np.array([[x, 0.0] for x in xs]),
    )


# ---------------------------------------------------------------------------
# split_points
# ---------------------------------------------------------------------------

def test_split_identity_when_owners_unique():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(
        ["v1", "v2"], space, {"v1": {"p0": 1.0}, "v2": {"p1": 1.0}}
    )
    sp = split_points(g)
    assert sp.graph.space.point_ids == space.point_ids
    assert sp.owner == (0, 1)
    assert sp.origin == (0, 1)


def test_split_creates_colocated_copies():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(
        ["v1", "v2"],
        space,
        {v: {"p0": 0.5, "p1": 0.5} for v in ("v1", "v2")},
    )
    sp = split_points(g)
    assert sp.graph.m == 4
    copies = [i for i, o in enumerate(sp.origin) if o == 0]
    assert len(copies) == 2
    a, b = copies
    assert sp.graph.space.dist[a, b] == 0.0
    assert sp.owner[a] != sp.owner[b]
    # each copy carries exactly its owner's mass
    for i in range(4):
        col = sp.graph.probs[:, i]
        assert (col > 0).sum() <= 1


def test_split_preserves_solver_values(rng):
    for _ in range(20):
        g = random_graph(rng, 3, 3)
        sp = split_points(g)
        for _ in range(5):
            assignment = [
                int(rng.choice(np.flatnonzero(g.probs[v] > 0)))
                for v in range(g.n)
            ]
            split_assignment = []
            for v, s in enumerate(assignment):
                (copy,) = [
                    i
                    for i, (o, w) in enumerate(zip(sp.origin, sp.owner))
                    if o == s and w == v
                ] or [
                    i for i, o in enumerate(sp.origin) if o == s
                ]
                split_assignment.append(copy)
            pts = [g.space.point_ids[s] for s in assignment]
            spts = [sp.graph.space.point_ids[s] for s in split_assignment]
            assert mst_length(g.space, pts) == mst_length(sp.graph.space, spts)
            assert cc_length(g.space, pts) == cc_length(sp.graph.space, spts)
            if len(pts) % 2 == 0:
                assert mpm_length(g.space, pts) == mpm_length(sp.graph.space, spts)


# ---------------------------------------------------------------------------
# prob_nearest / prob_mutual_nearest
# ---------------------------------------------------------------------------

def test_prob_nearest_two_forced_nodes():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(
        ["v1", "v2"], space, {"v1": {"p0": 1.0}, "v2": {"p1": 1.0}}
    )
    sp = split_points(g)
    assert prob_nearest(sp, "p0", "p1") == 1.0
    assert prob_mutual_nearest(sp, "p0", "p1") == 1.0


def test_prob_nearest_product_formula():
    # third node inside the ball with mass 0.3 blocks the event
    space = line_space(0.0, 2.0, 1.0, 10.0)
    g = StochasticGraph(
        ["v", "u", "w"],
        space,
        {
            "v": {"p0": 1.0},
            "u": {"p1": 1.0},
            "w": {"p2": 0.3, "p3": 0.7},
        },
    )
    sp = split_points(g)
    assert prob_nearest(sp, "p0", "p1") == pytest.approx(0.7, abs=1e-15)


def test_prob_nearest_same_node_rejected():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(["v"], space, {"v": {"p0": 0.5, "p1": 0.5}})
    sp = split_points(g)
    with pytest.raises(DomainError):
        prob_nearest(sp, "p0", "p1")


def test_prob_nearest_matches_enumeration_on_random_instances(rng):
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        sp = split_points(g)
        stats = NNEventStats(sp.graph)
        m = sp.graph.m
        for a in range(m):
            for b in range(m):
                if a == b or sp.owner[a] < 0 or sp.owner[b] < 0:
                    continue
                if sp.owner[a] == sp.owner[b]:
                    continue
                assert prob_nearest(sp, a, b) == pytest.approx(
                    stats.get("ns", (a, b)), abs=1e-12
                )
                if a < b:
                    assert prob_mutual_nearest(sp, a, b) == pytest.approx(
                        stats.get("mut", (a, b)), abs=1e-12
                    )


def test_longest_edge_probabilities_sum_to_one(rng):
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        sp = split_points(g)
        stats = NNEventStats(sp.graph)
        assert math.fsum(stats.tables["lam_prob"].values()) == pytest.approx(
            1.0, abs=1e-10
        )


def test_inclusion_exclusion_identity(rng):
    for _ in range(10):
        g = random_graph(rng, 3, 3)
        sp = split_points(g)
        stats = NNEventStats(sp.graph)
        for (d, lo, hi), lam_p in stats.tables["lam_prob"].items():
            combined = (
                stats.get("as_prob", (lo, hi))
                + stats.get("as_prob", (hi, lo))
                - stats.get("as_mut_prob", (lo, hi))
            )
            assert combined == pytest.approx(lam_p, abs=1e-12)


# ---------------------------------------------------------------------------
# estimate_pair_term
# ---------------------------------------------------------------------------

def test_pair_term_two_forced_nodes():
    space = line_space(0.0, 3.0)
    g = StochasticGraph(
        ["v1", "v2"], space, {"v1": {"p0": 1.0}, "v2": {"p1": 1.0}}
    )
    sp = split_points(g)
    term = estimate_pair_term(sp, "p0", "p1", 100, seed=1)
    assert term.estimate == 6.0  # one 2-cycle, both directions paid
    assert term.indicator_hits >= 1


def test_pair_term_tracks_enumerated_term(rng):
    hits = trials = 0
    g = random_graph(rng, 3, 3)
    sp = split_points(g)
    stats = NNEventStats(sp.graph)
    candidates = [
        (a, b)
        for a in range(sp.graph.m)
        for b in range(sp.graph.m)
        if a != b
        and sp.owner[a] >= 0
        and sp.owner[b] >= 0
        and sp.owner[a] != sp.owner[b]
        and prob_nearest(sp, a, b) > 0
        and stats.get("as_term", (a, b)) > 0
    ]
    assert candidates
    eps = 0.25
    for a, b in candidates[:3]:
        oracle = stats.get("as_term", (a, b))
        for seed in range(10):
            term = estimate_pair_term(sp, a, b, 4000, seed=seed)
            trials += 1
            if abs(term.estimate - oracle) <= eps * oracle:
                hits += 1
    assert hits / trials >= 0.75


def test_pair_term_low_longest_probability_branch():
    # constructed so that conditioned on "t nearest to s", the pair edge is
    # almost never the longest NN edge: its exact term must be a negligible
    # slice of E[CC]
    space = MetricSpace(
        ["s", "t", "z", "c"],
        coords=np.array([[0.0, 0.0], [1.0, 0.0], [1000.0, 0.0], [1.5, 0.0]]),
    )
    q = 1e-4
    g = StochasticGraph(
        ["v", "u", "w"],
        space,
        {"v": {"s": 1.0}, "u": {"t": 1.0}, "w": {"z": 1.0 - q, "c": q}},
    )
    sp = split_points(g)
    n, m = g.n, sp.graph.m
    eps = 0.25
    stats = NNEventStats(sp.graph)
    si, ti = sp.graph.space.index("s"), sp.graph.space.index("t")
    # premise of the negligible branch
    p_longest_given_nearest = stats.get("as_prob", (si, ti)) / prob_nearest(sp, "s", "t")
    assert p_longest_given_nearest < eps / (2 * n * m**3)
    oracle_term = stats.get("as_term", (si, ti))
    e_cc = exact_expectation(g, Functional.CC)
    assert oracle_term <= (eps / (2 * m * m)) * e_cc


# ---------------------------------------------------------------------------
# estimate_ecc
# ---------------------------------------------------------------------------

def test_ecc_deterministic_instance():
    space = line_space(0.0, 2.0, 3.0)
    g = StochasticGraph(
        ["v1", "v2", "v3"],
        space,
        {"v1": {"p0": 1.0}, "v2": {"p1": 1.0}, "v3": {"p2": 1.0}},
    )
    report = estimate_ecc(g, 0.25, seed=1)
    assert report.value == cc_length(space, ["p0", "p1", "p2"])


def test_ecc_requires_two_nodes():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(["v"], space, {"v": {"p0": 0.5, "p1": 0.5}})
    with pytest.raises(DomainError):
        estimate_ecc(g, 0.25, seed=1)


def test_ecc_statistical_contract(rng):
    hits = trials = 0
    for _ in range(3):
        g = random_graph(rng, 3, 4)
        oracle = exact_expectation(g, Functional.CC)
        for seed in range(5):
            est = estimate_ecc(g, 0.25, seed=seed, budget_cap=3000).value
            trials += 1
            if abs(est - oracle) <= 0.25 * oracle:
                hits += 1
    assert hits / trials >= 0.75


def test_ecc_between_nn_and_twice_nn(rng):
    for _ in range(3):
        g = random_graph(rng, 3, 4)
        # the NN functional needs distinct realized points: enumerate on the
        # split graph, which leaves the distribution of lengths unchanged
        e_nn = exact_expectation(split_points(g).graph, Functional.NN_TOTAL)
        est = estimate_ecc(g, 0.25, seed=9, budget_cap=3000).value
        assert e_nn * (1 - 0.3) <= est <= 2 * e_nn * (1 + 0.3)


def test_ecc_value_is_sum_of_terms_and_pair_table(rng):
    g = random_graph(rng, 3, 4)
    report = estimate_ecc(g, 0.25, seed=2, budget_cap=2000)
    assert report.value == math.fsum(t.value for t in report.terms)
    pairs = report.extras["pairs"]
    assert pairs
    for p in pairs:
        if p["prob"] > 0:
            assert p["samples"] >= 1
        else:
            assert p["estimate"] == 0.0
        assert 0 <= p["indicator_hits"] <= max(1, p["samples"])
        assert p["estimate"] >= 0.0


def test_ecc_existential_mode():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(
        ["v1", "v2"],
        space,
        {"v1": {"p0": 0.8}, "v2": {"p1": 0.7}},
        presence_mode="existential",
    )
    oracle = exact_expectation(g, Functional.CC)  # 0.8*0.7*2 = 1.12
    report = estimate_ecc(g, 0.25, seed=5, budget_cap=2000)
    assert report.flags.get("cc_of_fewer_than_2_present_is_zero")
    assert report.value == pytest.approx(oracle, rel=1e-12)


def test_pair_budget_formula():
    n, m, eps = 3, 4, 0.25
    expected = math.ceil(4 * n * n * m**3 * (math.log(n) + math.log(m)) / eps**3)
    assert pair_budget(n, m, eps) == expected


# ---------------------------------------------------------------------------
# runtime assertions: each check is broken by patching cc's kernel bindings
# ---------------------------------------------------------------------------
# Four forced nodes on a line at 0, 1, 3, 10: the nearest-neighbor edges are
# (p0,p1) = 1, (p1,p2) = 2 and (p2,p3) = 7, so NN = 10 and the longest is 7.

def forced_line_graph():
    space = line_space(0.0, 1.0, 3.0, 10.0)
    return StochasticGraph(
        [f"v{i}" for i in range(4)], space, {f"v{i}": {f"p{i}": 1.0} for i in range(4)}
    )


def test_cycle_cover_sandwich_violation_is_reported(monkeypatch):
    monkeypatch.setattr(cc_module, "_cc_indices", lambda space, idx: np.full(len(idx), 25.0))
    values = _PairValues(forced_line_graph().space)
    with pytest.raises(InternalAssertionError, match=r"cycle-cover sandwich violated: NN=10\.0, CC=25\.0$"):
        values.get(np.array([[0, 1, 2, 3]]))


def test_longest_edge_sandwich_violation_is_reported(monkeypatch):
    nn_indices = cc_module._nn_indices
    monkeypatch.setattr(
        cc_module,
        "_nn_indices",
        lambda space, idx: nn_indices(space, idx)._replace(longest=np.array([[0, 1]])),
    )
    values = _PairValues(forced_line_graph().space)
    with pytest.raises(
        InternalAssertionError,
        match=r"longest-edge sandwich violated: NN=10\.0, longest=1\.0, k=4$",
    ):
        values.get(np.array([[0, 1, 2, 3]]))


def test_conditioned_cycle_cover_bound_violation_is_reported(monkeypatch):
    # Both sandwiches hold within their slack, but CC falls below
    # d * (1 - slack) on the realization whose longest edge is (p2, p3).
    nn_indices = cc_module._nn_indices

    def nn_shrunk(space, idx):
        nn = nn_indices(space, idx)
        lam = space.dist[nn.longest[:, 0], nn.longest[:, 1]]
        return nn._replace(total=lam * (1.0 - _SLACK / 2))

    monkeypatch.setattr(cc_module, "_nn_indices", nn_shrunk)
    monkeypatch.setattr(
        cc_module, "_cc_indices", lambda space, idx: nn_shrunk(space, idx).total * (1.0 - _SLACK)
    )
    cc = 7.0 * (1.0 - _SLACK / 2) * (1.0 - _SLACK)
    sp = split_points(forced_line_graph())
    with pytest.raises(InternalAssertionError) as err:
        estimate_pair_term(sp, "p3", "p2", 10, seed=1)
    assert str(err.value) == f"conditioned cycle-cover bound violated: d=7.0, CC={cc}"
