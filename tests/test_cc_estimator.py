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
import stochgraph.mc as mc_module
from stochgraph.cc import _SLACK, _PairValues, pair_budget

from stochgraph.generate import gen_graph
from stochgraph.model import mass_in
from stochgraph.sampling import BLOCK_SIZE

from conftest import NNEventStats, count_groups, random_graph, rng_for
from test_acceptance import SUITE_SPEC
from test_golden import _existential


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


def collision_graph(point: str = "a~v1") -> StochasticGraph:
    """Point a shared by v0 and v1, next to a point whose id is that of
    a's copy for v1 (unless ``point`` renames it)."""
    space = MetricSpace(["a", point, "b"], coords=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
    dist = {"v0": {"a": 0.5, "b": 0.5}, "v1": {"a": 0.4, point: 0.6}}
    return StochasticGraph(["v0", "v1"], space, dist)


@pytest.mark.parametrize(
    "points, dist",
    [
        (["a~b", "a"], {"c": {"a~b": 0.5, "a": 0.5}, "d": {"a~b": 1.0}, "b~c": {"a": 1.0}}),
        (["a~b", "a"], {"c": {"a~b": 1.0}, "d": {"a~b": 1.0}, "b~c": {"a": 1.0}, "e": {"a": 1.0}}),
    ],
    ids=["a-owned-by-c-and-b~c", "a-owned-by-b~c-and-e"],
)
def test_split_copy_ids_of_two_points_are_distinct(points, dist):
    # a~b's copy for c and a's copy for b~c are both named a~b~c
    space = MetricSpace(points, dist=np.ones((len(points),) * 2) - np.eye(len(points)))
    g = StochasticGraph(list(dist), space, dist)
    ids = split_points(g).graph.space.point_ids
    assert len(set(ids)) == len(ids) == sum(len(row) for row in dist.values())


def test_split_ids_leave_uncontested_names_and_probabilities_alone():
    sp = split_points(collision_graph())
    assert sp.graph.space.point_ids == ("a~v0", "a~v1#1", "a~v1", "b")
    reports = [
        estimate_ecc(collision_graph(point), 0.25, 1, budget_cap=20)
        for point in ("a~v1", "c")
    ]
    probs = [[p["prob"] for p in r.extras["pairs"]] for r in reports]
    assert probs[0] and probs[0] == probs[1]


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


@pytest.mark.parametrize("mode", ["certain", "existential"])
@pytest.mark.parametrize("n, m", [(3, 3), (4, 9), (5, 40), (4, 140), (3, 230)])
def test_row_sum_masses_equal_mass_in_bit_for_bit(mode, n, m):
    # nodes own up to m points each, so split rows run past numpy's
    # 128-element pairwise block once m is large
    rng = rng_for(900 + m)
    g = random_graph(rng, n, m, presence_mode=mode)
    sp = split_points(g)
    work = sp.graph
    owned = np.bincount([v for v in sp.owner if v >= 0], minlength=n)
    assert owned.max() >= 3 or m == 3
    pairs = [
        (a, b) for a in range(work.m) for b in range(work.m)
        if a != b and sp.owner[a] >= 0 and sp.owner[b] >= 0 and sp.owner[a] != sp.owner[b]
    ]
    picked = rng.choice(len(pairs), size=min(len(pairs), 150), replace=False)
    longest = 0
    for a, b in (pairs[k] for k in picked):
        for mutual in (False, True):
            outside = cc_module._outside(sp, a, b, mutual)
            longest = max(longest, int(outside.sum()))
            masses = np.array(cc_module._masses(work, outside))
            reference = np.array([mass_in(work, w, outside) for w in range(n)])
            assert masses.tobytes() == reference.tobytes()
    assert longest > 128 or m < 100


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


# ---------------------------------------------------------------------------
# work skipped because the estimate never reads it
# ---------------------------------------------------------------------------

def ladder_cc_graph():
    """The cc instance of the benchmark's ladder-large workload."""
    return gen_graph("euclidean-uniform", 10, 14, 1)


def test_cycle_covers_are_solved_for_indicator_hits_only(monkeypatch):
    solved: list[tuple[int, ...]] = []
    hit_sets: set[tuple[int, ...]] = set()
    cc_indices, class_fn = cc_module._cc_indices, cc_module._PairValues.class_fn

    def recording_cc(space, idx):
        solved.extend(map(tuple, idx.tolist()))
        return cc_indices(space, idx)

    def recorded(self, rows, keys):
        # every group's and every block's classes, before they are reduced
        values, hits = class_fn(self, rows, keys)
        hit_sets.update(tuple(row[row >= 0].tolist()) for row in rows[hits == 1])
        return values, hits

    monkeypatch.setattr(cc_module, "_cc_indices", recording_cc)
    monkeypatch.setattr(cc_module._PairValues, "class_fn", recorded)
    estimate_ecc(ladder_cc_graph(), 0.25, 1001, budget_cap=50)
    assert hit_sets
    assert sorted(solved) == sorted(hit_sets)


SKIP_CASES = {
    **{name: (lambda spec=spec: gen_graph(*spec)) for name, *spec in SUITE_SPEC},
    "exist-eu-4-5": lambda: _existential("euclidean-uniform", 4, 5, 13),
    "ladder-eu-10-14": ladder_cc_graph,
}


@pytest.mark.parametrize("name", list(SKIP_CASES))
def test_skipped_mutual_terms_have_probability_zero(monkeypatch, name):
    g = SKIP_CASES[name]()
    planned = set()
    plan = cc_module._plan_term

    def recording(sp, s, t, *args, mutual=False, **kwargs):
        if mutual:
            planned.add((s, t))
        return plan(sp, s, t, *args, mutual=mutual, **kwargs)

    monkeypatch.setattr(cc_module, "_plan_term", recording)
    report = estimate_ecc(g, 0.25, 1, budget_cap=10)
    sp = split_points(g)
    owner = sp.owner
    pairs = [
        (a, b) for a in range(sp.graph.m) for b in range(a + 1, sp.graph.m)
        if owner[a] >= 0 and owner[b] >= 0 and owner[a] != owner[b]
    ]
    skipped = [pair for pair in pairs if pair not in planned]
    assert planned <= set(pairs)
    for a, b in skipped:
        assert prob_mutual_nearest(sp, a, b) == 0.0
    ids = sp.graph.space.point_ids
    mutual = {(d["s"], d["t"]): d for d in report.extras["pairs"] if d["kind"] == "mutual"}
    for a, b in skipped:
        if (ids[a], ids[b]) in mutual:
            direct = estimate_pair_term(sp, a, b, 10, 1, mutual=True).to_dict()
            assert mutual[ids[a], ids[b]] == direct
    if name == "ladder-eu-10-14":
        assert (len(skipped), len(pairs)) == (326, 457)


@pytest.mark.parametrize("name", list(SKIP_CASES))
def test_grouped_pair_terms_equal_standalone_terms(name):
    g = SKIP_CASES[name]()
    report = estimate_ecc(g, 0.25, 1, budget_cap=50)
    sp = split_points(g)
    used = report.extras["pair_budget"]["used"]
    index = sp.graph.space.index
    for d in report.extras["pairs"]:
        alone = estimate_pair_term(sp, d["s"], d["t"], used, 1, mutual=d["kind"] == "mutual")
        assert alone.to_dict() == d
        by_index = estimate_pair_term(
            sp, index(d["s"]), index(d["t"]), used, 1, mutual=d["kind"] == "mutual"
        )
        assert by_index.to_dict() == d


def test_pair_terms_of_one_point_or_one_node_are_rejected():
    space = line_space(0.0, 1.0, 2.0)
    g = StochasticGraph(["v", "w"], space, {"v": {"p0": 0.5, "p1": 0.5}, "w": {"p2": 1.0}})
    sp = split_points(g)
    for s, t in (("p0", "p0"), (2, 2), ("p0", "p1"), (0, 1), ("p1", 0)):
        for call in (
            lambda: estimate_pair_term(sp, s, t, 10, 1),
            lambda: estimate_pair_term(sp, s, t, 10, 1, mutual=True),
            lambda: prob_nearest(sp, s, t),
            lambda: prob_mutual_nearest(sp, s, t),
        ):
            with pytest.raises(DomainError):
                call()
    assert estimate_pair_term(sp, "p0", "p2", 10, 1).prob == estimate_pair_term(sp, 0, 2, 10, 1).prob


def test_kernels_run_once_per_group_on_the_ladder_instance(monkeypatch):
    calls = {"nn": 0, "cc": 0}
    for name in calls:
        kernel = getattr(cc_module, f"_{name}_indices")

        def counted(space, idx, name=name, kernel=kernel):
            calls[name] += 1
            return kernel(space, idx)

        monkeypatch.setattr(cc_module, f"_{name}_indices", counted)
    report = estimate_ecc(ladder_cc_graph(), 0.25, 1, budget_cap=50)
    # 414 of the 436 terms are deferred (one row per sample); the 22 keyed
    # ones hand fewer rows, and still 6 groups close
    sampled = [d["samples"] for d in report.extras["pairs"] if d["prob"] > 0.0]
    groups = count_groups(sampled, BLOCK_SIZE)
    assert len(sampled) == 436 and groups == 6
    # every row has all 10 points present: one kernel call per group
    assert calls == {"nn": groups, "cc": groups}


def test_a_term_of_several_blocks_is_drawn_and_solved_one_block_at_a_time(monkeypatch):
    g = ladder_cc_graph()
    sp = split_points(g)
    first = next(d for d in estimate_ecc(g, 0.25, 1, budget_cap=10).extras["pairs"]
                 if d["kind"] != "mutual" and d["samples"] == 10)
    events: list[tuple[str, int]] = []  # ("draw", block) and ("get", rows)
    draw, get = mc_module.draw_classes, cc_module._PairValues.get

    def drawing(sampler, stream, n_samples, b):
        events.append(("draw", b))
        return draw(sampler, stream, n_samples, b)

    def getting(self, rows):
        events.append(("get", len(rows)))
        return get(self, rows)

    monkeypatch.setattr(mc_module, "draw_classes", drawing)
    monkeypatch.setattr(cc_module._PairValues, "get", getting)
    n = 2 * BLOCK_SIZE + 100
    alone = estimate_pair_term(sp, first["s"], first["t"], n, 1)
    # each block is solved before the next one is drawn
    assert [kind for kind, _ in events] == ["draw", "get"] * 3
    assert [b for kind, b in events if kind == "draw"] == [0, 1, 2]
    assert alone.samples == n


def test_terms_of_a_block_or_more_run_alone_whatever_the_thread_count(monkeypatch):
    g = gen_graph("euclidean-uniform", 3, 4, 12)  # eu-3-4 of the acceptance suite
    calls = []
    run = mc_module.run_conditional_mc

    def recording(sampler, class_fn, n_samples, stream, sums=None):
        calls.append((n_samples, sums))
        return run(sampler, class_fn, n_samples, stream, sums)

    monkeypatch.setattr(mc_module, "run_conditional_mc", recording)
    reports = [estimate_ecc(g, 0.25, 7, budget_cap=BLOCK_SIZE + 1, threads=th) for th in (1, 3)]
    assert reports[0].threads == 1 and reports[1].threads == 3
    assert reports[0].extras["pairs"] == reports[1].extras["pairs"]
    assert reports[0].value == reports[1].value
    assert len(calls) % 2 == 0 and calls
    assert calls == [(BLOCK_SIZE + 1, None)] * len(calls)


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
    # CC is solved only for a realization whose longest edge is the term's
    # pair, here (p2, p3).
    monkeypatch.setattr(cc_module, "_cc_indices", lambda space, idx: np.full(len(idx), 25.0))
    sp = split_points(forced_line_graph())
    with pytest.raises(InternalAssertionError, match=r"cycle-cover sandwich violated: NN=10\.0, CC=25\.0$"):
        estimate_pair_term(sp, "p3", "p2", 10, seed=1)


def test_longest_edge_sandwich_violation_is_reported(monkeypatch):
    nn_indices = cc_module._nn_indices
    monkeypatch.setattr(
        cc_module,
        "_nn_indices",
        lambda space, idx: nn_indices(space, idx)._replace(longest=np.array([[0, 1]])),
    )
    values = _PairValues(forced_line_graph())
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
