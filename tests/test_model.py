"""Core model: probabilities, distances, events, conditional sampling."""

from __future__ import annotations

import copy
import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np
import pytest
from numpy.random import Generator, Philox
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from stochgraph import (
    ConditionalSampler,
    DomainError,
    EventSpec,
    Functional,
    MetricSpace,
    Realization,
    SampleStream,
    StochasticGraph,
    StochgraphError,
    ValidationError,
    diam,
    estimate_ecc,
    estimate_emst,
    estimate_emst_dp,
    estimate_empm,
    event_probability,
    exact_expectation,
    expected_mass,
    instance_from_dict,
    instance_to_dict,
    node_mass,
    realization_probability,
    sample,
)
from stochgraph.generate import gen_instance
from stochgraph.model import Event
from stochgraph.sampling import ABSENT_IDX, node_outcomes

from conftest import (
    enumerate_realizations,
    event_contains,
    random_graph,
    rng_for,
    set_distance,
    set_set_distance,
)


def line_space(*xs: float) -> MetricSpace:
    return MetricSpace(
        [f"p{i}" for i in range(len(xs))],
        coords=np.array([[x, 0.0] for x in xs]),
    )


def two_node_graph() -> StochasticGraph:
    space = line_space(0.0, 1.0)
    return StochasticGraph(
        ["v1", "v2"],
        space,
        {"v1": {"p0": 0.9, "p1": 0.1}, "v2": {"p0": 0.5, "p1": 0.5}},
    )


# ---------------------------------------------------------------------------
# MetricSpace validation
# ---------------------------------------------------------------------------

def test_metric_space_rejects_asymmetry():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValidationError):
        MetricSpace(["a", "b"], dist=d)


def test_metric_space_rejects_nonzero_diagonal():
    d = np.array([[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        MetricSpace(["a", "b"], dist=d)


def test_metric_space_rejects_triangle_violation():
    d = np.array(
        [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    )
    with pytest.raises(ValidationError):
        MetricSpace(["a", "b", "c"], dist=d)


def test_metric_space_accepts_triangle_within_tolerance():
    eps = 1e-12  # far inside the 1e-9 relative tolerance
    d = np.array(
        [[0.0, 1.0, 2.0 * (1 + eps)], [1.0, 0.0, 1.0], [2.0 * (1 + eps), 1.0, 0.0]]
    )
    MetricSpace(["a", "b", "c"], dist=d)


def test_euclidean_construction_matches_l2():
    space = MetricSpace(["a", "b"], coords=np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert space.d("a", "b") == 5.0


def test_row_sums_validated():
    space = line_space(0.0, 1.0)
    with pytest.raises(ValidationError):
        StochasticGraph(["v"], space, {"v": {"p0": 0.5, "p1": 0.4}})
    # existential mode allows a deficit but not an excess
    StochasticGraph(
        ["v"], space, {"v": {"p0": 0.5, "p1": 0.4}}, presence_mode="existential"
    )
    with pytest.raises(ValidationError):
        StochasticGraph(
            ["v"], space, {"v": {"p0": 0.7, "p1": 0.4}}, presence_mode="existential"
        )


# ---------------------------------------------------------------------------
# realization_probability
# ---------------------------------------------------------------------------

def test_probability_deterministic_node():
    space = line_space(0.0)
    g = StochasticGraph(["v"], space, {"v": {"p0": 1.0}})
    r = Realization.from_mapping(g, {"v": "p0"})
    assert realization_probability(g, r) == 1.0


def test_probability_product_of_marginals():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(
        ["v1", "v2"],
        space,
        {"v1": {"p0": 0.5, "p1": 0.5}, "v2": {"p0": 0.5, "p1": 0.5}},
    )
    r = Realization.from_mapping(g, {"v1": "p0", "v2": "p1"})
    assert realization_probability(g, r) == 0.25


def test_probability_cross_checked_by_enumeration():
    g = two_node_graph()
    r = Realization.from_mapping(g, {"v1": "p1", "v2": "p0"})
    assert realization_probability(g, r) == pytest.approx(0.05, abs=1e-15)
    total = math.fsum(
        realization_probability(g, Realization(combo))
        for combo in product(range(2), repeat=2)
    )
    assert total == pytest.approx(1.0, abs=1e-14)


def test_probability_rejects_unknown_ids():
    g = two_node_graph()
    with pytest.raises(ValidationError):
        Realization.from_mapping(g, {"v1": "p0", "nope": "p1"})
    with pytest.raises(ValidationError):
        Realization.from_mapping(g, {"v1": "p7", "v2": "p0"})


def test_full_enumeration_sums_to_one(rng):
    for _ in range(5):
        g = random_graph(rng, 3, 4)
        total = math.fsum(p for _, p in enumerate_realizations(g))
        assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# expected_mass / distances
# ---------------------------------------------------------------------------

def test_expected_mass_examples():
    g = two_node_graph()
    assert expected_mass(g, ["p0"]) == pytest.approx(1.4, abs=1e-15)
    assert expected_mass(g, ["p0", "p1"]) == pytest.approx(2.0, abs=1e-12)
    assert node_mass(g, "v1", ["p1"]) == pytest.approx(0.1, abs=1e-15)


def test_distance_helpers():
    space = line_space(0.0, 1.0, 10.0)
    assert set_distance(space, "p2", ["p0", "p1"]) == 9.0
    assert diam(space, ["p0", "p1", "p2"]) == 10.0
    assert set_set_distance(space, ["p0", "p1"], ["p2"]) == 9.0
    with pytest.raises(DomainError):
        set_distance(space, "p0", [])
    with pytest.raises(DomainError):
        diam(space, [])


# ---------------------------------------------------------------------------
# event_probability
# ---------------------------------------------------------------------------

def test_event_probability_unrestricted_is_one():
    g = two_node_graph()
    assert event_probability(g, EventSpec()) == pytest.approx(1.0, abs=1e-12)


def test_event_probability_product():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(
        [f"v{i}" for i in range(3)],
        space,
        {f"v{i}": {"p0": 0.9, "p1": 0.1} for i in range(3)},
    )
    ev = EventSpec(allowed={f"v{i}": ["p0"] for i in range(3)})
    assert event_probability(g, ev) == pytest.approx(0.9**3, abs=1e-15)


def test_event_probability_matches_enumeration(rng):
    for _ in range(8):
        g = random_graph(rng, 3, 3)
        pts = list(g.space.point_ids)
        ev = EventSpec(
            allowed={
                "v0": [pts[int(rng.integers(3))]],
                "v1": [pts[0], pts[1]],
            }
        )
        by_enum = math.fsum(
            p
            for combo, p in enumerate_realizations(g)
            if event_contains(ev, g, Realization(combo))
        )
        assert event_probability(g, ev) == pytest.approx(by_enum, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_forced_point():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(["v"], space, {"v": {"p0": 0.5, "p1": 0.5}})
    stream = SampleStream(7, "t", g.n)
    for i in range(20):
        r = sample(g, EventSpec(allowed={"v": "p0"}), stream, i)
        assert r.to_mapping(g) == {"v": "p0"}


def test_sample_renormalization_frequencies():
    space = line_space(0.0, 1.0, 2.0)
    g = StochasticGraph(["v"], space, {"v": {"p0": 0.2, "p1": 0.3, "p2": 0.5}})
    sampler = ConditionalSampler(g, EventSpec(allowed={"v": ["p0", "p1"]}))
    n = 100_000
    rows = sampler.draw_block(SampleStream(3, "freq", g.n), 0, n)
    freq_a = float(np.mean(rows[:, 0] == 0))
    # conditional probabilities are 0.4 / 0.6; allow 3 sigma
    sigma = math.sqrt(0.4 * 0.6 / n)
    assert abs(freq_a - 0.4) <= 3 * sigma


def test_sample_unconditioned_chi_square():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(
        ["v1", "v2"],
        space,
        {"v1": {"p0": 0.3, "p1": 0.7}, "v2": {"p0": 0.6, "p1": 0.4}},
    )
    sampler = ConditionalSampler(g, None)
    n = 100_000
    rows = sampler.draw_block(SampleStream(11, "chi2", g.n), 0, n)
    observed = np.zeros(4)
    for a, b in product(range(2), repeat=2):
        observed[2 * a + b] = np.sum((rows[:, 0] == a) & (rows[:, 1] == b))
    expected = np.array(
        [
            realization_probability(g, Realization((a, b))) * n
            for a, b in product(range(2), repeat=2)
        ]
    )
    assert stats.chisquare(observed, expected).pvalue > 1e-3


def test_sample_never_leaves_event(rng):
    for _ in range(5):
        g = random_graph(rng, 3, 4)
        pts = list(g.space.point_ids)
        allowed = {}
        for v in g.node_ids:
            support = [p for p in pts if g.probs[g.node_index(v), g.space.index(p)] > 0]
            allowed[v] = support[: max(1, len(support) - 1)]
        ev = EventSpec(allowed=allowed)
        sampler = ConditionalSampler(g, ev)
        rows = sampler.draw_block(SampleStream(5, "inside", g.n), 0, 2000)
        for row in rows:
            assert event_contains(ev, g, Realization(tuple(int(x) for x in row)))


def test_sample_zero_mass_event_rejected():
    g = two_node_graph()
    # v1 has no mass outside p0/p1; an impossible set must raise
    ev = EventSpec(allowed={"v1": ["p1"], "v2": ["p1"]})
    ConditionalSampler(g, ev)  # fine: both have mass on p1
    space = line_space(0.0, 1.0)
    g2 = StochasticGraph(["v"], space, {"v": {"p0": 1.0}})
    with pytest.raises(DomainError):
        ConditionalSampler(g2, EventSpec(allowed={"v": ["p1"]}))


def test_uniforms_are_multiples_of_2_to_the_minus_53():
    # the group draw searches u * 2**53 as an exact integer; if numpy's
    # random() ever changes its float construction, this fails first
    for seed, tag, draws in ((1, "a", 5), (7, "cc/p0/p1/mutual", 16), (2**40, "", 1)):
        u = SampleStream(seed, tag, draws).uniforms(3, 2000) * 2.0**53
        assert (u == np.floor(u)).all() and u.min() >= 0 and u.max() < 2.0**53
        assert len(np.unique(u % 2)) == 2  # not all of them even: 53 bits are used


@pytest.mark.parametrize("threads", [1, 3])
def test_uniforms_equal_a_fresh_philox_on_every_thread(threads):
    # each thread reuses one Philox; its draws must be those of a new one
    # keyed by sha256("seed:tag") at counter start * width / 4
    cases = [
        (1, "a", 5, 0, 7), (7, "cc/p0/p1/mutual", 16, 3, 2000), (2**40, "", 1, 10**6, 1),
        (5, "wide", 33, 2**70, 3), (1, "a", 5, 11, 40), (9, "b", 12, 0, 1),
    ] * 4

    def both(case):
        seed, tag, draws, start, count = case
        stream = SampleStream(seed, tag, draws)
        key = int.from_bytes(hashlib.sha256(f"{seed}:{tag}".encode()).digest()[:16], "little")
        fresh = Generator(Philox(key=key, counter=start * stream.width // 4))
        return stream.uniforms(start, count).tobytes(), fresh.random(count * stream.width).tobytes()

    with ThreadPoolExecutor(max_workers=threads) as pool:
        pairs = list(pool.map(both, cases))
    assert all(got == want for got, want in pairs)


def test_sampling_deterministic_and_partition_independent():
    g = two_node_graph()
    sampler = ConditionalSampler(g, None)
    stream = SampleStream(99, "det", g.n)
    whole = sampler.draw_block(stream, 0, 1000)
    parts = np.vstack(
        [sampler.draw_block(stream, s, 100) for s in range(0, 1000, 100)]
    )
    assert np.array_equal(whole, parts)
    again = sampler.draw_block(SampleStream(99, "det", g.n), 0, 1000)
    assert np.array_equal(whole, again)


def test_existential_sampling_and_probability():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(
        ["v"], space, {"v": {"p0": 0.3, "p1": 0.3}}, presence_mode="existential"
    )
    assert g.absent_mass("v") == pytest.approx(0.4, abs=1e-15)
    r = Realization.from_mapping(g, {"v": None})
    assert realization_probability(g, r) == pytest.approx(0.4, abs=1e-15)
    sampler = ConditionalSampler(g, None)
    rows = sampler.draw_block(SampleStream(1, "exist", g.n), 0, 50_000)
    freq_absent = float(np.mean(rows[:, 0] == -1))
    assert abs(freq_absent - 0.4) <= 3 * math.sqrt(0.4 * 0.6 / 50_000)
    # forbidding absence renormalizes over the points
    ev = EventSpec(allow_absent={"v": False})
    assert event_probability(g, ev) == pytest.approx(0.6, abs=1e-15)


def test_outcome_table_and_node_outcomes():
    space = line_space(0.0, 1.0, 2.0)
    g = StochasticGraph(
        ["v", "w"], space, {"v": {"p0": 0.3, "p2": 0.3}, "w": {"p1": 1.0}},
        presence_mode="existential",
    )
    assert g.outcome_probs.shape == (2, 4)
    assert not g.outcome_probs.flags.writeable
    assert g.outcome_probs[:, -1].tolist() == [g.absent_mass("v"), g.absent_mass("w")]
    assert g.absent_mass("v") == max(0.0, 1.0 - (0.3 + 0.3))
    assert g.absent_mass("w") == 0.0
    (v_out, v_w), (w_out, w_w) = node_outcomes(g, EventSpec(allowed={"v": ["p2", "p1"]}))
    assert v_out.tolist() == [2, ABSENT_IDX]
    assert v_w.tolist() == [0.3, g.absent_mass("v")]
    assert (w_out.tolist(), w_w.tolist()) == ([1], [1.0])
    certain = StochasticGraph(["v"], space, {"v": {"p0": 0.25, "p1": 0.75}})
    assert certain.outcome_probs[:, -1].tolist() == [0.0]
    cum = ConditionalSampler(certain, None).cum[0]
    assert cum[-1] == 1.0


@st.composite
def _masked_graphs(draw):
    """A random graph and a random allowed/absent event on it."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    mode = draw(st.sampled_from(["certain", "existential"]))
    g = random_graph(rng_for(draw(st.integers(0, 2**32 - 1))), n, m, presence_mode=mode)
    allowed = np.array(draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m)))
    absent = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return g, Event(allowed.reshape(n, m), absent & (mode == "existential"))


@given(_masked_graphs())
@settings(max_examples=200, deadline=None)
def test_sampler_tables_equal_each_node_cumsum_bitwise(case):
    g, event = case
    outcomes = node_outcomes(g, event)
    empty = [name for name, (_, w) in zip(g.node_ids, outcomes) if not w.size]
    if empty:
        with pytest.raises(DomainError, match=f"^node {empty[0]}: zero probability mass"):
            ConditionalSampler(g, event)
        return
    sampler = ConditionalSampler(g, event)
    for (outs, weights), got_outs, got_cum in zip(outcomes, sampler.outcomes, sampler.cum):
        cum = np.cumsum(weights)
        assert np.array_equal(got_outs, outs)
        assert got_cum.tobytes() == (cum / cum[-1]).tobytes()


# ---------------------------------------------------------------------------
# instance round-trip
# ---------------------------------------------------------------------------

def test_instance_round_trip(rng):
    g = random_graph(rng, 3, 4)
    doc = instance_to_dict(g)
    g2 = instance_from_dict(doc)
    assert g2.node_ids == g.node_ids
    assert g2.space.point_ids == g.space.point_ids
    assert np.array_equal(g2.probs, g.probs)
    assert np.allclose(g2.space.dist, g.space.dist)


def test_distances_just_inside_the_float_bound_solve_and_estimate():
    # The largest power-of-two scaling of a generated instance that passes
    # n^2 * (max distance + 1) < float max; one doubling more is rejected.
    g = instance_from_dict(gen_instance("euclidean-uniform", 4, 5, seed=3))
    top = float(g.space.dist.max())
    k = 0
    while math.isfinite(g.n**2 * (math.ldexp(top, k + 1) + 1.0)):
        k += 1

    def scaled(power):
        space = MetricSpace(g.space.point_ids, dist=g.space.dist * 2.0**power)
        return StochasticGraph(g.node_ids, space, g.probs)

    with pytest.raises(ValidationError, match=r"n\^2 \* \(largest distance \+ 1\)"):
        scaled(k + 1)
    big = scaled(k)
    assert k > 1000
    # scaling every distance by a power of two scales every value exactly
    for functional in (Functional.MST, Functional.MPM, Functional.CC):
        assert exact_expectation(big, functional) == exact_expectation(g, functional) * 2.0**k
    for estimate in (estimate_emst, estimate_emst_dp, estimate_empm, estimate_ecc):
        want = estimate(g, 0.25, 1, budget_cap=200).value * 2.0**k
        assert estimate(big, 0.25, 1, budget_cap=200).value == want


def test_instance_validation_errors():
    with pytest.raises(ValidationError):
        instance_from_dict({"points": [{"id": "a"}]})
    with pytest.raises(ValidationError):
        instance_from_dict(
            {"points": [{"id": "a"}], "nodes": [{"id": "v", "dist": {"a": 1.0}}]}
        )


@pytest.mark.parametrize("kind", ["points", "nodes"])
@pytest.mark.parametrize("bad_id", [None, True, 3, 1.5, [1], {"a": 1}])
def test_ids_that_are_not_strings_are_a_validation_error(kind, bad_id):
    doc = instance_to_dict(random_graph(rng_for(31), 3, 4))
    doc[kind][0]["id"] = bad_id
    with pytest.raises(ValidationError, match=f"{kind[:-1]} ids are strings"):
        instance_from_dict(doc)


def _paths(x, prefix=()):
    """Every (container path, key) of a JSON document, depth first."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield prefix, k
        yield from _paths(v, prefix + (k,))


@pytest.mark.parametrize("presence_mode", ["certain", "existential"])
def test_malformed_instance_documents_raise_validation_error(presence_mode):
    g = random_graph(rng_for(31), 3, 4, presence_mode=presence_mode)
    docs = [instance_to_dict(g)]
    by_matrix = instance_to_dict(StochasticGraph(
        g.node_ids, MetricSpace(g.space.point_ids, dist=g.space.dist), g.probs, presence_mode
    ))
    docs.append(by_matrix)
    tried = 0
    for doc in docs:
        for path, key in _paths(doc):
            for new in ("delete", 5, [1], "x", None):
                bad = copy.deepcopy(doc)
                holder = bad
                for k in path:
                    holder = holder[k]
                if new != "delete":
                    holder[key] = new
                elif isinstance(holder, dict):
                    del holder[key]
                else:
                    continue
                tried += 1
                try:
                    instance_from_dict(bad)
                except ValidationError:
                    pass
    assert tried > 200


# ---------------------------------------------------------------------------
# Fuzzing the JSON boundary: only StochgraphError may escape
# ---------------------------------------------------------------------------

_IDS = ["p0", "p1", "p3", "v0", "v2", "id", "dist", "coords", "x"]
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.sampled_from(_IDS)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_IDS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)
_FUZZ_GRAPHS = [
    random_graph(rng_for(41), 3, 4, presence_mode=mode) for mode in ("certain", "existential")
]


def _matrix_form(g: StochasticGraph) -> dict:
    space = MetricSpace(g.space.point_ids, dist=g.space.dist)
    return instance_to_dict(StochasticGraph(g.node_ids, space, g.probs, g.presence_mode))


_FUZZ_DOCS = [instance_to_dict(g) for g in _FUZZ_GRAPHS] + [_matrix_form(g) for g in _FUZZ_GRAPHS]


@given(st.sampled_from(_FUZZ_DOCS), st.data())
@settings(max_examples=100, deadline=None)
def test_fuzzed_instance_documents_raise_only_stochgraph_errors(doc, data):
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path, key = data.draw(st.sampled_from(list(_paths(doc))))
        holder = doc
        for k in path:
            holder = holder[k]
        holder[key] = data.draw(_json)
    try:
        instance_from_dict(doc)
    except StochgraphError:
        pass


_node_maps = st.dictionaries(st.sampled_from(["v0", "v1", "v2"]) | st.text(max_size=3), _json)


@given(st.sampled_from(_FUZZ_GRAPHS), _node_maps | _json, _node_maps | _json)
@settings(max_examples=100, deadline=None)
def test_fuzzed_events_raise_only_stochgraph_errors(g, allowed, allow_absent):
    try:
        EventSpec(allowed=allowed, allow_absent=allow_absent).to_event(g)
    except StochgraphError:
        pass


_assignments = st.fixed_dictionaries(
    {v: st.sampled_from([None, "p0", "p3"]) | _json for v in ("v0", "v1", "v2")}
)


@given(st.sampled_from(_FUZZ_GRAPHS), _assignments | _node_maps | _json)
@settings(max_examples=100, deadline=None)
def test_fuzzed_realizations_raise_only_stochgraph_errors(g, assignment):
    try:
        Realization.from_mapping(g, assignment)
    except StochgraphError:
        pass


@pytest.mark.parametrize("key", [["v0"], {"v0": 1}])
def test_unhashable_node_or_point_key_is_a_validation_error(key):
    g = StochasticGraph(["v0"], line_space(0.0, 1.0), {"v0": {"p0": 1.0}})
    with pytest.raises(ValidationError, match="unknown node identifier"):
        g.node_index(key)
    with pytest.raises(ValidationError, match="unknown point identifier"):
        g.space.index(key)
