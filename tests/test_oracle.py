"""Exhaustive-enumeration oracle: exact expectations and conditional terms."""

from __future__ import annotations

import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from stochgraph import (
    DomainError,
    EnumerationCapError,
    EventSpec,
    Functional,
    MetricSpace,
    StochasticGraph,
    exact_expectation,
    exact_term,
)
from stochgraph import oracle
from stochgraph.generate import gen_instance
from stochgraph.model import instance_from_dict
from stochgraph.oracle import FunctionalEvaluator, enumerate_term

from conftest import (
    enumerate_realizations,
    mst_by_tree_enumeration,
    random_graph,
    rng_for,
)


def line_space(*xs: float) -> MetricSpace:
    return MetricSpace(
        [f"p{i}" for i in range(len(xs))],
        coords=np.array([[x, 0.0] for x in xs]),
    )


def uniform_two_nodes() -> StochasticGraph:
    space = line_space(0.0, 1.0)
    return StochasticGraph(
        ["v1", "v2"],
        space,
        {v: {"p0": 0.5, "p1": 0.5} for v in ("v1", "v2")},
    )


def test_deterministic_nodes_reduce_to_single_realization():
    space = line_space(0.0, 2.0)
    g = StochasticGraph(["v1", "v2"], space, {"v1": {"p0": 1.0}, "v2": {"p1": 1.0}})
    assert exact_expectation(g, Functional.MST) == 2.0
    assert exact_expectation(g, Functional.MPM) == 2.0
    assert exact_expectation(g, Functional.CC) == 4.0


def test_two_uniform_nodes_mst_half():
    g = uniform_two_nodes()
    assert exact_expectation(g, Functional.MST) == pytest.approx(0.5, abs=1e-12)


def test_two_uniform_nodes_cc_twice_expected_distance():
    g = uniform_two_nodes()
    # co-located draws cost 0, the two split draws cost 2*1 each
    assert exact_expectation(g, Functional.CC) == pytest.approx(1.0, abs=1e-12)
    assert exact_expectation(g, Functional.CC) == pytest.approx(
        2 * exact_expectation(g, Functional.MST), abs=1e-12
    )


def test_exact_matches_independent_enumeration(rng):
    for _ in range(5):
        g = random_graph(rng, 3, 4)
        ev = FunctionalEvaluator(g, Functional.MST)
        expected = math.fsum(
            p * ev.value_of_assignment(a) for a, p in enumerate_realizations(g)
        )
        assert exact_expectation(g, Functional.MST) == pytest.approx(
            expected, rel=1e-12
        )


def test_exact_mst_agrees_with_tree_enumeration_per_realization(rng):
    g = random_graph(rng, 3, 4)
    expected = math.fsum(
        p
        * mst_by_tree_enumeration(
            g.space, [g.space.point_ids[i] for i in a if i >= 0]
        )
        for a, p in enumerate_realizations(g)
    )
    assert exact_expectation(g, Functional.MST) == pytest.approx(expected, rel=1e-12)


def test_exact_term_zero_probability_event_is_zero():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(["v1", "v2"], space, {v: {"p0": 1.0} for v in ("v1", "v2")})
    ev = EventSpec(allowed={"v1": ["p1"]})
    assert exact_term(g, Functional.MST, ev) == 0.0
    with pytest.raises(DomainError):
        exact_expectation(g, Functional.MST, ev)


def test_exact_term_full_event_consistency(rng):
    g = random_graph(rng, 3, 3)
    full = EventSpec()
    assert exact_term(g, Functional.MST, full) == pytest.approx(
        exact_expectation(g, Functional.MST), rel=1e-12
    )


def test_law_of_total_expectation(rng):
    for _ in range(5):
        g = random_graph(rng, 3, 4)
        unconditional = exact_expectation(g, Functional.MST)
        partition_total = math.fsum(
            exact_term(
                g, Functional.MST, EventSpec(allowed={"v0": [pt]})
            )
            for pt in g.space.point_ids
        )
        assert partition_total == pytest.approx(unconditional, rel=1e-10)


def test_conditional_expectation_divides_by_event_probability():
    g = uniform_two_nodes()
    ev = EventSpec(allowed={"v1": ["p0"]})
    # Given v1 at p0: MST is 0 or 1 with probability 1/2 each
    assert exact_expectation(g, Functional.MST, ev) == pytest.approx(0.5, abs=1e-12)
    assert exact_term(g, Functional.MST, ev) == pytest.approx(0.25, abs=1e-12)


def test_enumeration_cap_refusal():
    space = line_space(0.0, 1.0, 2.0, 3.0)
    g = StochasticGraph(
        [f"v{i}" for i in range(4)],
        space,
        {f"v{i}": {f"p{s}": 0.25 for s in range(4)} for i in range(4)},
    )
    with pytest.raises(EnumerationCapError) as exc:
        exact_expectation(g, Functional.MST, cap=10)
    assert exc.value.required > 10
    assert "raise the cap" in str(exc.value)


def test_existential_enumeration_conventions():
    space = line_space(0.0, 1.0)
    g = StochasticGraph(
        ["v1", "v2"],
        space,
        {"v1": {"p0": 0.5}, "v2": {"p1": 0.5}},
        presence_mode="existential",
    )
    # CC of fewer than 2 present points counts 0 by convention
    # realizations: both present (0.25) -> 2, else 0
    assert exact_expectation(g, Functional.CC) == pytest.approx(0.5, abs=1e-12)
    # MST: both present -> 1, else 0
    assert exact_expectation(g, Functional.MST) == pytest.approx(0.25, abs=1e-12)
    # MPM undefined on odd present count
    with pytest.raises(DomainError):
        exact_expectation(g, Functional.MPM)
    # ... unless the event forces even parity
    both = EventSpec(allow_absent={"v1": False, "v2": False})
    assert exact_expectation(g, Functional.MPM, both) == pytest.approx(1.0, abs=1e-12)


def test_enumerate_term_reports_count(rng):
    g = random_graph(rng, 3, 3)
    _, count = enumerate_term(g, Functional.MST)
    assert count == int(np.prod([(g.probs[v] > 0).sum() for v in range(3)]))


@pytest.mark.parametrize(
    "kind, n, m, seed, existential, functional",
    [("random-metric", 3, 4, 2, False, Functional.MST),
     ("euclidean-uniform", 5, 6, 0, True, Functional.CC)],
)
def test_enumerate_term_is_the_correctly_rounded_sum(kind, n, m, seed, existential, functional):
    # instances where a compensated running sum lands one ulp off
    doc = gen_instance(kind, n, m, seed)
    if existential:
        doc["presence_mode"] = "existential"
        for node in doc["nodes"]:
            node["dist"] = {p: 0.85 * w for p, w in node["dist"].items()}
    g = instance_from_dict(doc)
    evaluator = FunctionalEvaluator(g, functional)
    products = [
        prob * evaluator.value_of_assignment(r) for r, prob in enumerate_realizations(g)
    ]
    term, count = enumerate_term(g, functional)
    assert count == len(products)
    assert term == float(sum(map(Fraction, products)))


@pytest.mark.parametrize(
    "d, functional, units",
    [
        (1e-322, Functional.MST, 15),
        (1e-322, Functional.MPM, 15),
        (1e-322, Functional.CC, 30),
        (1e-321, Functional.MST, 152),
        (1e-321, Functional.MPM, 152),
        (1e-321, Functional.CC, 303),
        (1e-318, Functional.MST, 151_802),
        (1e-318, Functional.MPM, 151_802),
        (1e-318, Functional.CC, 303_603),
    ],
)
def test_subnormal_terms_are_the_correctly_rounded_exact_sum(d, functional, units):
    """Every distance d, far below the normal range: rounding each product
    Pr[r] * f(r) there lost up to half a unit of 2**-1074 per realization
    (13 units for 15 at d = 1e-322, 151,800 for 151,802 at 1e-318)."""
    points = ["a", "b", "c", "e"]
    g = instance_from_dict({
        "points": points,
        "distance_matrix": [[0.0 if p == q else d for q in points] for p in points],
        "nodes": [{"id": "v0", "dist": {"a": 0.5, "b": 0.5}},
                  {"id": "v1", "dist": {"c": 0.25, "e": 0.25, "a": 0.5}}],
    })
    evaluator = FunctionalEvaluator(g, functional)
    exact = sum(
        Fraction(prob) * Fraction(evaluator.value_of_assignment(r))
        for r, prob in enumerate_realizations(g)
    )
    term, _ = enumerate_term(g, functional)
    assert term == float(exact) == math.ldexp(units, -1074)


def test_enumerate_term_frees_its_evaluator_without_gc(rng, monkeypatch):
    refs = []

    class Tracked(FunctionalEvaluator):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(oracle, "FunctionalEvaluator", Tracked)
    g = random_graph(rng, 3, 4)
    gc.disable()
    try:
        enumerate_term(g, Functional.MST)
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


def test_values_fill_rows_sharing_a_point_set():
    g = random_graph(rng_for(70), 3, 4, presence_mode="existential")
    ev = FunctionalEvaluator(g, Functional.MST)
    rows = np.array([[-1, 0, 2], [0, 2, 3], [-1, 0, 2], [-1, -1, 1], [0, 2, 3]])
    got = ev.values(rows)
    assert got.tolist() == [ev.value_of_assignment(r) for r in rows.tolist()]
    assert got[0] == got[2] and got[1] == got[4] and got[3] == 0.0
    assert len(ev._memo) == 3
