"""Micro-benchmarks of the Monte Carlo engine's layers, one block at a time.

    PYTHONPATH=src python -m pytest tests/bench_engine.py --benchmark-only

Two terms of a generated n = 8, m = 12 Euclidean instance: ``small``
conditions every node on its most likely point except three nodes on two
points each (support 8, so blocks are keyed by outcome position), and
``large`` is unconditioned (support far above ``BLOCK_SIZE``, so each block
is row-sorted whole and its rows are its classes).  Each case times one call:

- ``build``: ``ConditionalSampler(g, event)``;
- ``draw``: ``draw_block`` of one full block as ``draw_classes`` draws it:
  only each row's position key when the support fits in one block;
- ``classes``: ``draw_classes`` of that drawn block, so its dedup alone:
  the decoded present keys, or ``block_classes`` of the rows;
- ``block``: ``run_conditional_mc`` over one block with a constant
  ``class_fn``, so no solver runs.

``test_ladder_mst_classes`` times an unconditioned block of ladder-large's
MST instance (``euclidean-uniform 16 24``, generator seed 1) from its drawn
rows to one value per row: ``block_classes`` row-sorts it, and a cold
``PointSetMemo`` with a constant ``solve`` finds its distinct point sets by
their int64 rank keys, and each row's value is read back.

Two cases time cc on the benchmark's ladder-large cc instance
(``euclidean-uniform 10 14``, generator seed 1):

- ``cc-builds``: one ``ConditionalSampler`` for each directional
  nearest-neighbor event of the split space;
- ``cc-plan``: the pair planning of ``estimate_ecc`` alone at cap 50, for
  every pair its two directional terms and, when both are positive, its
  mutual one: probabilities and events, no sampling;
- ``cc-terms``: ``estimate_ecc`` at cap 50, seed 1001, one thread: every
  pair term, its probabilities, sampling and class solving;
- ``group-draw``: the blocks of 80 of those events (support above 50) at
  50 samples each, from their samplers and streams to each term's classes,
  drawn per term (``draw_classes``) or as one group (``group_classes``).

``group-reduce`` times the reduction of one group's small terms from the
values and indicators its ``class_fn`` call returned: 81 terms of 50
samples (a ladder-large cc group), 10 % of their values nonzero.  It is
reduced ``stacked``, as ``estimate_conditional`` does (``block_sums`` over
the stacked terms, then ``run_conditional_mc(..., sums=...)`` per term), or
``per-term``, one ``block_sums`` row per term.

``keyed-group`` times ``estimate_conditional`` over the 166 planned pair
terms of the acceptance suite's ``eu-5-6`` cc instance
(``euclidean-uniform 5 6``, generator seed 14) at cap 2,500, seed 1, with a
cold ``_PairValues.class_fn``: every term is keyed (support at most 2,500),
so this is the per-group floor of campaign-small's cc op without planning.

``search`` times two ways to find one node's outcome positions in a
block's word column from r - 1 evenly spaced thresholds, r in {2, 4, 8,
16, 32}: one comparison per threshold (``count``, as ``draw_block`` does)
or one integer ``np.searchsorted``.  Counting is faster up to about ten
thresholds; no node of the benchmark's graphs has more than four, so
``draw_block`` only counts.

``test_calibration`` is ``bench_solvers.py``'s host-speed case, fixed
numpy and ``math.fsum`` work that never calls the package, so a case here
divided by it compares runs made at different host speeds.

The file name keeps it out of the default ``test_*.py`` collection.
"""

from __future__ import annotations

import numpy as np
import pytest

from stochgraph import cc, sampling
from stochgraph.generate import gen_graph
from stochgraph.mc import (
    BLOCK_SIZE,
    block_classes,
    block_sums,
    draw_classes,
    estimate_conditional,
    group_classes,
    run_conditional_mc,
)
from stochgraph.model import Event, pinned_event
from stochgraph.rng import SampleStream
from stochgraph.sampling import ConditionalSampler
from stochgraph.solvers import PointSetMemo

from bench_solvers import calibration_work

G = gen_graph("euclidean-uniform", 8, 12, 1)


def small_event() -> Event:
    allowed = np.zeros((G.n, G.m), dtype=bool)
    order = np.argsort(-G.probs, axis=1, kind="stable")
    allowed[np.arange(G.n), order[:, 0]] = True
    allowed[np.arange(3), order[:3, 1]] = True
    return Event(allowed, np.zeros(G.n, dtype=bool))


EVENTS = {"small": small_event(), "large": None}


def constant_class_fn(rows):
    return np.ones(len(rows)), np.zeros(len(rows), dtype=np.int64)


@pytest.mark.parametrize("term", EVENTS)
@pytest.mark.parametrize("layer", ["build", "draw", "classes", "block"])
def test_engine_layer(benchmark, term, layer):
    sampler = ConditionalSampler(G, EVENTS[term])
    assert (sampler.support <= 8) == (term == "small")
    keyed = sampler.support <= BLOCK_SIZE

    def draw():  # as draw_classes draws it: keys only if keyed
        return sampler.draw_block(stream, 0, BLOCK_SIZE, keyed=keyed)

    stream = SampleStream(1, "bench", G.n)
    drawn = draw()
    benchmark.group = layer
    if layer == "build":
        benchmark(ConditionalSampler, G, EVENTS[term])
    elif layer == "draw":
        benchmark(draw)
    elif layer == "classes":
        drawing = ConditionalSampler(G, EVENTS[term])
        drawing.draw_block = lambda *_args, **_kwargs: drawn.copy()
        classes, inverse = benchmark(draw_classes, drawing, stream, BLOCK_SIZE, 0)
        assert len(inverse) == BLOCK_SIZE and (len(classes) <= 8) == keyed
    else:
        mean, _ = benchmark(run_conditional_mc, sampler, constant_class_fn, BLOCK_SIZE, stream)
        assert mean == 1.0


LADDER_MST = gen_graph("euclidean-uniform", 16, 24, 1)


def test_ladder_mst_classes(benchmark):
    sampler = ConditionalSampler(LADDER_MST)
    assert sampler.support > BLOCK_SIZE
    rows = sampler.draw_block(SampleStream(1, "bench", LADDER_MST.n), 0, BLOCK_SIZE)
    memos = []

    def values() -> np.ndarray:
        classes, _ = block_classes(rows.copy())
        memos.append(PointSetMemo(LADDER_MST.m, LADDER_MST.n))
        slots = memos[-1].find(classes, lambda idx: (np.zeros(len(idx)),))
        return memos[-1].values[0][slots]

    benchmark.group = "classes"
    assert len(benchmark(values)) == BLOCK_SIZE
    assert len(memos[-1]) == len(np.unique(np.sort(rows, axis=1), axis=0))


LADDER_CC = gen_graph("euclidean-uniform", 10, 14, 1)


def cc_events(sp: cc.SplitSpace) -> list[Event]:
    """The event of every directional pair term that samples (probability > 0)."""
    owner, m = sp.owner, sp.graph.m
    return [
        pinned_event(sp.graph, cc._outside(sp, a, b, False), owner[a], a, owner[b], b)
        for a in range(m) for b in range(m)
        if a != b and owner[a] >= 0 and owner[b] >= 0 and owner[a] != owner[b]
        and cc.prob_nearest(sp, a, b) > 0.0
    ]


def test_cc_sampler_builds(benchmark):
    sp = cc.split_points(LADDER_CC)
    events = cc_events(sp)
    benchmark.group = "cc-builds"
    benchmark(lambda: [ConditionalSampler(sp.graph, e) for e in events])


def test_cc_pair_terms(benchmark):
    benchmark.group = "cc-terms"
    report = benchmark.pedantic(
        cc.estimate_ecc, (LADDER_CC, 0.25, 1001), {"budget_cap": 50}, rounds=5, warmup_rounds=1
    )
    assert report.value > 0.0


@pytest.mark.parametrize("way", ["per-term", "group"])
def test_group_draw(benchmark, way):
    sp = cc.split_points(LADDER_CC)
    g = sp.graph
    samplers = [ConditionalSampler(g, e) for e in cc_events(sp)]
    samplers = [s for s in samplers if s.support > 50][:80]  # the terms a group draws
    streams = [SampleStream(1, f"bench-{k}", g.n) for k in range(len(samplers))]
    assert len(samplers) == 80
    benchmark.group = "group-draw"
    if way == "per-term":
        blocks = benchmark(lambda: [draw_classes(s, st, 50, 0) for s, st in zip(samplers, streams)])
    else:
        blocks = benchmark(lambda: group_classes(
            [st.words(0, 50) for st in streams], [s.table for s in samplers]
        ))
    assert sum(len(inverse) for _, inverse in blocks) == 80 * 50


CAMPAIGN_CC = gen_graph("euclidean-uniform", 5, 6, 14)


def plan_pairs(sp: cc.SplitSpace, n_samples: int) -> list:
    """The ``(event, n_samples, tag, key)`` term of every pair term that
    ``estimate_ecc`` samples, planned as it plans them, in its order."""
    owner, m, planned = sp.owner, sp.graph.m, []
    for a in range(m):
        for b in range(a + 1, m):
            v, u = owner[a], owner[b]
            if v < 0 or u < 0 or v == u:
                continue
            terms = [cc._plan_term(sp, a, b, v, u, n_samples), cc._plan_term(sp, b, a, u, v, n_samples)]
            if terms[0][1] is not None and terms[1][1] is not None:
                terms.append(cc._plan_term(sp, a, b, v, u, n_samples, mutual=True))
            planned.extend(job for _, job in terms if job is not None)
    return planned


def test_cc_pair_planning(benchmark):
    sp = cc.split_points(LADDER_CC)
    sp.rank  # built once, as in a run
    benchmark.group = "cc-plan"
    assert len(benchmark(plan_pairs, sp, 50)) == 436


def cc_pair_terms(g, n_samples: int) -> tuple:
    """The split graph and its ``plan_pairs`` terms."""
    sp = cc.split_points(g)
    return sp.graph, plan_pairs(sp, n_samples)


def test_keyed_group(benchmark):
    g, terms = cc_pair_terms(CAMPAIGN_CC, 2500)
    assert len(terms) == 166
    assert all(ConditionalSampler(g, event).support <= 2500 for event, *_ in terms)
    benchmark.group = "keyed-group"
    results = benchmark(
        lambda: estimate_conditional(g, terms, cc._PairValues(g).class_fn, seed=1)
    )
    report = cc.estimate_ecc(CAMPAIGN_CC, 0.25, 1, budget_cap=2500)
    sampled = [d for d in report.extras["pairs"] if d["prob"] > 0.0]
    assert [(d["indicator_hits"], d["samples"]) for d in sampled] == [r[1:] for r in results]


@pytest.mark.parametrize("way", ["per-term", "stacked"])
def test_group_reduce(benchmark, way):
    rng = np.random.default_rng(1)
    terms, n = 81, 50
    vals = np.where(rng.random(terms * n) < 0.1, rng.random(terms * n), 0.0)
    hits = (vals > 0.0).astype(np.int64)
    starts = np.arange(0, terms * n, n).tolist()
    inverses = [np.arange(n)] * terms

    def stacked():
        rows = block_sums(vals, hits, starts, inverses, n)
        return [run_conditional_mc(None, None, n, None, sums=[row]) for row in rows]

    def per_term():
        return [
            run_conditional_mc(None, None, n, None, sums=block_sums(vals, hits, [s], [i], n))
            for s, i in zip(starts, inverses)
        ]

    benchmark.group = "group-reduce"
    means = benchmark(stacked if way == "stacked" else per_term)
    assert means == per_term()


@pytest.mark.parametrize("r", [2, 4, 8, 16, 32])
@pytest.mark.parametrize("way", ["count", "searchsorted"])
def test_search(benchmark, way, r):
    column = SampleStream(1, "bench", G.n).words(0, BLOCK_SIZE)[:, 3]  # strided, as drawn
    steps = np.ceil(np.arange(1, r) / r * 2.0**53).astype(np.uint64) << np.uint64(11)
    benchmark.group = f"search-r{r}"
    if way == "count":
        at = benchmark(sampling._positions, column, steps)
    else:
        at = benchmark(np.searchsorted, steps, column, side="right")
    np.testing.assert_array_equal(at, np.searchsorted(steps, column, side="right"))


def test_calibration(benchmark):
    benchmark.group = "calibration"
    assert len(benchmark(calibration_work)) == 4096
