"""Tests of the benchmark's tracer and checks.

    python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import stochgraph  # noqa: E402
import workloads  # noqa: E402
from stochgraph import generate, mc, oracle, solvers  # noqa: E402
from tracer import ENTRY_POINTS, Span, Tracer, _resolve, deterministic_terms  # noqa: E402


def traced(tracer, label, fn, *args, **kwargs):
    tracer.install()
    try:
        result, _ = tracer.span(label, fn, *args, **kwargs)
    finally:
        tracer.uninstall()
    return result


def test_self_time_subtracts_union_of_overlapping_children():
    tr = Tracer()
    parent = Span("p", 0.0, 10.0, None, "p")
    # two children overlap on [2, 3] (as pool threads do); one runs past the parent
    tr.spans = [
        parent,
        Span("a", 1.0, 3.0, parent, "p"),
        Span("b", 2.0, 5.0, parent, "p"),
        Span("c", 9.0, 12.0, parent, "p"),
    ]
    selfs = tr.self_times()
    assert selfs[id(parent)] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[id(tr.spans[2])] == pytest.approx(3.0)


def entry_points():
    return [getattr(*_resolve(module, attr)) for module, attr, _ in ENTRY_POINTS]


def test_uninstall_restores_every_entry_point():
    before = entry_points()
    pool = mc.ThreadPoolExecutor
    tr = Tracer()
    tr.install()
    assert not tr.missing
    assert oracle._mst_indices.__wrapped__ is solvers._mst_indices.__wrapped__
    assert mc.ThreadPoolExecutor is not pool
    tr.uninstall()
    assert entry_points() == before
    assert mc.ThreadPoolExecutor is pool


def children_of(spans):
    out: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            out.setdefault(id(sp.parent), []).append(sp)
    return out


@pytest.mark.parametrize("estimator", ["mst-dp", "cc"])
def test_child_self_times_sum_to_at_most_the_parent_span(estimator):
    g = generate.gen_graph("euclidean-uniform", 5, 6, 14)  # eu-5-6 of the suite
    tr = Tracer()
    traced(tr, f"op.{estimator}", workloads.ESTIMATE[estimator], g, 0.25, 1, budget_cap=500)
    selfs = tr.self_times()
    kids = children_of(tr.spans)
    assert len(tr.spans) > 100 and max(map(len, kids.values())) > 1
    for sp in tr.spans:
        assert selfs[id(sp)] >= -1e-9
        assert sum(selfs[id(k)] for k in kids.get(id(sp), [])) <= (sp.end - sp.start) + 1e-9
    assert {sp.root for sp in tr.spans} == {f"op.{estimator}"}


def test_pool_thread_spans_keep_their_parent():
    g = generate.gen_graph("euclidean-uniform", 8, 10, 1)
    tr = Tracer()
    # 3 blocks of 4096 samples on 2 threads: block spans run in pool threads
    traced(tr, "op.mst-home", stochgraph.estimate_emst, g, 0.25, 1, budget_cap=3 * 4096, threads=2)
    blocks = [sp for sp in tr.spans if sp.name == "sampling.draw_block"]
    assert len(blocks) >= 3
    assert all(sp.parent.name == "mc.run" and sp.root == "op.mst-home" for sp in blocks)


@pytest.mark.parametrize("estimator", ["mst-home", "mst-dp", "mpm", "cc"])
def test_mc_samples_match_reported_term_samples(estimator):
    g = generate.gen_graph("euclidean-uniform", 4, 5, 13)  # eu-4-5 of the suite
    tr = Tracer()
    report = traced(
        tr, f"op.{estimator}", workloads.ESTIMATE[estimator], g, workloads.EPSILON, 7,
        budget_cap=workloads.CAMPAIGN_CAPS[estimator],
    )
    totals = tr.drain()
    assert totals[("", "mc.samples")][0] > 0
    assert totals[("", "mc.samples")][0] + deterministic_terms(totals) == sum(
        t.samples for t in report.terms
    )
    assert totals[("", "sampling.rows")][0] == totals[("", "mc.samples")][0]


def test_oracle_exact_records_no_rng_sampling_or_mc_spans():
    wl = workloads.oracle_exact(1, workloads.load_reference())
    tr = Tracer()
    for op in wl.ops:
        out = traced(tr, "op.oracle", op.run, 0)
        assert workloads.check_op(op, out) is None
    names = {sp.name for sp in tr.spans}
    assert {"oracle.enumerate", "oracle.eval", "solvers.mst", "solvers.mpm", "solvers.cc"} <= names
    assert not [n for n in names if n.split(".")[0] in ("rng", "sampling", "mc")]
    assert not [k for k in tr.counts if k.split(".")[0] in ("rng", "sampling", "mc")]


def test_mst_methods_agree_uses_the_criterion_9_band_on_three_quarters_of_seeds():
    home = workloads.Op("mst-home/x", "mst-home", "mst", None, 1.0)
    dp = workloads.Op("mst-dp/x", "mst-dp", "mst", None, 1.0)

    def results(pairs):
        return [
            r
            for seed, (a, b) in enumerate(pairs)
            for r in ((home, seed, workloads.Outcome(a)), (dp, seed, workloads.Outcome(b)))
        ]

    band = (1 + workloads.EPSILON) ** 2
    # ratios beyond (1 + eps) but inside (1 + eps)^2 agree
    assert workloads._mst_methods_agree(results([(1.4, 1.0)] * 4)) is None
    # 3 of 4 seeds inside the band is enough, 2 of 4 is not
    assert workloads._mst_methods_agree(results([(1.0, 1.0)] * 3 + [(band * 1.01, 1.0)])) is None
    assert workloads._mst_methods_agree(results([(1.0, 1.0)] * 2 + [(0.5, 1.0)] * 2)) is not None
