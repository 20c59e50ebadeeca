"""Instance generators and campaign plumbing."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from stochgraph import DomainError, MetricSpace, StochasticGraph, find_home, split_points
from stochgraph.campaign import CampaignRow, run_campaign
from stochgraph.generate import KINDS, gen_graph, gen_instance
from stochgraph.model import instance_from_dict


@pytest.mark.parametrize("kind", KINDS)
def test_generated_instances_validate(kind):
    for seed in (0, 1, 2):
        g = gen_graph(kind, 3, 4, seed)
        assert g.n == 3 and g.m == 4


@pytest.mark.parametrize("kind", KINDS)
def test_generation_is_deterministic(kind):
    a = json.dumps(gen_instance(kind, 4, 5, 9), sort_keys=True)
    b = json.dumps(gen_instance(kind, 4, 5, 9), sort_keys=True)
    assert a == b
    c = json.dumps(gen_instance(kind, 4, 5, 10), sort_keys=True)
    assert a != c


# SHA-256 of each kind's documents on the grid below, one sorted-key JSON
# document per line.  The golden reports and perfbench's stored counts are
# computed on generated instances, so these must not move.
GRID_DIGESTS = {
    "euclidean-uniform": "a1633ab7170265af29389a17c12121bfd7ab46f963d51a4e988576183b957c38",
    "random-metric": "75dcfdf4a60ba6cb644ad18803811603d558d1eb41d6efdc9a4f6041b52b90ca",
    "home-separated": "c64fb3c02a4e5db5b23a783f3220a9b35eab84736910564d70eab652dc3ba962",
    "colocated-mass": "6de9c4bca32120f19390d387d07cac2e37fb3f1437f73ee3852f462c0eea6350",
}


@pytest.mark.parametrize("kind", KINDS)
def test_generated_documents_are_pinned(kind):
    digest = hashlib.sha256()
    for n in (1, 2, 3, 4, 5, 8, 12, 16):
        for m in (2, 3, 4, 6, 10, 16, 24):
            for seed in range(5):
                doc = json.dumps(gen_instance(kind, n, m, seed), sort_keys=True)
                digest.update(doc.encode() + b"\n")
    assert digest.hexdigest() == GRID_DIGESTS[kind]


def test_gen_rejects_bad_sizes():
    with pytest.raises(DomainError):
        gen_instance("euclidean-uniform", 0, 4, 1)
    with pytest.raises(DomainError):
        gen_instance("no-such-kind", 3, 4, 1)


def test_home_separated_contract():
    # the escape point sits ~1e6 away and carries so little mass that the
    # home construction must leave it outside, at any eps down to 0.1
    for seed in (3, 4, 5):
        g = gen_graph("home-separated", 3, 4, seed)
        far = g.m - 1
        assert float(g.space.dist[far, :far].min()) > 1e5
        assert float(g.probs[:, far].sum()) < 0.1 / 16.0
        for eps in (0.1, 0.25):
            home = find_home(g, eps)
            assert far not in home.members


def test_colocated_mass_shares_points_and_sites():
    g = gen_graph("colocated-mass", 4, 4, 2)
    shared = [(g.probs[:, s] > 0).sum() for s in range(g.m)]
    assert max(shared) >= 2  # some point is reachable by several nodes
    assert split_points(g).graph.m > g.m
    zero_offdiag = (g.space.dist == 0.0).sum() - g.m
    assert zero_offdiag > 0  # co-located distinct points exist


def test_random_metric_satisfies_triangle_inequality():
    g = gen_graph("random-metric", 3, 6, 7)
    d = g.space.dist
    for b in range(g.m):
        assert np.all(d <= d[:, b : b + 1] + d[b : b + 1, :] + 1e-12)


def test_campaign_deterministic_instance_zero_error():
    space = MetricSpace(
        ["p0", "p1"], coords=np.array([[0.0, 0.0], [3.0, 0.0]])
    )
    g = StochasticGraph(
        ["v0", "v1"], space, {"v0": {"p0": 1.0}, "v1": {"p1": 1.0}}
    )
    result = run_campaign(
        [("fixed", g)],
        ["mst-home", "mst-dp", "mpm", "cc"],
        seeds=[1, 2],
        epsilon=0.25,
        budget_cap=100,
    )
    assert result.rows
    for row in result.rows:
        assert not row.reason
        assert row.rel_err == 0.0
        assert row.passed
    assert set(result.aggregate().values()) == {1.0}


def test_campaign_row_dict_names_passed_pass():
    row = CampaignRow("inst", "mpm", 3, 1.0, 1.1, 0.1, True)
    assert row.to_dict() == {
        "instance": "inst", "estimator": "mpm", "seed": 3, "estimate": 1.0, "oracle": 1.1,
        "rel_err": 0.1, "pass": True, "reason": "",
    }


def test_campaign_skips_oracle_cap_with_reason():
    g = gen_graph("euclidean-uniform", 4, 4, 1)
    result = run_campaign(
        [("big", g)], ["mst-home"], seeds=[1], epsilon=0.25, cap=2
    )
    assert all("refused" in r.reason for r in result.rows)
    assert result.aggregate() == {}
