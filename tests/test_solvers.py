"""Deterministic solvers against brute-force oracles and stated examples."""

from __future__ import annotations

import contextlib
import itertools
import math
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochgraph import (
    DomainError,
    Functional,
    MetricSpace,
    StochasticGraph,
    cc_length,
    edge_key,
    estimate_ecc,
    estimate_emst_dp,
    find_home,
    find_home_clusters,
    mpm_length,
    mst_length,
    nn_graph,
    prob_mutual_nearest,
    prob_nearest,
)

from stochgraph import cc as cc_module
from stochgraph import oracle, solvers
from stochgraph.cc import split_points
from stochgraph.generate import gen_graph
from stochgraph.model import mass_in
from stochgraph.oracle import enumerate_term
from stochgraph.sampling import node_outcomes
from stochgraph.solvers import (
    _cc_indices,
    _least_sums,
    _matchings,
    _mpm_blossom,
    _mpm_indices,
    _pairs,
    _mst_indices,
    _nn_indices,
    edge_order,
    exact_sums,
)

from conftest import (
    cc_by_permutation_enumeration,
    euclidean_space,
    longest_nn_edge,
    mpm_by_subset_dp,
    mst_by_tree_enumeration,
    nn_edges_of,
    random_graph,
    rng_for,
)
from test_acceptance import SUITE_SPEC
from test_golden import _existential


def line_space(*xs: float) -> MetricSpace:
    return MetricSpace(
        [f"p{i}" for i in range(len(xs))],
        coords=np.array([[x, 0.0] for x in xs]),
    )


# ---------------------------------------------------------------------------
# EdgeKey
# ---------------------------------------------------------------------------

def test_edge_key_total_order():
    space = line_space(0.0, 1.0, 1.0, 2.0)  # p1 and p2 co-located
    k12 = edge_key(space, "p1", "p2")
    k01 = edge_key(space, "p0", "p1")
    k02 = edge_key(space, "p0", "p2")
    assert k12.length == 0.0
    assert k01.length == k02.length == 1.0
    assert k01 < k02  # tie broken by point order
    assert k01 != k02
    with pytest.raises(DomainError):
        edge_key(space, "p1", "p1")


# ---------------------------------------------------------------------------
# MST
# ---------------------------------------------------------------------------

def test_mst_single_point():
    space = line_space(0.0)
    assert mst_length(space, ["p0"]) == 0.0


def test_mst_collinear():
    space = line_space(0.0, 1.0, 3.0)
    assert mst_length(space, ["p0", "p1", "p2"]) == 3.0


def test_mst_duplicates_cost_zero():
    space = line_space(0.0, 5.0)
    assert mst_length(space, ["p0", "p0", "p1"]) == 5.0


def test_mst_matches_tree_enumeration():
    rng = rng_for(101)
    for _ in range(30):
        k = int(rng.integers(2, 8))
        space = euclidean_space(rng, k)
        pts = [f"p{i}" for i in range(k)]
        assert mst_length(space, pts) == mst_by_tree_enumeration(space, pts)


# ---------------------------------------------------------------------------
# MPM
# ---------------------------------------------------------------------------

def test_mpm_pair():
    space = line_space(0.0, 5.0)
    assert mpm_length(space, ["p0", "p1"]) == 5.0


def test_mpm_collinear_four():
    space = line_space(0.0, 1.0, 2.0, 3.0)
    assert mpm_length(space, ["p0", "p1", "p2", "p3"]) == 2.0


def test_mpm_odd_count_rejected():
    space = line_space(0.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        mpm_length(space, ["p0", "p1", "p2"])


def test_mpm_matches_subset_dp():
    rng = rng_for(202)
    for _ in range(40):
        k = 2 * int(rng.integers(1, 7))
        space = euclidean_space(rng, k)
        pts = [f"p{i}" for i in range(k)]
        assert mpm_length(space, pts) == mpm_by_subset_dp(space, pts)


def test_mpm_permutation_invariant():
    rng = rng_for(203)
    space = euclidean_space(rng, 6)
    pts = [f"p{i}" for i in range(6)]
    base = mpm_length(space, pts)
    for _ in range(5):
        perm = list(rng.permutation(6))
        assert mpm_length(space, [pts[i] for i in perm]) == base


# ---------------------------------------------------------------------------
# CC
# ---------------------------------------------------------------------------

def test_cc_two_points_doubles_distance():
    space = line_space(0.0, 3.0)
    assert cc_length(space, ["p0", "p1"]) == 6.0


def test_cc_rectangle():
    space = MetricSpace(
        ["a", "b", "c", "d"],
        coords=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [1.0, 2.0]]),
    )
    # two 2-cycles across the unit edges beat the 6-length 4-cycle
    assert cc_length(space, ["a", "b", "c", "d"]) == 4.0


def test_cc_too_few_points():
    space = line_space(0.0, 1.0)
    with pytest.raises(DomainError):
        cc_length(space, ["p0"])


def test_cc_matches_permutation_enumeration():
    rng = rng_for(303)
    for _ in range(40):
        k = int(rng.integers(2, 9))
        space = euclidean_space(rng, k)
        pts = [f"p{i}" for i in range(k)]
        assert cc_length(space, pts) == cc_by_permutation_enumeration(space, pts)


def cc_by_least_fsum(D: np.ndarray, row) -> float:
    """The least correctly rounded length over every derangement of a row."""
    k = len(row)
    return min(
        math.fsum(D[row[i], row[p[i]]] for i in range(k))
        for p in itertools.permutations(range(k))
        if all(p[i] != i for i in range(k))
    )


@pytest.mark.parametrize("kind", ["euclidean-uniform", "random-metric", "colocated-mass", "home-separated"])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_cc_kernel_is_the_least_fsum_over_derangements(k, kind):
    # k <= 5 screens every derangement, k >= 6 solves assignments; co-located
    # copies and repeated points give zero distances, home-separated exact ties
    space = gen_graph(kind, 2, 9, 40 + k).space
    rows = random_rows(rng_for(650 + k), space.m, k, 12, distinct=False)
    rows[:4] = random_rows(rng_for(660 + k), space.m, k, 4, distinct=True)
    got = _cc_indices(space, rows)
    assert got.tolist() == [cc_by_least_fsum(space.dist, r) for r in rows.tolist()]


def test_small_cycle_covers_never_import_scipy():
    # suite instance eu-5-6 at the campaign's cc cap, then one 6-point cover
    code = (
        "import sys, stochgraph\n"
        "from stochgraph.generate import gen_graph\n"
        "g = gen_graph('euclidean-uniform', 5, 6, 14)\n"
        "stochgraph.estimate_ecc(g, 0.25, 1, budget_cap=2500)\n"
        "stochgraph.exact_expectation(g, 'cc')\n"
        "print('scipy.optimize' in sys.modules)\n"
        "print(stochgraph.cc_length(g.space, g.space.point_ids).hex())\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    before, value, after = proc.stdout.split()
    space = gen_graph("euclidean-uniform", 5, 6, 14).space
    assert (before, after) == ("False", "True")
    assert float.fromhex(value) == cc_by_least_fsum(space.dist, list(range(6)))


# ---------------------------------------------------------------------------
# NN graph
# ---------------------------------------------------------------------------

def test_nn_two_points():
    space = line_space(0.0, 2.0)
    g = nn_graph(space, ["p0", "p1"])
    assert len(g.edges) == 1
    assert g.longest == edge_key(space, "p0", "p1")
    assert g.total_length == 2.0


def test_nn_collinear_0_1_5():
    space = line_space(0.0, 1.0, 5.0)
    g = nn_graph(space, ["p0", "p1", "p2"])
    assert set(g.edges) == {edge_key(space, "p0", "p1"), edge_key(space, "p1", "p2")}
    assert g.longest == edge_key(space, "p1", "p2")
    assert longest_nn_edge(space, ["p0", "p1", "p2"]) == g.longest


def test_nn_requires_distinct_points():
    space = line_space(0.0, 1.0)
    with pytest.raises(DomainError):
        nn_graph(space, ["p0", "p0", "p1"])
    with pytest.raises(DomainError):
        nn_graph(space, ["p0"])


def test_nn_every_point_covered():
    rng = rng_for(404)
    for _ in range(20):
        k = int(rng.integers(2, 9))
        space = euclidean_space(rng, k)
        g = nn_graph(space, [f"p{i}" for i in range(k)])
        touched = {e.lo for e in g.edges} | {e.hi for e in g.edges}
        assert touched == set(range(k))


def test_longest_edge_between_total_over_n_and_total():
    rng = rng_for(405)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        space = euclidean_space(rng, k)
        g = nn_graph(space, [f"p{i}" for i in range(k)])
        lam = g.longest.length
        assert lam <= g.total_length * (1 + 1e-12)
        assert lam >= g.total_length / k * (1 - 1e-12)


# ---------------------------------------------------------------------------
# shared properties
# ---------------------------------------------------------------------------

def test_scaling_by_power_of_two_is_exact():
    rng = rng_for(505)
    space = euclidean_space(rng, 6)
    pts = [f"p{i}" for i in range(6)]
    for c in (0.5, 4.0):
        scaled = MetricSpace(space.point_ids, dist=space.dist * c)
        assert mst_length(scaled, pts) == c * mst_length(space, pts)
        assert mpm_length(scaled, pts) == c * mpm_length(space, pts)
        assert cc_length(scaled, pts) == c * cc_length(space, pts)
        assert nn_graph(scaled, pts).total_length == c * nn_graph(space, pts).total_length


# ---------------------------------------------------------------------------
# batched kernels
# ---------------------------------------------------------------------------

def grid_space() -> MetricSpace:
    """Integer-grid points (many equal distances) plus two co-located copies."""
    xy = [[x, y] for x in range(3) for y in range(3)] + [[1, 1], [0, 2]]
    return MetricSpace([f"p{i}" for i in range(len(xy))], coords=np.array(xy, dtype=float))


def random_rows(rng, m: int, k: int, count: int, distinct: bool) -> np.ndarray:
    rows = [np.sort(rng.choice(m, size=k, replace=not distinct)) for _ in range(count)]
    return np.array(rows, dtype=np.intp).reshape(count, k)


def nn_reference(space: MetricSpace, row) -> tuple[float, tuple[int, int]]:
    edges = nn_edges_of(space, tuple(row))
    return math.fsum(e[0] for e in edges), edges[-1][1:]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_batched_mst_matches_tree_enumeration(k):
    space = grid_space()
    rows = random_rows(rng_for(600 + k), space.m, k, 25, distinct=False)
    got = _mst_indices(space, rows)
    assert got.tolist() == [mst_by_tree_enumeration(space, r) for r in rows.tolist()]


def big_grid_space() -> MetricSpace:
    """A 6 x 6 integer grid plus four co-located copies: ties everywhere."""
    xy = [[x, y] for x in range(6) for y in range(6)] + [[0, 0], [2, 3], [2, 3], [5, 1]]
    return MetricSpace([f"q{i}" for i in range(len(xy))], coords=np.array(xy, dtype=float))


def mst_by_kruskal(space: MetricSpace, row) -> float:
    """One row's MST weight by Kruskal over ``edge_order``; a repeated point
    adds a zero edge."""
    points = set(row)
    parent = {p: p for p in points}

    def root(p):
        while parent[p] != p:
            p = parent[p]
        return p

    lengths = [0.0] * (len(row) - len(points))
    for a, b in zip(*edge_order(space)):
        if a in points and b in points and root(a) != root(b):
            parent[root(a)] = root(b)
            lengths.append(float(space.dist[a, b]))
    return math.fsum(lengths)


@pytest.mark.parametrize("k", [8, 12, 16, 32])
def test_batched_mst_matches_kruskal_past_enumeration(k):
    space = big_grid_space()
    rows = random_rows(rng_for(650 + k), space.m, k, 60, distinct=False)
    rows[:10, 1] = rows[:10, 0]  # every row of these repeats a point
    got = _mst_indices(space, rows)
    assert any(len(set(r)) < k for r in rows[10:].tolist())
    assert got.tolist() == [mst_by_kruskal(space, r) for r in rows.tolist()]


def test_batched_mst_row_does_not_depend_on_its_batch_at_k16():
    rng = rng_for(660)
    space = big_grid_space()
    rows = random_rows(rng, space.m, 16, 1500, distinct=False)  # several kernel chunks
    whole = _mst_indices(space, rows)
    alone = np.concatenate([_mst_indices(space, rows[i : i + 1]) for i in range(len(rows))])
    perm = rng.permutation(len(rows))
    assert whole.tobytes() == alone.tobytes()
    assert _mst_indices(space, rows[perm]).tobytes() == whole[perm].tobytes()


def test_padded_distance_table_is_read_only_and_built_once():
    space = big_grid_space()
    m = space.m
    rows = random_rows(rng_for(661), m, 5, 10, distinct=False)
    _mst_indices(space, rows)
    pad = space.padded_dist
    _mst_indices(space, rows)
    assert space.padded_dist is pad
    assert not pad.flags.writeable
    with pytest.raises(ValueError):
        pad[0] = 1.0
    table = pad.reshape(m + 1, m + 1)
    assert np.array_equal(table[:m, :m], space.dist)
    assert np.isposinf(table[m]).all() and np.isposinf(table[:, m]).all()


@pytest.mark.parametrize("k", [0, 2, 4, 6, 8])
def test_batched_mpm_matches_subset_dp(k):
    space = grid_space()
    rows = random_rows(rng_for(610 + k), space.m, k, 25, distinct=False)
    got = _mpm_indices(space, rows)
    assert got.tolist() == [mpm_by_subset_dp(space, r) for r in rows.tolist()]


@pytest.mark.parametrize("k", [2, 3, 5, 7])
def test_batched_cc_matches_permutation_enumeration(k):
    space = grid_space()
    rows = random_rows(rng_for(620 + k), space.m, k, 25, distinct=False)
    got = _cc_indices(space, rows)
    assert got.tolist() == [cc_by_permutation_enumeration(space, r) for r in rows.tolist()]


@pytest.mark.parametrize("k", [2, 3, 6, 11])
def test_batched_nn_matches_edge_key_reference(k):
    space = grid_space()
    rows = random_rows(rng_for(630 + k), space.m, k, 25, distinct=True)
    block = _nn_indices(space, rows)
    for row, total, longest in zip(rows.tolist(), block.total.tolist(), block.longest.tolist()):
        assert (total, tuple(longest)) == nn_reference(space, row)


@pytest.mark.parametrize("kernel", [_mst_indices, _mpm_indices, _cc_indices])
def test_row_value_does_not_depend_on_its_batch(kernel):
    rng = rng_for(640)
    space = euclidean_space(rng, 12)
    rows = random_rows(rng, 12, 6, 40, distinct=False)
    whole = kernel(space, rows)
    alone = np.concatenate([kernel(space, rows[i : i + 1]) for i in range(len(rows))])
    perm = rng.permutation(len(rows))
    shuffled = kernel(space, rows[perm])
    assert whole.tobytes() == alone.tobytes()
    assert shuffled.tobytes() == whole[perm].tobytes()


def test_nn_row_does_not_depend_on_its_batch():
    rng = rng_for(641)
    space = grid_space()
    rows = random_rows(rng, space.m, 5, 40, distinct=True)
    whole = _nn_indices(space, rows)
    perm = rng.permutation(len(rows))
    shuffled = _nn_indices(space, rows[perm])
    for i in range(len(rows)):
        alone = _nn_indices(space, rows[i : i + 1])
        assert alone.total.tobytes() == whole.total[i : i + 1].tobytes()
        assert alone.longest.tolist() == whole.longest[i : i + 1].tolist()
    assert shuffled.total.tobytes() == whole.total[perm].tobytes()
    assert shuffled.longest.tolist() == whole.longest[perm].tolist()


def test_nn_is_bit_identical_across_a_chunk_boundary():
    rng = rng_for(642)
    space = euclidean_space(rng, 20)
    rows = random_rows(rng, space.m, 16, 300, distinct=True)
    assert len(list(solvers._chunks(len(rows), 8 * 16 * 16))) == 3
    whole = _nn_indices(space, rows)
    alone = [_nn_indices(space, rows[i : i + 1]) for i in range(len(rows))]
    assert whole.nearest.tobytes() == np.concatenate([a.nearest for a in alone]).tobytes()
    assert whole.total.tobytes() == np.concatenate([a.total for a in alone]).tobytes()
    assert whole.longest.tobytes() == np.concatenate([a.longest for a in alone]).tobytes()


def mpm_by_exact_enumeration(D: np.ndarray, row: list[int]) -> float:
    """fsum of a perfect matching whose exact rational weight is least."""

    def matchings(rest):
        if not rest:
            yield []
            return
        a = rest[0]
        for i in range(1, len(rest)):
            for m in matchings(rest[1:i] + rest[i + 1 :]):
                yield [(a, rest[i])] + m

    best = min(
        matchings(list(range(len(row)))),
        key=lambda m: sum(Fraction(float(D[row[a], row[b]])) for a, b in m),
    )
    return math.fsum(float(D[row[a], row[b]]) for a, b in best)


def test_mpm_exact_across_binades_and_zero():
    rng = rng_for(650)
    m = 10
    # weights from 2**-40 to 2**40, and exact zeros between co-located points
    scale = 2.0 ** rng.integers(-40, 41, size=m)
    scale[:2] = 0.0
    D = np.maximum.outer(scale, scale) * (1.0 + rng.random((m, m)))
    D = np.triu(D, 1) + np.triu(D, 1).T
    D[0, 1] = D[1, 0] = 0.0
    space = MetricSpace([f"p{i}" for i in range(m)], dist=D, validate=False)
    for k in (4, 6, 8):
        for _ in range(6):
            row = rng.permutation(m)[:k].tolist()
            got = _mpm_indices(space, np.array([row], dtype=np.intp))
            assert got[0] == mpm_by_exact_enumeration(D, row)


def matching_spaces() -> dict[str, MetricSpace]:
    rng = rng_for(670)
    tenths = np.round(rng.random((16, 2)) * 2.0, 1)
    spread = rng.random((16, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(16, 1))
    ids = [f"p{i}" for i in range(16)]
    return {
        "grid": grid_space(),
        "tenths": MetricSpace(ids, coords=tenths),
        "1e-3..1e3": MetricSpace(ids, coords=spread),
    }


@pytest.mark.parametrize("kind", ["grid", "tenths", "1e-3..1e3"])
@pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
def test_mpm_enumeration_equals_blossom_bit_for_bit(k, kind):
    space = matching_spaces()[kind]
    rows = random_rows(rng_for(680 + k), space.m, k, 20, distinct=False)
    enumerated = _least_sums(space, rows, *_pairs(k), _matchings(k))
    assert enumerated.tobytes() == _mpm_blossom(space, rows).tobytes()


def test_mpm_screen_keeps_a_matching_whose_float_sum_ranks_it_second():
    ulp = 2.0**-52
    D = np.full((6, 6), 2.0)
    np.fill_diagonal(D, 0.0)
    # A = {01, 23, 45}: left to right 1 + 4 ulp, exactly 1 + 4.75 ulp
    # B = {02, 14, 35}: left to right 1 + 5 ulp, exactly 1 + 4.25 ulp
    for (p, q), w in {
        (0, 1): 1.5 * ulp, (2, 3): 1 + 3 * ulp, (4, 5): 0.25 * ulp,
        (0, 2): 1 + 3 * ulp, (1, 4): 0.5 * ulp, (3, 5): 0.75 * ulp,
    }.items():
        D[p, q] = D[q, p] = w
    space = MetricSpace([f"p{i}" for i in range(6)], dist=D, validate=False)
    rows = np.arange(6)[None, :]
    assert _mpm_indices(space, rows)[0] == 1 + 4 * ulp == _mpm_blossom(space, rows)[0]


def test_mpm_above_cutoff_runs_blossom(monkeypatch):
    calls = []

    def spy(space, idx):
        calls.append(idx.shape)
        return _mpm_blossom(space, idx)

    monkeypatch.setattr(solvers, "_mpm_blossom", spy)
    space = grid_space()
    rows = random_rows(rng_for(690), space.m, 14, 2, distinct=False)
    assert _mpm_indices(space, rows).tolist() == [mpm_by_subset_dp(space, r) for r in rows.tolist()]
    assert calls == [(2, 14)]
    _mpm_indices(space, rows[:, :12])
    assert calls == [(2, 14)]


@pytest.mark.parametrize("k", [0, 2, 4, 6, 8, 10, 12])
def test_matchings_are_every_perfect_matching(k):
    table = _matchings(k)
    assert table.shape == (math.prod(range(k - 1, 0, -2)), k // 2)
    a, b = np.triu_indices(k, 1)
    covered = np.sort(np.concatenate([a[table], b[table]], axis=1), axis=1)
    assert (covered == np.arange(k)).all()
    assert len(np.unique(np.sort(table, axis=1), axis=0)) == len(table)


def test_nn_longest_edge_ties_on_split_copies():
    # four nodes sharing two points: every realization has zero-length ties
    space = MetricSpace(["a", "b", "c"], coords=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    probs = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    g = StochasticGraph([f"v{i}" for i in range(4)], space, probs)
    split = split_points(g).graph.space
    rows = random_rows(rng_for(661), split.m, 4, 60, distinct=True)
    block = _nn_indices(split, rows)
    for row, total, longest in zip(rows.tolist(), block.total.tolist(), block.longest.tolist()):
        assert (total, tuple(longest)) == nn_reference(split, row)
        assert longest_nn_edge(split, row) == edge_key(split, *longest)


# ---------------------------------------------------------------------------
# Certified row sums
# ---------------------------------------------------------------------------

def fsums(x: np.ndarray) -> np.ndarray:
    return np.array([math.fsum(col) for col in x.T.tolist()], dtype=float)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


ROW_SUM_ENTRY = st.one_of(
    st.floats(0.0, 2.0**1000),  # lengths: zeros, subnormals and large values
    st.floats(-(2.0**1000), 2.0**1000),  # both signs, so sums cancel
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1000)),
    st.sampled_from([0.0, -0.0, 1.0, 2.0**-53, 2.0**-1074, 2.0**-1022, 2.0**1000]),
)


@st.composite
def row_sum_blocks(draw) -> np.ndarray:
    """A (K, B) block, K in [0, 40]; some columns are exact or near half-ulp
    ties a + ulp(a)/2 (+ a nudge far below the ulp), which only fsum settles."""
    K = draw(st.integers(0, 40))
    cols = []
    for _ in range(draw(st.integers(1, 6))):
        col = draw(st.lists(ROW_SUM_ENTRY, min_size=K, max_size=K))
        if K >= 2 and draw(st.booleans()):
            a = draw(st.floats(2.0**-1000, 2.0**1000))
            nudge = draw(st.sampled_from([0.0, 1.0, -1.0])) * math.ulp(a) * 2.0**-60
            col = [a, math.ulp(a) / 2, nudge] + [0.0] * K
            col = col[:K]
        cols.append(col)
    return np.array(cols, dtype=float).reshape(len(cols), K).T


FILLERS = [
    np.full(40, 2.0**900),  # raises the block's extraction point far above most columns
    np.full(40, 2.0**-1060),
    np.random.default_rng(0).random(40),
]


@given(row_sum_blocks(), st.integers(0, 2), st.integers(0, 700))
@settings(max_examples=300, deadline=None)
def test_exact_sums_equal_fsum_bit_for_bit(x, filler, pad):
    """At the default crossover, with the extraction forced on every block,
    and with the block between filler columns: every column's sum is fsum's,
    whatever the other columns hold."""
    K, B = x.shape
    want = fsums(x)
    assert same_bits(exact_sums(x), want)
    fill = np.repeat(FILLERS[filler][:K, None], pad, axis=1)
    wide = np.concatenate([fill[:, : pad // 2], x, fill[:, pad // 2 :]], axis=1)
    default = solvers._SUM_MIN_ENTRIES
    try:
        solvers._SUM_MIN_ENTRIES = 1
        assert same_bits(exact_sums(x), want)
        assert same_bits(exact_sums(wide)[pad // 2 : pad // 2 + B], want)
    finally:
        solvers._SUM_MIN_ENTRIES = default
    assert same_bits(exact_sums(wide)[pad // 2 : pad // 2 + B], want)


def test_exact_sums_settles_what_the_vectorized_sum_cannot():
    """Columns whose float sum r = fl(hi + lo) is not fsum's, next to 1,000
    plain ones: only the fsum fallback gets them right."""
    tie = [1.0, 2.0**-53, 0.0]  # exact half-ulp tie: even, so 1.0
    above = [1.0, 2.0**-53, 2.0**-106]  # just above the tie: 1 + 2**-52
    cancel = [2.0**60, 1.0, -(2.0**60)]  # all but 1.0 cancels
    subnormal = [2.0**-1074, 2.0**-1074, 0.0]
    zeros = [0.0, -0.0, 0.0]
    cols = [tie, above, cancel, subnormal, zeros]
    x = np.concatenate([np.array(cols).T, np.random.default_rng(1).random((3, 1000))], axis=1)
    out = exact_sums(x)
    assert same_bits(out, fsums(x))
    assert out[:5].tolist() == [1.0, 1.0 + 2.0**-52, 1.0, 2.0**-1073, 0.0]


def test_exact_sums_non_finite_and_overflowing_columns_match_fsum():
    x = np.ones((3, 600))
    x[0, 5] = math.inf
    x[1, 6] = math.nan
    out = exact_sums(x)
    assert out[5] == math.inf and math.isnan(out[6])
    assert (np.delete(out, [5, 6]) == 3.0).all()
    x[2, 7], x[0, 7] = -math.inf, math.inf
    with pytest.raises(ValueError):
        math.fsum(x[:, 7].tolist())
    with pytest.raises(ValueError):
        exact_sums(x)
    y = np.ones((3, 600))
    y[:, 9] = [1e308, 1e308, -1e308]
    with pytest.raises(OverflowError):
        math.fsum(y[:, 9].tolist())
    with pytest.raises(OverflowError):
        exact_sums(y)
    big = np.full((40, 600), 2.0**1017)  # 2K times the largest entry overflows
    assert same_bits(exact_sums(big), fsums(big))


@pytest.mark.parametrize("K,B", [(0, 5), (5, 0), (0, 0), (1, 600), (40, 1)])
def test_exact_sums_empty_and_thin_blocks(K, B):
    x = np.random.default_rng(K + B).random((K, B))
    out = exact_sums(x)
    assert out.dtype == np.float64 and same_bits(out, fsums(x))


# ---------------------------------------------------------------------------
# edge_order and the planners that read it
# ---------------------------------------------------------------------------

def grid_graph(seed: int, n: int, presence_mode: str = "certain") -> StochasticGraph:
    """Nodes spread over a few points of grid_space(): many tied lengths,
    co-located copies, and points shared by several nodes."""
    return random_graph(
        rng_for(seed), n, 11, space=grid_space(), max_support=4, presence_mode=presence_mode
    )


def tied_graph() -> StochasticGraph:
    """Four nodes, each split evenly over grid points, so heaviest points tie."""
    probs = np.zeros((4, 11))
    for v, pts in enumerate([(0, 1), (1, 0), (4, 9, 8), (8, 4, 9)]):
        probs[v, list(pts)] = 1.0 / len(pts)
    return StochasticGraph([f"v{v}" for v in range(4)], grid_space(), probs)


def all_edge_keys(space: MetricSpace) -> list:
    return sorted(edge_key(space, a, b) for a, b in combinations(range(space.m), 2))


def test_edge_order_is_edge_key_order():
    spaces = [line_space(0.0), grid_space()]
    spaces += [split_points(grid_graph(700 + i, 5)).graph.space for i in range(4)]
    for space in spaces:
        lo, hi = edge_order(space)
        assert list(zip(lo.tolist(), hi.tolist())) == [(k.lo, k.hi) for k in all_edge_keys(space)]


def prob_nearest_reference(sp, s: int, t: int, mutual: bool) -> float:
    """Pr[t is s's nearest neighbor (and s is t's, if mutual)], with the ball
    built from EdgeKey comparisons and _pair_prob's multiplication order."""
    g = sp.graph
    key = edge_key(g.space, s, t)
    outside = np.ones(g.m, dtype=bool)
    for r in set(range(g.m)) - {s, t}:
        if edge_key(g.space, s, r) < key or (mutual and edge_key(g.space, t, r) < key):
            outside[r] = False
    v, u = sp.owner[s], sp.owner[t]
    prob = float(g.probs[v, s]) * float(g.probs[u, t])
    for w in range(g.n):
        if w not in (v, u):
            prob *= mass_in(g, w, outside)
    return prob


@pytest.mark.parametrize("mode", ["certain", "existential"])
def test_nearest_neighbour_balls_match_edge_key_reference(mode):
    for seed in range(710, 714):
        sp = split_points(grid_graph(seed, 4, mode))
        for s, t in combinations(range(sp.graph.m), 2):
            if sp.owner[s] < 0 or sp.owner[t] < 0 or sp.owner[s] == sp.owner[t]:
                continue
            assert prob_nearest(sp, s, t) == prob_nearest_reference(sp, s, t, False)
            assert prob_nearest(sp, t, s) == prob_nearest_reference(sp, t, s, False)
            assert prob_mutual_nearest(sp, s, t) == prob_nearest_reference(sp, s, t, True)


def home_reference(g: StochasticGraph, eps: float) -> tuple[int, float]:
    """Centre and radius of the home: the furthest heavy pair by EdgeKey."""
    mass = g.probs.sum(axis=0)
    heavy = [s for s in range(g.m) if mass[s] >= eps / (16.0 * g.m)]
    if len(heavy) == 1:
        return heavy[0], 0.0
    furthest = max(edge_key(g.space, a, b) for a, b in combinations(heavy, 2))
    return furthest.lo, furthest.length


def test_find_home_matches_edge_key_reference():
    one_point = StochasticGraph(["v0", "v1"], grid_space(), {"v0": {"p4": 1.0}, "v1": {"p4": 1.0}})
    graphs = [one_point, tied_graph()] + [grid_graph(720 + i, 1 + i % 5) for i in range(10)]
    graphs += [clustered_graph(725 + i, 1 + i) for i in range(6)]
    for g in graphs:
        for eps in (0.05, 1.0):
            home = find_home(g, eps)
            assert (home.center, home.radius) == home_reference(g, eps)


def home_clusters_reference(g: StochasticGraph, eps: float):
    """Clusters, homes and merge radius of the first sweep length (0 first)
    whose threshold-graph components pass both home conditions."""
    theta = eps / (16.0 * g.n * g.m**3)
    D = g.space.dist
    for length in sorted({0.0} | {k.length for k in all_edge_keys(g.space)}):
        label = list(range(g.m))
        for _ in range(g.m):
            for a, b in combinations(range(g.m), 2):
                if D[a, b] <= length:
                    label[a] = label[b] = min(label[a], label[b])
        comps = [[s for s in range(g.m) if label[s] == r] for r in sorted(set(label))]
        home_of = [
            next((ci for ci, c in enumerate(comps) if g.probs[v, c].sum() >= 1.0 - theta), None)
            for v in range(g.n)
        ]
        if None not in home_of and all(home_of.count(ci) % 2 == 0 for ci in home_of):
            return tuple(map(tuple, comps)), tuple(home_of), length / 2.0
    raise AssertionError("sweep never settled")


def clustered_graph(seed: int, n: int) -> StochasticGraph:
    """Nodes each kept to one of four far-apart 2x2 grids (spacing 1 or 2,
    plus two co-located copies), so the sweep stops at several clusters,
    or merges grids to pair up their nodes."""
    corners = [(0, 0, 1), (10, 0, 1), (0, 10, 2), (20, 20, 2)]
    xy = [[ox + d * x, oy + d * y] for ox, oy, d in corners for x in (0, 1) for y in (0, 1)]
    xy += [[0, 0], [10, 1]]
    space = MetricSpace([f"p{i}" for i in range(len(xy))], coords=np.array(xy, dtype=float))
    rng = rng_for(seed)
    probs = np.zeros((n, space.m))
    for v in range(n):
        pts = 4 * rng.integers(4) + rng.choice(4, size=rng.integers(1, 5), replace=False)
        probs[v, pts] = rng.random(len(pts)) + 0.05
        probs[v] /= probs[v].sum()
    return StochasticGraph([f"v{v}" for v in range(n)], space, probs)


def test_find_home_clusters_matches_threshold_graph_reference():
    graphs = [tied_graph()] + [grid_graph(730 + i, 2 + 2 * (i % 3)) for i in range(3)]
    graphs += [clustered_graph(740 + i, 2 + 2 * (i % 4)) for i in range(12)]
    for g in graphs:
        for eps in (0.05, 1.0):
            hc = find_home_clusters(g, eps)
            assert (hc.clusters, hc.home_of, hc.merge_radius) == home_clusters_reference(g, eps)


# ---------------------------------------------------------------------------
# Point-set memo
# ---------------------------------------------------------------------------

def present_sets(rows: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(x for x in row if x >= 0) for row in rows.tolist()]


def rank_fits(m: int, n: int) -> bool:
    return math.comb(m + n, n) < 2**63


def largest_rank_m(n: int, cap: int) -> int:
    """The largest m <= cap whose n-wide rank keys fit an int64."""
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if rank_fits(mid, n) else (lo, mid - 1)
    return lo


@st.composite
def padded_blocks(draw, max_n: int = 8, max_m: int = 12, rank: bool = False):
    """A row-sorted block of point indices in [-1, m), -1 for absent, with
    repeated rows and repeated points, and its m; with ``rank``, m is at
    most the largest whose rank keys fit an int64 at this width."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, largest_rank_m(n, max_m) if rank else max_m))
    entry = st.just(-1) | st.integers(-1, m - 1)
    pool = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    rows = np.sort(np.array([pool[i] for i in picks], dtype=np.intp).reshape(-1, n), axis=1)
    return rows, m


@contextlib.contextmanager
def keyed_by(key_kind: str):
    """Memos built inside take int64 rank keys ("rank"), or the void digit
    keys that replace them when the rank could reach 2**63 ("void")."""
    real = solvers.rank_table
    if key_kind == "void":
        solvers.rank_table = lambda m, n: None
    try:
        yield
    finally:
        solvers.rank_table = real


def test_void_keys_are_the_zero_padded_digits_of_each_row():
    # n = 32, m = 48: the rank could pass 2**63, so keys are 32 one-byte digits
    memo = solvers.PointSetMemo(48, 32)
    assert memo._table is None
    rows = np.array([[-1] * 30 + [0, 47], list(range(32))], dtype=np.intp)
    keys = memo.keys(rows)
    assert keys.dtype == np.dtype((np.void, 32))
    assert [k.tobytes() for k in keys] == [bytes(30) + bytes([1, 48]), bytes(range(1, 33))]
    # the same sets given 2 and 32 wide
    assert memo.keys(rows[:1, 30:]).tobytes() == keys[:1].tobytes()
    # digits take the least unsigned type that holds m
    assert solvers.PointSetMemo(256, 40).keys(rows[:, 30:]).dtype.itemsize == 80


@pytest.mark.parametrize("m, n", [(3, 4), (5, 3), (6, 5)])
def test_rank_is_a_bijection_onto_the_binomial_range(m, n):
    """Every sorted row of n entries in [-1, m) (a multiset of points, -1
    absent) gets sum_j C(row[j] + 1 + j, j + 1), and the ranks are exactly
    0 .. C(m + n, n) - 1."""
    rows = np.array(list(itertools.combinations_with_replacement(range(-1, m), n)), dtype=np.intp)
    keys = solvers.PointSetMemo(m, n).keys(rows)
    assert keys.dtype == np.int64
    assert keys.tolist() == [
        sum(math.comb(x + 1 + j, j + 1) for j, x in enumerate(row)) for row in rows.tolist()
    ]
    assert sorted(keys.tolist()) == list(range(math.comb(m + n, n)))


def test_rank_table_gives_way_to_void_keys_at_2_to_the_63():
    assert solvers.rank_table(24, 16) is not None  # ladder-large's mst instance: 6.3e10
    assert solvers.rank_table(102, 10) is not None  # the split cc ladder: below 2**63
    assert solvers.rank_table(48, 32) is None  # n = 32 takes void keys
    for n in (5, 16, 31):  # tables of at most 2 MB
        m = largest_rank_m(n, 2**20)
        assert m < 2**20
        assert solvers.rank_table(m, n) is not None and solvers.rank_table(m + 1, n) is None
    table = solvers.rank_table(6, 5)
    assert not table.flags.writeable
    assert table.tolist() == [math.comb(x + j, j + 1) for j in range(5) for x in range(7)]


def check_keys(rows: np.ndarray, m: int, key_kind: str) -> None:
    n = rows.shape[1]
    memo = solvers.PointSetMemo(m, n)
    assert (memo._table is None) == (key_kind == "void")
    keys, sets = memo.keys(rows), present_sets(rows)
    if key_kind == "rank":
        assert keys.tolist() == [
            sum(math.comb(x + 1 + j, j + 1) for j, x in enumerate(row)) for row in rows.tolist()
        ]
    else:  # each entry + 1 as one digit of the least width that holds m
        width = 1 if m < 2**8 else 2 if m < 2**16 else 4
        assert keys.tobytes() == b"".join(
            (x + 1).to_bytes(width, sys.byteorder) for row in rows.tolist() for x in row
        )
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert (keys[i] == keys[j]) == (sets[i] == sets[j])
    # an unpadded (B, k) block of the same sets gets the same keys
    for k in set(map(len, sets)):
        at = [i for i, s in enumerate(sets) if len(s) == k]
        unpadded = np.array([sets[i] for i in at], dtype=np.intp).reshape(len(at), k)
        assert memo.keys(unpadded).tobytes() == keys[at].tobytes()
    if key_kind == "rank":
        solvers.rank_table.cache_clear()  # a table at m = 2**20 holds 8 MB a column


@given(padded_blocks(max_n=40, max_m=2**20, rank=True))
@settings(max_examples=300, deadline=None)
def test_rank_keys_are_equal_exactly_for_equal_point_sets(case):
    """Rank keys up to 40 wide with m up to 2**20, wherever they fit an int64."""
    check_keys(*case, "rank")


@given(padded_blocks(max_n=40, max_m=2**20))
@settings(max_examples=300, deadline=None)
def test_memo_keys_are_equal_exactly_for_equal_point_sets(case):
    """Void keys of blocks up to 40 wide with m up to 2**20, so digits of 1,
    2 or 4 bytes, with the rank table withheld; and rank keys wherever they
    fit."""
    rows, m = case
    if rank_fits(m, rows.shape[1]):
        check_keys(rows, m, "rank")
    with keyed_by("void"):
        check_keys(rows, m, "void")


@pytest.mark.parametrize("key_kind", ["rank", "void"])
@given(padded_blocks(), st.data())
@settings(max_examples=200, deadline=None)
def test_memo_solves_missing_sets_once_per_count_in_first_occurrence_order(key_kind, case, data):
    rows, m = case
    sets = present_sets(rows)
    ids = {s: i for i, s in enumerate(dict.fromkeys(sets))}  # one number per set
    calls = []

    def solve(idx):
        calls.append(idx.copy())
        return (np.array([ids[s] for s in present_sets(idx)], dtype=np.int64),)

    with keyed_by(key_kind):
        memo = solvers.PointSetMemo(m, rows.shape[1])
    assert (memo._table is None) == (key_kind == "void")
    cached = list(data.draw(st.sets(st.sampled_from(sets))))
    if cached:
        width = max(map(len, cached))
        held = np.array([(-1,) * (width - len(s)) + s for s in cached], dtype=np.intp)
        memo.find(held.reshape(len(cached), width), solve)
    calls.clear()
    expected: dict[int, list] = {}
    for s in sets:
        if s not in cached and s not in expected.setdefault(len(s), []):
            expected[len(s)].append(s)
    slots = memo.find(rows, solve)
    assert [idx.shape[1] for idx in calls] == [k for k in sorted(expected) if expected[k]]
    assert [present_sets(idx) for idx in calls] == [expected[k] for k in sorted(expected) if expected[k]]
    assert memo.values[0][slots].tolist() == [ids[s] for s in sets]
    assert len(memo) == len(ids)
    # a second pass finds every set and solves nothing
    assert memo.find(rows, solve).tolist() == slots.tolist()
    assert len(calls) == len([k for k in expected if expected[k]])


def test_memo_grows_past_many_runs_and_keeps_every_slot():
    """Blocks of new sets, old sets and both: every slot keeps its value as
    the memo's sorted runs merge, and each set is held once."""
    rng = rng_for(77)
    memo = solvers.PointSetMemo(30, 4)
    seen: dict[tuple, int] = {}
    weights = 31 ** np.arange(3, -1, -1)  # a set's number: absent entries add 0

    def solve(idx):
        return ((idx + 1) @ weights[4 - idx.shape[1]:],)

    for b in range(40):
        rows = np.sort(rng.integers(-1, 30, size=(int(rng.integers(1, 300)), 4)), axis=1)
        slots = memo.find(rows, solve)
        for row, slot in zip(rows.tolist(), slots.tolist()):
            assert seen.setdefault(tuple(row), slot) == slot
        assert (memo.values[0][slots] == (rows + 1) @ weights).all()
        sizes = [len(run) for run, _ in memo._runs]
        assert all(2 * b < a for a, b in zip(sizes, sizes[1:]))
    assert len(memo) == len(seen) == sum(len(run) for run, _ in memo._runs)


def realization_rows(g: StochasticGraph) -> np.ndarray:
    """Every realization of ``g``, row-sorted, in mixed-radix order."""
    table = node_outcomes(g, None)
    digits = np.unravel_index(np.arange(math.prod(len(o) for o, _ in table)), [len(o) for o, _ in table])
    return np.sort(np.column_stack([outs[d] for (outs, _), d in zip(table, digits)]), axis=1)


def overlapping_blocks(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two shuffled blocks that share about a third of their rows."""
    rng = rng_for(91)
    third = len(rows) // 3
    a, b = rows[: 2 * third], rows[third:]
    return a[rng.permutation(len(a))], b[rng.permutation(len(b))]


def held_once(memo: solvers.PointSetMemo, rows: np.ndarray) -> bool:
    """The memo holds exactly the sets of ``rows``, each at one slot."""
    keys = [run for run, _ in memo._runs]
    held = np.concatenate(keys) if keys else np.zeros(0)
    slots = np.concatenate([s for _, s in memo._runs]) if keys else np.zeros(0)
    distinct = len(set(present_sets(rows)))
    return len(memo) == len(held) == len(np.unique(held)) == len(set(slots.tolist())) == distinct


@pytest.mark.parametrize("key_kind", ["rank", "void"])
def test_blocks_sharing_an_evaluator_get_the_values_each_gets_alone(key_kind):
    g = gen_graph("euclidean-uniform", 5, 6, 14)  # eu-5-6 of the suite
    blocks = overlapping_blocks(realization_rows(g))
    with keyed_by(key_kind):
        alone = [oracle.FunctionalEvaluator(g, Functional.MST).values(b) for b in blocks]
        shared = oracle.FunctionalEvaluator(g, Functional.MST)
    both = [shared.values(b) for b in blocks]
    assert [v.tobytes() for v in both] == [v.tobytes() for v in alone]
    assert held_once(shared._memo, np.concatenate(blocks))


@pytest.mark.parametrize("key_kind", ["rank", "void"])
def test_blocks_sharing_pair_values_get_the_values_each_gets_alone(key_kind):
    sp = split_points(gen_graph("euclidean-uniform", 5, 6, 14))
    blocks = overlapping_blocks(realization_rows(sp.graph))

    def work(values, rows):
        longest = values.get(rows)
        return longest, values.cycle_covers(rows[longest == longest.max()])

    with keyed_by(key_kind):
        alone = [work(cc_module._PairValues(sp.graph), b) for b in blocks]
        shared = cc_module._PairValues(sp.graph)
    both = [work(shared, b) for b in blocks]
    for (longest, cc), (want_longest, want_cc) in zip(both, alone):
        assert longest.tobytes() == want_longest.tobytes() and cc.tobytes() == want_cc.tobytes()
    assert held_once(shared.nn, np.concatenate(blocks))
    cc_rows = [b[longest == longest.max()] for b, (longest, _) in zip(blocks, alone)]
    assert held_once(shared.cc, np.concatenate(cc_rows))


def suite_graph(name: str) -> StochasticGraph:
    if name.startswith("exist-"):
        return _existential(*next(spec for n, *spec in SUITE_SPEC if n == name[6:]))
    return gen_graph(*next(spec for n, *spec in SUITE_SPEC if n == name))


MEMO_CASES = [
    ("enumerate", "mst", "eu-4-5"),
    ("enumerate", "cc", "eu-4-5"),
    ("enumerate", "mst", "cm-4-4"),
    ("enumerate", "cc", "cm-4-4"),
    ("enumerate", "mst", "exist-eu-4-5"),
    ("mst-dp", "mst", "eu-4-5"),
    ("mst-dp", "mst", "cm-4-4"),
    ("cc", "cc", "eu-4-5"),
    ("cc", "cc", "cm-4-4"),
    ("cc", "cc", "exist-eu-4-5"),
]


def run_case(kind: str, functional: str, g: StochasticGraph):
    if kind == "enumerate":
        return enumerate_term(g, Functional(functional))
    estimate = estimate_emst_dp if kind == "mst-dp" else estimate_ecc
    return estimate(g, 0.25, 1, budget_cap=50).to_dict()


@pytest.mark.parametrize("kind,functional,name", MEMO_CASES)
def test_one_digit_words_give_the_default_results(monkeypatch, kind, functional, name):
    """With the rank table withheld, every memo keys its sets by void keys
    of one base-(m + 1) digit a byte, yet each block's slots and the results
    equal the default (int64 rank key) ones bit for bit."""
    g = suite_graph(name)
    found: list = []  # (rank keyed, rows, slots) of every memo lookup
    find = solvers.PointSetMemo.find

    def recording(self, rows, solve):
        slots = find(self, rows, solve)
        found.append((self._table is not None, rows.tolist(), slots.tolist()))
        return slots

    monkeypatch.setattr(solvers.PointSetMemo, "find", recording)
    default = run_case(kind, functional, g)
    default_found, found[:] = found[:], []
    assert default_found and all(ranked for ranked, _, _ in default_found)
    widths = []
    init = solvers.PointSetMemo.__init__

    def void_keyed(self, m, n):
        init(self, m, n)
        widths.append(n)

    monkeypatch.setattr(solvers, "rank_table", lambda m, n: None)
    monkeypatch.setattr(solvers.PointSetMemo, "__init__", void_keyed)
    assert run_case(kind, functional, g) == default
    assert not any(ranked for ranked, _, _ in found)
    assert [f[1:] for f in found] == [f[1:] for f in default_found]
    assert max(widths) == g.n


@pytest.mark.parametrize("kind,functional,name", MEMO_CASES[:2] + MEMO_CASES[5:8])
def test_results_do_not_depend_on_the_row_sum_crossover(monkeypatch, kind, functional, name):
    """Every kernel block summed by extraction, or every one by fsum: the
    results equal the default ones bit for bit."""
    g = suite_graph(name)
    default = run_case(kind, functional, g)
    for entries in (1, 1 << 62):
        monkeypatch.setattr(solvers, "_SUM_MIN_ENTRIES", entries)
        assert run_case(kind, functional, g) == default
