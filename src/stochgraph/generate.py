"""Deterministic instance generators for tests, demos, and campaigns."""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError
from .model import MetricSpace, StochasticGraph, instance_from_dict, instance_to_dict

KINDS = ("euclidean-uniform", "random-metric", "home-separated", "colocated-mass")


def _rng(seed: int, salt: str) -> Generator:
    digest = hashlib.sha256(f"{int(seed)}:{salt}".encode()).digest()
    return Generator(Philox(key=int.from_bytes(digest[:16], "little")))


def _random_rows(
    rng: Generator, n: int, m: int, max_support: int = 4, overlap: bool = False
) -> np.ndarray:
    """(n, m) probabilities: each node spreads random weights over k distinct
    random points, 2 <= k <= max_support (k = 1 when m = 1), drawn from the
    lowest k + 1 points when ``overlap`` and from all m otherwise."""
    probs = np.zeros((n, m))
    for v in range(n):
        k = int(rng.integers(2, min(m, max_support) + 1)) if m > 1 else 1
        pts = rng.choice(min(m, k + 1) if overlap else m, size=k, replace=False)
        w = rng.random(k) + 0.1
        probs[v, pts] = w / w.sum()
    return probs


def gen_instance(kind: str, n: int, m: int, seed: int) -> dict:
    """Instance document (JSON-ready) of the requested family.

    * euclidean-uniform: points uniform in the unit square, random supports.
    * random-metric: random symmetric lengths metrized by shortest paths.
    * home-separated: a tight cluster plus one point a factor 1e6 away
      carrying a sliver of mass per node; stresses the far-field terms.
    * colocated-mass: several points share coordinates and several nodes
      share support points; stresses point splitting and zero-length edges.

    Points are ``p0 .. p{m-1}`` and nodes ``v0 .. v{n-1}``; the graph is
    validated and written by ``instance_to_dict``.
    """
    if kind not in KINDS:
        raise DomainError(f"unknown generator kind {kind!r}; choose from {KINDS}")
    if n < 1 or m < 2:
        raise DomainError("need n >= 1 nodes and m >= 2 points")
    rng = _rng(seed, kind)
    coords = dist = None
    if kind == "random-metric":
        raw = rng.uniform(0.5, 1.5, size=(m, m))
        raw = (raw + raw.T) / 2.0
        np.fill_diagonal(raw, 0.0)
        # Floyd-Warshall closure turns arbitrary lengths into a metric.
        dist = raw.copy()
        for k in range(m):
            dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
        probs = _random_rows(rng, n, m)
    elif kind == "colocated-mass":
        # fewer sites than points, overlapping node supports (on low ids)
        sites = max(2, (m + 1) // 2)
        coords = rng.random((sites, 2))[np.arange(m) % sites]
        probs = _random_rows(rng, n, m, max_support=3, overlap=True)
    else:
        coords = rng.random((m, 2))
        if kind == "euclidean-uniform":
            probs = _random_rows(rng, n, m)
        else:  # home-separated
            coords[m - 1] = (1e6, 0.0)  # escape point far beyond the cluster
            # small enough to stay outside every home construction at eps >= 0.1
            # (below eps/(16 n m^3), the per-node cluster escape tolerance)
            escape = 1e-5
            probs = np.zeros((n, m))
            probs[:, :-1] = (1.0 - escape) * _random_rows(rng, n, m - 1, max_support=3)
            probs[:, -1] = escape
    space = MetricSpace([f"p{s}" for s in range(m)], dist=dist, coords=coords)
    return instance_to_dict(StochasticGraph([f"v{v}" for v in range(n)], space, probs))


def gen_graph(kind: str, n: int, m: int, seed: int) -> StochasticGraph:
    return instance_from_dict(gen_instance(kind, n, m, seed))
