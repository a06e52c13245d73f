import numpy as np
import pytest

from walksparse import SddmMatrix, WeightedGraph, resistance, sparsify


def er_graph(n, p, seed, weighted=False):
    """Connected Erdos-Renyi graph; retries seeds until connected."""
    for s in range(seed, seed + 50):
        gen = np.random.default_rng(s)
        A = (gen.random((n, n)) < p).astype(float)
        A = np.triu(A, 1)
        if weighted:
            A *= 0.5 + gen.random((n, n))
        A = A + A.T
        G = WeightedGraph.from_dense(A)
        if G.m > 0 and G.components[0] == 1:
            return G
    raise RuntimeError("could not generate a connected graph")


def ring_graph(n, w=1.0):
    return WeightedGraph.from_edges(n, [(i, (i + 1) % n, w) for i in range(n)])


def star_graph(n):
    return WeightedGraph.from_edges(n, [(0, i, 1.0) for i in range(1, n)])


def barbell_graph(k):
    """Two k-cliques joined by a single edge; n = 2k."""
    edges = []
    for a in range(k):
        for b in range(a + 1, k):
            edges.append((a, b, 1.0))
            edges.append((k + a, k + b, 1.0))
    edges.append((k - 1, k, 1.0))
    return WeightedGraph.from_edges(2 * k, edges)


def path_graph(weights):
    return WeightedGraph.from_edges(
        len(weights) + 1, [(i, i + 1, w) for i, w in enumerate(weights)]
    )


def random_sddm(n, p, seed, slack=1.0):
    G = er_graph(n, p, seed, weighted=True)
    gen = np.random.default_rng(seed + 777)
    return SddmMatrix(G.degree + slack * (0.5 + gen.random(n)), G)


@pytest.fixture
def sampled(monkeypatch):
    """Every stage one draws its walks: the paper's sampled pipeline."""
    monkeypatch.setattr(sparsify, "exact_walk_graph", lambda *args: None)


@pytest.fixture
def sketched(monkeypatch):
    """Every ErOracle sketches its resistances, whatever the graph's size."""
    monkeypatch.setattr(resistance, "_default_method", lambda n, delta: "sketch")


@pytest.fixture
def triangle():
    return WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


@pytest.fixture
def single_edge():
    return WeightedGraph.from_edges(2, [(0, 1, 1.0)])


@pytest.fixture
def four_cycle():
    return ring_graph(4)
