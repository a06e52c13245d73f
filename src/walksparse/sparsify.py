"""Sparsification of random-walk matrix polynomials by path sampling.

stage_one sparsifies sum_j alpha_j L_1 D^-1 L_2 ... D^-1 L_j, the alpha-
mixture of the prefixes of one layer list, for graphs and SDDM matrices
(walk_graph: layers [A]*d, the off-diagonal sum_r alpha_r A (D^-1 A)^{r-1},
with D = A 1 for L_alpha(G) and the SDDM diagonal for the SDDM extension)
and for the high-degree composition steps. Its sample count M is c_s ln n /
eps^2 times the D-normalised walk mass sum_j alpha_j tau(j). It computes
the stage exactly, by a chain of products, when that chain costs at most M
multiply-adds (exact_walk_graph; the chain turns dense from the first
product costing n^2); otherwise it draws M walks with masses
tau_p = w(p) Z(p) from the SamplerIndex that gave the tau(j), prefixes
picked proportionally to alpha_j tau(j), and adds tau / (M Z(p)) on each
open walk's endpoint edge, tau being the sum of the alpha_j tau(j).
two_stage, the one driver of every sparsifier, follows stage one with stage
two, which re-sparsifies the explicit result down to the n log n budget
using effective resistances. A disconnected graph runs whole in both
stages: walks never leave a component, and its polynomial is the direct sum
of its components'.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .graph import PolyCoeffs, WeightedGraph
from .sampling import PathBatch, SamplerIndex, _check_stream, graph_sampling, sample_paths

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SparsifyConfig:
    """Knobs shared by every sampling stage.

    epsilon is the total error budget: with second_stage it is split evenly
    between stage one and stage two, otherwise stage one spends all of it.
    oversample is the leading constant c_s in every sample-count formula; the
    e^+-eps guarantee holds w.h.p. at the default 4.0, and below it misses are
    expected (at 0.5, eps 1.0 misses on 18 of 60 seeds of a two-component graph).
    sparsify_high_degree, inv_sqrt_chain and er_oracle_build spend their own
    eps argument in place of epsilon and read only the other fields here.
    """

    epsilon: float
    oversample: float = 4.0
    second_stage: bool = True

    def __post_init__(self):
        if not (0 < self.epsilon <= 1):
            raise ValidationError("epsilon must lie in (0, 1]")
        if not (0 < self.oversample < math.inf):
            raise ValidationError("oversample constant must be positive and finite")

    @property
    def eps_stage_one(self):
        return self.epsilon / 2 if self.second_stage else self.epsilon

    @property
    def eps_stage_two(self):
        return self.epsilon / 2


def _log_n(n):
    return max(math.log(n), math.log(2))


def _sample_count(n, eps, tau, cfg: SparsifyConfig):
    """M = ceil(c_s ln n / eps^2 * tau): the samples of either stage, of total mass tau."""
    return int(math.ceil(cfg.oversample * _log_n(n) / eps**2 * tau))


def stage_two_edge_budget(n, eps, cfg: SparsifyConfig):
    return int(math.ceil(cfg.oversample * n * _log_n(n) / eps**2))


def exact_walk_graph(layers, D, M, alpha):
    """Off-diagonal of P = sum_j alpha_j L_1 D^-1 L_2 ... D^-1 L_j, or None.

    layers are CSR matrices. The prefix chain X_j = X_{j-1} D^-1 L_j is
    formed one product at a time, each costing
    f_j = sum_k nnz(X[:, k]) nnz(L_j[k, :]) multiply-adds. Once their
    running total exceeds M, the number of walks the stage would draw, None
    is returned and the stage samples instead; up to M the chain is faster
    than the walks and holds no more entries than their accumulator. From
    the first product with f_j >= n^2, X and P are ndarrays and
    (X / D) @ L_j runs scipy's sparse-dense loop: n nnz(L_j) multiply-adds,
    no BLAS, and a dense X within the same bound, as n^2 <= f_j <= M. The
    result is the strictly upper triangle of (P + P^T) / 2, the graph whose
    expectation graph_sampling estimates.
    """
    weights = np.asarray(alpha, dtype=np.float64)
    layers = layers[: np.flatnonzero(weights)[-1] + 1]
    n = len(D)
    X = layers[0]
    P = weights[0] * X
    flops = 0
    dense = False
    for L, a in zip(layers[1:], weights[1:]):
        fill = np.count_nonzero(X, axis=0) if dense else np.bincount(X.indices, minlength=n)
        f = int(fill @ np.diff(L.indptr))
        flops += f
        if flops > M:
            log.info("stage 1 sample: at least %s multiply-adds > M = %s", f"{flops:,}", f"{M:,}")
            return None
        if f >= n * n and not dense:
            dense, X, P = True, X.toarray(), P.toarray()
        if dense:
            # scipy loops over L; BLAS bytes would vary with threads. An
            # isolated vertex has D = 0 and a zero column in X, kept zero
            X = np.divide(X, D, out=np.zeros_like(X), where=D > 0) @ L
        else:
            X = sp.csr_matrix((X.data / D[X.indices], X.indices, X.indptr), shape=X.shape) @ L
            X.sort_indices()  # then P, P + P^T and its triangle come out in edge order
        if a:
            P = P + a * X
    log.info("stage 1 exact: %s multiply-adds <= M = %s", f"{flops:,}", f"{M:,}")
    if dense:
        W = 0.5 * np.triu(P + P.T, k=1)
        u, v = np.nonzero(W > 0)  # halving the smallest subnormal gives zero
        return WeightedGraph(n, u, v, W[u, v])
    P = sp.triu(P + P.T, k=1).tocoo()
    w = 0.5 * P.data
    keep = w > 0  # halving the smallest subnormal gives zero
    return WeightedGraph(n, P.row[keep], P.col[keep], w[keep])


def stage_one(layers, coeffs, alpha, D, eps, cfg: SparsifyConfig, rng) -> WeightedGraph:
    """Stage one of sum_j alpha_j L_1 D^-1 L_2 ... D^-1 L_j at eps.

    M = ceil(c_s ln n / eps^2 * sum_j alpha_j tau(j)), with tau(j) the total
    mass of the walks through layers[:j] under coeffs[:j] and D, read from
    the stage's one SamplerIndex. The stage is exact when exact_walk_graph
    allows it; otherwise M walks are drawn from that index, their prefix
    picked proportionally to alpha_j tau(j).
    """
    n = len(D)
    idx = SamplerIndex(layers, coeffs, D)
    prefixes = [j for j, a in enumerate(alpha, start=1) if a > 0]
    mass = [alpha[j - 1] * t for j, t in zip(prefixes, idx.masses(prefixes))]
    tau = sum(mass)
    M = _sample_count(n, eps, tau, cfg)
    H = exact_walk_graph(layers, D, M, alpha)
    if H is not None:
        return H
    probs = np.array(mass) / tau

    def draw(count, gen):
        batches = [
            sample_paths(idx, j, int(c), gen)
            for j, c in zip(prefixes, gen.multinomial(count, probs))
            if c > 0
        ]
        cols = zip(*((b.u0, b.ur, b.z) for b in batches))
        return PathBatch(*(np.concatenate(col) for col in cols))

    return graph_sampling(draw, tau, M, rng, n)


def two_stage(layers, coeffs, alpha, D, cfg: SparsifyConfig, rng) -> WeightedGraph:
    """stage_one at cfg.eps_stage_one on rng.split(0), then, with second_stage,
    resparsify at cfg.eps_stage_two on rng.split(1)."""
    _check_stream(rng)
    H = stage_one(layers, coeffs, alpha, D, cfg.eps_stage_one, cfg, rng.split(0))
    if cfg.second_stage:
        from .resistance import resparsify  # resistance imports this module

        H = resparsify(H, cfg.eps_stage_two, cfg, rng.split(1))
    return H


def walk_graph(G: WeightedGraph, D, alpha: PolyCoeffs, cfg: SparsifyConfig, rng) -> WeightedGraph:
    """Sparsifier of the off-diagonal sum_r alpha_r A (D^-1 A)^{r-1}, D >= A 1."""
    return two_stage([G.adjacency] * alpha.d, np.full(alpha.d, 2.0), alpha.alpha, D, cfg, rng)


def sparsify_poly(G: WeightedGraph, alpha: PolyCoeffs, cfg: SparsifyConfig, rng) -> WeightedGraph:
    """Sparsifier H with L_H ~ L_alpha(G) within exp(+-epsilon) w.h.p."""
    if G.m < 1:
        raise ValidationError("graph has no edges")
    return walk_graph(G, G.degree, alpha, cfg, rng)


def sparsify_monomial(G: WeightedGraph, r, cfg: SparsifyConfig, rng) -> WeightedGraph:
    """Sparsify the r-step walk Laplacian D - D (D^-1 A)^r."""
    if not isinstance(r, numbers.Integral) or r < 1:
        raise ValidationError(f"monomial degree must be an integer >= 1, got {r!r}")
    return sparsify_poly(G, PolyCoeffs.monomial(r), cfg, rng)
