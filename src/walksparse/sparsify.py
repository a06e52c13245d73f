"""Sparsification of random-walk matrix polynomials by path sampling.

stage_one sparsifies sum_j alpha_j L_1 D^-1 L_2 ... D^-1 L_j, the alpha-
mixture of the prefixes of one layer list, for graphs and SDDM matrices
(walk_graph: layers [A]*d, the off-diagonal sum_r alpha_r A (D^-1 A)^{r-1},
with D = A 1 for L_alpha(G) and the SDDM diagonal for the SDDM extension)
and for the high-degree composition steps. Its sample count M is c_s ln n /
eps^2 times the D-normalised walk mass sum_j alpha_j tau(j). It computes
the stage exactly, by a chain of sparse products, when that chain costs at
most M multiply-adds (exact_walk_graph); otherwise it draws M walks with
masses tau_p = w(p) Z(p) (prefixes picked proportionally to alpha_j tau(j),
so the estimator is unbiased) and aggregates the endpoint edges. Stage two
re-sparsifies the explicit result down to the n log n budget using
solver-estimated effective resistances.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import InputRefusedError, ValidationError
from .graph import PolyCoeffs, WeightedGraph
from .sampling import PathBatch, SamplerIndex, graph_sampling, sample_paths, substream, template_mass

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SparsifyConfig:
    """Knobs shared by every sampling stage.

    split is the fraction of the epsilon budget spent in stage one;
    oversample is the leading constant c_s in every sample-count formula.
    """

    epsilon: float
    oversample: float = 4.0
    second_stage: bool = True
    split: float = 0.5
    allow_disconnected: bool = False

    def __post_init__(self):
        if not (0 < self.epsilon <= 1):
            raise ValidationError("epsilon must lie in (0, 1]")
        if self.oversample <= 0:
            raise ValidationError("oversample constant must be positive")
        if not (0 < self.split < 1):
            raise ValidationError("split must lie in (0, 1)")

    @property
    def eps_stage_one(self):
        return self.split * self.epsilon if self.second_stage else self.epsilon

    @property
    def eps_stage_two(self):
        return (1 - self.split) * self.epsilon


def _log_n(n):
    return max(math.log(n), math.log(2))


def stage_two_edge_budget(n, eps, cfg: SparsifyConfig):
    return int(math.ceil(cfg.oversample * n * _log_n(n) / eps**2))


def exact_walk_graph(layers, D, M, alpha):
    """Off-diagonal of P = sum_j alpha_j L_1 D^-1 L_2 ... D^-1 L_j, or None.

    layers are CSR matrices. The prefix chain X_j = X_{j-1} D^-1 L_j is
    formed one product at a time, each costing
    sum_k nnz(X[:, k]) nnz(L_j[k, :]) multiply-adds. Once their
    running total exceeds M, the number of walks the stage would draw, None
    is returned and the stage samples instead; up to M the chain is faster
    than the walks and holds no more entries than their accumulator. The
    result is the strictly upper triangle of (P + P^T) / 2, the graph whose
    expectation graph_sampling estimates.
    """
    weights = np.asarray(alpha, dtype=np.float64)
    layers = layers[: np.flatnonzero(weights)[-1] + 1]
    n = len(D)
    X = layers[0]
    P = weights[0] * X
    flops = 0
    for L, a in zip(layers[1:], weights[1:]):
        flops += int(np.bincount(X.indices, minlength=n) @ np.diff(L.indptr))
        if flops > M:
            log.info("stage 1 sample: at least %s multiply-adds > M = %s", f"{flops:,}", f"{M:,}")
            return None
        X = sp.csr_matrix((X.data / D[X.indices], X.indices, X.indptr), shape=X.shape) @ L
        if a:
            P = P + a * X
    log.info("stage 1 exact: %s multiply-adds <= M = %s", f"{flops:,}", f"{M:,}")
    P = sp.triu(P + P.T, k=1).tocoo()
    keep = P.data > 0
    return WeightedGraph(n, P.row[keep], P.col[keep], 0.5 * P.data[keep])


def stage_one(layers, coeffs, alpha, D, eps, cfg: SparsifyConfig, rng) -> WeightedGraph:
    """Stage one of sum_j alpha_j L_1 D^-1 L_2 ... D^-1 L_j at eps.

    M = ceil(c_s ln n / eps^2 * sum_j alpha_j tau(j)), with tau(j) the total
    mass of the walks through layers[:j] under coeffs[:j] and D. The stage
    is exact when exact_walk_graph allows it; otherwise M walks are drawn,
    their prefix picked proportionally to alpha_j tau(j).
    """
    n = len(D)
    prefixes = [j for j, a in enumerate(alpha, start=1) if a > 0]
    tau = sum(alpha[j - 1] * template_mass(layers[:j], coeffs[:j], D) for j in prefixes)
    M = int(math.ceil(cfg.oversample * _log_n(n) / eps**2 * tau))
    H = exact_walk_graph(layers, D, M, alpha)
    if H is not None:
        return H
    idx = SamplerIndex(layers, coeffs, D)
    weights = np.array([alpha[j - 1] * idx.template(j).tau_total for j in prefixes])
    probs = weights / weights.sum()

    def draw(count, gen):
        # alpha_j scales both the target weight and the sampling mass of a
        # walk through layers[:j], so it cancels in graph_sampling
        batches = [
            sample_paths(idx, j, int(c), gen)
            for j, c in zip(prefixes, gen.multinomial(count, probs))
            if c > 0
        ]
        cols = zip(*((b.u0, b.ur, b.weight, b.mass) for b in batches))
        return PathBatch(*(np.concatenate(col) for col in cols))

    return graph_sampling(draw, float(weights.sum()), M, rng, n)


def _split_components(G: WeightedGraph):
    ncomp, labels = connected_components(G.adjacency, directed=False)
    for c in range(ncomp):
        verts = np.nonzero(labels == c)[0]
        if len(verts) < 2:
            continue
        remap = -np.ones(G.n, dtype=np.int64)
        remap[verts] = np.arange(len(verts))
        mask = remap[G.edge_u] >= 0
        yield verts, WeightedGraph(
            len(verts), remap[G.edge_u[mask]], remap[G.edge_v[mask]], G.edge_w[mask]
        )


def _join_components(n, parts):
    """Union of component graphs, each given with its vertex ids in the whole."""
    u = np.concatenate([verts[H.edge_u] for verts, H in parts])
    v = np.concatenate([verts[H.edge_v] for verts, H in parts])
    w = np.concatenate([H.edge_w for _, H in parts])
    return WeightedGraph(n, u, v, w)


def walk_graph(G: WeightedGraph, D, alpha: PolyCoeffs, cfg: SparsifyConfig, rng) -> WeightedGraph:
    """Sparsifier of the off-diagonal sum_r alpha_r A (D^-1 A)^{r-1}, D >= A 1."""
    if not G.is_connected():
        if not cfg.allow_disconnected:
            raise InputRefusedError(
                "graph is disconnected; effective-resistance bounds need paths between "
                "sampled endpoints (pass allow_disconnected to process components separately)"
            )
        parts = [
            (verts, walk_graph(sub, D[verts], alpha, cfg, substream(rng, 1000 + k)))
            for k, (verts, sub) in enumerate(_split_components(G))
        ]
        return _join_components(G.n, parts)

    layers = [G.adjacency] * alpha.d
    H = stage_one(layers, np.full(alpha.d, 2.0), alpha.alpha, D, cfg.eps_stage_one, cfg, rng)
    if cfg.second_stage:
        from .resistance import resparsify

        H = resparsify(H, cfg.eps_stage_two, cfg, substream(rng, 1))
    return H


def sparsify_poly(G: WeightedGraph, alpha: PolyCoeffs, cfg: SparsifyConfig, rng) -> WeightedGraph:
    """Sparsifier H with L_H ~ L_alpha(G) within exp(+-epsilon) w.h.p."""
    if G.m < 1:
        raise ValidationError("graph has no edges")
    return walk_graph(G, G.degree, alpha, cfg, rng)


def sparsify_monomial(G: WeightedGraph, r, cfg: SparsifyConfig, rng) -> WeightedGraph:
    """Sparsify the r-step walk Laplacian D - D (D^-1 A)^r."""
    if r < 1:
        raise ValidationError("monomial degree must be >= 1")
    return sparsify_poly(G, PolyCoeffs.monomial(r), cfg, rng)
