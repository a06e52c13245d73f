"""Sparsification of random-walk matrix polynomials by path sampling.

Stage one builds an explicit graph whose Laplacian is within the stage-one
eps of L_alpha(G). It computes the polynomial's off-diagonal exactly, by a
chain of sparse products, when that chain costs at most the M multiply-adds
the stage would spend on its M walks (exact_walk_graph); otherwise it draws
M walks with masses tau_p = alpha_r w(p) Z(p) (walk lengths picked
proportionally to alpha_r * 2 r m so the estimator is unbiased) and
aggregates the endpoint edges. Stage two re-sparsifies the explicit result
down to the n log n budget using solver-estimated effective resistances.
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
from .sampling import PathBatch, RngStream, SamplerIndex, graph_sampling, sample_paths, total_mass

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


def stage_one_edge_budget(alpha: PolyCoeffs, m, n, cfg: SparsifyConfig):
    """Sample count M = ceil(c_s ln n / eps1^2 * sum_r alpha_r 2 r m)."""
    tau = sum(a * total_mass(r, m) for r, a in enumerate(alpha.alpha, start=1) if a > 0)
    return int(math.ceil(cfg.oversample * _log_n(n) / cfg.eps_stage_one**2 * tau))


def stage_two_edge_budget(n, eps, cfg: SparsifyConfig):
    return int(math.ceil(cfg.oversample * n * _log_n(n) / eps**2))


def exact_walk_graph(layers, D, M, alpha=None):
    """Off-diagonal of P = sum_j alpha_j L_1 D^-1 L_2 ... D^-1 L_j, or None.

    layers are CSR matrices; alpha defaults to the full product alone. The
    prefix chain X_j = X_{j-1} D^-1 L_j is formed one product at a time, each
    costing sum_k nnz(X[:, k]) nnz(L_j[k, :]) multiply-adds. Once their
    running total exceeds M, the number of walks the stage would draw, None
    is returned and the stage samples instead; up to M the chain is faster
    than the walks and holds no more entries than their accumulator. The
    result is the strictly upper triangle of (P + P^T) / 2, the graph whose
    expectation graph_sampling estimates.
    """
    weights = np.eye(len(layers))[-1] if alpha is None else np.asarray(alpha, dtype=np.float64)
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


def _mixture_draw(idx: SamplerIndex, alpha: PolyCoeffs, aux=None):
    """Draw callable mixing walk lengths proportionally to alpha_r 2 r m."""
    m = idx.graph.m
    lengths = np.array([r for r, a in enumerate(alpha.alpha, start=1) if a > 0])
    weights = np.array([alpha.alpha[r - 1] * total_mass(r, m) for r in lengths])
    probs = weights / weights.sum()

    def draw(count, gen):
        # alpha_r scales both the target weight and the sampling mass of a
        # length-r walk, so it cancels in graph_sampling and is left out
        batches = [
            sample_paths(idx, int(r), int(c), gen, aux=aux)
            for r, c in zip(lengths, gen.multinomial(count, probs))
            if c > 0
        ]
        cols = zip(*((b.u0, b.ur, b.weight, b.mass) for b in batches))
        return PathBatch(*(np.concatenate(col) for col in cols))

    return draw, float(weights.sum())


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


def sparsify_poly(G: WeightedGraph, alpha: PolyCoeffs, cfg: SparsifyConfig, rng) -> WeightedGraph:
    """Sparsifier H with L_H ~ L_alpha(G) within exp(+-epsilon) w.h.p."""
    if G.m < 1:
        raise ValidationError("graph has no edges")
    if not G.is_connected():
        if not cfg.allow_disconnected:
            raise InputRefusedError(
                "graph is disconnected; effective-resistance bounds need paths between "
                "sampled endpoints (pass allow_disconnected to process components separately)"
            )
        parts = []
        for k, (verts, sub) in enumerate(_split_components(G)):
            rng_k = rng.split(1000 + k) if isinstance(rng, RngStream) else rng
            parts.append((verts, sparsify_poly(sub, alpha, cfg, rng_k)))
        return _join_components(G.n, parts)

    M = stage_one_edge_budget(alpha, G.m, G.n, cfg)
    H = exact_walk_graph([G.adjacency] * alpha.d, G.degree, M, alpha.alpha)
    if H is None:
        draw, tau = _mixture_draw(SamplerIndex(G), alpha)
        H = graph_sampling(draw, tau, M, rng, G.n)
    if cfg.second_stage:
        from .resistance import resparsify

        H = resparsify(H, cfg.eps_stage_two, cfg, rng if not isinstance(rng, RngStream) else rng.split(1))
    return H


def sparsify_monomial(G: WeightedGraph, r, cfg: SparsifyConfig, rng) -> WeightedGraph:
    """Sparsify the r-step walk Laplacian D - D (D^-1 A)^r."""
    if r < 1:
        raise ValidationError("monomial degree must be >= 1")
    return sparsify_poly(G, PolyCoeffs.monomial(r), cfg, rng)
