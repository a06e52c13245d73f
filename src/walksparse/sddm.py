"""Walk-polynomial sparsification for SDDM matrices D - A with slack.

The off-diagonal part sum_r alpha_r A (D^-1 A)^{r-1} is computed exactly
when its sparse-product chain is cheaper than the stage's walks. Otherwise
the off-diagonal graph is sampled with respect to its own degrees D_g;
the mismatch against the SDDM diagonal D is folded into each walk's target
weight as the per-interior-vertex ratio D_g(u) / D(u), which never exceeds
one. The excess diagonal of the polynomial is computed exactly by sparse
matrix-vector products and returned alongside the sampled graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sparsify
from .errors import InputRefusedError, ValidationError
from .graph import PolyCoeffs, SddmMatrix, WeightedGraph
from .sampling import RngStream, SamplerIndex, graph_sampling
from .sparsify import SparsifyConfig, _join_components, _mixture_draw, _split_components, stage_one_edge_budget


def extra_diagonal(M: SddmMatrix, alpha: PolyCoeffs) -> np.ndarray:
    """Row sums of the SDDM walk polynomial, diag(M_alpha 1), exactly.

    Uses t_{r+1} = A (D^-1 t_r) with t_1 = A 1, so only sparse matvecs of
    the off-diagonal part are needed.
    """
    D = M.diag
    A = M.offdiag.adjacency
    Dinv = np.where(D > 0, 1.0 / np.where(D > 0, D, 1.0), 0.0)
    out = D.astype(np.float64).copy()
    t = np.asarray(A @ np.ones(M.n)).ravel()
    for r, a_r in enumerate(alpha.alpha, start=1):
        if a_r:
            out -= a_r * t
        if r < alpha.d:
            t = np.asarray(A @ (Dinv * t)).ravel()
    return out


@dataclass
class SddmPolyResult:
    """Sparsified SDDM polynomial in split form L_H + diag(extra)."""

    graph: WeightedGraph
    extra: np.ndarray

    def dense(self):
        out = -self.graph.adjacency_dense()
        np.fill_diagonal(out, self.graph.degree + self.extra)
        return out

    def sddm(self) -> SddmMatrix:
        return SddmMatrix(self.graph.degree + np.maximum(self.extra, 0.0), self.graph)

    def matvec(self, x):
        g = self.graph
        return g.degree * x - g.adjacency @ x + self.extra * x


def sparsify_sddm(M: SddmMatrix, alpha: PolyCoeffs, cfg: SparsifyConfig, rng) -> SddmPolyResult:
    """Sparsifier of M_alpha = D - sum_r alpha_r D (D^-1 A)^r."""
    G = M.offdiag
    if G.m < 1:
        raise ValidationError("off-diagonal part has no edges")
    extra = extra_diagonal(M, alpha)
    if np.min(extra) < -1e-9 * np.max(M.diag):
        raise ValidationError("polynomial row sums went negative; input is not SDDM enough")

    if not G.is_connected():
        if not cfg.allow_disconnected:
            raise InputRefusedError(
                "off-diagonal graph is disconnected; sparsify components separately "
                "(pass allow_disconnected)"
            )
        parts = []
        for k, (verts, sub) in enumerate(_split_components(G)):
            rng_k = rng.split(2000 + k) if isinstance(rng, RngStream) else rng
            parts.append((verts, sparsify_sddm(SddmMatrix(M.diag[verts], sub), alpha, cfg, rng_k).graph))
        return SddmPolyResult(graph=_join_components(G.n, parts), extra=np.maximum(extra, 0.0))

    count = stage_one_edge_budget(alpha, G.m, G.n, cfg)
    H = sparsify.exact_walk_graph([G.adjacency] * alpha.d, M.diag, count, alpha.alpha)
    if H is None:
        aux = np.where(M.diag > 0, G.degree / M.diag, 0.0)
        draw, tau = _mixture_draw(SamplerIndex(G), alpha, aux=aux)
        H = graph_sampling(draw, tau, count, rng, G.n)
    if cfg.second_stage:
        from .resistance import resparsify

        H = resparsify(H, cfg.eps_stage_two, cfg, rng.split(1) if isinstance(rng, RngStream) else rng)
    return SddmPolyResult(graph=H, extra=np.maximum(extra, 0.0))
