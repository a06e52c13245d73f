"""Walk-polynomial sparsification for SDDM matrices D - A with slack.

M_alpha = D - sum_r alpha_r D (D^-1 A)^r is the graph polynomial L_alpha
with the SDDM diagonal D in place of A 1, so its off-diagonal part is
sparsified by sparsify.walk_graph with walks normalized by D; the sample
count follows their D-normalised mass, which shrinks as D grows. The excess
diagonal of the polynomial is computed exactly by sparse matrix-vector
products and returned alongside the sparsified graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import PolyCoeffs, SddmMatrix, WeightedGraph
from .sampling import SamplerIndex, graph_sampling  # noqa: F401 (bench/tracing.py wraps these names here)
from .sparsify import SparsifyConfig, walk_graph


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
    return SddmPolyResult(graph=walk_graph(G, M.diag, alpha, cfg, rng), extra=np.maximum(extra, 0.0))
