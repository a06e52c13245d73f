"""Effective-resistance estimation, second-stage sparsification, and the
resistance query oracle for sparsified walk polynomials.

Small graphs get exact resistances from the dense pseudoinverse; larger ones
use a Johnson-Lindenstrauss sketch of the incidence operator solved against
the Laplacian with Jacobi-preconditioned conjugate gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, InputRefusedError, ValidationError
from .graph import DENSE_THRESHOLD, PolyCoeffs, WeightedGraph
from .oracle import exact_er_matrix
from .sampling import RngStream, _as_generator
from .sparsify import SparsifyConfig, _join_components, _split_components, sparsify_poly, stage_two_edge_budget


@dataclass
class ErEstimates:
    """Per-edge upper bounds Z(e) >= R(e), aligned with the graph's edges."""

    Z: np.ndarray
    method: str  # 'dense-exact' or 'sketch'
    inflation: float = 1.0


def _incidence_rows(G: WeightedGraph):
    m = G.m
    rows = np.repeat(np.arange(m), 2)
    cols = np.empty(2 * m, dtype=np.int64)
    cols[0::2] = G.edge_u
    cols[1::2] = G.edge_v
    vals = np.empty(2 * m)
    sw = np.sqrt(G.edge_w)
    vals[0::2] = sw
    vals[1::2] = -sw
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, G.n))


def _grounded_solve(G: WeightedGraph, rhs, rtol=1e-8):
    """Solve L x = rhs (rhs orthogonal to 1) by grounding vertex 0."""
    L = G.laplacian().tocsr()
    red = L[1:, 1:]
    diag = red.diagonal()
    precond = spla.LinearOperator(red.shape, matvec=lambda y: y / diag)
    out = np.zeros((rhs.shape[0], G.n))
    for i, b in enumerate(rhs):
        x, info = spla.cg(red, b[1:], rtol=rtol, atol=0.0, maxiter=20 * G.n, M=precond)
        if info != 0:
            res = float(np.linalg.norm(red @ x - b[1:]) / max(np.linalg.norm(b[1:]), 1e-300))
            raise ConvergenceError(
                f"conjugate gradient failed on sketch column {i} (info={info})", residual=res
            )
        out[i, 1:] = x
    return out


def _sketch_potentials(G: WeightedGraph, delta, rng, rtol=1e-8):
    """k x n matrix whose column differences approximate resistances."""
    gen = _as_generator(rng)
    k = int(math.ceil(24 * math.log(max(G.n, 2)) / delta**2))
    B = _incidence_rows(G)
    signs = gen.integers(0, 2, (k, G.m)) * 2 - 1
    Y = (signs / math.sqrt(k)) @ B
    return _grounded_solve(G, np.asarray(Y), rtol=rtol)


def estimate_er(H: WeightedGraph, delta=0.2, method=None, rng=None, rtol=1e-8) -> ErEstimates:
    """Per-edge effective-resistance upper bounds for an explicit graph.

    Dense pseudoinverse when n <= 512 (exact); otherwise a JL sketch whose
    estimates are inflated by (1 + delta)^2 to remain upper bounds w.h.p.
    """
    if not H.is_connected():
        raise InputRefusedError("effective-resistance estimation needs a connected graph")
    if method is None:
        method = "dense-exact" if H.n <= DENSE_THRESHOLD else "sketch"
    if method == "dense-exact":
        R = exact_er_matrix(H.laplacian_dense())
        return ErEstimates(Z=R[H.edge_u, H.edge_v].copy(), method=method)
    if method == "sketch":
        if rng is None:
            rng = RngStream(0, 0)
        pot = _sketch_potentials(H, delta, rng, rtol=rtol)
        diff = pot[:, H.edge_u] - pot[:, H.edge_v]
        est = np.sum(diff * diff, axis=0)
        infl = (1 + delta) ** 2
        return ErEstimates(Z=est * infl, method=method, inflation=infl)
    raise ValidationError(f"unknown method {method!r}")


def resparsify(H: WeightedGraph, eps, cfg: SparsifyConfig, rng) -> WeightedGraph:
    """Effective-resistance sparsification of an explicit graph at error eps.

    Returns H unchanged when it already meets the edge budget. A disconnected
    H (an even monomial of a bipartite graph has two components) is
    resparsified one component at a time.
    """
    budget = stage_two_edge_budget(H.n, eps, cfg)
    if H.m <= budget:
        return H
    if not H.is_connected():
        gen = _as_generator(rng)
        return _join_components(
            H.n, [(verts, resparsify(sub, eps, cfg, gen)) for verts, sub in _split_components(H)]
        )
    est = estimate_er(H, rng=rng)
    tau = H.edge_w * est.Z
    tau_total = float(tau.sum())
    M = int(math.ceil(cfg.oversample * math.log(max(H.n, 2)) / eps**2 * tau_total))
    gen = _as_generator(rng)
    counts = gen.multinomial(M, tau / tau_total)
    keep = counts > 0
    new_w = H.edge_w[keep] * (tau_total / (M * tau[keep])) * counts[keep]
    return WeightedGraph(H.n, H.edge_u[keep], H.edge_v[keep], new_w)


class ErOracle:
    """Approximate effective-resistance queries against a sparsified L_alpha.

    Queries satisfy R~ / R within e^eps (1 + delta) on both sides; the
    sketch is built at delta / 2 so the JL error stays inside that bracket.
    """

    def __init__(self, H: WeightedGraph, eps, delta, method, state):
        self.graph = H
        self.eps = eps
        self.delta = delta
        self.method = method
        self._state = state

    def query(self, u, v):
        n = self.graph.n
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"vertex pair ({u}, {v}) out of range")
        if u == v:
            return 0.0
        if self.method == "dense-exact":
            Lp = self._state
            return float(Lp[u, u] + Lp[v, v] - Lp[u, v] - Lp[v, u])
        pot = self._state
        d = pot[:, u] - pot[:, v]
        return float(d @ d)


def er_oracle_build(
    G: WeightedGraph,
    alpha: PolyCoeffs,
    eps,
    rng,
    delta=0.2,
    cfg: SparsifyConfig = None,
    method=None,
) -> ErOracle:
    """Sparsify L_alpha(G), then precompute resistance query state."""
    if cfg is None:
        cfg = SparsifyConfig(epsilon=eps)
    H = sparsify_poly(G, alpha, cfg, rng)
    if method is None:
        method = "dense-exact" if H.n <= DENSE_THRESHOLD else "sketch"
    if method == "dense-exact":
        state = np.linalg.pinv(H.laplacian_dense(), rcond=1e-12)
    else:
        sub = rng.split(77) if isinstance(rng, RngStream) else rng
        state = _sketch_potentials(H, delta / 2, sub)
    return ErOracle(H, eps, delta, method, state)


def er_query(oracle: ErOracle, u, v):
    return oracle.query(u, v)
