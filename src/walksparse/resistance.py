"""Effective-resistance estimation, second-stage sparsification, and the
resistance query oracle for sparsified walk polynomials.

Resistances are exact, from one Cholesky factorization of the grounded
Laplacian, unless n exceeds both DENSE_THRESHOLD and the width k of the
Johnson-Lindenstrauss sketch that would replace it: below that, the
sketch's k x n potentials cost at least n solves and as much memory. The
sketch projects the incidence operator and solves against the Laplacian
with Jacobi-preconditioned conjugate gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components

from .errors import ConvergenceError, InputRefusedError, ValidationError
from .graph import DENSE_THRESHOLD, PolyCoeffs, WeightedGraph
from .sampling import RngStream, _as_generator, substream
from .sparsify import SparsifyConfig, _join_components, _split_components, sparsify_poly, stage_two_edge_budget


# sign entries drawn per row block of the sketch (8 MB as int64)
SKETCH_BLOCK_ENTRIES = 1 << 20


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


def _sketch_width(n, delta):
    """JL width k = ceil(24 ln n / delta^2) of the sketch at error delta."""
    return int(math.ceil(24 * math.log(max(n, 2)) / delta**2))


def _default_method(n, delta):
    """Exact unless n exceeds both DENSE_THRESHOLD and the sketch width.

    At n <= k the sketch's k x n potentials hold at least as many entries as
    the n x n grounded inverse and take at least n solves.
    """
    return "dense-exact" if n <= max(DENSE_THRESHOLD, _sketch_width(n, delta)) else "sketch"


def _grounded_inverse(G: WeightedGraph):
    """n x n X holding L^-1 grounded at g = argmax(degree), zero in row and column g.

    Only the upper triangle is filled, so read X[a, b] with a <= b; then
    R(u, v) = X[u, u] + X[v, v] - 2 X[min(u, v), max(u, v)]. G must be
    connected, which makes the grounded Laplacian positive definite.
    Grounding at the heaviest vertex keeps the Cholesky pivots away from
    roundoff when edge weights span many orders of magnitude.
    """
    keep = np.arange(G.n) != np.argmax(G.degree)
    red = G.laplacian().tocsr()[keep][:, keep].toarray(order="F")
    chol, info = lapack.dpotrf(red, lower=0, clean=1, overwrite_a=1)
    if info == 0:
        chol, info = lapack.dpotri(chol, lower=0, overwrite_c=1)
    if info != 0:
        raise InputRefusedError(
            f"grounded Laplacian is not numerically positive definite (pivot {info}); "
            "edge weights span too many orders of magnitude for exact resistances"
        )
    X = np.zeros((G.n, G.n))
    X[np.ix_(keep, keep)] = chol
    return X


def _sketch_potentials(G: WeightedGraph, delta, rng, rtol=1e-8):
    """k x n matrix whose column differences approximate resistances.

    Y = S B is accumulated from row blocks of the k x m sign matrix S; the
    blocks draw the same stream as one k x m draw would.
    """
    gen = _as_generator(rng)
    k = _sketch_width(G.n, delta)
    B = _incidence_rows(G)
    Y = np.empty((k, G.n))
    rows = max(1, SKETCH_BLOCK_ENTRIES // max(G.m, 1))
    for i in range(0, k, rows):
        signs = gen.integers(0, 2, (min(rows, k - i), G.m)) * 2 - 1
        Y[i:i + len(signs)] = (signs / math.sqrt(k)) @ B
    return _grounded_solve(G, Y, rtol=rtol)


def estimate_er(H: WeightedGraph, delta=0.2, method=None, rng=None, rtol=1e-8) -> ErEstimates:
    """Per-edge effective-resistance upper bounds for an explicit graph.

    Exact from the grounded Cholesky inverse unless n exceeds both
    DENSE_THRESHOLD and the sketch width k = ceil(24 ln n / delta^2); then a
    JL sketch whose estimates are inflated by (1 + delta)^2 to remain upper
    bounds w.h.p. method='sketch' or 'dense-exact' overrides the choice.
    """
    if not H.is_connected():
        raise InputRefusedError("effective-resistance estimation needs a connected graph")
    if method is None:
        method = _default_method(H.n, delta)
    if method == "dense-exact":
        X = _grounded_inverse(H)
        d = np.diagonal(X)
        # edge_u < edge_v, so X[edge_u, edge_v] lies in the filled triangle
        return ErEstimates(Z=d[H.edge_u] + d[H.edge_v] - 2 * X[H.edge_u, H.edge_v], method=method)
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
            X = self._state  # upper triangle of the grounded inverse
            a, b = min(u, v), max(u, v)
            return float(X[a, a] + X[b, b] - 2 * X[a, b])
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
    """Sparsify L_alpha(G), then precompute resistance query state.

    The query state is the grounded inverse, or the potentials of a sketch
    at delta / 2, chosen as in estimate_er. A disconnected sparsifier is
    refused, since resistances across its components are infinite.
    """
    if cfg is None:
        cfg = SparsifyConfig(epsilon=eps)
    H = sparsify_poly(G, alpha, cfg, rng)
    ncomp = connected_components(H.adjacency, directed=False)[0]
    if ncomp > 1:
        isolated = int(np.count_nonzero(H.degree == 0))
        stage = "stage-2" if cfg.second_stage else "stage-1"
        raise InputRefusedError(
            f"the {stage} sparsifier of L_alpha(G) is disconnected ({ncomp} components, "
            f"{isolated} isolated vertices), so resistances across components are infinite; "
            "a larger oversample constant keeps more edges"
        )
    if method is None:
        method = _default_method(H.n, delta / 2)
    if method == "dense-exact":
        state = _grounded_inverse(H)
    else:
        sub = substream(rng, 77)
        state = _sketch_potentials(H, delta / 2, sub)
    return ErOracle(H, eps, delta, method, state)

