"""Effective resistances of a connected graph (ErOracle), read by stage
two's resparsify pass and by the query oracle of a sparsified L_alpha(G).

ErOracle makes the one choice of method: resistances are exact, from one
Cholesky factorization of the grounded Laplacian, unless n exceeds both
DENSE_THRESHOLD and the width k of the Johnson-Lindenstrauss sketch that
would replace it (Spielman & Srivastava, 2008). The sketch projects the
incidence operator and solves against the Laplacian by Jacobi-preconditioned
conjugate gradients. resparsify, the only split of a graph into components,
works one component at a time.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components

from .errors import ConvergenceError, InputRefusedError, ValidationError
from .graph import DENSE_THRESHOLD, PolyCoeffs, WeightedGraph
from .sampling import RngStream, _as_generator, substream
from .sparsify import SparsifyConfig, sparsify_poly, stage_two_edge_budget


# sign entries drawn per row block of the sketch (8 MB as int64)
SKETCH_BLOCK_ENTRIES = 1 << 20
# relative residual at which each sketch column's CG solve stops
CG_RTOL = 1e-8


@dataclass
class ErEstimates:
    """Per-edge upper bounds Z(e) >= R(e), aligned with the graph's edges."""

    Z: np.ndarray
    method: str  # 'dense-exact' or 'sketch'


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


def _grounded_solve(G: WeightedGraph, rhs):
    """Solve L x = rhs (rhs orthogonal to 1) by grounding vertex 0."""
    L = G.laplacian().tocsr()
    red = L[1:, 1:]
    diag = red.diagonal()
    precond = spla.LinearOperator(red.shape, matvec=lambda y: y / diag)
    out = np.zeros((rhs.shape[0], G.n))
    for i, b in enumerate(rhs):
        x, info = spla.cg(red, b[1:], rtol=CG_RTOL, atol=0.0, maxiter=20 * G.n, M=precond)
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


def _check_delta(delta):
    if not (0 < delta < math.inf):
        raise ValidationError(f"resistance error delta must be positive and finite, got {delta!r}")


def _default_method(n, delta):
    """Exact unless n exceeds both DENSE_THRESHOLD and the sketch width.

    At n <= k the sketch's k x n potentials hold at least as many entries as
    the n x n grounded inverse and take at least n solves.
    """
    return "dense-exact" if n <= max(DENSE_THRESHOLD, _sketch_width(n, delta)) else "sketch"


# get and set of the thread count of scipy's bundled OpenBLAS, the library
# lapack.dpotrf runs in; None where no library in scipy.libs exports both
_BLAS_THREADS = next((
    (lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads)
    for lib in map(ctypes.CDLL, glob.glob(os.path.join(os.path.dirname(scipy.__file__), os.pardir,
                                                       "scipy.libs", "libscipy_openblas*")))
    if all(hasattr(lib, f"scipy_openblas_{x}_num_threads") for x in ("get", "set"))), None)


@contextmanager
def _one_blas_thread():
    """Run the block with scipy's bundled OpenBLAS at one thread, then restore
    its count; where _BLAS_THREADS is None, leave the count alone."""
    if _BLAS_THREADS is None:
        yield
        return
    get, put = _BLAS_THREADS
    count = get()
    put(1)
    try:
        yield
    finally:
        put(count)


def _grounded_inverse(G: WeightedGraph):
    """n x n X holding L^-1 grounded at g = argmax(degree), zero in row and column g.

    Only the upper triangle is filled, so read X[a, b] with a <= b; then
    R(u, v) = X[u, u] + X[v, v] - 2 X[min(u, v), max(u, v)]. G must be
    connected, which makes the grounded Laplacian positive definite.
    Grounding at the heaviest vertex keeps the Cholesky pivots away from
    roundoff when edge weights span many orders of magnitude. The grounded
    Laplacian's upper triangle, all dpotrf reads, is set from the edges.
    dpotrf's and dpotri's bytes depend on the OpenBLAS thread count, so
    they run at one thread; where _BLAS_THREADS found no library (a
    scipy not installed from a wheel), the count is left alone and the
    bytes vary with it.
    """
    n, g = G.n, int(np.argmax(G.degree))
    away = (G.edge_u != g) & (G.edge_v != g)
    u, v = (x[away] - (x[away] > g) for x in (G.edge_u, G.edge_v))  # ids without g; u < v
    red = np.zeros((n - 1, n - 1), order="F")
    red[u, v] = -G.edge_w[away]
    np.fill_diagonal(red, np.delete(G.degree, g))
    with _one_blas_thread():
        chol, info = lapack.dpotrf(red, lower=0, clean=1, overwrite_a=1)
        if info == 0:
            chol, info = lapack.dpotri(chol, lower=0, overwrite_c=1)
    if info != 0:
        raise InputRefusedError(
            f"grounded Laplacian is not numerically positive definite (pivot {info}); "
            "edge weights span too many orders of magnitude for exact resistances"
        )
    X = np.zeros((n, n))
    X[:g, :g], X[:g, g + 1:] = chol[:g, :g], chol[:g, g:]
    X[g + 1:, :g], X[g + 1:, g + 1:] = chol[g:, :g], chol[g:, g:]
    return X


def _sketch_potentials(G: WeightedGraph, delta, rng):
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
    return _grounded_solve(G, Y)


class ErOracle:
    """Effective resistances of a connected graph H, from its grounded inverse
    or, if _default_method picks the sketch, within (1 + delta)^2 w.h.p."""

    def __init__(self, H: WeightedGraph, delta, rng=None):
        _check_delta(delta)
        if not H.is_connected():
            raise InputRefusedError("effective-resistance estimation needs a connected graph")
        self.graph = H
        self.method = _default_method(H.n, delta)
        if self.method == "dense-exact":
            self._state = _grounded_inverse(H)  # upper triangle filled
        else:
            self._state = _sketch_potentials(H, delta, rng if rng is not None else RngStream(0, 0))

    def resistances(self, u, v):
        """R(u, v) for vertex indices or index arrays with u <= v."""
        if self.method == "dense-exact":
            X = self._state
            return X[u, u] + X[v, v] - 2 * X[u, v]
        diff = self._state[:, u] - self._state[:, v]
        return np.sum(diff * diff, axis=0)

    def query(self, u, v):
        n = self.graph.n
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"vertex pair ({u}, {v}) out of range")
        return float(self.resistances(min(u, v), max(u, v)))


def estimate_er(H: WeightedGraph, delta=0.2, rng=None) -> ErEstimates:
    """Per-edge resistance upper bounds: ErOracle(H, delta, rng) on H's edges,
    sketched ones inflated by (1 + delta)^2 to remain upper bounds w.h.p."""
    oracle = ErOracle(H, delta, rng)
    Z = oracle.resistances(H.edge_u, H.edge_v)  # edge_u < edge_v
    if oracle.method == "sketch":
        Z = Z * (1 + delta) ** 2
    return ErEstimates(Z=Z, method=oracle.method)


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


def er_oracle_build(
    G: WeightedGraph,
    alpha: PolyCoeffs,
    eps,
    rng,
    delta=0.2,
    cfg: SparsifyConfig = None,
) -> ErOracle:
    """Sparsify L_alpha(G) at eps, then build the ErOracle of the sparsifier.

    cfg, if given, supplies every knob but epsilon. The oracle's sketch, if
    any, is built at delta / 2, so queries satisfy R~ / R within
    e^eps (1 + delta) on both sides. A disconnected G, or a disconnected
    sparsifier of a connected G, is refused, since resistances across its
    components are infinite.
    """
    _check_delta(delta)  # before the sparsifier is built, not after
    ncomp = connected_components(G.adjacency, directed=False)[0]
    if ncomp > 1:
        raise InputRefusedError(
            f"the input graph G is disconnected ({ncomp} components), so resistances "
            "between its components are infinite"
        )
    cfg = SparsifyConfig(epsilon=eps) if cfg is None else replace(cfg, epsilon=eps)
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
    return ErOracle(H, delta / 2, substream(rng, 77))
