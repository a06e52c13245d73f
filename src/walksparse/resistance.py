"""Effective resistances (ErOracle), read by stage two's resparsify pass and
by the query oracle of a sparsified L_alpha(G).

Every route grounds one vertex per connected component, the heaviest, so a
disconnected graph is handled whole: the grounded Laplacian is block
diagonal and positive definite, resistances within a component are those
of the component alone, and across components they are infinite.
ErOracle makes the one choice of method: resistances are exact, from one
Cholesky factorization of the grounded Laplacian, unless n exceeds both
DENSE_THRESHOLD and the width k of the Johnson-Lindenstrauss sketch that
would replace it (Spielman & Srivastava, 2008). The sketch projects the
incidence operator and solves against the Laplacian by Jacobi-preconditioned
conjugate gradients. resparsify samples every component in one pass.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import ConvergenceError, InputRefusedError, ValidationError
from .graph import DENSE_THRESHOLD, PolyCoeffs, WeightedGraph
from .sampling import RngStream, _as_generator, _check_stream
from .sparsify import SparsifyConfig, _sample_count, sparsify_poly, stage_two_edge_budget


# sign entries drawn per row block of the sketch (8 MB as int64)
SKETCH_BLOCK_ENTRIES = 1 << 20
# relative residual at which each sketch column's CG solve stops
CG_RTOL = 1e-8


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


def _grounds(G: WeightedGraph):
    """Mask of the heaviest vertex of each component, the first on a tie;
    for a connected G that is argmax(degree)."""
    label = G.components[1]
    order = np.lexsort((-G.degree, label))  # stable: ties stay in vertex order
    mask = np.zeros(G.n, bool)
    mask[order[np.unique(label[order], return_index=True)[1]]] = True
    return mask


def _grounded_solve(G: WeightedGraph, rhs):
    """Solve L x = rhs (each row of rhs sums to 0 on every component) with
    the _grounds vertices held at 0."""
    keep = ~_grounds(G)
    red = G.laplacian().tocsr()[keep][:, keep]
    diag = red.diagonal()
    precond = spla.LinearOperator(red.shape, matvec=lambda y: y / diag)
    out = np.zeros((rhs.shape[0], G.n))
    with _one_blas_thread():  # CG's dot products round differently at other thread counts
        for i, row in enumerate(rhs):
            b = row[keep]
            x, info = spla.cg(red, b, rtol=CG_RTOL, atol=0.0, maxiter=20 * G.n, M=precond)
            if info != 0:
                res = float(np.linalg.norm(red @ x - b) / max(np.linalg.norm(b), 1e-300))
                raise ConvergenceError(
                    f"conjugate gradient failed on sketch column {i} (info={info})", residual=res
                )
            out[i, keep] = x
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


# (get, set) of the thread count of each OpenBLAS bundled with numpy and
# scipy: numpy.linalg runs in numpy's, whose symbols end in 64_, and
# lapack.dpotrf in scipy's. A library that exports no such pair is left out.
_BLAS_THREADS = [
    (getattr(lib, f"scipy_openblas_get_num_threads{tag}"), getattr(lib, f"scipy_openblas_set_num_threads{tag}"))
    for pkg in (np, scipy)
    for lib in map(ctypes.CDLL, glob.glob(os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                                                       f"{pkg.__name__}.libs", "libscipy_openblas*")))
    for tag in ("", "64_")
    if all(hasattr(lib, f"scipy_openblas_{x}_num_threads{tag}") for x in ("get", "set"))]


@contextmanager
def _one_blas_thread():
    """Run the block with every library of _BLAS_THREADS at one thread, then
    restore their counts."""
    counts = [get() for get, _ in _BLAS_THREADS]
    for _, put in _BLAS_THREADS:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(_BLAS_THREADS, counts):
            put(count)


def _grounded_inverse(G: WeightedGraph):
    """(X, at): the inverse of L grounded at the _grounds vertices, and the
    index of each vertex in it.

    The k vertices left keep their order in 0..k-1; every grounded vertex
    reads index k. X is k * k + 1 doubles: the upper triangle of the k x k
    inverse in column-major order, then a zero. For lo <= hi, entry (lo, hi)
    is X[lo + hi * k], or the zero once hi = k, and R(u, v) = (lo, lo) +
    (hi, hi) - 2 (lo, hi) within a component. One ground per component
    makes the grounded Laplacian positive definite; the heaviest keeps the
    Cholesky pivots away from roundoff when edge weights span many orders of
    magnitude. Its upper triangle, all dpotrf reads, is set from the edges
    and overwritten in place; a graph with no edges has k = 0 and calls no
    LAPACK. dpotrf's and dpotri's bytes depend on the OpenBLAS thread count,
    so they run at one thread; where _BLAS_THREADS holds no scipy library (a
    scipy not installed from a wheel), the count is left alone and the
    bytes vary with it.
    """
    keep = ~_grounds(G)
    k = int(keep.sum())
    at = np.cumsum(keep) - 1
    at[~keep] = k
    away = keep[G.edge_u] & keep[G.edge_v]
    X = np.zeros(k * k + 1)
    red = X[: k * k].reshape(k, k, order="F")  # a view: LAPACK writes into X
    red[at[G.edge_u[away]], at[G.edge_v[away]]] = -G.edge_w[away]
    np.fill_diagonal(red, G.degree[keep])
    if k:
        with _one_blas_thread():
            chol, info = lapack.dpotrf(red, lower=0, clean=1, overwrite_a=1)
            if info == 0:
                chol, info = lapack.dpotri(chol, lower=0, overwrite_c=1)
        if info != 0:
            raise InputRefusedError(
                f"grounded Laplacian is not numerically positive definite (pivot {info}); "
                "edge weights span too many orders of magnitude for exact resistances"
            )
    return X, at


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
    """Effective resistances of a graph H, from its grounded inverse or, if
    _default_method picks the sketch, within (1 + delta)^2 w.h.p.; infinite
    between components."""

    def __init__(self, H: WeightedGraph, delta, rng=None):
        _check_delta(delta)
        self.graph = H
        self.method = _default_method(H.n, delta)
        if self.method == "dense-exact":
            self._state, at = _grounded_inverse(H)
            self._k = math.isqrt(len(self._state) - 1)
        else:
            self._state = _sketch_potentials(H, delta, rng if rng is not None else RngStream(0))
            at = np.arange(H.n)
        # a query reads Python lists: numpy scalar lookups cost more than its arithmetic
        self._at, self._rows, self._label = at, at.tolist(), H.components[1].tolist()

    def _resistances(self, a, b):
        if self.method == "dense-exact":
            X, k = self._state, self._k  # index k, a ground, reads the zero X[k * k]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            return X[np.minimum(a * (k + 1), k * k)] + X[np.minimum(b * (k + 1), k * k)] \
                - 2 * X[np.minimum(lo + hi * k, k * k)]
        diff = self._state[:, a] - self._state[:, b]
        return np.sum(diff * diff, axis=0)

    def resistances(self, u, v):
        """R(u, v) for index arrays u, v whose pairs share a component."""
        return self._resistances(self._at[u], self._at[v])

    def query(self, u, v):
        n = self.graph.n
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"vertex pair ({u}, {v}) out of range")
        if self._label[u] != self._label[v]:
            return math.inf
        a, b = self._rows[u], self._rows[v]
        if self.method == "dense-exact":
            X, k = self._state, self._k
            a, b = (a, b) if a < b else (b, a)
            if b == k:
                return X.item(a * (k + 1)) if a < k else 0.0  # a = k: u = v, a ground
            return X.item(a * (k + 1)) + X.item(b * (k + 1)) - 2 * X.item(a + b * k)
        return float(self._resistances(a, b))


def estimate_er(H: WeightedGraph, delta=0.2, rng=None) -> np.ndarray:
    """Per-edge upper bounds Z(e) >= R(e): ErOracle(H, delta, rng) on H's edges,
    sketched ones inflated by (1 + delta)^2 to remain upper bounds w.h.p."""
    oracle = ErOracle(H, delta, rng)
    Z = oracle.resistances(H.edge_u, H.edge_v)  # edge_u < edge_v
    if oracle.method == "sketch":
        Z = Z * (1 + delta) ** 2
    return Z


def resparsify(H: WeightedGraph, eps, cfg: SparsifyConfig, rng) -> WeightedGraph:
    """Effective-resistance sparsification of an explicit graph at error eps.

    Returns H unchanged when it already meets the edge budget. A disconnected
    H (an even monomial of a bipartite graph has two components) is sampled
    whole: its resistances are those of its components.
    """
    budget = stage_two_edge_budget(H.n, eps, cfg)
    if H.m <= budget:
        return H
    gen = _as_generator(rng)  # one generator: the samples follow the sketch's signs, never reuse them
    tau = H.edge_w * estimate_er(H, rng=gen)
    tau_total = float(tau.sum())
    M = _sample_count(H.n, eps, tau_total, cfg)
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
    """Sparsify L_alpha(G) at eps on rng.split(0), then build the ErOracle of
    the sparsifier on rng.split(1).

    cfg, if given, supplies every knob but epsilon. The oracle's sketch, if
    any, is built at delta / 2, so queries satisfy R~ / R within
    e^eps (1 + delta) on both sides. A disconnected G is taken whole, and
    queries across the components of L_alpha(G) answer inf: with no odd
    alpha_r > 0, walks keep to one side of a bipartite component, so its
    sides answer inf too. A sparsifier with more components than L_alpha(G)
    is refused, since it would answer inf within one of them.
    """
    _check_delta(delta)  # before the sparsifier is built, not after
    _check_stream(rng)
    cfg = SparsifyConfig(epsilon=eps) if cfg is None else replace(cfg, epsilon=eps)
    H = sparsify_poly(G, alpha, cfg, rng.split(0))
    ncomp, want = H.components[0], G.components[0]
    if not np.any(alpha.alpha[::2] > 0):
        # even walks link u and v iff the bipartite double cover links u and v + n;
        # an isolated vertex of G is one component of L_alpha(G), not two
        cover = WeightedGraph(2 * G.n, np.r_[G.edge_u, G.edge_v], np.r_[G.edge_v, G.edge_u] + G.n,
                              np.r_[G.edge_w, G.edge_w])
        want = cover.components[0] - int(np.count_nonzero(G.degree == 0))
    if ncomp > want:
        isolated = int(np.count_nonzero((H.degree == 0) & (G.degree > 0)))
        stage = "stage-2" if cfg.second_stage else "stage-1"
        raise InputRefusedError(
            f"the {stage} sparsifier of L_alpha(G) is disconnected ({ncomp} components against "
            f"L_alpha(G)'s {want}, {isolated} isolated vertices that have edges in G), so it answers "
            "inf within a component of L_alpha(G); a larger oversample constant keeps more edges"
        )
    return ErOracle(H, delta / 2, rng.split(1))
