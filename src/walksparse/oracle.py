"""Brute-force ground truth: dense polynomial evaluation, spectral similarity
certification, and exhaustive walk enumeration.

Everything here is dense and intended for small instances (n <= 512).
Exact effective resistances come from ErOracle (resistance.py), whose
grounded dense inverse is the one exact method in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import DENSE_THRESHOLD, PolyCoeffs, SddmMatrix, WeightedGraph

RANK_RTOL = 1e-9


def dense_poly(G, alpha: PolyCoeffs, threshold=DENSE_THRESHOLD):
    """Exact D - sum_r alpha_r D (D^-1 A)^r as a dense matrix.

    Accepts a WeightedGraph or an SddmMatrix (whose diagonal replaces D).
    """
    if G.n > threshold:
        raise ValidationError(f"dense oracle limited to n <= {threshold}")
    if isinstance(G, SddmMatrix):
        D, A = G.diag, G.offdiag.adjacency_dense()
    else:
        D, A = G.degree, G.adjacency_dense()
    Dinv = np.where(D > 0, 1.0 / np.where(D > 0, D, 1.0), 0.0)
    out = np.diag(D).astype(np.float64)
    walk = A.copy()  # walk = D (D^-1 A)^r, starting at r = 1
    for r, a_r in enumerate(alpha.alpha, start=1):
        if a_r:
            out -= a_r * walk
        if r < alpha.d:
            walk = walk * Dinv[np.newaxis, :] @ A
    return out


def dense_monomial(G, r):
    return dense_poly(G, PolyCoeffs.monomial(r))


@dataclass
class SimilarityReport:
    """Extremal generalized eigenvalues of (X, Y) on the shared range space."""

    lambda_min: float
    lambda_max: float
    eps_required: float
    eps_target: float
    kernel_mismatch: bool

    @property
    def passed(self):
        # absolute slack so eps_target = 0 accepts X == Y up to roundoff
        return (not self.kernel_mismatch) and self.eps_required <= self.eps_target + 1e-9

    def as_kv(self):
        return (
            f"pass={str(self.passed).lower()} eps_required={self.eps_required:.6g} "
            f"eps_target={self.eps_target:.6g} lambda_min={self.lambda_min:.12g} "
            f"lambda_max={self.lambda_max:.12g} kernel_mismatch={str(self.kernel_mismatch).lower()}"
        )


def generalized_eigenvalues(X, Y):
    """Eigenvalues of the pencil (X, Y) restricted to Y's range space.

    Returns (eigenvalues, kernel_mismatch). The pencil is whitened through
    Y's rank-revealing eigendecomposition; both inputs are symmetrized first.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape != Y.shape or X.shape[0] != X.shape[1]:
        raise ValidationError("inputs must be square matrices of equal shape")
    if not np.allclose(X, X.T, atol=1e-8 * max(1.0, np.abs(X).max())):
        raise ValidationError("X is not symmetric")
    if not np.allclose(Y, Y.T, atol=1e-8 * max(1.0, np.abs(Y).max())):
        raise ValidationError("Y is not symmetric")
    X = 0.5 * (X + X.T)
    Y = 0.5 * (Y + Y.T)
    wy, Vy = np.linalg.eigh(Y)
    cut = RANK_RTOL * max(np.abs(wy).max(), 1e-300)
    rng_mask = wy > cut
    mismatch = False
    if np.any(wy < -cut):
        mismatch = True  # Y not PSD; treat as failure
    ker = Vy[:, ~rng_mask]
    if ker.shape[1]:
        xnorm = max(np.abs(X).max(), 1e-300)
        if np.max(np.abs(X @ ker)) > 1e-6 * xnorm:
            mismatch = True
    wx = np.linalg.eigvalsh(X)
    rank_x = int(np.sum(wx > RANK_RTOL * max(np.abs(wx).max(), 1e-300)))
    if rank_x != int(rng_mask.sum()):
        mismatch = True
    if not np.any(rng_mask):
        return np.array([]), mismatch
    Vr = Vy[:, rng_mask]
    half = Vr / np.sqrt(wy[rng_mask])[np.newaxis, :]
    T = half.T @ X @ half
    vals = np.linalg.eigvalsh(0.5 * (T + T.T))
    return vals, mismatch


def similarity_check(X, Y, eps):
    """Certify X ~ Y within exp(+-eps) on the common range space."""
    vals, mismatch = generalized_eigenvalues(X, Y)
    if len(vals) == 0:
        lam_min = lam_max = 1.0
    else:
        lam_min = float(vals.min())
        lam_max = float(vals.max())
    if lam_min <= 0:
        eps_req = math.inf
    else:
        eps_req = max(abs(math.log(lam_min)), abs(math.log(lam_max)))
    return SimilarityReport(
        lambda_min=lam_min,
        lambda_max=lam_max,
        eps_required=eps_req,
        eps_target=float(eps),
        kernel_mismatch=mismatch,
    )


@dataclass(frozen=True)
class EnumeratedPath:
    vertices: tuple
    weight: float
    resistance_bound: float

    @property
    def mass(self):
        return self.weight * self.resistance_bound

    @property
    def closed(self):
        return self.vertices[0] == self.vertices[-1]


def enumerate_paths(G: WeightedGraph, r):
    """All directed length-r walks with exact w(p) and Z(p).

    Each walk appears once per direction; a walk and its reversal describe
    the same multi-edge, so aggregate masses halve non-palindromic pairs.
    """
    if G.n > 8 or r > 5:
        raise ValidationError("enumeration guarded at n <= 8, r <= 5")
    if r < 1:
        raise ValidationError("walk length must be >= 1")
    A = G.adjacency
    indptr, indices, data = A.indptr, A.indices, A.data
    D = G.degree
    out = []
    stack = [((u,), 1.0, 0.0) for u in range(G.n)]
    while stack:
        verts, wnum, z = stack.pop()
        u = verts[-1]
        depth = len(verts) - 1
        if depth == r:
            out.append(EnumeratedPath(verts, wnum, z))
            continue
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            a = data[k]
            w_next = wnum * a
            if depth + 1 < r:
                w_next /= D[v]  # v is interior
            stack.append((verts + (v,), w_next, z + 2.0 / a))
    return out


def total_enumerated_mass(paths):
    """Sum of w(p) Z(p) over direction-identified walks; equals 2 r m."""
    return 0.5 * sum(p.mass for p in paths)
