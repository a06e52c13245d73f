"""Dense references that only the tests use."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from walksparse.errors import ValidationError
from walksparse.graph import DENSE_THRESHOLD, WeightedGraph
from walksparse.oracle import dense_monomial, generalized_eigenvalues


def exact_resistances(G: WeightedGraph):
    """All-pairs resistances of a connected G from the dense inverse of its
    Laplacian grounded at vertex 0, out of the sketched fixture's reach and
    of ErOracle's code. For a dense_poly target L, pass
    WeightedGraph.from_dense(-L)."""
    X = np.zeros((G.n, G.n))
    X[1:, 1:] = np.linalg.inv(G.laplacian_dense()[1:, 1:])
    d = np.diag(X)
    return d[:, None] + d[None, :] - 2 * X


def csr_walk_graph(layers, D, alpha):
    """exact_walk_graph with every product of the chain in CSR and no M cap.

    Returns the graph and the multiply-add count of each product,
    sum_k nnz(X[:, k]) nnz(L_j[k, :]), in chain order."""
    weights = np.asarray(alpha, dtype=np.float64)
    layers = layers[: np.flatnonzero(weights)[-1] + 1]
    n = len(D)
    X = layers[0]
    P = weights[0] * X
    counts = []
    for L, a in zip(layers[1:], weights[1:]):
        counts.append(int(np.bincount(X.indices, minlength=n) @ np.diff(L.indptr)))
        X = sp.csr_matrix((X.data / D[X.indices], X.indices, X.indptr), shape=X.shape) @ L
        if a:
            P = P + a * X
    P = sp.triu(P + P.T, k=1).tocoo()
    w = 0.5 * P.data
    keep = w > 0
    return WeightedGraph(n, P.row[keep], P.col[keep], w[keep]), counts


def middle_poly_value(q, x):
    """Scalar evaluation (1 + x/2q)^{2q} (1 - x) of the middle polynomial."""
    return (1.0 + x / (2 * q)) ** (2 * q) * (1.0 - x)


@dataclass
class SupportReport:
    """Pencil eigenvalue range vs the bracket [lower, upper] it must sit in."""

    lambda_min: float
    lambda_max: float
    lower: float
    upper: float
    tol: float

    @property
    def passed(self):
        return self.lambda_min >= self.lower - self.tol and self.lambda_max <= self.upper + self.tol


def support_check(G: WeightedGraph, r, tol=1e-9, threshold=DENSE_THRESHOLD):
    """Certify the parity support bracket of the r-step walk Laplacian:
    [1/2, r] against L_G for odd r, [1, r/2] against L_{G_2} for even r."""
    if G.n > threshold:
        raise ValidationError(f"dense oracle limited to n <= {threshold}")
    Lr = dense_monomial(G, r)
    if r % 2 == 1:
        base = G.laplacian_dense()
        lo, hi = 0.5, float(r)
    else:
        base = dense_monomial(G, 2)
        lo, hi = 1.0, r / 2.0
    vals, _ = generalized_eigenvalues(Lr, base)
    if len(vals) == 0:
        lam_min, lam_max = lo, lo
    else:
        lam_min, lam_max = float(vals.min()), float(vals.max())
    return SupportReport(lam_min, lam_max, lo, hi, tol)




def canonical_path_masses(paths):
    """Aggregate directed walks into canonical (direction-free) walks.

    Returns dict mapping canonical vertex tuple -> mass, where palindromic
    walks carry half their directed mass so the totals sum to 2 r m.
    """
    masses = {}
    for p in paths:
        key = min(p.vertices, p.vertices[::-1])
        masses[key] = masses.get(key, 0.0) + 0.5 * p.mass
    return masses


def scalar_inequality_suite(grid_points=10**4, max_r=64):
    """Scalar support inequalities on a lambda grid; returns True iff clean.

    Checks, for lambda in (-1, 1):
      0.5 (1 - x) <= 1 - x^(2r+1) <= (2r+1)(1 - x)
      (1 - x^2)   <= 1 - x^(2r)   <= r (1 - x^2)
      1 - x^(4r+2) <= (1 + 1/(2r)) (1 - x^(4r))
    """
    lam = np.linspace(-1.0, 1.0, grid_points + 2)[1:-1]
    tol = 1e-12
    for r in range(1, max_r + 1):
        odd = 1.0 - lam ** (2 * r + 1)
        if np.any(odd < 0.5 * (1 - lam) - tol) or np.any(odd > (2 * r + 1) * (1 - lam) + tol):
            return False
        even = 1.0 - lam ** (2 * r)
        if np.any(even < (1 - lam**2) - tol) or np.any(even > r * (1 - lam**2) + tol):
            return False
        slacked = 1.0 - lam ** (4 * r + 2)
        base = 1.0 - lam ** (4 * r)
        if np.any(slacked < base - tol) or np.any(slacked > (1 + 1 / (2 * r)) * base + tol):
            return False
    return True
