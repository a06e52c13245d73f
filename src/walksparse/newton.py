"""Inverse square-root factor chains and q-th-root reduction.

The identity M^-1 = (I + 1/2 D^-1 A) M_1^-1 (I + 1/2 A D^-1) with
M_1 = D - 3/4 D(D^-1 A)^2 - 1/4 D(D^-1 A)^3 turns one inverse into another
whose walk ratio is roughly squared. Iterating until the spectral radius of
D^-1 A falls below a threshold yields C = F_0 ... F_{K-1} D_K^{-1/2} with
C C^T close to M^-1; each intermediate cubic polynomial is sparsified as an
SDDM walk polynomial. The q-th-root analogue expands
(I + X/2q)^{2q} (I - X) into coefficient form by binomial convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import comb

from .errors import ConvergenceError, ValidationError
from .graph import PolyCoeffs, SddmMatrix, WeightedGraph
from .sampling import RngStream, _as_generator, substream
from .sddm import sparsify_sddm
from .sparsify import SparsifyConfig

NEWTON_ALPHA = PolyCoeffs(np.array([0.0, 0.75, 0.25]))
RHO_THRESHOLD = 0.1


@dataclass(frozen=True)
class AffineFactor:
    """The operator I + 1/2 D^-1 A for one Newton step."""

    diag: np.ndarray
    graph: WeightedGraph

    def apply(self, x):
        return x + 0.5 * (self.graph.adjacency @ x) / self.diag

    def apply_t(self, x):
        return x + 0.5 * (self.graph.adjacency @ (x / self.diag))

    def dense(self):
        return np.eye(len(self.diag)) + 0.5 * self.graph.adjacency_dense() / self.diag[:, None]


@dataclass
class FactorChain:
    """C = F_0 ... F_{K-1} diag(terminal)^{-1/2}, with C C^T close to M^-1."""

    factors: list = field(default_factory=list)
    terminal_diag: np.ndarray = None
    eps_bound: float = 0.0
    q: int = 1
    rho_history: list = field(default_factory=list)

    def __len__(self):
        return len(self.factors)

    def apply(self, x):
        y = np.asarray(x, dtype=np.float64) / np.sqrt(self.terminal_diag)
        for f in reversed(self.factors):
            y = f.apply(y)
        return y

    def apply_t(self, x):
        y = np.asarray(x, dtype=np.float64)
        for f in self.factors:
            y = f.apply_t(y)
        return y / np.sqrt(self.terminal_diag)

    def dense(self):
        n = len(self.terminal_diag)
        C = np.diag(1.0 / np.sqrt(self.terminal_diag))
        for f in reversed(self.factors):
            C = f.dense() @ C
        return C

    def bracket(self, M: SddmMatrix):
        """Eigenvalue range of C^T M C (dense; certifies C C^T vs M^-1)."""
        C = self.dense()
        S = C.T @ M.dense() @ C
        vals = np.linalg.eigvalsh(0.5 * (S + S.T))
        return float(vals.min()), float(vals.max())


def spectral_radius(M: SddmMatrix, iters=200, rng=None):
    """Power-method estimate of rho(D^-1 A) via X = D^-1/2 A D^-1/2."""
    if M.offdiag.m == 0:
        return 0.0
    gen = _as_generator(rng if rng is not None else RngStream(17, 0))
    isq = 1.0 / np.sqrt(M.diag)
    A = M.offdiag.adjacency
    x = gen.standard_normal(M.n)
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = isq * (A @ (isq * x))
        nrm = np.linalg.norm(y)
        if nrm == 0:
            return 0.0
        lam = nrm
        x = y / nrm
    return float(lam)


def newton_sqrt_step(M: SddmMatrix, eps, cfg: SparsifyConfig, rng):
    """One Newton reduction: factor (I + 1/2 D^-1 A) and the sparsified
    cubic polynomial D - 3/4 D(D^-1 A)^2 - 1/4 D(D^-1 A)^3."""
    factor = AffineFactor(diag=M.diag, graph=M.offdiag)
    if M.offdiag.m == 0:
        return factor, SddmMatrix(M.diag, M.offdiag, tol=math.inf)
    res = sparsify_sddm(M, NEWTON_ALPHA, replace(cfg, epsilon=eps), rng)
    return factor, res.sddm()


def dense_newton_step(M: SddmMatrix):
    """Exact cubic step for convergence studies (no sparsification)."""
    from .oracle import dense_poly

    factor = AffineFactor(diag=M.diag, graph=M.offdiag)
    nxt = SddmMatrix.from_dense(dense_poly(M, NEWTON_ALPHA))
    return factor, nxt


def inv_sqrt_chain(
    M: SddmMatrix,
    eps_total,
    max_iters=40,
    cfg: SparsifyConfig = None,
    rng=None,
    dense=False,
) -> FactorChain:
    """Build C with C C^T close to M^-1 within the requested budget.

    Iterates cubic reduction steps until the walk ratio rho(D^-1 A) drops
    below min(0.1, eps_total/2), then terminates with the diagonal. Half of
    eps_total pays for the terminal truncation, half is split evenly across
    the sparsified steps.
    """
    if rng is None:
        rng = RngStream(0)
    if eps_total <= 0:
        raise ValidationError("eps_total must be positive")
    threshold = min(RHO_THRESHOLD, eps_total / 2)

    rho = spectral_radius(M)
    if rho >= 1:
        raise ValidationError("splitting has walk ratio >= 1; input is not positive definite")
    # Predicted iteration count from the scalar recurrence rho' = (3r^2+r^3)/4.
    k_est, r = 0, rho
    while r >= threshold and k_est < max_iters:
        r = (3 * r**2 + r**3) / 4
        k_est += 1
    eps_step = (eps_total / 2) / max(k_est, 1)
    if cfg is None:
        cfg = SparsifyConfig(epsilon=min(eps_step, 1.0) if eps_step > 0 else 0.5)

    chain = FactorChain(q=1)
    cur = M
    for k in range(max_iters):
        rho = spectral_radius(cur)
        chain.rho_history.append(rho)
        if rho < threshold:
            chain.terminal_diag = cur.diag.copy()
            chain.eps_bound = min(1.0, len(chain.factors) * eps_step * (0 if dense else 1) + rho)
            return chain
        sub = substream(rng, 300 + k)
        if dense:
            factor, cur = dense_newton_step(cur)
        else:
            factor, cur = newton_sqrt_step(cur, eps_step, cfg, sub)
        chain.factors.append(factor)
    raise ConvergenceError(
        f"inverse-sqrt chain did not reach walk ratio {threshold:.3g} in {max_iters} steps",
        residual=rho,
    )


def qth_root_coefficients(q) -> PolyCoeffs:
    """PolyCoeffs of the middle polynomial I - sum_r alpha_r X^r where
    (I + X/2q)^{2q} (I - X) = I - poly(X), by binomial convolution."""
    if q < 1:
        raise ValidationError("root order q must be a positive integer")
    t = 2 * q
    # alpha_r = C(t, r-1)/t^(r-1) - C(t, r)/t^r for r = 1..t+1
    alpha = np.array(
        [comb(t, r - 1, exact=True) / t ** (r - 1) - comb(t, r, exact=True) / t**r
         for r in range(1, t + 2)],
        dtype=np.float64,
    )
    if np.any(alpha < -1e-12):
        raise ValidationError(
            f"q={q}: middle polynomial has a negative coefficient; step refused"
        )
    return PolyCoeffs(np.maximum(alpha, 0.0))


def middle_poly_value(q, x):
    """Scalar evaluation (1 + x/2q)^{2q} (1 - x) of the middle polynomial."""
    return (1.0 + x / (2 * q)) ** (2 * q) * (1.0 - x)


def qth_root_reduce_step(M: SddmMatrix, q):
    """Outer factors (I + 1/2q D^-1 A) and the reduced polynomial spec.

    The middle (2q+1)-degree polynomial is returned in coefficient form for
    sparsification; q = 1 reproduces the cubic (0, 3/4, 1/4).
    """
    alpha = qth_root_coefficients(q)
    # AffineFactor applies I + 1/2 diag^-1 A; diag = qD makes that I + X/2q.
    qfactor = AffineFactor(diag=M.diag * float(q), graph=M.offdiag)
    return (qfactor, qfactor), alpha
