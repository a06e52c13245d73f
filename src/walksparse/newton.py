"""Inverse square-root factor chains and the q-th-root middle polynomial.

The identity M^-1 = (I + 1/2 D^-1 A) M_1^-1 (I + 1/2 A D^-1) with
M_1 = D - 3/4 D(D^-1 A)^2 - 1/4 D(D^-1 A)^3 turns one inverse into another
whose walk ratio is roughly squared. Iterating until the spectral radius of
D^-1 A falls below a threshold yields C = F_0 ... F_{K-1} D_K^{-1/2} with
C C^T close to M^-1. Each step's cubic goes through sparsify_sddm, whose
stage one forms it exactly whenever the chain of products costs at most the
walks. The walk ratio rho is exact to rounding at n <= DENSE_THRESHOLD and an
upper bound above it (a Collatz-Wielandt bound, from the Lanczos vector or,
where that bound is not below 1, from inverse iteration, which stays below 1
on every positive definite input): the stop test rho < threshold and the
eps_bound += rho charge for the terminal truncation both need a value that
does not read low. qth_root_coefficients expands the q-th-root analogue
(I + X/2q)^{2q} (I - X) into coefficient form by binomial convolution.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, ValidationError
from .graph import DENSE_THRESHOLD, PolyCoeffs, SddmMatrix, WeightedGraph
from .resistance import _one_blas_thread
from .sampling import RngStream, _check_stream
from .sddm import sparsify_sddm
from .sparsify import SparsifyConfig

NEWTON_ALPHA = PolyCoeffs(np.array([0.0, 0.75, 0.25]))
RHO_THRESHOLD = 0.1
# spectral_radius above DENSE_THRESHOLD: ARPACK restarts (about 19 matvecs
# each) before Lanczos gives up, then steps of the inverse-iteration bound
LANCZOS_RESTARTS = 100
INVERSE_STEPS = 4


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


def spectral_radius(M: SddmMatrix):
    """rho(D^-1 A), the largest |eigenvalue| of X = D^-1/2 A D^-1/2.

    X is nonnegative, so its largest eigenvalue is rho. The value must
    never read low: inv_sqrt_chain stops once rho is below its threshold
    and charges rho to eps_bound for the terminal truncation.

    At n <= DENSE_THRESHOLD it is exact to rounding (one dense eigvalsh of
    X, at one OpenBLAS thread so that its bits do not vary). Above it, it is
    the Collatz-Wielandt bound max_i (A y)_i / (diag_i y_i) at
    y = |v| diag^-1/2, for the Ritz vector v of at most LANCZOS_RESTARTS
    restarts of Lanczos from sqrt(diag). The bound holds for every y > 0,
    whichever eigenpair ARPACK returns, and reads rho to rounding when v is
    the Perron vector. Where Lanczos does not converge (the top of the
    spectrum is clustered), y has a zero entry (v vanishes off its own
    component) or the bound is not below 1, _inverse_iteration_bound answers.
    """
    if M.offdiag.m == 0:
        return 0.0
    isq = 1.0 / np.sqrt(M.diag)
    if M.n <= DENSE_THRESHOLD:
        X = isq[:, None] * M.offdiag.adjacency_dense() * isq[None, :]
        with _one_blas_thread():
            return float(np.abs(np.linalg.eigvalsh(X)).max())
    X = sp.diags(isq) @ M.offdiag.adjacency @ sp.diags(isq)
    try:
        # a start vector fixed by M keeps replay exact; ARPACK's own is random
        _, v = spla.eigsh(X, k=1, which="LA", v0=np.sqrt(M.diag), maxiter=LANCZOS_RESTARTS)
    except spla.ArpackNoConvergence:
        return _inverse_iteration_bound(M)
    y = np.abs(v[:, 0]) * isq
    rho = float(np.max(M.offdiag.adjacency @ y / (M.diag * y))) if np.all(y > 0) else 1.0
    return rho if rho < 1 else _inverse_iteration_bound(M)


def _inverse_iteration_bound(M: SddmMatrix):
    """Collatz-Wielandt bound rho(D^-1 A) <= max_i (A y)_i / (diag_i y_i).

    The bound holds for every y > 0. Here y comes from INVERSE_STEPS steps
    of y <- M^-1 (diag * y) from y = 1, through one sparse LU of M. Then
    A y = diag * (y - y_prev), so each ratio is 1 - y_prev_i / y_i, below 1
    on every positive definite M, and the steps tighten it toward rho.
    """
    lu = spla.splu(M.matrix().tocsc())
    y = np.ones(M.n)
    for _ in range(INVERSE_STEPS):
        y = lu.solve(M.diag * y)
        if not np.all(y > 0):
            return 1.0  # M is not positive definite: its inverse maps diag * y > 0 to y > 0
        y /= y.max()
    return float(np.max(M.offdiag.adjacency @ y / (M.diag * y)))


def newton_sqrt_step(M: SddmMatrix, eps, cfg: SparsifyConfig, rng):
    """One Newton reduction: factor (I + 1/2 D^-1 A) and the sparsified
    cubic polynomial D - 3/4 D(D^-1 A)^2 - 1/4 D(D^-1 A)^3."""
    factor = AffineFactor(diag=M.diag, graph=M.offdiag)
    if M.offdiag.m == 0:
        return factor, M
    return factor, sparsify_sddm(M, NEWTON_ALPHA, replace(cfg, epsilon=eps), rng)


def inv_sqrt_chain(
    M: SddmMatrix,
    eps_total,
    max_iters=40,
    cfg: SparsifyConfig = None,
    rng: RngStream = RngStream(0),
) -> FactorChain:
    """Build C with C C^T close to M^-1 within the requested budget.

    Iterates cubic reduction steps until the walk ratio rho(D^-1 A) drops
    below min(0.1, eps_total/2), then terminates with the diagonal. Half of
    eps_total pays for the terminal truncation, half is split evenly across
    the sparsified steps. Step k draws from rng.split(k).
    """
    _check_stream(rng)
    if not (0 < eps_total < math.inf):
        raise ValidationError(f"eps_total must be positive and finite, got {eps_total!r}")
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
        cfg = SparsifyConfig(epsilon=min(eps_step, 1.0))

    chain = FactorChain()
    cur = M
    for k in range(max_iters):
        if k:  # step 0 is M itself, measured above
            rho = spectral_radius(cur)
        chain.rho_history.append(rho)
        if rho < threshold:
            chain.terminal_diag = cur.diag.copy()
            chain.eps_bound = min(1.0, len(chain.factors) * eps_step + rho)
            return chain
        factor, cur = newton_sqrt_step(cur, eps_step, cfg, rng.split(k))
        chain.factors.append(factor)
    raise ConvergenceError(
        f"inverse-sqrt chain did not reach walk ratio {threshold:.3g} in {max_iters} steps",
        residual=rho,
    )


def qth_root_coefficients(q) -> PolyCoeffs:
    """PolyCoeffs of the middle polynomial I - sum_r alpha_r X^r where
    (I + X/2q)^{2q} (I - X) = I - poly(X), by binomial convolution."""
    if not isinstance(q, numbers.Integral) or q < 1:
        raise ValidationError(f"root order q must be a positive integer, got {q!r}")
    t = 2 * q
    # alpha_r = C(t, r-1)/t^(r-1) - C(t, r)/t^r for r = 1..t+1
    alpha = np.array(
        [math.comb(t, r - 1) / t ** (r - 1) - math.comb(t, r) / t**r for r in range(1, t + 2)],
        dtype=np.float64,
    )
    return PolyCoeffs(alpha)
