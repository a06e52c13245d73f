"""Even-degree monomial pipeline: squaring and plus-4 composition steps,
operation scheduling, and the high-degree driver.

Starting from a degree-2 sparsifier D - A~, SQUARE doubles the walk degree
via the length-2 paths of D - A~ D^-1 A~, and PLUS adds 4 via the length-5
pattern (A A A~ A A). Each step is one sparsify.two_stage over its
layers: stage one forms the product exactly when the sparse-product chain
costs at most the walks it would draw, otherwise it draws walks of the whole
pattern, whose coefficients shape the sampling masses alone. Per-step error
budgets follow the eps/(2k) composition rule with a final
re-sparsification at eps/2.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import sparsify
from .errors import InputRefusedError, ValidationError
from .graph import WeightedGraph
from .sampling import RngStream, substream
from .sampling import build_template, graph_sampling, sample_template_paths  # noqa: F401 (bench/tracing.py wraps these names here)
from .sparsify import SparsifyConfig, sparsify_monomial

log = logging.getLogger(__name__)

SQUARE = "SQUARE"
PLUS = "PLUS"


@dataclass
class DegreeSchedule:
    """Operation program reaching `target` from degree 2."""

    target: int
    ops: list
    direct: bool = False
    substituted: bool = False
    eps_effective: float = None

    @property
    def k(self):
        return len(self.ops)

    def replay(self):
        deg = 2
        for op in self.ops:
            deg = 2 * deg if op == SQUARE else deg + 4
        return deg


def shortest_program(target):
    """Minimal-length {SQUARE, PLUS} program from degree 2 via BFS."""
    if target == 2:
        return []
    parent = {2: None}
    queue = deque([2])
    while queue:
        x = queue.popleft()
        for op, y in ((SQUARE, 2 * x), (PLUS, x + 4)):
            if y <= target and y not in parent:
                parent[y] = (x, op)
                if y == target:
                    ops = []
                    while parent[y] is not None:
                        y, op = parent[y]
                        ops.append(op)
                    return ops[::-1]
                queue.append(y)
    raise ValidationError(f"degree {target} unreachable from 2 under {{x2, +4}}")


def schedule(d, eps=None) -> DegreeSchedule:
    """Plan the pipeline for even degree d at total error eps.

    With eps given: small degrees (d <= 4/eps) are marked for direct path
    sampling, and d = 4r+2 above that threshold is substituted by d-2 with
    half the budget (the adjacent even monomials are eps/2-close there).
    """
    if d < 2 or d % 2 != 0:
        raise ValidationError("degree must be an even integer >= 2")
    if eps is not None and d <= 4.0 / eps:
        return DegreeSchedule(d, [], direct=True, eps_effective=eps)
    if d % 4 == 2 and d > 2:
        if eps is None:
            raise ValidationError(f"degree {d} = 4r+2 needs an eps budget for substitution")
        return DegreeSchedule(d - 2, shortest_program(d - 2), substituted=True, eps_effective=eps / 2)
    return DegreeSchedule(d, shortest_program(d), eps_effective=eps)


@dataclass
class MonomialApprox:
    """Current approximation D - A~ of a walk monomial, with error ledger."""

    degree: int
    graph: WeightedGraph
    base_degree: np.ndarray
    accumulated_eps: float


def _clamp_degree_excess(approx: MonomialApprox) -> MonomialApprox:
    """Uniformly rescale A~ so its degrees never exceed the base D."""
    s = approx.graph.degree
    D = approx.base_degree
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(s > 0, D / np.where(s > 0, s, 1.0), np.inf)
    gamma = min(1.0, float(ratios.min()))
    if gamma >= 1.0:
        return approx
    G = approx.graph
    scaled = WeightedGraph(G.n, G.edge_u, G.edge_v, G.edge_w * gamma)
    extra = 2.0 * abs(math.log(gamma))
    log.warning("clamped degree excess by factor %.6g (eps ledger +%.3g)", gamma, extra)
    return MonomialApprox(approx.degree, scaled, D, approx.accumulated_eps + extra)


def _full_layer(approx: MonomialApprox):
    """A~ as a matrix with the loop mass D - deg restored on the diagonal.

    The walk matrix D (D^-1 A)^{2r} keeps closed-walk mass on its diagonal;
    dropping it when squaring would bias the result low. After clamping the
    loop weights are nonnegative and the full row sums equal D exactly.
    """
    G = approx.graph
    loops = np.maximum(approx.base_degree - G.degree, 0.0)
    return (G.adjacency + sp.diags(loops)).tocsr()


def square_step(cur: MonomialApprox, eps, cfg: SparsifyConfig, rng) -> MonomialApprox:
    """Degree 2r -> 4r by sampling length-2 paths of D - A~ D^-1 A~."""
    D = cur.base_degree
    At = _full_layer(cur)
    s = np.asarray(At.sum(axis=1)).ravel()
    live = s > 0
    kappa = max(1.0, float(np.max(D[live] / s[live])))
    H = sparsify.two_stage([At, At], [kappa, kappa], np.eye(2)[-1], D, replace(cfg, epsilon=eps), rng, 3)
    out = MonomialApprox(2 * cur.degree, H, D, cur.accumulated_eps + eps)
    return _clamp_degree_excess(out)


def plus_step(cur: MonomialApprox, base: WeightedGraph, eps, cfg: SparsifyConfig, rng) -> MonomialApprox:
    """Degree 2r -> 2r+4 via the length-5 pattern (A A A~ A A).

    The per-position resistance coefficients carry the accumulated error of
    the middle layer: exp(e) on base steps, exp(2e) on the middle.
    """
    D = cur.base_degree
    At = _full_layer(cur)
    h = math.exp(cur.accumulated_eps)
    coeffs = [h, h, h * h, h, h]
    A = base.adjacency
    H = sparsify.two_stage([A, A, At, A, A], coeffs, np.eye(5)[-1], D, replace(cfg, epsilon=eps), rng, 3)
    out = MonomialApprox(cur.degree + 4, H, D, cur.accumulated_eps + eps)
    return _clamp_degree_excess(out)


def sparsify_high_degree(G: WeightedGraph, d, eps, cfg: SparsifyConfig = None, rng=None) -> WeightedGraph:
    """Sparsifier of the d-step walk Laplacian for even d."""
    if rng is None:
        rng = RngStream(0)
    if cfg is None:
        cfg = SparsifyConfig(epsilon=min(eps, 1.0))
    if d < 2 or d % 2 != 0:
        raise ValidationError("degree must be an even integer >= 2")
    if not G.is_connected():
        raise InputRefusedError("high-degree sparsification needs a connected graph")
    if G.is_bipartite():
        raise InputRefusedError(
            "graph is bipartite: even random walks are periodic and the "
            "high-degree monomial degenerates"
        )
    sch = schedule(d, eps)
    if sch.direct:
        return sparsify_monomial(G, d, replace(cfg, epsilon=eps), rng)

    eps_eff = sch.eps_effective
    k = sch.k
    eps_step = eps_eff / (2 * (k + 1))
    H2 = sparsify_monomial(G, 2, replace(cfg, epsilon=eps_step), rng)
    cur = _clamp_degree_excess(MonomialApprox(2, H2, G.degree.copy(), eps_step))
    for i, op in enumerate(sch.ops):
        sub = substream(rng, 10 + i)
        if op == SQUARE:
            cur = square_step(cur, eps_step, cfg, sub)
        else:
            cur = plus_step(cur, G, eps_step, cfg, sub)
    if cur.degree != sch.target:
        raise AssertionError("schedule replay mismatch")

    from .resistance import resparsify

    return resparsify(cur.graph, eps_eff / 2, cfg, substream(rng, 99))
