"""Even-degree monomial pipeline: squaring and plus-4 composition steps,
operation scheduling, and the high-degree driver.

Starting from a degree-2 sparsifier D - A~, SQUARE doubles the walk degree
via the length-2 paths of D - A~ D^-1 A~, and PLUS adds 4 via the length-5
pattern (A A A~ A A). Both steps run one _compose: a sparsify.two_stage
over the step's layers (stage one forms the product exactly when the
sparse-product chain costs at most the walks it would draw, otherwise it
draws walks of the whole pattern, whose coefficients shape the sampling
masses alone), the step's eps charged to the ledger, then the degree clamp.
Per-step error budgets follow the eps/(2k) composition rule with a final
re-sparsification at eps/2.
"""

from __future__ import annotations

import logging
import math
import numbers
from collections import deque
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import sparsify
from .errors import ValidationError
from .graph import WeightedGraph
from .sampling import _check_stream, build_template, graph_sampling, sample_template_paths  # noqa: F401 (bench/tracing.py wraps the last three here)
from .sparsify import SparsifyConfig, sparsify_monomial

log = logging.getLogger(__name__)

SQUARE = "SQUARE"
PLUS = "PLUS"


@dataclass
class DegreeSchedule:
    """Operation program reaching `target` from degree 2."""

    target: int
    ops: list
    eps_effective: float
    direct: bool = False
    substituted: bool = False


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


def schedule(d, eps) -> DegreeSchedule:
    """Plan the pipeline for even degree d at total error eps.

    Small degrees (d <= 4/eps) are marked for direct path sampling, and
    d = 4r+2 above that threshold is substituted by d-2 with half the budget
    (the adjacent even monomials are eps/2-close there).
    """
    if not isinstance(d, numbers.Integral) or d < 2 or d % 2 != 0:
        raise ValidationError(f"degree must be an even integer >= 2, got {d!r}")
    if not (0 < eps < math.inf):
        raise ValidationError(f"eps must be positive and finite, got {eps!r}")
    if d <= 4.0 / eps:
        return DegreeSchedule(d, [], direct=True, eps_effective=eps)
    if d % 4 == 2 and d > 2:
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
    gamma = min(1.0, float(np.min(D[s > 0] / s[s > 0], initial=np.inf)))
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


def _compose(cur: MonomialApprox, layers, coeffs, degree, eps, cfg: SparsifyConfig, rng) -> MonomialApprox:
    """The degree-`degree` approximation: two_stage at eps over the walks
    through every layer, its eps charged to the ledger, then clamped."""
    D = cur.base_degree
    H = sparsify.two_stage(layers, coeffs, np.eye(len(layers))[-1], D, replace(cfg, epsilon=eps), rng)
    return _clamp_degree_excess(MonomialApprox(degree, H, D, cur.accumulated_eps + eps))


def square_step(cur: MonomialApprox, eps, cfg: SparsifyConfig, rng) -> MonomialApprox:
    """Degree 2r -> 4r by sampling length-2 paths of D - A~ D^-1 A~, at
    coefficient 1: the rows of the clamped input's full layer sum to D."""
    At = _full_layer(cur)
    return _compose(cur, [At, At], [1.0, 1.0], 2 * cur.degree, eps, cfg, rng)


def plus_step(cur: MonomialApprox, base: WeightedGraph, eps, cfg: SparsifyConfig, rng) -> MonomialApprox:
    """Degree 2r -> 2r+4 via the length-5 pattern (A A A~ A A).

    The per-position resistance coefficients carry the accumulated error of
    the middle layer: exp(e) on base steps, exp(2e) on the middle.
    """
    h = math.exp(cur.accumulated_eps)
    A = base.adjacency
    return _compose(cur, [A, A, _full_layer(cur), A, A], [h, h, h * h, h, h], cur.degree + 4, eps, cfg, rng)


def sparsify_high_degree(G: WeightedGraph, d, eps, cfg: SparsifyConfig, rng) -> WeightedGraph:
    """Sparsifier of the d-step walk Laplacian for even d, of any G: walks
    never leave a component, nor, on a bipartite one, even walks a side. rng's
    child 0 draws degree 2, child i the i-th step, the next the resparsify."""
    _check_stream(rng)
    sch = schedule(d, eps)
    if sch.direct:
        return sparsify_monomial(G, d, replace(cfg, epsilon=eps), rng)

    eps_eff = sch.eps_effective
    eps_step = eps_eff / (2 * (len(sch.ops) + 1))
    H2 = sparsify_monomial(G, 2, replace(cfg, epsilon=eps_step), rng.split(0))
    cur = _clamp_degree_excess(MonomialApprox(2, H2, G.degree.copy(), eps_step))
    for i, op in enumerate(sch.ops, 1):
        sub = rng.split(i)
        cur = square_step(cur, eps_step, cfg, sub) if op == SQUARE else plus_step(cur, G, eps_step, cfg, sub)
    if cur.degree != sch.target:
        raise AssertionError("schedule replay mismatch")

    from .resistance import resparsify

    return resparsify(cur.graph, eps_eff / 2, cfg, rng.split(len(sch.ops) + 1))
