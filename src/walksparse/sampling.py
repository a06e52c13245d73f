"""Weighted discrete sampling infrastructure and the walk sampler.

A walk template is an ordered list of edge layers with per-position
resistance coefficients under a shared degree normalization D (e.g. the
pattern A A A~ A A). A walk is drawn with probability proportional to
tau_p = w(p) Z(p) by choosing a pivot step (position and directed edge)
from masses built from absorption vectors, then stepping outward from its
endpoints with per-step distributions reweighted by the same vectors.

The plain length-r walk sampler is the monomial template [A]*r with
coefficient 2 per position and D = A 1: every absorption vector is then
exactly one, the pivot edge is uniform, and the masses use the
direction-identified convention in which the total over length-r walks is
exactly 2 r m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .graph import WeightedGraph

LOG_SPACE_MIN_LENGTH = 64  # accumulate log-weights for very long walks
_CHUNK = 1 << 19
# Slack that keeps every guide entry at or before its true slot despite
# rounding in u * k (Chen & Asau guide tables need a lower bound only).
_GUIDE_SLACK = 1.0 + 1e-12


@dataclass(frozen=True)
class RngStream:
    """Reproducible RNG handle: identical (seed, stream) gives identical draws."""

    seed: int
    stream: int = 0

    def generator(self):
        return np.random.default_rng(np.random.SeedSequence((self.seed, self.stream)))

    def split(self, stream):
        return RngStream(self.seed, stream)


def _as_generator(rng):
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


class _RowTable:
    """Guide tables over the row segments of a CSR weight pattern.

    cum holds each row's normalized inclusive cumulative sum (the last entry
    of a row is exactly 1) and guide[s + j] the first slot of the row
    starting at s whose cum may exceed j / k, so a draw is one bucket lookup
    plus O(1) expected forward steps (Chen & Asau, 1974). Rows are
    normalized before the running sum so that a row of tiny weights keeps
    its proportions next to rows of huge ones. A row whose weights are all
    zero is drawn uniformly.
    """

    def __init__(self, indptr, weights):
        self.indptr = indptr
        self.deg = np.diff(indptr)
        rows = np.repeat(np.arange(len(self.deg)), self.deg)
        total = np.bincount(rows, weights=weights, minlength=len(self.deg))
        self.total = total
        p = np.where(total[rows] > 0, weights / np.where(total > 0, total, 1.0)[rows], 1.0)
        run = np.cumsum(p)
        before = np.concatenate(([0.0], run))[indptr[:-1]]
        cum = run - before[rows]
        cum /= cum[np.maximum(indptr[1:] - 1, 0)][rows]
        self.cum = cum

        start = indptr[:-1][rows]
        k = self.deg[rows]
        bucket = np.minimum((cum * k * _GUIDE_SLACK).astype(np.int64) + 1, k)
        inside = bucket < k
        passed = np.cumsum(np.bincount((start + bucket)[inside], minlength=len(cum)))
        self.guide = start + passed - np.concatenate(([0], passed))[start]

    def draw(self, gen, rows=None, count=None):
        """One slot per requested row, or `count` slots of a one-row table."""
        if rows is None:
            u = gen.random(count)
            first, size = 0, len(self.cum)
        else:
            u = gen.random(len(rows))
            first, size = self.indptr[rows], self.deg[rows]
        slot = self.guide[first + (u * size).astype(np.int64)]
        late = np.flatnonzero(self.cum[slot] <= u)
        while len(late):
            slot[late] += 1
            late = late[self.cum[slot[late]] <= u[late]]
        return slot


@dataclass
class PathBatch:
    """Struct-of-arrays batch of sampled walks."""

    u0: np.ndarray
    ur: np.ndarray
    weight: np.ndarray  # w(p), times the product of aux over interior vertices
    mass: np.ndarray  # tau_p in the direction-identified convention
    vertices: np.ndarray | None = None  # (count, r+1) when recorded

    def __len__(self):
        return len(self.u0)


def total_mass(r, m):
    """Closed-form sum of w(p) Z(p) over all length-r walks."""
    if r < 1 or m < 1:
        raise ValidationError("r and m must be >= 1")
    return 2.0 * r * m


@dataclass
class WalkTemplate:
    """Ordered edge layers with per-position resistance coefficients.

    A walk (u_0 .. u_r) takes its i-th step inside layers[i-1]; all walk
    normalizations use the shared base degree vector D. Position i's pivot
    table selects a slot of layer i with mass left[i](a) right[i](b), where
    the absorption vectors sum the normalized walk weights of the two
    partial walks hanging off a step at position i; the step tables through
    layer j carry the remaining absorption (back[j] toward u_0, fwd[j]
    toward u_r).
    """

    layers: list
    coeffs: np.ndarray
    D: np.ndarray
    tau_total: float
    _pivot_mass: np.ndarray = field(repr=False)
    _pivots: list = field(repr=False)
    _rows: list = field(repr=False)
    _back: list = field(repr=False)
    _fwd: list = field(repr=False)

    @property
    def r(self):
        return len(self.layers)


def _assemble(mats, coeffs, D, left, right, tables) -> WalkTemplate:
    """Template over absorption vectors, reusing tables already in `tables`.

    Tables are keyed by (kind, layer, weight vector), so equal vectors on
    the same layer share one table across positions and templates.
    """

    def table(key, make):
        if key not in tables:
            tables[key] = make()
        return tables[key]

    r = len(mats)
    rows = [
        table(("rows", id(m)), lambda m=m: np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)))
        for m in mats
    ]

    def pivot(i):
        mat, lv, rv = mats[i - 1], left[i], right[i]
        return table(
            ("pivot", id(mat), lv.tobytes(), rv.tobytes()),
            lambda: _RowTable(np.array([0, mat.nnz]), lv[rows[i - 1]] * rv[mat.indices]),
        )

    def step(j, vec):
        mat = mats[j - 1]
        return table(
            ("step", id(mat), vec.tobytes()),
            lambda: _RowTable(mat.indptr, mat.data * vec[mat.indices]),
        )

    pivots = [pivot(i) for i in range(1, r + 1)]
    mass = coeffs * np.array([float(t.total[0]) for t in pivots])
    return WalkTemplate(
        layers=mats,
        coeffs=coeffs,
        D=D,
        tau_total=0.5 * float(mass.sum()),
        _pivot_mass=mass,
        _pivots=pivots,
        _rows=rows,
        _back=[step(j, left[j]) if j < r else None for j in range(1, r + 1)],
        _fwd=[step(j, right[j]) if j > 1 else None for j in range(1, r + 1)],
    )


def _absorption(layers, coeffs, D):
    """Validated CSR layers, coefficients and D, with the absorption vectors."""
    csr = {}  # one matrix per distinct layer, so positions can share its tables
    mats = [
        csr.setdefault(id(x), x.adjacency if isinstance(x, WeightedGraph) else sp.csr_matrix(x))
        for x in layers
    ]
    r = len(mats)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    if len(coeffs) != r:
        raise ValidationError("one coefficient per layer required")
    if np.any(coeffs <= 0):
        raise ValidationError("coefficients must be positive")
    for j, mat in enumerate(mats):
        if mat.nnz == 0:
            raise ValidationError(f"layer {j} has an empty edge set")
        if mat.shape != (len(D), len(D)):
            raise ValidationError("layers must share the base vertex set")

    ones = np.ones(len(D))
    left = [None] * (r + 1)  # left[i] defined for i = 1..r
    left[1] = ones
    for i in range(1, r):
        left[i + 1] = (mats[i - 1] @ left[i]) / D
    right = [None] * (r + 1)  # right[i] defined for i = 1..r
    right[r] = ones
    for i in range(r - 1, 0, -1):
        right[i] = (mats[i] @ right[i + 1]) / D
    return mats, coeffs, D, left, right


def build_template(layers, coeffs, D) -> WalkTemplate:
    """Precompute absorption vectors, then the pivot and step tables."""
    return _assemble(*_absorption(layers, coeffs, D), {})


def template_mass(layers, coeffs, D):
    """tau_total of build_template(layers, coeffs, D), without its tables."""
    mats, coeffs, _, left, right = _absorption(layers, coeffs, D)
    pivot = [np.repeat(left[i], np.diff(m.indptr)) @ right[i][m.indices] for i, m in enumerate(mats, 1)]
    return 0.5 * float(coeffs @ pivot)


def sample_template_paths(tmpl: WalkTemplate, count, rng, aux=None, record_vertices=False):
    """Draw walks from a template with probability tau_p / sum(tau).

    aux, when given, is a per-vertex factor whose product over interior
    vertices multiplies the returned target weight only; the sampling mass
    w(p) Z(p) stays untouched or the reweighting in graph_sampling would
    cancel it. Weights are accumulated in log space for r above 64.
    """
    gen = _as_generator(rng)
    r = tmpl.r
    log_space = r > LOG_SPACE_MIN_LENGTH
    # in log space products become sums; np.asarray is the identity on arrays
    mul, div, lift = (np.add, np.subtract, np.log) if log_space else (np.multiply, np.divide, np.asarray)
    u0 = np.empty(count, dtype=np.int64)
    ur = np.empty(count, dtype=np.int64)
    w = np.empty(count)
    z = np.empty(count)
    ax = None if aux is None else np.full(count, 0.0 if log_space else 1.0)
    verts = np.zeros((count, r + 1), dtype=np.int64) if record_vertices else None

    # walks are grouped by pivot position, each group a contiguous block
    per_pos = gen.multinomial(count, tmpl._pivot_mass / tmpl._pivot_mass.sum())
    bounds = np.concatenate(([0], np.cumsum(per_pos)))
    for i in np.flatnonzero(per_pos) + 1:
        blk = slice(bounds[i - 1], bounds[i])
        mat = tmpl.layers[i - 1]
        slot = tmpl._pivots[i - 1].draw(gen, count=per_pos[i - 1])
        wt = mat.data[slot]
        wb, zb = w[blk], z[blk]
        wb[:] = lift(wt)
        np.divide(tmpl.coeffs[i - 1], wt, out=zb)
        axb = None if ax is None else ax[blk]
        a, b = tmpl._rows[i - 1][slot], mat.indices[slot]
        if record_vertices:
            verts[blk, i - 1] = a
            verts[blk, i] = b
        # backward through layers i-1..1 gives u_{j-1}; forward through
        # i+1..r gives u_j. Every vertex stepped out of is interior.
        for cur, path, end in (
            (a, [(j, tmpl._back[j - 1], j - 1) for j in range(i - 1, 0, -1)], u0),
            (b, [(j, tmpl._fwd[j - 1], j) for j in range(i + 1, r + 1)], ur),
        ):
            for j, tab, col in path:
                mat = tmpl.layers[j - 1]
                slot = tab.draw(gen, rows=cur)
                wt = mat.data[slot]
                mul(wb, lift(wt), out=wb)
                div(wb, lift(tmpl.D[cur]), out=wb)
                if axb is not None:
                    mul(axb, lift(aux[cur]), out=axb)
                zb += tmpl.coeffs[j - 1] / wt
                cur = mat.indices[slot]
                if record_vertices:
                    verts[blk, col] = cur
            end[blk] = cur

    if log_space:
        np.exp(w, out=w)
        if ax is not None:
            np.exp(ax, out=ax)
    weight = w if ax is None else w * ax
    z *= w
    return PathBatch(u0=u0, ur=ur, weight=weight, mass=z, vertices=verts)


class SamplerIndex:
    """Shared row tables of one graph for its length-r monomial templates.

    With D = A 1 every absorption vector is exactly one, so one uniform
    pivot table and one step table over A serve every position of every
    walk length.
    """

    def __init__(self, G: WeightedGraph):
        if G.m < 1:
            raise ValidationError("cannot build a sampler over an empty graph")
        self.graph = G
        self._ones = np.ones(G.n)
        self._D = G.adjacency @ self._ones
        self._tables = {}
        self._templates = {}
        self.template(2)  # builds both shared tables

    def template(self, r) -> WalkTemplate:
        """The monomial template [A]*r with coefficient 2 per position."""
        if r not in self._templates:
            ones = [self._ones] * (r + 1)
            self._templates[r] = _assemble(
                [self.graph.adjacency] * r, np.full(r, 2.0), self._D, ones, ones, self._tables
            )
        return self._templates[r]


def sample_paths(idx: SamplerIndex, r, count, rng, aux=None, record_vertices=False):
    """Draw `count` length-r walks, each with probability tau_p / (2 r m).

    aux, when given, is a per-vertex factor whose product over interior
    vertices is accumulated into `weight` (used by the SDDM extension).
    """
    if r < 1:
        raise ValidationError("walk length must be >= 1")
    return sample_template_paths(idx.template(r), count, rng, aux=aux, record_vertices=record_vertices)


def graph_sampling(draw, tau_total, M, rng, n):
    """Accumulate M reweighted samples into a sparsifier graph.

    draw(count, gen) must return a PathBatch; each open sample contributes
    weight * tau_total / (M * mass) on the edge (u0, ur). Closed samples
    (u0 == ur) are consumed but emit nothing.
    """
    if M < 1:
        raise ValidationError("sample count must be >= 1")
    gen = _as_generator(rng)
    acc = sp.csr_matrix((n, n))
    done = 0
    while done < M:
        count = min(_CHUNK, M - done)
        batch = draw(count, gen)
        open_mask = batch.u0 != batch.ur
        u = batch.u0[open_mask]
        v = batch.ur[open_mask]
        wt = batch.weight[open_mask] * (tau_total / (M * batch.mass[open_mask]))
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        chunk = sp.coo_matrix((wt, (lo, hi)), shape=(n, n)).tocsr()
        acc = acc + chunk
        done += count
    acc = sp.triu(acc, k=1).tocoo()
    return WeightedGraph(n, acc.row, acc.col, acc.data)
