"""Seeded RNG streams, weighted discrete sampling and the walk sampler.

A walk template is an ordered list of edge layers with per-position
resistance coefficients under a shared degree normalization D (e.g. the
pattern A A A~ A A). A walk is drawn with probability proportional to
tau_p = w(p) Z(p) by choosing a pivot step (position and directed edge)
from masses built from absorption vectors, then stepping outward from its
endpoints with per-step distributions reweighted by the same vectors. The
estimator's edge weight w(p) tau_total / (M tau_p) = tau_total / (M Z(p))
does not read w(p), so a walk carries only its endpoints and
Z(p) = sum_i coeffs[i] / w_i.

SamplerIndex is the engine's one object: it validates a layer list once,
shares one left absorption chain and its row tables across the list's
prefixes, gives each prefix's total mass without building tables (masses)
and builds each prefix's template (template). For the monomial layers
[A]*r with coefficient 2 under D = A 1 every absorption vector is exactly
one, the pivot edge is uniform, and the total over length-r walks is
exactly 2 r m. A larger D, such as an SDDM diagonal, gives absorption
vectors at most one and a total below 2 r m.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .graph import WeightedGraph

_CHUNK = 1 << 19
# Slack that keeps every guide entry at or before its true slot despite
# rounding in u * k (Chen & Asau guide tables need a lower bound only).
_GUIDE_SLACK = 1.0 + 1e-12


@dataclass(frozen=True, init=False)
class RngStream:
    """Reproducible RNG handle: identical (seed, *path) gives identical draws.

    path is numpy's spawn key, so child k, split(k), shares no numbers with any
    other stream. A function draws from its stream, passes it whole to one
    callee, or splits it into children that only it hands out."""

    seed: int
    path: tuple

    def __init__(self, seed, *path):
        if not all(isinstance(x, numbers.Integral) and x >= 0 for x in (seed, *path)):
            raise ValidationError(f"seed and stream path must be nonnegative integers, got {(seed, *path)!r}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "path", path)

    def generator(self):
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.path))

    def split(self, k):
        return RngStream(self.seed, *self.path, k)


def _as_generator(rng):
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise ValidationError(f"rng must be an RngStream or a numpy Generator, got {rng!r}")


def _check_stream(rng):
    """Refuse any rng but an RngStream where it is split into one stream per stage."""
    if not isinstance(rng, RngStream):
        raise ValidationError(f"rng must be an RngStream, which splits into one stream per stage, got {rng!r}")


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

    def draw(self, gen, rows):
        """One slot per entry of rows, drawn from that row's weights."""
        u = gen.random(len(rows))
        slot = self.guide[self.indptr[rows] + (u * self.deg[rows]).astype(np.int64)]
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
    z: np.ndarray  # Z(p) = sum_i coeffs[i] / w_i over the walk's steps
    vertices: np.ndarray | None = None  # (count, r+1) when recorded

    def __len__(self):
        return len(self.u0)


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
    tau_total: float
    _pivot_mass: np.ndarray = field(repr=False)
    _pivots: list = field(repr=False)
    _rows: list = field(repr=False)
    _back: list = field(repr=False)
    _fwd: list = field(repr=False)


def build_template(layers, coeffs, D) -> WalkTemplate:
    """The template over all of layers: SamplerIndex(layers, coeffs, D).template(len(layers))."""
    return SamplerIndex(layers, coeffs, D).template(len(layers))


def sample_template_paths(tmpl: WalkTemplate, count, rng, record_vertices=False):
    """Draw walks from a template with probability tau_p / sum(tau).

    Each walk carries its endpoints and Z(p) = sum_i coeffs[i] / w_i.
    """
    gen = _as_generator(rng)
    r = len(tmpl.layers)
    u0 = np.empty(count, dtype=np.int64)
    ur = np.empty(count, dtype=np.int64)
    z = np.empty(count)
    verts = np.zeros((count, r + 1), dtype=np.int64) if record_vertices else None

    # walks are grouped by pivot position, each group a contiguous block
    per_pos = gen.multinomial(count, tmpl._pivot_mass / tmpl._pivot_mass.sum())
    bounds = np.concatenate(([0], np.cumsum(per_pos)))
    for i in np.flatnonzero(per_pos) + 1:
        blk = slice(bounds[i - 1], bounds[i])
        mat = tmpl.layers[i - 1]
        slot = tmpl._pivots[i - 1].draw(gen, np.zeros(per_pos[i - 1], dtype=np.int64))
        zb = z[blk]
        np.divide(tmpl.coeffs[i - 1], mat.data[slot], out=zb)
        a, b = tmpl._rows[i - 1][slot], mat.indices[slot]
        if record_vertices:
            verts[blk, i - 1] = a
            verts[blk, i] = b
        # backward through layers i-1..1 gives u_{j-1}; forward through
        # i+1..r gives u_j
        for cur, path, end in (
            (a, [(j, tmpl._back[j - 1], j - 1) for j in range(i - 1, 0, -1)], u0),
            (b, [(j, tmpl._fwd[j - 1], j) for j in range(i + 1, r + 1)], ur),
        ):
            for j, tab, col in path:
                mat = tmpl.layers[j - 1]
                slot = tab.draw(gen, cur)
                zb += tmpl.coeffs[j - 1] / mat.data[slot]
                cur = mat.indices[slot]
                if record_vertices:
                    verts[blk, col] = cur
            end[blk] = cur

    return PathBatch(u0=u0, ur=ur, z=z, vertices=verts)


class SamplerIndex:
    """The walk engine over the prefixes of one layer list.

    Prefix j walks layers[:j] with coeffs[:j] under D. The layers are
    validated and the left absorption chain computed once, which every
    prefix shares as left[i] reads only layers[:i-1]; each prefix gets its
    own right chain. Row tables are shared across positions and prefixes
    wherever the absorption vectors agree; for [A]*d with coefficient 2 and
    D = A 1 they are all exactly one, so one uniform pivot table and one
    step table over A serve every prefix.
    """

    def __init__(self, layers, coeffs, D):
        # layers are WeightedGraphs (their cached adjacency) or sparse matrices (a CSR one
        # as is), so equal layers keep one identity across positions and share tables
        mats = [x.adjacency if isinstance(x, WeightedGraph) else x.tocsr() for x in layers]
        coeffs = np.asarray(coeffs, dtype=np.float64)
        D = np.asarray(D, dtype=np.float64)
        if len(coeffs) != len(mats):
            raise ValidationError("one coefficient per layer required")
        if np.any(coeffs <= 0):
            raise ValidationError("coefficients must be positive")
        for j, mat in enumerate(mats):
            if mat.nnz == 0:
                raise ValidationError(f"layer {j} has an empty edge set")
            if mat.shape != (len(D), len(D)):
                raise ValidationError("layers must share the base vertex set")
        self.layers, self.coeffs, self.D = mats, coeffs, D
        self._left = [None, np.ones(len(D))]  # left[i] for i = 1..r
        for mat in mats[:-1]:
            self._left.append(self._absorb(mat, self._left[-1]))
        self._tables = {}
        self._templates = {}

    def _absorb(self, mat, vec):
        return np.divide(mat @ vec, self.D, out=np.zeros(len(self.D)), where=self.D > 0)

    def _right(self, j):
        """right[i] for i = 1..j of prefix j, absorbed from layer j backwards."""
        if not 1 <= j <= len(self.layers):
            raise ValidationError(f"prefix length must lie in 1..{len(self.layers)}")
        right = [None] * (j + 1)
        right[j] = np.ones(len(self.D))
        for i in range(j - 1, 0, -1):
            right[i] = self._absorb(self.layers[i], right[i + 1])
        return right

    def masses(self, prefixes):
        """tau_total of template(j) for each j in prefixes, without its tables."""
        masses = []
        for j in prefixes:
            right = self._right(j)
            pivot = [
                np.repeat(self._left[i], np.diff(m.indptr)) @ right[i][m.indices]
                for i, m in enumerate(self.layers[:j], 1)
            ]
            masses.append(0.5 * float(self.coeffs[:j] @ pivot))
        return masses

    def template(self, j) -> WalkTemplate:
        """The template over layers[:j].

        Tables are keyed by (kind, layer, weight vector), so equal vectors on
        the same layer share one table across positions and prefixes.
        """
        if j in self._templates:
            return self._templates[j]
        right, left, mats, tables = self._right(j), self._left, self.layers, self._tables

        def table(key, make):
            if key not in tables:
                tables[key] = make()
            return tables[key]

        rows = [
            table(("rows", id(m)), lambda m=m: np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)))
            for m in mats[:j]
        ]

        def pivot(i):
            mat, lv, rv = mats[i - 1], left[i], right[i]
            return table(
                ("pivot", id(mat), lv.tobytes(), rv.tobytes()),
                lambda: _RowTable(np.array([0, mat.nnz]), lv[rows[i - 1]] * rv[mat.indices]),
            )

        def step(i, vec):
            mat = mats[i - 1]
            return table(
                ("step", id(mat), vec.tobytes()),
                lambda: _RowTable(mat.indptr, mat.data * vec[mat.indices]),
            )

        pivots = [pivot(i) for i in range(1, j + 1)]
        mass = self.coeffs[:j] * np.array([float(t.total[0]) for t in pivots])
        self._templates[j] = WalkTemplate(
            layers=mats[:j],
            coeffs=self.coeffs[:j],
            tau_total=0.5 * float(mass.sum()),
            _pivot_mass=mass,
            _pivots=pivots,
            _rows=rows,
            _back=[step(i, left[i]) if i < j else None for i in range(1, j + 1)],
            _fwd=[step(i, right[i]) if i > 1 else None for i in range(1, j + 1)],
        )
        return self._templates[j]


def sample_paths(idx: SamplerIndex, j, count, rng, record_vertices=False):
    """Draw `count` walks through idx.layers[:j], each with probability
    tau_p / idx.template(j).tau_total, carrying their endpoints and Z(p)."""
    return sample_template_paths(idx.template(j), count, rng, record_vertices=record_vertices)


def graph_sampling(draw, tau_total, M, rng, n):
    """Accumulate M reweighted samples into a sparsifier graph.

    draw(count, gen) must return a PathBatch of walks drawn with probability
    tau_p / tau_total; each open sample contributes tau_total / (M * z) on
    the edge (u0, ur), which is w(p) / (M * tau_p / tau_total) with w(p)
    cancelled. Closed samples (u0 == ur) are consumed but emit nothing.
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
        wt = tau_total / (M * batch.z[open_mask])
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        chunk = sp.coo_matrix((wt, (lo, hi)), shape=(n, n)).tocsr()
        acc = acc + chunk
        done += count
    acc = acc.tocoo()  # every open walk adds at lo < hi
    return WeightedGraph(n, acc.row, acc.col, acc.data)
