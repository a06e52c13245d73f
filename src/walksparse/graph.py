"""Core graph and matrix data model, validation, and file I/O.

Graphs are undirected with strictly positive edge weights, stored as a
canonical edge list (u < v) plus a CSR adjacency for fast traversal.
Vertex ids are dense 0-based integers; loaders remap external ids.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import GraphFormatError, ValidationError

log = logging.getLogger(__name__)

DEGREE_RTOL = 1e-12
# Largest n handled by dense methods: the oracle and dense validation. Effective
# resistances are exact up to n = max(DENSE_THRESHOLD, JL sketch width).
DENSE_THRESHOLD = 512


class WeightedGraph:
    """Symmetric nonnegative sparse adjacency with a weighted degree vector.

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, n, u, v, w, labels=None, _validate=True):
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if _validate:
            if u.shape != v.shape or u.shape != w.shape:
                raise ValidationError("edge arrays must have equal length")
            if np.any(w <= 0):
                raise ValidationError("edge weights must be strictly positive")
            if np.any(u == v):
                raise ValidationError("self-loops are not stored")
            if len(u) and (u.min() < 0 or max(u.max(), v.max()) >= n):
                raise ValidationError("vertex id out of range")
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        order = np.lexsort((hi, lo))
        self.n = int(n)
        self.edge_u = lo[order]
        self.edge_v = hi[order]
        self.edge_w = w[order]
        if _validate and len(self.edge_u) > 1:
            same = (np.diff(self.edge_u) == 0) & (np.diff(self.edge_v) == 0)
            if np.any(same):
                raise ValidationError("duplicate edges must be merged before construction")
        self.labels = labels
        self.self_loops_dropped = 0
        adj = sp.coo_matrix(
            (
                np.concatenate([self.edge_w, self.edge_w]),
                (
                    np.concatenate([self.edge_u, self.edge_v]),
                    np.concatenate([self.edge_v, self.edge_u]),
                ),
            ),
            shape=(self.n, self.n),
        )
        self.adjacency = adj.tocsr()
        self.adjacency.sort_indices()
        # A 1, bit for bit the row sums the walk sampler and exact chain use
        self.degree = self.adjacency @ np.ones(self.n)

    @property
    def m(self):
        return len(self.edge_w)

    @classmethod
    def from_edges(cls, n, edges, merge_duplicates=True, labels=None):
        """Build from (u, v, w) triples; duplicate edges are summed."""
        if len(edges) == 0:
            return cls(n, [], [], [], labels=labels)
        u, v, w = (np.asarray(col) for col in zip(*edges))
        loops = int(np.sum(u == v))
        if loops:
            # self-loops contribute nothing to the Laplacian quadratic form
            log.warning("dropping %d self-loop(s)", loops)
            keep = u != v
            u, v, w = u[keep], v[keep], w[keep]
        if merge_duplicates:
            u, v, w = _merge_duplicate_edges(u, v, w)
        G = cls(n, u, v, w, labels=labels)
        G.self_loops_dropped = loops
        return G

    @classmethod
    def from_dense(cls, A, tol=0.0):
        """Build from a dense symmetric adjacency; entries <= tol are dropped."""
        A = np.asarray(A, dtype=np.float64)
        if A.shape[0] != A.shape[1]:
            raise ValidationError("adjacency must be square")
        if not np.allclose(A, A.T, rtol=1e-12, atol=0):
            raise ValidationError("adjacency must be symmetric")
        iu, iv = np.nonzero(np.triu(A, k=1) > tol)
        return cls(A.shape[0], iu, iv, A[iu, iv])

    def adjacency_dense(self):
        return self.adjacency.toarray()

    def laplacian(self):
        """Sparse L = D - A."""
        return sp.diags(self.degree) - self.adjacency

    def laplacian_dense(self):
        return np.diag(self.degree) - self.adjacency.toarray()

    def is_connected(self):
        if self.n <= 1:
            return True
        ncomp, _ = connected_components(self.adjacency, directed=False)
        return ncomp == 1

    def is_bipartite(self):
        """True iff the bipartite double cover has twice as many components."""
        A = self.adjacency
        cover = connected_components(sp.bmat([[None, A], [A, None]]), directed=False)[0]
        return cover == 2 * connected_components(A, directed=False)[0]

    def check_invariants(self):
        deg = np.zeros(self.n)
        np.add.at(deg, self.edge_u, self.edge_w)
        np.add.at(deg, self.edge_v, self.edge_w)
        scale = np.maximum(np.abs(self.degree), 1.0)
        if np.any(np.abs(deg - self.degree) > DEGREE_RTOL * scale):
            raise ValidationError("degree vector inconsistent with incident weights")
        diff = self.adjacency - self.adjacency.T
        if diff.nnz and np.max(np.abs(diff.data)) != 0:
            raise ValidationError("adjacency not symmetric")

    def __eq__(self, other):
        return (
            isinstance(other, WeightedGraph)
            and self.n == other.n
            and np.array_equal(self.edge_u, other.edge_u)
            and np.array_equal(self.edge_v, other.edge_v)
            and np.array_equal(self.edge_w, other.edge_w)
        )

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"


class LaplacianView:
    """Read-only Laplacian of a WeightedGraph: quadratic form and mat-vec."""

    def __init__(self, graph: WeightedGraph):
        self.graph = graph

    def matvec(self, x):
        return laplacian_matvec(self.graph, x)

    def quadratic_form(self, x):
        """Edge-wise sum of (x_u - x_v)^2 w_uv."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.graph.n,):
            raise ValidationError(f"expected vector of length {self.graph.n}")
        d = x[self.graph.edge_u] - x[self.graph.edge_v]
        return float(np.dot(d * d, self.graph.edge_w))

    def matrix(self):
        return self.graph.laplacian()


def laplacian_matvec(G: WeightedGraph, x):
    """(D - A)x. Always satisfies 1^T (D - A) x = 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (G.n,):
        raise ValidationError(f"expected vector of length {G.n}, got {x.shape}")
    return G.degree * x - G.adjacency @ x


@dataclass(frozen=True)
class PolyCoeffs:
    """Nonnegative coefficients alpha_1..alpha_d summing to 1."""

    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=np.float64)
        object.__setattr__(self, "alpha", a)
        if a.ndim != 1 or len(a) < 1:
            raise ValidationError("coefficient vector must be 1-d and nonempty")
        if np.any(a < 0):
            raise ValidationError("coefficients must be nonnegative")
        if abs(a.sum() - 1.0) > 1e-12:
            raise ValidationError(f"coefficients must sum to 1 (got {a.sum()!r})")

    @property
    def d(self):
        return len(self.alpha)

    @classmethod
    def monomial(cls, r):
        a = np.zeros(r)
        a[r - 1] = 1.0
        return cls(a)

    @classmethod
    def parse(cls, text):
        """Parse a comma-separated coefficient list, e.g. '0.5,0.5'."""
        try:
            vals = [float(t) for t in text.split(",") if t.strip() != ""]
        except ValueError as exc:
            raise ValidationError(f"cannot parse coefficients {text!r}") from exc
        return cls(np.array(vals))


class SddmMatrix:
    """Split form M = diag - offdiag with nonnegative symmetric offdiag.

    Diagonal dominance slack diag(i) - sum_j offdiag(i, j) must be
    nonnegative everywhere and strictly positive somewhere.
    """

    def __init__(self, diag, offdiag: WeightedGraph, tol=1e-12):
        diag = np.asarray(diag, dtype=np.float64)
        if diag.shape != (offdiag.n,):
            raise ValidationError("diagonal length must match vertex count")
        if np.any(diag <= 0):
            raise ValidationError("diagonal entries must be positive")
        slack = diag - offdiag.degree
        scale = np.maximum(diag, 1.0)
        if np.any(slack < -tol * scale):
            raise ValidationError("matrix is not diagonally dominant")
        slack = np.maximum(slack, 0.0)
        if offdiag.m > 0 and not np.any(slack > tol * scale):
            raise ValidationError("splitting is not positive definite (zero slack everywhere)")
        self.diag = diag
        self.offdiag = offdiag
        self.slack = slack

    @property
    def n(self):
        return self.offdiag.n

    def matrix(self):
        return sp.diags(self.diag) - self.offdiag.adjacency

    def dense(self):
        return np.diag(self.diag) - self.offdiag.adjacency_dense()

    def matvec(self, x):
        return self.diag * np.asarray(x, dtype=np.float64) - self.offdiag.adjacency @ x

    @classmethod
    def from_dense(cls, M, tol=1e-12):
        M = np.asarray(M, dtype=np.float64)
        if not np.allclose(M, M.T, rtol=1e-12, atol=0):
            raise ValidationError("matrix must be symmetric")
        off = -M.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < -tol):
            raise ValidationError("off-diagonal entries must be nonpositive")
        off[off < 0] = 0.0
        return cls(np.diag(M).copy(), WeightedGraph.from_dense(off))

    def __repr__(self):
        return f"SddmMatrix(n={self.n}, m={self.offdiag.m})"


# ---------------------------------------------------------------------------
# File I/O
#
# Two on-disk formats:
#   * Matrix Market coordinate real (general or symmetric), 1-based indices;
#   * whitespace-separated edge list "u v w" with '#' comments.
# Output edges are sorted by (u, v) with weights at 17 significant digits.
# ---------------------------------------------------------------------------


def _merge_duplicate_edges(u, v, w):
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    key = lo * (np.max(hi, initial=0) + 1) + hi
    uniq, inv = np.unique(key, return_inverse=True)
    wsum = np.zeros(len(uniq))
    np.add.at(wsum, inv, w)
    first = np.zeros(len(uniq), dtype=np.int64)
    first[inv[::-1]] = np.arange(len(u))[::-1]
    return lo[first], hi[first], wsum


def load_graph(path, fmt=None, symmetrize=False):
    """Load a WeightedGraph from an edge list or Matrix Market file.

    fmt is 'edge-list', 'matrix-market', or None to sniff from the content.
    symmetrize allows Matrix Market 'general' files that list only one
    triangle; without it a one-sided entry is an error.
    """
    with open(path) as fh:
        lines = fh.readlines()
    if fmt is None:
        fmt = "matrix-market" if lines and lines[0].startswith("%%MatrixMarket") else "edge-list"
    if fmt == "matrix-market":
        n, entries = _parse_matrix_market(lines, symmetrize=symmetrize)
    elif fmt == "edge-list":
        n, entries = _parse_edge_list(lines)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return _assemble_graph(n, entries)


def _assemble_graph(n, entries):
    """entries: list of (line, u, v, w) with 0-based ids, possibly duplicated."""
    loops = 0
    kept = []
    for line, u, v, w in entries:
        if w < 0:
            raise GraphFormatError(f"negative weight {w!r}", line=line)
        if u == v:
            loops += 1
            continue
        kept.append((u, v, w))
    if loops:
        log.warning("dropped %d self-loop entries (they cancel in D - A)", loops)
    graph = WeightedGraph.from_edges(n, kept)
    graph.self_loops_dropped = loops
    return graph


def _parse_edge_list(lines):
    raw = []
    for i, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 3:
            raise GraphFormatError(f"expected 'u v w', got {line.strip()!r}", line=i)
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise GraphFormatError(f"cannot parse {line.strip()!r}", line=i) from None
        raw.append((i, u, v, w))
    if not raw:
        raise GraphFormatError("no edges found")
    ids = sorted({u for _, u, v, _ in raw} | {v for _, _, v, _ in raw})
    if ids[0] == 0 and ids[-1] == len(ids) - 1:
        remap = None
    else:
        remap = {ext: k for k, ext in enumerate(ids)}
    entries = []
    for line, u, v, w in raw:
        if remap is not None:
            u, v = remap[u], remap[v]
        entries.append((line, u, v, w))
    return len(ids), entries


def _parse_matrix_market(lines, symmetrize=False):
    header = lines[0].split()
    if len(header) < 5 or header[0] != "%%MatrixMarket":
        raise GraphFormatError("missing MatrixMarket header", line=1)
    kind = header[4].lower()
    if header[1:4] != ["matrix", "coordinate", "real"] or kind not in ("general", "symmetric"):
        raise GraphFormatError(f"unsupported MatrixMarket type {' '.join(header[1:])!r}", line=1)
    body = [(i, ln) for i, ln in enumerate(lines[1:], start=2) if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise GraphFormatError("missing size line")
    size_line, size_text = body[0]
    parts = size_text.split()
    try:
        nrow, ncol, nnz = int(parts[0]), int(parts[1]), int(parts[2])
    except (ValueError, IndexError):
        raise GraphFormatError(f"bad size line {size_text.strip()!r}", line=size_line) from None
    if nrow != ncol:
        raise GraphFormatError("matrix must be square", line=size_line)
    raw = []
    for i, text in body[1:]:
        parts = text.split()
        if len(parts) != 3:
            raise GraphFormatError(f"expected 'i j value', got {text.strip()!r}", line=i)
        try:
            u, v = int(parts[0]) - 1, int(parts[1]) - 1
            w = float(parts[2])
        except ValueError:
            raise GraphFormatError(f"cannot parse {text.strip()!r}", line=i) from None
        if not (0 <= u < nrow and 0 <= v < nrow):
            raise GraphFormatError(f"index out of range in {text.strip()!r}", line=i)
        raw.append((i, u, v, w))
    if len(raw) != nnz:
        raise GraphFormatError(f"expected {nnz} entries, found {len(raw)}")
    if kind == "symmetric" or symmetrize:
        return nrow, raw
    # general: both triangles must be present and agree after duplicate merge
    acc = {}
    for line, u, v, w in raw:
        acc[(u, v)] = acc.get((u, v), 0.0) + w
    entries = []
    for line, u, v, w in raw:
        if u >= v:
            continue
        if (v, u) not in acc:
            raise GraphFormatError(f"entry ({u + 1},{v + 1}) has no symmetric partner", line=line)
        if abs(acc[(u, v)] - acc[(v, u)]) > 1e-12 * max(abs(acc[(u, v)]), 1.0):
            raise GraphFormatError(f"asymmetric value at ({u + 1},{v + 1})", line=line)
        entries.append((line, u, v, acc[(u, v)]))
    seen_diag = set()
    for line, u, v, w in raw:
        if u == v and u not in seen_diag:
            seen_diag.add(u)
            entries.append((line, u, v, acc[(u, u)]))
    missing = [p for p in acc if p[0] < p[1] and (p[1], p[0]) not in acc]
    if missing:
        raise GraphFormatError(f"entry {missing[0]} has no symmetric partner")
    return nrow, entries


def save_graph(G: WeightedGraph, path, fmt="matrix-market"):
    """Write edges sorted by (u, v); weights keep 17 significant digits."""
    with open(path, "w") as fh:
        if fmt == "matrix-market":
            fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
            fh.write(f"{G.n} {G.n} {G.m}\n")
            for u, v, w in zip(G.edge_u, G.edge_v, G.edge_w):
                fh.write(f"{u + 1} {v + 1} {w:.17g}\n")
        elif fmt == "edge-list":
            for u, v, w in zip(G.edge_u, G.edge_v, G.edge_w):
                fh.write(f"{u} {v} {w:.17g}\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")


def load_sddm(path):
    """Read an SDDM matrix from Matrix Market coordinate (diagonal included)."""
    with open(path) as fh:
        lines = fh.readlines()
    n, entries = _parse_matrix_market(lines, symmetrize=True)
    diag = np.zeros(n)
    off = []
    for line, u, v, w in entries:
        if u == v:
            diag[u] += w
        else:
            if w > 0:
                raise GraphFormatError("SDDM off-diagonal entries must be nonpositive", line=line)
            off.append((u, v, -w))
    return SddmMatrix(diag, WeightedGraph.from_edges(n, off))


def save_sddm(M: SddmMatrix, path):
    G = M.offdiag
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{M.n} {M.n} {M.n + G.m}\n")
        for i in range(M.n):
            fh.write(f"{i + 1} {i + 1} {M.diag[i]:.17g}\n")
        for u, v, w in zip(G.edge_u, G.edge_v, G.edge_w):
            fh.write(f"{u + 1} {v + 1} {-w:.17g}\n")


def validate_poly_laplacian(G: WeightedGraph, alpha: PolyCoeffs, threshold=DENSE_THRESHOLD):
    """Dense check that L_alpha(G) is a Laplacian: symmetric, nonpositive
    off-diagonals, row sums within 1e-9 * D(i,i) of zero."""
    if G.n > threshold:
        raise ValidationError(f"dense validation limited to n <= {threshold}")
    from .oracle import dense_poly

    L = dense_poly(G, alpha)
    if not np.allclose(L, L.T, atol=1e-12 * max(1.0, np.abs(L).max())):
        return False
    off = L - np.diag(np.diag(L))
    if np.any(off > 1e-12 * max(1.0, np.abs(L).max())):
        return False
    rows = L.sum(axis=1)
    return bool(np.all(np.abs(rows) <= 1e-9 * np.maximum(G.degree, 1e-300)))
