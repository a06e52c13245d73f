"""Core graph and matrix data model, validation, and file I/O.

Graphs are undirected with strictly positive edge weights, stored as a
canonical edge list (u < v) plus a CSR adjacency for fast traversal.
Vertex ids are dense 0-based integers; loaders remap external ids.
"""

from __future__ import annotations

import io
import logging
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import GraphFormatError, ValidationError

log = logging.getLogger(__name__)

DEGREE_RTOL = 1e-12
# Largest n handled by the dense oracle. Effective resistances are exact up
# to n = max(DENSE_THRESHOLD, JL sketch width).
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
            if not np.all(np.isfinite(w) & (w > 0)):
                raise ValidationError("edge weights must be finite and strictly positive")
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
        return cls._from_arrays(n, *(np.asarray(c) for c in zip(*edges)), merge_duplicates, labels)

    @classmethod
    def _from_arrays(cls, n, u, v, w, merge_duplicates=True, labels=None):
        loops = int(np.sum(u == v))
        if loops:
            # self-loops contribute nothing to the Laplacian quadratic form
            log.warning("dropped %d self-loop entries (they cancel in D - A)", loops)
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
    nonnegative everywhere and strictly positive somewhere in each connected
    component of offdiag that has an edge (else that block is singular).
    """

    def __init__(self, diag, offdiag: WeightedGraph, tol=1e-12):
        diag = np.asarray(diag, dtype=np.float64)
        if diag.shape != (offdiag.n,):
            raise ValidationError("diagonal length must match vertex count")
        if not np.all(np.isfinite(diag) & (diag > 0)):
            raise ValidationError("diagonal entries must be finite and positive")
        slack = diag - offdiag.degree
        scale = np.maximum(diag, 1.0)
        if np.any(slack < -tol * scale):
            raise ValidationError("matrix is not diagonally dominant")
        slack = np.maximum(slack, 0.0)
        ncomp, comp = connected_components(offdiag.adjacency, directed=False)
        dry = np.bincount(comp, minlength=ncomp) > 1
        dry[comp[slack > tol * scale]] = False
        if np.any(dry):
            c = np.argmax(dry)
            raise ValidationError(f"splitting is not positive definite: component {c} of {ncomp} "
                                  f"(from vertex {np.argmax(comp == c)}) has no diagonal slack")
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
# One np.loadtxt call parses a body and array operations check it; the line
# scanner runs only when loadtxt fails or a check refuses a row, to name it.
# ---------------------------------------------------------------------------

_ROW = [("u", np.int64), ("v", np.int64), ("w", np.float64)]
_MM_HEADER = "%%MatrixMarket matrix coordinate real symmetric\n"
_WRITE_CHUNK = 1 << 16


def _merge_duplicate_edges(u, v, w):
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    key = lo * (np.max(hi, initial=0) + 1) + hi
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    return lo[first], hi[first], np.bincount(inv, weights=w, minlength=len(first))


class _Body:
    """The 'u v w' rows of an open graph file from line `start` on. comments is
    '#' (edge lists) or None (Matrix Market: a '%' line is a comment and a '%'
    after data an error; loadtxt fails on both, so such files are scanned)."""

    def __init__(self, fh, start, comments):
        self.fh, self.start, self.comments, self.lines = fh, start, comments, None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty body
                rows = np.loadtxt(fh, dtype=_ROW, comments=comments, ndmin=1)
            self.u, self.v, self.w = rows["u"], rows["v"], rows["w"]
        except ValueError:
            self._scan()
        self.refuse(~np.isfinite(self.w), lambda k: f"weight {self.w[k]} is not finite")

    def _scan(self):
        """Parse line by line, raising at the first line that is not 'u v w'."""
        self.fh.seek(0)
        lines, rows = [], []
        for i, line in enumerate(self.fh, 1):
            text = (line.split(self.comments, 1)[0] if self.comments else line).strip()
            if i < self.start or not text or (self.comments is None and text[0] == "%"):
                continue
            parts = text.split()
            if len(parts) != 3:
                raise GraphFormatError(f"expected 'u v w', got {text!r}", line=i)
            try:
                rows.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError:
                raise GraphFormatError(f"cannot parse {text!r}", line=i) from None
            lines.append(i)
        u, v, w = zip(*rows) if rows else ((), (), ())
        ids = np.int64 if all(abs(x) < 2**63 for x in u + v) else object  # int() reads any id
        self.lines, self.u, self.v, self.w = lines, np.array(u, ids), np.array(v, ids), np.array(w)

    def refuse(self, bad, message):
        """Raise GraphFormatError(message(k)) at the first row k where bad holds."""
        if np.any(bad):
            k = int(np.argmax(bad))
            if self.lines is None:
                self._scan()
            raise GraphFormatError(message(k), line=self.lines[k])


def load_graph(path, fmt=None, symmetrize=False):
    """Load a WeightedGraph from an edge list or Matrix Market file.

    fmt is 'edge-list', 'matrix-market', or None to sniff from the content.
    symmetrize allows Matrix Market 'general' files that list only one
    triangle; without it a one-sided entry is an error.
    """
    with open(path) as raw:
        fh = raw if raw.seekable() else io.StringIO(raw.read())  # the scanner rereads
        if fmt is None:
            fmt = "matrix-market" if fh.readline().startswith("%%MatrixMarket") else "edge-list"
            fh.seek(0)
        if fmt == "matrix-market":
            n, kind, body, u, v, w = _read_matrix_market(fh)
            if kind == "general" and not symmetrize:
                return WeightedGraph._from_arrays(n, *_merge_general(body, n, u, v, w))
        elif fmt == "edge-list":
            body = _Body(fh, 1, "#")
            if len(body.w) == 0:
                raise GraphFormatError("no edges found")
            ids, inv = np.unique(np.concatenate([body.u, body.v]), return_inverse=True)
            n, u, v, w = len(ids), inv[: len(body.w)], inv[len(body.w):], body.w
        else:
            raise ValueError(f"unknown format {fmt!r}")
        body.refuse(w < 0, lambda k: f"negative weight {w[k]}")
    return WeightedGraph._from_arrays(n, u, v, w)


def _read_matrix_market(fh):
    """Header, size line and entries (0-based) of a Matrix Market file."""
    header = fh.readline().split()
    if len(header) < 5 or header[0] != "%%MatrixMarket":
        raise GraphFormatError("missing MatrixMarket header", line=1)
    kind = header[4].lower()
    if header[1:4] != ["matrix", "coordinate", "real"] or kind not in ("general", "symmetric"):
        raise GraphFormatError(f"unsupported MatrixMarket type {' '.join(header[1:])!r}", line=1)
    i, text = 1, ""
    while not text or text.startswith("%"):
        line = fh.readline()
        if not line:
            raise GraphFormatError("missing size line")
        i, text = i + 1, line.strip()
    try:
        n, ncol, nnz = map(int, text.split()[:3])
    except ValueError:
        raise GraphFormatError(f"bad size line {text!r}", line=i) from None
    if n != ncol:
        raise GraphFormatError("matrix must be square", line=i)
    body = _Body(fh, i + 1, None)
    u, v = body.u - 1, body.v - 1
    out = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    body.refuse(out, lambda k: f"index ({u[k] + 1},{v[k] + 1}) out of range 1..{n}")
    if len(u) != nnz:
        raise GraphFormatError(f"expected {nnz} entries, found {len(u)}")
    return n, kind, body, u, v, body.w


def _merge_general(body, n, u, v, w):
    """Upper-triangle edges of a 'general' file, duplicates summed. Each
    off-diagonal (u, v) needs a (v, u) whose sum agrees to 1e-12 relative."""
    keys, inv = np.unique(u * n + v, return_inverse=True)
    acc = np.bincount(inv, weights=w)
    flip = keys % n * n + keys // n
    pos = np.minimum(np.searchsorted(keys, flip), len(keys) - 1)
    paired = keys[pos] == flip
    asym = np.abs(acc - acc[pos]) > 1e-12 * np.maximum(np.abs(acc), 1.0)
    body.refuse(~paired[inv] | ((u < v) & asym[inv]), lambda k: f"entry ({u[k] + 1},{v[k] + 1}) "
                + ("has an asymmetric value" if paired[inv[k]] else "has no symmetric partner"))
    body.refuse((u <= v) & (acc[inv] < 0), lambda k: f"negative weight {acc[inv[k]]}")
    upper = keys // n <= keys % n
    return keys[upper] // n, keys[upper] % n, acc[upper]


def _write_rows(fh, u, v, w):
    """Write 'u v w' lines, formatting a chunk of rows with one % operation."""
    for s in range(0, len(w), _WRITE_CHUNK):
        cols = [c[s : s + _WRITE_CHUNK].tolist() for c in (u, v, w)]
        flat = [None] * (3 * len(cols[2]))
        flat[0::3], flat[1::3], flat[2::3] = cols
        fh.write("%d %d %.17g\n" * len(cols[2]) % tuple(flat))


def save_graph(G: WeightedGraph, path, fmt="matrix-market"):
    """Write edges sorted by (u, v); weights keep 17 significant digits."""
    if fmt not in ("matrix-market", "edge-list"):
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w") as fh:
        if fmt == "matrix-market":
            fh.write(f"{_MM_HEADER}{G.n} {G.n} {G.m}\n")
            _write_rows(fh, G.edge_u + 1, G.edge_v + 1, G.edge_w)
        else:
            _write_rows(fh, G.edge_u, G.edge_v, G.edge_w)


def load_sddm(path):
    """Read an SDDM matrix from Matrix Market coordinate (diagonal included)."""
    with open(path) as raw:
        fh = raw if raw.seekable() else io.StringIO(raw.read())
        n, _, body, u, v, w = _read_matrix_market(fh)
        off = u != v
        body.refuse(off & (w > 0), lambda k: "SDDM off-diagonal entries must be nonpositive")
    diag = np.bincount(u[~off], weights=w[~off], minlength=n)
    return SddmMatrix(diag, WeightedGraph._from_arrays(n, u[off], v[off], -w[off]))


def save_sddm(M: SddmMatrix, path):
    G = M.offdiag
    idx = np.arange(1, M.n + 1)
    with open(path, "w") as fh:
        fh.write(f"{_MM_HEADER}{M.n} {M.n} {M.n + G.m}\n")
        _write_rows(fh, idx, idx, M.diag)
        _write_rows(fh, G.edge_u + 1, G.edge_v + 1, -G.edge_w)
