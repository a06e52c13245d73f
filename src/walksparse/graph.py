"""Core graph and matrix data model, validation, and file I/O.

Graphs are undirected with strictly positive edge weights, stored as a
canonical edge list (u < v, sorted by (u, v)); input already in that order
is not re-sorted. The CSR adjacency, the degree vector and the connected
components are built on first read. Vertex ids are dense 0-based
integers; loaders remap external ids.
"""

from __future__ import annotations

import io
import logging
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import GraphFormatError, ValidationError

log = logging.getLogger(__name__)

# SddmMatrix's slack tolerance, relative to max(diag, 1)
SLACK_RTOL = 1e-12
# Largest n handled by the dense oracle. Effective resistances are exact up
# to n = max(DENSE_THRESHOLD, JL sketch width).
DENSE_THRESHOLD = 512


class WeightedGraph:
    """Undirected graph with strictly positive weights, as the canonical edge
    list edge_u < edge_v sorted by (edge_u, edge_v) with no duplicate.

    Edges that arrive in that order are kept as they are; others are sorted
    once. adjacency (the symmetric CSR matrix A, rows sorted), degree (A 1)
    and components are built on first read, so a graph that is only passed
    on or written out never builds them. Immutable after construction; safe to
    share across threads (a race builds a cache twice, with equal bytes).
    """

    def __init__(self, n, u, v, w):
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.array(w, dtype=np.float64)  # owned: an in-order edge list is not copied again
        if u.shape != v.shape or u.shape != w.shape:
            raise ValidationError("edge arrays must have equal length")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValidationError("edge weights must be finite and strictly positive")
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        if np.any(lo == hi):
            raise ValidationError("self-loops are not stored")
        if len(lo) and (lo.min() < 0 or hi.max() >= n):
            raise ValidationError("vertex id out of range")
        self.n = int(n)
        if not _increasing(lo, hi):
            order, start = _runs(lo, hi)
            if not start.all():
                raise ValidationError("duplicate edges must be merged before construction")
            lo, hi, w = lo[order], hi[order], w[order]
        self.edge_u, self.edge_v, self.edge_w = lo, hi, w

    @cached_property
    def adjacency(self):
        """A = U + U^T, U the upper triangle's CSR; their patterns are disjoint,
        so each entry is w + 0 = w and each row comes out sorted."""
        indptr = np.concatenate([[0], np.cumsum(np.bincount(self.edge_u, minlength=self.n))])
        upper = sp.csr_matrix((self.edge_w, self.edge_v, indptr), shape=(self.n, self.n))
        return upper + upper.T

    @cached_property
    def degree(self):
        # A 1, bit for bit the row sums the walk sampler and exact chain use
        return self.adjacency @ np.ones(self.n)

    @cached_property
    def components(self):
        """(count, labels) of the connected components; labels[i] is vertex i's."""
        return connected_components(self.adjacency, directed=False)

    @property
    def m(self):
        return len(self.edge_w)

    @classmethod
    def from_edges(cls, n, edges):
        """Build from (u, v, w) triples; duplicate edges are summed."""
        if len(edges) == 0:
            return cls(n, [], [], [])
        return cls._from_arrays(n, *(np.asarray(c) for c in zip(*edges)))

    @classmethod
    def _from_arrays(cls, n, u, v, w):
        loops = int(np.sum(u == v))
        if loops:
            # self-loops contribute nothing to the Laplacian quadratic form
            log.warning("dropped %d self-loop entries (they cancel in D - A)", loops)
            keep = u != v
            u, v, w = u[keep], v[keep], w[keep]
        return cls(n, *_merge_duplicate_edges(u, v, w))

    @classmethod
    def from_dense(cls, A):
        """Build from a dense symmetric adjacency; entries <= 0 are dropped."""
        A = np.asarray(A, dtype=np.float64)
        if A.shape[0] != A.shape[1]:
            raise ValidationError("adjacency must be square")
        if not np.allclose(A, A.T, rtol=1e-12, atol=0):
            raise ValidationError("adjacency must be symmetric")
        iu, iv = np.nonzero(np.triu(A, k=1) > 0)
        return cls(A.shape[0], iu, iv, A[iu, iv])

    def adjacency_dense(self):
        return self.adjacency.toarray()

    def laplacian(self):
        """Sparse L = D - A."""
        return sp.diags(self.degree) - self.adjacency

    def laplacian_dense(self):
        return np.diag(self.degree) - self.adjacency.toarray()

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
        if not np.all(a >= 0):  # false on NaN, which a < 0 and the sum test both let through
            raise ValidationError("coefficients must be nonnegative numbers")
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

    def __init__(self, diag, offdiag: WeightedGraph):
        diag = np.asarray(diag, dtype=np.float64)
        if diag.shape != (offdiag.n,):
            raise ValidationError("diagonal length must match vertex count")
        if not np.all(np.isfinite(diag) & (diag > 0)):
            raise ValidationError("diagonal entries must be finite and positive")
        slack = diag - offdiag.degree
        scale = np.maximum(diag, 1.0)
        if np.any(slack < -SLACK_RTOL * scale):
            raise ValidationError("matrix is not diagonally dominant")
        ncomp, comp = offdiag.components
        dry = np.bincount(comp, minlength=ncomp) > 1
        dry[comp[slack > SLACK_RTOL * scale]] = False
        if np.any(dry):
            c = np.argmax(dry)
            raise ValidationError(f"splitting is not positive definite: component {c} of {ncomp} "
                                  f"(from vertex {np.argmax(comp == c)}) has no diagonal slack")
        self.diag = diag
        self.offdiag = offdiag

    @property
    def n(self):
        return self.offdiag.n

    def matrix(self):
        return sp.diags(self.diag) - self.offdiag.adjacency

    def dense(self):
        return np.diag(self.diag) - self.offdiag.adjacency_dense()

    def matvec(self, x):
        return self.diag * np.asarray(x, dtype=np.float64) - self.offdiag.adjacency @ x

    def __repr__(self):
        return f"SddmMatrix(n={self.n}, m={self.offdiag.m})"


# ---------------------------------------------------------------------------
# File I/O
#
# Two input formats:
#   * Matrix Market coordinate real (general or symmetric), 1-based indices;
#   * whitespace-separated edge list "u v w" with '#' comments.
# Output is Matrix Market 'symmetric', edges sorted by (u, v), each row as
# "%d %d %.16e\n" % row writes it: every weight as its 17 significant digits,
# which read back to the same double, in one fixed layout.
# One np.loadtxt call parses a body and array operations check it; the line
# scanner runs only when loadtxt fails or a check refuses a row, to name it.
# ---------------------------------------------------------------------------

_ROW = [("u", np.int64), ("v", np.int64), ("w", np.float64)]
_MM_HEADER = "%%MatrixMarket matrix coordinate real symmetric\n"
_WRITE_CHUNK = 1 << 14  # a chunk's temporaries stay in cache
# ASCII of each 4-digit group as one little-endian word
_DIGITS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48).view("<u4").ravel()
_SCALE = 10.0 ** np.arange(22)  # 10^(16-k), exact doubles


def _runs(lo, hi):
    """Stable order of the pairs (lo, hi), by lo and then hi, and a mask of the
    sorted pairs that start a run of equal ones. lexsort compares the ids
    themselves, so no key built from them can overflow."""
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    start = np.ones(len(order), bool)
    start[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return order, start


def _increasing(lo, hi):
    """Whether the pairs (lo, hi) strictly increase: then none repeats and none needs a sort."""
    return np.all((lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1])))


def _merge_duplicate_edges(u, v, w):
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if _increasing(lo, hi):
        return lo, hi, w
    order, start = _runs(lo, hi)
    first = order[start]
    # a run keeps its input order, so bincount adds its weights in that order
    return lo[first], hi[first], np.bincount(np.cumsum(start) - 1, weights=w[order], minlength=len(first))


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


def load_graph(path, fmt=None):
    """Load a WeightedGraph from an edge list or Matrix Market file.

    fmt is 'edge-list', 'matrix-market', or None to sniff from the content.
    """
    with open(path) as raw:
        fh = raw if raw.seekable() else io.StringIO(raw.read())  # the scanner rereads
        if fmt is None:
            fmt = "matrix-market" if fh.readline().startswith("%%MatrixMarket") else "edge-list"
            fh.seek(0)
        if fmt == "matrix-market":
            n, u, v, w = _read_matrix_market(fh, 1)
        elif fmt == "edge-list":
            body = _Body(fh, 1, "#")
            if len(body.w) == 0:
                raise GraphFormatError("no edges found")
            body.refuse(body.w < 0, lambda k: f"negative weight {body.w[k]}")
            ids, inv = np.unique(np.concatenate([body.u, body.v]), return_inverse=True)
            n, u, v, w = len(ids), inv[: len(body.w)], inv[len(body.w):], body.w
        else:
            raise ValueError(f"unknown format {fmt!r}")
    return WeightedGraph._from_arrays(n, u, v, w)


def _read_matrix_market(fh, sign):
    """Size n and entries (u, v, w), 0-based, of a Matrix Market file, each
    off-diagonal value times sign and every row's value nonnegative. A
    'symmetric' file gives its rows; a 'general' one, which must list both
    triangles, gives its upper triangle and diagonal with duplicates summed."""
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
    w = np.where(u == v, body.w, sign * body.w)
    body.refuse(w < 0, lambda k: f"negative weight {w[k]}" if sign > 0 else
                f"SDDM {'diagonal' if u[k] == v[k] else 'off-diagonal'} entry {body.w[k]} has the wrong sign")
    return (n, *_merge_general(body, u, v, w)) if kind == "general" else (n, u, v, w)


def _merge_general(body, u, v, w):
    """Upper-triangle edges of a 'general' file, duplicates summed. Each
    off-diagonal (u, v) needs a (v, u) whose sum agrees to 1e-12 relative."""
    order, start = _runs(u, v)
    inv = np.empty(len(u), np.int64)
    inv[order] = np.cumsum(start) - 1
    a, b, acc = u[order[start]], v[order[start]], np.bincount(inv, weights=w)
    # sorted stably among the flipped pairs (b, a), a pair is followed by its partner's flip
    s, fresh = _runs(np.concatenate([a, b]), np.concatenate([b, a]))
    pos = np.full(len(a), -1)
    pos[s[:-1][~fresh[1:]]] = s[1:][~fresh[1:]] - len(a)
    paired = pos >= 0
    asym = np.abs(acc - acc[pos]) > 1e-12 * np.maximum(np.abs(acc), 1.0)
    body.refuse(~paired[inv] | ((u < v) & asym[inv]), lambda k: f"entry ({u[k] + 1},{v[k] + 1}) "
                + ("has an asymmetric value" if paired[inv[k]] else "has no symmetric partner"))
    upper = a <= b
    return a[upper], b[upper], acc[upper]


def _ids(x, count):
    """'%d' of each id >= 0 as count 4-byte groups, NUL-padded in front."""
    groups = np.column_stack([_DIGITS[x // 10 ** (4 * j) % 10000] for j in range(count - 1, -1, -1)])
    chars = groups.view(np.uint8)
    lead = np.logical_and.accumulate(chars[:, :-1] == 48, axis=1)  # zeros before the first digit
    chars[:, :-1][lead] = 0
    return groups


def _significands(w):
    """(N, k, ok): '%.16e' of w is the digits of the integer N in [10^16, 10^17)
    times 10^(k-16) where ok, which needs 10^-5 <= |w| < 10^17. Dekker's
    two-product gives |w| 10^(16-k) = p + err exactly, and p >= 10^16 is even, so
    N = p + rint(err) is round(|w| 10^(16-k)), ties to even. A wrong k or a carry
    leaves N outside [10^16, 10^17): for k in [-5, 16] no double is within 5e-17
    relative below 10^k (the one nearest 10^-6 is)."""
    ok = (np.abs(w) >= 1e-5) & (np.abs(w) < 1e17)
    a = np.where(ok, np.abs(w), 1.0)
    k = np.clip(np.floor(np.log10(a)).astype(np.int64), -5, 16)
    b = _SCALE[16 - k]
    ah, bh = ((c := x * 134217729.0) - (c - x) for x in (a, b))  # Dekker's 26-bit halves
    p, al, bl = a * b, a - ah, b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    N = p.astype(np.int64) + np.rint(err).astype(np.int64)
    return N, k, ok & (N >= 10**16) & (N < 10**17)


def _write_rows(fh, u, v, w):
    """Write 'u v w' lines to a binary file, byte for byte b"%d %d %.16e\\n" % row. A
    chunk is one NUL-padded record per row, made by array arithmetic, whose NULs are
    deleted in one pass; the rows _significands leaves out are formatted by % and spliced
    in. Ids below the row count (and 10^8) are formatted once, into a table."""
    top = max(u.max(initial=1), v.max(initial=1))
    ids = -(-len(str(top)) // 4)
    table = _ids(np.arange(top + 1), ids).view(f"<u{4 * ids}").ravel() if top < len(w) and ids <= 2 else None
    for s in range(0, len(w), _WRITE_CHUNK):
        cu, cv, cw = (c[s : s + _WRITE_CHUNK] for c in (u, v, w))
        rows = np.zeros(len(cw), [("u", "<u4", ids), ("sp", "u1"), ("v", "<u4", ids), ("sp2", "u1"),
                                  ("sign", "u1"), ("lead", "<u2"), ("frac", "<u4", 4), ("exp", "<u4"), ("nl", "u1")])
        for name, x in (("u", cu), ("v", cv)):  # a negative id is clipped here and spliced in by %
            rows[name] = _ids(x, ids) if table is None else table.take(x, mode="clip").view("<u4").reshape(-1, ids)
        rows["sp"], rows["sp2"], rows["nl"] = 32, 32, 10
        N, k, ok = _significands(cw)
        rows["frac"] = np.column_stack([_DIGITS[N // 10 ** (4 * j) % 10000] for j in range(3, -1, -1)])
        rows["sign"], rows["lead"] = np.where(cw < 0, 45, 0), 48 + N // 10**16 | 46 << 8  # '-', digit, '.'
        rows["exp"] = _DIGITS[np.abs(k)] & 0xFFFF0000 | np.where(k < 0, 0x2D65, 0x2B65)  # 'e', sign, 2 digits
        ok &= (cu >= 0) & (cv >= 0)
        rows[~ok] = 0
        text = rows.tobytes().translate(None, b"\0")
        if len(bad := np.flatnonzero(~ok)):
            lengths = np.count_nonzero(rows.view(np.uint8).reshape(len(cw), -1), axis=1)
            cuts = np.concatenate([[0], np.cumsum(lengths)])[bad].tolist()
            parts = [text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)])]
            spliced = zip(cu[bad].tolist(), cv[bad].tolist(), cw[bad].tolist())
            text = parts[0] + b"".join(b"%d %d %.16e\n" % r + t for r, t in zip(spliced, parts[1:]))
        fh.write(text)


def save_graph(G: WeightedGraph, path):
    """Write Matrix Market 'symmetric', edges sorted by (u, v), each row "%d %d %.16e" % row."""
    with open(path, "wb") as fh:
        fh.write(f"{_MM_HEADER}{G.n} {G.n} {G.m}\n".encode())
        _write_rows(fh, G.edge_u + 1, G.edge_v + 1, G.edge_w)


def load_sddm(path):
    """Read an SDDM matrix from Matrix Market coordinate (diagonal included)."""
    with open(path) as raw:
        fh = raw if raw.seekable() else io.StringIO(raw.read())
        n, u, v, w = _read_matrix_market(fh, -1)
    off = u != v
    diag = np.bincount(u[~off], weights=w[~off], minlength=n)
    return SddmMatrix(diag, WeightedGraph._from_arrays(n, u[off], v[off], w[off]))


def save_sddm(M: SddmMatrix, path):
    G = M.offdiag
    idx = np.arange(1, M.n + 1)
    with open(path, "wb") as fh:
        fh.write(f"{_MM_HEADER}{M.n} {M.n} {M.n + G.m}\n".encode())
        _write_rows(fh, idx, idx, M.diag)
        _write_rows(fh, G.edge_u + 1, G.edge_v + 1, -G.edge_w)
