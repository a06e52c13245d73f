import io
import logging
import math
import os
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from walksparse import (
    GraphFormatError,
    PolyCoeffs,
    SddmMatrix,
    ValidationError,
    WeightedGraph,
    load_graph,
    load_sddm,
    save_graph,
    save_sddm,
)
from walksparse import graph
from walksparse.sampling import RngStream
from walksparse.sparsify import SparsifyConfig, sparsify_poly

from conftest import er_graph, path_graph, random_sddm


class TestWeightedGraph:
    def test_edges_canonicalized_and_sorted(self):
        G = WeightedGraph.from_edges(4, [(3, 1, 2.0), (2, 0, 1.0), (1, 0, 4.0)])
        assert list(G.edge_u) == [0, 0, 1]
        assert list(G.edge_v) == [1, 2, 3]
        assert list(G.edge_w) == [4.0, 1.0, 2.0]

    def test_adjacency_symmetric_bit_exact(self):
        G = er_graph(30, 0.2, 0, weighted=True)
        A = G.adjacency.toarray()
        assert np.array_equal(A, A.T)

    def test_degree_matches_incident_sum(self):
        G = er_graph(25, 0.3, 1, weighted=True)
        for u in range(G.n):
            inc = sum(w for a, b, w in zip(G.edge_u, G.edge_v, G.edge_w) if u in (a, b))
            assert G.degree[u] == pytest.approx(inc, rel=1e-12)

    def test_duplicate_edges_merge(self):
        G = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 0, 2.5)])
        assert G.m == 1
        assert G.edge_w[0] == 3.5

    def test_self_loop_entries_dropped(self, caplog):
        with caplog.at_level(logging.WARNING, logger="walksparse"):
            G = WeightedGraph.from_edges(3, [(0, 0, 5.0), (0, 1, 1.0)])
        assert G.m == 1
        assert [r.args[0] for r in caplog.records if "self-loop" in r.getMessage()] == [1]

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError):
            WeightedGraph.from_edges(2, [(0, 1, 0.0)])
        with pytest.raises(ValidationError):
            WeightedGraph.from_edges(2, [(0, 1, -1.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_weight_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            WeightedGraph(2, [0], [1], [bad])

    def test_connectivity_and_bipartiteness(self):
        ring5 = WeightedGraph.from_edges(5, [(i, (i + 1) % 5, 1.0) for i in range(5)])
        assert ring5.components[0] == 1
        two = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert two.components[0] == 2
        assert WeightedGraph.from_edges(1, []).components[0] == 1
        assert WeightedGraph.from_edges(2, []).components[0] == 2

    def test_zero_row_sums(self):
        G = er_graph(20, 0.3, 3)
        L = G.laplacian_dense()
        assert np.max(np.abs(L.sum(axis=1))) < 1e-9

    def test_shuffled_and_swapped_input_build_the_same_graph(self):
        ref = er_graph(60, 0.15, 4, weighted=True)
        gen = np.random.default_rng(7)
        perm = gen.permutation(ref.m)
        swap = gen.random(ref.m) < 0.5
        u, v = np.where(swap, ref.edge_v, ref.edge_u), np.where(swap, ref.edge_u, ref.edge_v)
        for G in (WeightedGraph(ref.n, ref.edge_u, ref.edge_v, ref.edge_w),
                  WeightedGraph(ref.n, ref.edge_u[perm], ref.edge_v[perm], ref.edge_w[perm]),
                  WeightedGraph(ref.n, u[perm], v[perm], ref.edge_w[perm]),
                  WeightedGraph(ref.n, ref.edge_v, ref.edge_u, ref.edge_w)):
            A, B = G.adjacency, ref.adjacency
            for x, y in [(G.edge_u, ref.edge_u), (G.edge_v, ref.edge_v), (G.edge_w, ref.edge_w),
                         (A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data), (G.degree, ref.degree)]:
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            assert A.has_sorted_indices

    def test_adjacency_matches_coo_build(self):
        G = er_graph(50, 0.2, 8, weighted=True)
        coo = sp.coo_matrix((np.concatenate([G.edge_w, G.edge_w]),
                             (np.concatenate([G.edge_u, G.edge_v]), np.concatenate([G.edge_v, G.edge_u]))),
                            shape=(G.n, G.n)).tocsr()
        coo.sort_indices()
        for x, y in [(G.adjacency.indptr, coo.indptr), (G.adjacency.indices, coo.indices),
                     (G.adjacency.data, coo.data), (G.degree, coo @ np.ones(G.n))]:
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("u, v", [([0, 0, 1], [1, 1, 2]), ([1, 0, 1], [2, 1, 0]), ([0, 1, 2], [1, 2, 1])],
                             ids=["sorted", "unsorted", "swapped"])
    def test_duplicate_edge_refused(self, u, v):
        with pytest.raises(ValidationError, match="duplicate"):
            WeightedGraph(3, u, v, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("u, v", [([1], [-1]), ([-1], [1]), ([0], [3])])
    def test_vertex_out_of_range_refused(self, u, v):
        with pytest.raises(ValidationError, match="out of range"):
            WeightedGraph(3, u, v, [1.0])

    @pytest.mark.parametrize("n", [2**31, 2**40])
    def test_sort_key_does_not_overflow(self, n):
        # the arrays built on first read would not fit in memory; none is built
        assert "adjacency" not in vars(WeightedGraph(3, [0], [1], [1.0]))  # else stop here
        G = WeightedGraph(n, [n - 1, 5, n - 2], [n - 2, n - 1, 0], [1.0, 2.0, 3.0])
        assert G.edge_u.tolist() == [0, 5, n - 2] and G.edge_v.tolist() == [n - 2, n - 1, n - 1]
        assert G.edge_w.tolist() == [3.0, 2.0, 1.0]
        assert "adjacency" not in vars(G) and "degree" not in vars(G)
        with pytest.raises(ValidationError, match="duplicate"):
            WeightedGraph(n, [n - 1, 5, n - 2], [n - 2, n - 1, n - 1], [1.0, 2.0, 3.0])

    def test_merge_key_does_not_overflow(self):
        # 5 * 2^40 and (5 + 2^24) * 2^40 are equal modulo 2^64
        assert "adjacency" not in vars(WeightedGraph(3, [0], [1], [1.0]))  # else stop here
        n = 2**40
        G = WeightedGraph.from_edges(n, [(5, n - 1, 1.0), (5 + 2**24, n - 1, 2.0), (n - 1, 5, 0.5)])
        assert G.edge_u.tolist() == [5, 5 + 2**24] and G.edge_w.tolist() == [1.5, 2.0]

    def test_canonical_input_is_not_resorted(self, monkeypatch):
        G = er_graph(30, 0.2, 2, weighted=True)
        monkeypatch.setattr(graph.np, "argsort", None)
        monkeypatch.setattr(graph.np, "lexsort", None)
        assert WeightedGraph(G.n, G.edge_u, G.edge_v, G.edge_w) == G

    def test_output_graph_builds_no_adjacency(self, tmp_path, caplog):
        # poly-grid's path: the stage-one product is only written out
        k = 12
        idx = np.arange(k * k).reshape(k, k)
        u = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
        v = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
        G = WeightedGraph(k * k, u, v, np.exp(np.random.default_rng(3).uniform(-1, 1, len(u))))
        cfg = SparsifyConfig(epsilon=1.0, oversample=1.0)
        with caplog.at_level(logging.INFO, logger="walksparse"):
            H = sparsify_poly(G, PolyCoeffs.parse("0.5,0.5"), cfg, RngStream(1))
        assert "stage 1 exact" in caplog.text
        save_graph(H, tmp_path / "h.mtx")
        assert "adjacency" not in vars(H) and "degree" not in vars(H)
        assert "adjacency" in vars(G)  # read by the walks' layers


class TestPolyCoeffs:
    def test_valid(self):
        a = PolyCoeffs.parse("0.5,0.5")
        assert a.d == 2

    def test_sum_enforced(self):
        with pytest.raises(ValidationError):
            PolyCoeffs.parse("0.5,0.6")

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            PolyCoeffs(np.array([1.5, -0.5]))

    def test_monomial(self):
        a = PolyCoeffs.monomial(4)
        assert a.d == 4
        assert a.alpha[3] == 1.0
        assert a.alpha[:3].sum() == 0.0


class TestSddmMatrix:
    def test_valid_split(self):
        G = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        M = SddmMatrix(np.array([3.0, 3.0]), G)
        np.testing.assert_allclose(M.dense(), [[3.0, -1.0], [-1.0, 3.0]])

    def test_zero_slack_everywhere_rejected(self):
        G = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(ValidationError):
            SddmMatrix(np.array([1.0, 1.0]), G)

    def test_not_dominant_rejected(self):
        G = WeightedGraph.from_edges(2, [(0, 1, 2.0)])
        with pytest.raises(ValidationError):
            SddmMatrix(np.array([1.0, 3.0]), G)

    def test_component_without_slack_rejected(self):
        # two 20-vertex unit paths; only vertex 0 of the first has slack
        edges = [(i, i + 1, 1.0) for i in range(19)] + [(i, i + 1, 1.0) for i in range(20, 39)]
        G = WeightedGraph.from_edges(40, edges)
        diag = G.degree.copy()
        diag[0] += 0.5
        with pytest.raises(ValidationError, match=r"component 1 of 2 \(from vertex 20\)"):
            SddmMatrix(diag, G)
        diag[20] += 0.5
        SddmMatrix(diag, G)

    def test_isolated_vertices_need_no_slack(self):
        # slack 1e-13 is below the tolerance, so only the isolated-vertex rule admits it
        M = SddmMatrix(np.full(3, 1e-13), WeightedGraph.from_edges(3, []))
        assert M.n == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_diagonal_rejected(self, bad):
        G = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(ValidationError, match="finite"):
            SddmMatrix(np.array([3.0, bad]), G)


class TestFileIO:
    def test_matrix_market_roundtrip(self, tmp_path):
        G = er_graph(12, 0.4, 5, weighted=True)
        p = tmp_path / "g.mtx"
        save_graph(G, p)
        H = load_graph(p)
        assert H == G

    def test_edge_list_roundtrip(self, tmp_path):
        G = er_graph(10, 0.4, 6, weighted=True)
        p = tmp_path / "g.txt"
        p.write_text(per_edge_rows(G.edge_u, G.edge_v, G.edge_w))
        H = load_graph(p, fmt="edge-list")
        assert H == G

    def test_format_sniffing(self, tmp_path):
        G = path_graph([1.0, 2.0])
        save_graph(G, tmp_path / "g-matrix-market")
        (tmp_path / "g-edge-list").write_text(per_edge_rows(G.edge_u, G.edge_v, G.edge_w))
        for fmt in ("matrix-market", "edge-list"):
            assert load_graph(tmp_path / f"g-{fmt}") == G

    def test_edge_list_comments_and_labels(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# a comment\n10 20 1.5\n20 30 2.5\n")
        G = load_graph(p)
        assert G.n == 3
        assert G.m == 2

    def test_negative_weight_reports_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 1.0\n1 2 -3.0\n")
        with pytest.raises(GraphFormatError) as exc:
            load_graph(p)
        assert "2" in str(exc.value)

    def test_general_mm_requires_symmetry(self, tmp_path):
        p = tmp_path / "g.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 1.0\n2 3 1.0\n"
        )
        with pytest.raises(GraphFormatError):
            load_graph(p)

    def test_sddm_roundtrip(self, tmp_path):
        G = er_graph(8, 0.5, 7, weighted=True)
        M = SddmMatrix(G.degree + 1.0, G)
        p = tmp_path / "m.mtx"
        save_sddm(M, p)
        M2 = load_sddm(p)
        np.testing.assert_allclose(M2.dense(), M.dense(), rtol=1e-12)


MM_SYM = "%%MatrixMarket matrix coordinate real symmetric\n"
MM_GEN = "%%MatrixMarket matrix coordinate real general\n"


def per_edge_rows(u, v, w):
    """Reference writer: one f-string per edge."""
    return "".join(f"{a} {b} {x:.16e}\n" for a, b, x in zip(u, v, w))


def mm_twins(n, entries):
    """The 'symmetric' and 'general' Matrix Market texts of one matrix, given its
    1-based upper-triangle entries; the general text lists the lower triangle
    first, the entries in reverse."""
    both = entries + [(v, u, x) for u, v, x in entries if u != v]
    return (MM_SYM + f"{n} {n} {len(entries)}\n" + per_edge_rows(*zip(*entries)),
            MM_GEN + f"{n} {n} {len(both)}\n" + per_edge_rows(*zip(*both[::-1])))


def upper_entries(M):
    """1-based upper-triangle entries of a WeightedGraph's adjacency or an SddmMatrix."""
    if isinstance(M, WeightedGraph):
        return [(a + 1, b + 1, x) for a, b, x in zip(M.edge_u.tolist(), M.edge_v.tolist(), M.edge_w.tolist())]
    return [(i + 1, i + 1, x) for i, x in enumerate(M.diag.tolist())] + [
        (a, b, -x) for a, b, x in upper_entries(M.offdiag)]


def _no_loadtxt(*args, **kwargs):
    raise ValueError("line scanner forced")


def load_both_ways(monkeypatch, caplog, path, loader=load_graph, **kwargs):
    """[(result, self-loop warning counts)] by np.loadtxt, then by the line scanner."""
    out = []
    for scan in (False, True):
        if scan:
            monkeypatch.setattr(graph.np, "loadtxt", _no_loadtxt)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="walksparse"):
            res = loader(path, **kwargs)
        out.append((res, [r.args[0] for r in caplog.records if "self-loop" in r.getMessage()]))
    return out


def written_rows(u, v, w):
    """_write_rows into a string, from arrays only (ids may exceed any graph)."""
    fh = io.BytesIO()
    graph._write_rows(fh, np.asarray(u, np.int64), np.asarray(v, np.int64), np.asarray(w, np.float64))
    return fh.getvalue().decode("ascii")


def assert_rows_match(w, u=None, v=None):
    u = np.arange(len(w)) if u is None else np.asarray(u)
    v = u[::-1] if v is None else np.asarray(v)
    assert written_rows(u, v, w) == per_edge_rows(u, v, w)


def float_bits(exponents):
    """Finite doubles from random sign, mantissa and biased-exponent bits."""
    return st.tuples(st.booleans(), exponents, st.integers(0, 2**52 - 1)).map(
        lambda t: float(np.uint64((t[0] << 63) | (t[1] << 52) | t[2]).view(np.float64)))


class TestRowWriter:
    """_write_rows against the one-f-string-per-row reference, byte for byte."""

    def test_weights_around_powers_of_ten(self):
        w = [0.5, 2.5, 1e16, 5e-324, 1 - 2**-53, 100000000000000.125, 100000000000000.375, 1.0, 100.0]
        for k in range(-6, 19):
            for toward in (0.0, np.inf):
                x = 10.0**k
                for _ in range(3):  # 10^k, then 1-3 ulps below and above
                    w.append(x)
                    x = np.nextafter(x, toward)
                w.append(x)
        w = np.array(w)
        assert_rows_match(np.concatenate([w, -w]))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(float_bits(st.integers(0, 2046)), min_size=1, max_size=40),
           st.lists(float_bits(st.integers(1009, 1081)), min_size=1, max_size=40))
    def test_random_finite_bit_patterns(self, anywhere, fixed_range):
        # the second list keeps exponents near [1e-5, 1e17), where arithmetic formats
        assert_rows_match(np.array(anywhere + fixed_range))

    @pytest.mark.parametrize("off", [-1.0, 1.0], ids=["k-low", "k-high"])
    def test_wrong_exponent_estimate_is_refused(self, monkeypatch, off):
        # an exponent from log10 that is one off leaves N outside [1e16, 1e17)
        log10 = np.log10
        monkeypatch.setattr(graph.np, "log10", lambda x: log10(x) + off)
        assert_rows_match(10 ** np.random.default_rng(5).uniform(-5, 17, 500))

    def test_ids_at_digit_boundaries(self):
        u = [0, 9, 10, 9999, 10000, 99999999, 100000000, 2**62 + 12345]
        assert_rows_match(np.full(len(u), 0.25), u, u[::-1])
        assert_rows_match(np.full(len(u), 1e-9), u, u[::-1])  # the % path

    @pytest.mark.parametrize("top", [99, 100], ids=["table", "per-row"])
    def test_largest_id_at_the_row_count(self, monkeypatch, top):
        # ids below the row count are formatted once, into a table of 0..top
        lengths = []
        ids = graph._ids
        monkeypatch.setattr(graph, "_ids", lambda x, count: lengths.append(len(x)) or ids(x, count))
        u = np.arange(100)
        u[50] = top
        assert_rows_match(np.full(100, 0.5), u, u[::-1])
        assert lengths == ([top + 1] if top < 100 else [100, 100])

    @pytest.mark.parametrize("rows", [10050, 30], ids=["table", "per-row"])
    def test_ids_crossing_a_digit_group(self, rows):
        u = np.arange(rows) if rows > 10000 else np.arange(9985, 9985 + rows)  # 9999 and 10000
        assert_rows_match(10 ** np.random.default_rng(2).uniform(-3, 3, rows), u, u[::-1])

    def test_negative_ids_among_table_ids(self):
        u = np.arange(2000)
        v = u[::-1].copy()
        u[[0, 7, 1999]] = [-1, -10000, -(2**62)]
        v[[7, 500]] = [-99999999, -5]
        w = 10 ** np.random.default_rng(4).uniform(-2, 2, 2000)
        w[500] = 1e-9  # a % row for its weight as well
        assert_rows_match(w, u, v)

    @pytest.mark.parametrize("delta", [-1, 0, 1], ids=["chunk-1", "chunk", "chunk+1"])
    def test_chunk_edges(self, delta):
        m = graph._WRITE_CHUNK + delta
        w = 10 ** np.random.default_rng(delta + 1).uniform(-3, 3, m)
        for i in (0, graph._WRITE_CHUNK - 1, graph._WRITE_CHUNK, m - 1):
            if i < m:
                w[i] = 1e-7 / (i + 1)  # a % row at the first and last row of a chunk
        assert_rows_match(w)

    def test_chunk_of_only_percent_rows(self):
        w = np.full(graph._WRITE_CHUNK + 3, 1.5)
        w[graph._WRITE_CHUNK:] = [0.0, 1e17, 3e-6]
        assert_rows_match(w)
        assert_rows_match(np.array([0.0, -0.0, 5e-324, 1e-5, 1e17, -1e300, np.inf, -np.inf, np.nan]))

    def test_no_rows_writes_header_only(self, tmp_path):
        assert written_rows([], [], []) == ""
        save_graph(WeightedGraph(5, [], [], []), tmp_path / "g.mtx")
        assert (tmp_path / "g.mtx").read_text() == MM_SYM + "5 5 0\n"


class TestFileLayer:
    def test_save_bytes_match_per_edge_writer(self, tmp_path):
        gen = np.random.default_rng(11)
        iu, iv = np.triu_indices(400, 1)
        pick = gen.choice(len(iu), 70_000, replace=False)  # more than one write chunk
        w = 10 ** gen.uniform(-8, 8, len(pick))
        w[:2] = [5e-324, 1 - 2**-53]
        G = WeightedGraph(400, iu[pick], iv[pick], w)
        u, v = G.edge_u, G.edge_v
        save_graph(G, tmp_path / "g.mtx")
        assert (tmp_path / "g.mtx").read_text() == (
            MM_SYM + f"400 400 {G.m}\n" + per_edge_rows(u + 1, v + 1, G.edge_w)
        )
        (tmp_path / "g.txt").write_text(per_edge_rows(u, v, G.edge_w))
        assert load_graph(tmp_path / "g.mtx") == G
        assert load_graph(tmp_path / "g.txt") == G

        M = SddmMatrix(G.degree + 10 ** gen.uniform(-8, 8, G.n), G)
        save_sddm(M, tmp_path / "m.mtx")
        idx = np.arange(1, G.n + 1)
        assert (tmp_path / "m.mtx").read_text() == (
            MM_SYM + f"400 400 {G.n + G.m}\n"
            + per_edge_rows(idx, idx, M.diag) + per_edge_rows(u + 1, v + 1, -G.edge_w)
        )
        M2 = load_sddm(tmp_path / "m.mtx")
        assert np.array_equal(M2.diag, M.diag) and M2.offdiag == G

    @pytest.mark.parametrize("span", [8, 300], ids=["1e-8..1e8", "1e-300..1e300"])
    def test_round_trips_are_exact(self, tmp_path, span):
        gen = np.random.default_rng(span)
        iu, iv = np.triu_indices(150, 1)
        pick = gen.choice(len(iu), 3000, replace=False)
        G = WeightedGraph(150, iu[pick], iv[pick], 10 ** gen.uniform(-span, span, len(pick)))
        save_graph(G, tmp_path / "g.mtx")
        assert load_graph(tmp_path / "g.mtx") == G
        # twice the degree keeps a slack of one degree; the added term covers isolated vertices
        M = SddmMatrix(2 * G.degree + 10 ** gen.uniform(-span, span, G.n), G)
        save_sddm(M, tmp_path / "m.mtx")
        M2 = load_sddm(tmp_path / "m.mtx")
        assert np.array_equal(M2.diag, M.diag) and M2.offdiag == G

    def test_rows_in_edge_order_are_not_sorted(self, tmp_path, monkeypatch):
        # the exact route's triangle and a written file arrive in (u, v) order, so
        # nothing sorts them; rows out of order are still sorted and merged
        side = 12
        idx = np.arange(side * side).reshape(side, side)
        u = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
        v = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
        G = WeightedGraph(side * side, u, v, np.exp(np.random.default_rng(3).uniform(-1, 1, len(u))))
        calls = []
        runs = graph._runs
        monkeypatch.setattr(graph, "_runs", lambda lo, hi: calls.append(len(lo)) or runs(lo, hi))
        H = sparsify_poly(G, PolyCoeffs.parse("0.5,0.5"), SparsifyConfig(epsilon=1.0), RngStream(1))
        assert calls == []
        save_graph(H, tmp_path / "h.mtx")
        assert load_graph(tmp_path / "h.mtx") == H
        assert calls == []
        (tmp_path / "d.mtx").write_text(MM_SYM + "3 3 4\n2 3 1.0\n1 2 0.5\n3 2 0.25\n1 2 2.0\n")
        D = load_graph(tmp_path / "d.mtx")
        assert (D.edge_u.tolist(), D.edge_v.tolist(), D.edge_w.tolist()) == ([0, 1], [1, 2], [2.5, 1.25])
        assert calls == [4]

    @pytest.mark.parametrize(
        "text, n, m, loops",
        [
            ("0 1 1.5\n1 0 2.5\n1 2 1.0\n0 1 0.25\n", 3, 2, []),
            ("0 0 5\n0 1 1\n1 1 2\n1 2 1\n", 3, 2, [2]),
            ("# head\n\n0 1 1.0  # tail\n   \n# mid\n1 2 2.0\n", 3, 2, []),
            (MM_SYM + "% c\n\n3 3 2\n1 2 1.0\n\n% mid\n  % indented\n2 3 2.0\n", 3, 2, []),
            ("10 30 1.0\n30 -7 2.0\n", 3, 2, []),
            ("100000000000000000000 5 1.0\n5 7 2.0\n", 3, 2, []),
            (MM_GEN + "3 3 6\n1 2 1.5\n2 1 1.5\n3 2 2.0\n2 3 2.0\n3 3 1.0\n3 3 1.0\n", 3, 2, [1]),
            (MM_SYM + "3 3 0\n", 3, 0, []),
        ],
        ids=["duplicates", "self-loops", "comments", "mm-comments", "remapped-ids",
             "ids-beyond-int64", "general-both-triangles", "empty-body"],
    )
    def test_fast_loader_equals_line_scanner(self, tmp_path, monkeypatch, caplog, text, n, m, loops):
        p = tmp_path / "g"
        p.write_text(text)
        (fast, fast_loops), (scanned, scanned_loops) = load_both_ways(monkeypatch, caplog, p)
        assert fast == scanned and (fast.n, fast.m) == (n, m)
        assert fast_loops == scanned_loops == loops

    def test_sddm_fast_loader_equals_line_scanner(self, tmp_path, monkeypatch, caplog):
        p = tmp_path / "m.mtx"
        p.write_text(MM_SYM + "3 3 6\n1 1 4.0\n2 1 -1.0\n2 2 3.0\n% c\n1 2 -0.5\n3 3 2.0\n1 1 0.5\n")
        (fast, _), (scanned, _) = load_both_ways(monkeypatch, caplog, p, loader=load_sddm)
        np.testing.assert_array_equal(fast.diag, [4.5, 3.0, 2.0])
        assert np.array_equal(fast.diag, scanned.diag) and fast.offdiag == scanned.offdiag
        assert fast.offdiag.edge_w.tolist() == [1.5]

    @pytest.mark.parametrize("loader, n, entries", [
        (load_graph, 3, [(1, 2, 1.5), (1, 3, 0.25), (2, 2, 4.0), (2, 3, 3.0)]),
        (load_graph, 12, upper_entries(er_graph(12, 0.4, 5, weighted=True))),
        # dominant, but not if an off-diagonal entry counts twice
        (load_sddm, 3, [(1, 1, 5.0), (1, 2, -1.0), (2, 2, 5.0), (2, 3, -2.0), (3, 3, 5.0)]),
        (load_sddm, 20, upper_entries(random_sddm(20, 0.3, 1))),
    ], ids=["graph-with-loop", "graph-er", "sddm-3x3", "sddm-random"])
    def test_general_loads_as_its_symmetric_twin(self, tmp_path, monkeypatch, caplog, loader, n, entries):
        for name, text in zip(("sym", "gen"), mm_twins(n, entries)):
            (tmp_path / name).write_text(text)
        loaded = load_both_ways(monkeypatch, caplog, tmp_path / "sym", loader)
        monkeypatch.undo()
        loaded += load_both_ways(monkeypatch, caplog, tmp_path / "gen", loader)
        expected = np.zeros((n, n))
        for u, v, x in entries:
            expected[u - 1, v - 1] = expected[v - 1, u - 1] = x
        if loader is load_graph:
            np.fill_diagonal(expected, 0.0)
        ref, ref_loops = loaded[0]
        for res, loops in loaded:
            dense = res.adjacency_dense() if loader is load_graph else res.dense()
            assert dense.tobytes() == expected.tobytes() and loops == ref_loops
            assert res == ref if loader is load_graph else res.offdiag == ref.offdiag

    def test_pipe_input(self, tmp_path):
        G = er_graph(12, 0.4, 5, weighted=True)
        save_graph(G, tmp_path / "g.mtx")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        feed = threading.Thread(target=lambda: fifo.write_bytes((tmp_path / "g.mtx").read_bytes()),
                                daemon=True)
        feed.start()
        assert load_graph(fifo) == G
        feed.join(timeout=10)

    def test_general_duplicates_summed_once(self, tmp_path):
        p = tmp_path / "g.mtx"
        p.write_text(MM_GEN + "2 2 3\n1 2 1.0\n1 2 1.0\n2 1 2.0\n")
        assert load_graph(p).edge_w.tolist() == [2.0]

    def test_general_pairs_beyond_int64_keys(self, tmp_path):
        # keyed u * n + v, (5, 2^40 - 1) and (5 + 2^24, 2^40 - 1) are equal modulo 2^64
        n, far = 2**40, 2**24 + 6
        p = tmp_path / "g.mtx"
        p.write_text(MM_GEN + f"{n} {n} 4\n6 {n} 1.0\n{n} 6 1.0\n{far} {n} 2.0\n{n} {far} 2.0\n")
        G = load_graph(p)
        assert G.edge_u.tolist() == [5, far - 1] and G.edge_v.tolist() == [n - 1] * 2
        assert G.edge_w.tolist() == [1.0, 2.0]
        p.write_text(MM_GEN + f"{n} {n} 4\n6 {n} 1.0\n{n} 6 1.0\n{far} {n} 2.0\n{n} {far} 2.5\n")
        with pytest.raises(GraphFormatError, match="line 5.*asymmetric"):
            load_graph(p)

    @pytest.mark.parametrize("scan", [False, True], ids=["loadtxt", "scanner"])
    @pytest.mark.parametrize(
        "text, line",
        [
            ("0 1 1.0\n1 2\n", 2),
            (MM_SYM + "3 3 2\n1 2 1.0\n2 3 1.0 7\n", 4),
            ("0 1 1.0\n1.5 2 1.0\n", 2),
            (MM_SYM + "3 3 1\n1e0 2 1.0\n", 3),
            (MM_SYM + "3 3 2\n1 2 1.0\n4 1 1.0\n", 4),
            (MM_SYM + "3 3 2\n1 2 1.0\n0 1 1.0\n", 4),
            (MM_SYM + "3 3 2\n1 2 1.0\n2 3 -1.0\n", 4),
            ("0 1 1.0\n# c\n1 2 nan\n", 3),
            (MM_GEN + "3 3 2\n1 2 inf\n2 1 inf\n", 3),
            (MM_SYM + "3 3 3\n1 2 1.0\n", None),
            (MM_SYM + "3 3 1\n1 2 1.0\n2 3 1.0\n", None),
            (MM_GEN + "3 3 3\n1 2 1.0\n2 1 1.0\n2 3 1.0\n", 5),
            (MM_GEN + "3 3 3\n1 2 1.0\n2 1 1.0\n3 2 1.0\n", 5),
            (MM_GEN + "2 2 2\n1 2 1.0\n2 1 1.5\n", 3),
            (MM_SYM + "3 3 2\n1 2 1.0 % note\n2 3 1.0\n", 3),
            (MM_SYM + "3 3 2\n1 2 1.0\n2 3 1.0%\n", 4),
        ],
        ids=["2-columns", "4-columns", "index-1.5", "index-1e0", "index-above-n", "index-0",
             "negative-weight", "nan-weight", "inf-weight", "too-few-entries",
             "too-many-entries", "one-sided-upper", "one-sided-lower", "asymmetric",
             "inline-percent", "trailing-percent"],
    )
    def test_malformed_file_names_its_line(self, tmp_path, monkeypatch, scan, text, line):
        if scan:
            monkeypatch.setattr(graph.np, "loadtxt", _no_loadtxt)
        p = tmp_path / "g"
        p.write_text(text)
        with pytest.raises(GraphFormatError) as exc:
            load_graph(p)
        assert exc.value.line == line
        assert (f"line {line}:" in str(exc.value)) if line else "entries" in str(exc.value)

    @pytest.mark.parametrize(
        "text, line",
        [
            (MM_SYM + "2 2 3\n1 1 4.0\n1 2 0.5\n2 2 4.0\n", 4),
            (MM_SYM + "2 2 3\n1 1 4.0\n2 2 nan\n1 2 -1.0\n", 4),
            (MM_SYM + "2 2 4\n1 1 4.0\n1 1 -1.0\n2 2 4.0\n1 2 -1.0\n", 4),
            (MM_GEN + "2 2 4\n1 1 4.0\n1 2 -1.0\n2 1 0.5\n2 2 4.0\n", 5),
            (MM_GEN + "2 2 3\n1 1 4.0\n1 2 -1.0\n2 2 4.0\n", 4),
            (MM_GEN + "2 2 4\n1 1 4.0\n2 1 -1.5\n1 2 -1.0\n2 2 4.0\n", 5),
        ],
        ids=["positive-offdiagonal", "nan-diagonal", "negative-diagonal-row",
             "general-positive-offdiagonal", "general-one-sided", "general-asymmetric"],
    )
    def test_malformed_sddm_names_its_line(self, tmp_path, text, line):
        p = tmp_path / "m.mtx"
        p.write_text(text)
        with pytest.raises(GraphFormatError, match=f"^line {line}:"):
            load_sddm(p)


class TestPolyLaplacianPreservation:
    def test_row_sums_vanish_for_random_inputs(self):
        from walksparse import dense_poly

        for seed in range(5):
            G = er_graph(20, 0.3, 40 + seed, weighted=True)
            L = dense_poly(G, PolyCoeffs(np.array([0.2, 0.5, 0.3])))
            scale = max(1.0, np.abs(L).max())
            assert np.allclose(L, L.T, atol=1e-12 * scale)
            assert np.max(L - np.diag(np.diag(L))) <= 1e-12 * scale
            assert np.all(np.abs(L.sum(axis=1)) <= 1e-9 * G.degree)

    def test_offdiagonals_nonpositive(self):
        from walksparse import dense_poly

        G = er_graph(15, 0.35, 50, weighted=True)
        L = dense_poly(G, PolyCoeffs(np.array([0.3, 0.3, 0.4])))
        off = L - np.diag(np.diag(L))
        assert np.max(off) <= 1e-12
