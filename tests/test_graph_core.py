import logging
import math
import os
import threading

import numpy as np
import pytest

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

from conftest import er_graph, path_graph


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
        G.check_invariants()
        for u in range(G.n):
            inc = sum(w for a, b, w in zip(G.edge_u, G.edge_v, G.edge_w) if u in (a, b))
            assert G.degree[u] == pytest.approx(inc, rel=1e-12)

    def test_duplicate_edges_merge(self):
        G = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 0, 2.5)])
        assert G.m == 1
        assert G.edge_w[0] == 3.5

    def test_self_loops_dropped(self):
        G = WeightedGraph.from_edges(3, [(0, 0, 5.0), (0, 1, 1.0)])
        assert G.m == 1
        assert G.self_loops_dropped == 1

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
        assert ring5.is_connected()
        assert not ring5.is_bipartite()
        ring6 = WeightedGraph.from_edges(6, [(i, (i + 1) % 6, 1.0) for i in range(6)])
        assert ring6.is_bipartite()
        two = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert not two.is_connected()
        assert two.is_bipartite()
        # an even and an odd ring side by side, then isolated vertices
        mixed = [(i, (i + 1) % 4, 1.0) for i in range(4)] + [(4 + i, 4 + (i + 1) % 3, 1.0) for i in range(3)]
        assert not WeightedGraph.from_edges(7, mixed).is_bipartite()
        assert not WeightedGraph.from_edges(9, mixed).is_bipartite()
        assert WeightedGraph.from_edges(9, mixed[:4]).is_bipartite()
        assert WeightedGraph.from_edges(2, [(0, 1, 1.0)]).is_bipartite()
        assert WeightedGraph.from_edges(2, []).is_bipartite()
        assert WeightedGraph.from_edges(1, []).is_bipartite()

    def test_zero_row_sums(self):
        G = er_graph(20, 0.3, 3)
        L = G.laplacian_dense()
        assert np.max(np.abs(L.sum(axis=1))) < 1e-9


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
        assert M.slack[0] == 2.0

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
        M = SddmMatrix(np.ones(3), WeightedGraph.from_edges(3, []), tol=math.inf)
        assert M.n == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_diagonal_rejected(self, bad):
        G = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(ValidationError, match="finite"):
            SddmMatrix(np.array([3.0, bad]), G)

    def test_from_dense_roundtrip(self):
        M = SddmMatrix.from_dense(np.array([[3.0, -1.0], [-1.0, 2.0]]))
        assert M.offdiag.m == 1
        np.testing.assert_allclose(M.matvec(np.array([1.0, 2.0])), [1.0, 3.0])


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
        save_graph(G, p, fmt="edge-list")
        H = load_graph(p, fmt="edge-list")
        assert H == G

    def test_format_sniffing(self, tmp_path):
        G = path_graph([1.0, 2.0])
        for fmt in ("matrix-market", "edge-list"):
            p = tmp_path / f"g-{fmt}"
            save_graph(G, p, fmt=fmt)
            assert load_graph(p) == G

    def test_unknown_format_keeps_existing_file(self, tmp_path):
        p = tmp_path / "keep.mtx"
        save_graph(path_graph([1.0, 2.0]), p)
        before = p.read_bytes()
        with pytest.raises(ValueError, match="unknown format"):
            save_graph(path_graph([3.0]), p, fmt="edgelist")
        assert p.read_bytes() == before

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
        G = load_graph(p, symmetrize=True)
        assert G.m == 2

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
    return "".join(f"{a} {b} {x:.17g}\n" for a, b, x in zip(u, v, w))


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
        save_graph(G, tmp_path / "g.txt", fmt="edge-list")
        assert (tmp_path / "g.txt").read_text() == per_edge_rows(u, v, G.edge_w)
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
        assert fast.self_loops_dropped == scanned.self_loops_dropped == sum(loops)

    def test_sddm_fast_loader_equals_line_scanner(self, tmp_path, monkeypatch, caplog):
        p = tmp_path / "m.mtx"
        p.write_text(MM_SYM + "3 3 6\n1 1 4.0\n2 1 -1.0\n2 2 3.0\n% c\n1 2 -0.5\n3 3 2.0\n1 1 0.5\n")
        (fast, _), (scanned, _) = load_both_ways(monkeypatch, caplog, p, loader=load_sddm)
        np.testing.assert_array_equal(fast.diag, [4.5, 3.0, 2.0])
        assert np.array_equal(fast.diag, scanned.diag) and fast.offdiag == scanned.offdiag
        assert fast.offdiag.edge_w.tolist() == [1.5]

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
        "body, line",
        [("1 1 4.0\n1 2 0.5\n2 2 4.0\n", 4), ("1 1 4.0\n2 2 nan\n1 2 -1.0\n", 4)],
        ids=["positive-offdiagonal", "nan-diagonal"],
    )
    def test_malformed_sddm_names_its_line(self, tmp_path, body, line):
        p = tmp_path / "m.mtx"
        p.write_text(MM_SYM + "2 2 3\n" + body)
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
