import math

import numpy as np
import pytest

from walksparse import (
    GraphFormatError,
    LaplacianView,
    PolyCoeffs,
    SddmMatrix,
    ValidationError,
    WeightedGraph,
    load_graph,
    load_sddm,
    save_graph,
    save_sddm,
    validate_poly_laplacian,
)

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


class TestLaplacianView:
    def test_quadratic_form_identity(self):
        G = er_graph(20, 0.3, 2, weighted=True)
        view = LaplacianView(G)
        gen = np.random.default_rng(0)
        for _ in range(5):
            x = gen.standard_normal(G.n)
            direct = sum(
                w * (x[u] - x[v]) ** 2
                for u, v, w in zip(G.edge_u, G.edge_v, G.edge_w)
            )
            assert view.quadratic_form(x) == pytest.approx(direct, rel=1e-10)
            assert view.quadratic_form(x) >= 0

    def test_zero_row_sums(self):
        G = er_graph(20, 0.3, 3)
        L = G.laplacian_dense()
        assert np.max(np.abs(L.sum(axis=1))) < 1e-9

    def test_matvec_matches_dense(self):
        G = er_graph(15, 0.4, 4, weighted=True)
        view = LaplacianView(G)
        x = np.random.default_rng(1).standard_normal(G.n)
        np.testing.assert_allclose(view.matvec(x), G.laplacian_dense() @ x, rtol=1e-12)


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


class TestPolyLaplacianPreservation:
    def test_row_sums_vanish_for_random_inputs(self):
        for seed in range(5):
            G = er_graph(20, 0.3, 40 + seed, weighted=True)
            alpha = PolyCoeffs(np.array([0.2, 0.5, 0.3]))
            validate_poly_laplacian(G, alpha)

    def test_offdiagonals_nonpositive(self):
        from walksparse import dense_poly

        G = er_graph(15, 0.35, 50, weighted=True)
        L = dense_poly(G, PolyCoeffs(np.array([0.3, 0.3, 0.4])))
        off = L - np.diag(np.diag(L))
        assert np.max(off) <= 1e-12
