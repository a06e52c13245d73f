import logging

import numpy as np
import pytest

from walksparse import (
    InputRefusedError,
    PolyCoeffs,
    RngStream,
    SddmMatrix,
    SparsifyConfig,
    ValidationError,
    WeightedGraph,
    dense_poly,
    extra_diagonal,
    similarity_check,
    sparsify_sddm,
)
from walksparse.oracle import generalized_eigenvalues

from conftest import er_graph, random_sddm


class TestExtraDiagonal:
    def test_matches_dense_row_sums(self):
        for seed in range(3):
            M = random_sddm(30, 0.25, seed)
            alpha = PolyCoeffs.parse("0.5,0.5")
            dx = extra_diagonal(M, alpha)
            dense = dense_poly(M, alpha)
            np.testing.assert_allclose(dx, dense.sum(axis=1), atol=1e-9)

    def test_pure_laplacian_slack_free(self):
        # with diag == graph degree the polynomial is a Laplacian: zero extra
        G = er_graph(20, 0.3, 5)
        M = SddmMatrix(G.degree + 1e-6, G)
        dx = extra_diagonal(M, PolyCoeffs.parse("1"))
        np.testing.assert_allclose(dx, 1e-6, atol=1e-12)

    def test_higher_degree_terms(self):
        M = random_sddm(25, 0.3, 7)
        alpha = PolyCoeffs(np.array([0.2, 0.3, 0.5]))
        dense = dense_poly(M, alpha)
        np.testing.assert_allclose(extra_diagonal(M, alpha), dense.sum(axis=1), atol=1e-9)


class TestSparsifySddm:
    @pytest.mark.usefixtures("sampled")
    def test_similarity_linear_bracket(self):
        eps = 0.5
        alpha = PolyCoeffs.parse("0.5,0.5")
        cfg = SparsifyConfig(epsilon=eps)
        passed = 0
        for seed in range(5):
            M = random_sddm(60, 0.12, 100 + seed)
            res = sparsify_sddm(M, alpha, cfg, RngStream(seed))
            vals, mismatch = generalized_eigenvalues(res.dense(), dense_poly(M, alpha))
            if not mismatch and vals.min() >= 1 - eps and vals.max() <= 1 + eps:
                passed += 1
        assert passed >= 4

    @pytest.mark.usefixtures("sampled")
    def test_split_form_consistency(self):
        M = random_sddm(30, 0.2, 11)
        alpha = PolyCoeffs.parse("0.3,0.7")
        res = sparsify_sddm(M, alpha, SparsifyConfig(epsilon=0.5), RngStream(1))
        x = np.random.default_rng(0).standard_normal(M.n)
        np.testing.assert_allclose(res.matvec(x), res.dense() @ x, rtol=1e-9, atol=1e-9)
        sddm = res.sddm()
        np.testing.assert_allclose(sddm.dense(), res.dense(), atol=1e-9)

    @pytest.mark.usefixtures("sampled")
    def test_extra_diagonal_nonnegative(self):
        M = random_sddm(40, 0.15, 12)
        res = sparsify_sddm(M, PolyCoeffs.parse("0.5,0.5"), SparsifyConfig(epsilon=0.5), RngStream(2))
        assert np.all(res.extra >= 0)

    @pytest.mark.usefixtures("sampled")
    def test_deterministic(self):
        M = random_sddm(30, 0.2, 13)
        alpha = PolyCoeffs.parse("0.5,0.5")
        cfg = SparsifyConfig(epsilon=0.5)
        r1 = sparsify_sddm(M, alpha, cfg, RngStream(3))
        r2 = sparsify_sddm(M, alpha, cfg, RngStream(3))
        assert r1.graph == r2.graph
        np.testing.assert_array_equal(r1.extra, r2.extra)

    def test_disconnected_refused(self):
        G = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        M = SddmMatrix(G.degree + 1.0, G)
        with pytest.raises(InputRefusedError):
            sparsify_sddm(M, PolyCoeffs.parse("1"), SparsifyConfig(epsilon=0.5), RngStream(0))

    def test_empty_offdiag_rejected(self):
        G = WeightedGraph.from_edges(3, [])
        M = SddmMatrix(np.ones(3), G)
        with pytest.raises(ValidationError):
            sparsify_sddm(M, PolyCoeffs.parse("1"), SparsifyConfig(epsilon=0.5), RngStream(0))

    @pytest.mark.usefixtures("sampled")
    def test_large_slack_damps_walks(self):
        # heavy diagonal slack shrinks off-diagonal polynomial mass; the
        # sampled target weights must follow via the degree-ratio factor
        G = er_graph(25, 0.3, 14)
        M = SddmMatrix(G.degree * 3.0, G)
        alpha = PolyCoeffs.parse("0,1")
        res = sparsify_sddm(M, alpha, SparsifyConfig(epsilon=0.5), RngStream(4))
        dense = dense_poly(M, alpha)
        vals, mismatch = generalized_eigenvalues(res.dense(), dense)
        assert not mismatch
        assert vals.min() >= 0.5 and vals.max() <= 1.5


class TestSddmExactRoute:
    @pytest.mark.parametrize("a", ["1", "0,1", "0.5,0.5"])
    def test_exact_stage_one_certifies(self, a, caplog):
        M = random_sddm(40, 0.15, 31)
        alpha = PolyCoeffs.parse(a)
        cfg = SparsifyConfig(epsilon=0.5, second_stage=False)
        with caplog.at_level(logging.INFO, logger="walksparse"):
            res = sparsify_sddm(M, alpha, cfg, RngStream(0))
        assert "stage 1 exact" in caplog.text
        dense = dense_poly(M, alpha)
        off = ~np.eye(M.n, dtype=bool)
        np.testing.assert_allclose(res.dense()[off], dense[off], rtol=1e-12, atol=1e-15)
        rep = similarity_check(res.dense(), dense, 1e-9)
        assert rep.eps_required <= 1e-9, rep.as_kv()
