import hashlib
import logging
import math

import numpy as np
import pytest

from walksparse import (
    PolyCoeffs,
    RngStream,
    SamplerIndex,
    SddmMatrix,
    SparsifyConfig,
    ValidationError,
    WeightedGraph,
    dense_poly,
    extra_diagonal,
    save_sddm,
    similarity_check,
    sparsify,
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

    def test_disconnected_runs_whole(self):
        # a matrix SddmMatrix accepts is sparsified, whatever its components
        G = WeightedGraph.from_edges(5, [(0, 1, 1.0), (2, 3, 1.0)])
        M = SddmMatrix(G.degree + 1.0, G)
        alpha = PolyCoeffs.parse("0.5,0.5")
        res = sparsify_sddm(M, alpha, SparsifyConfig(epsilon=0.5), RngStream(0))
        rep = similarity_check(res.dense(), dense_poly(M, alpha), 0.5)
        assert rep.passed, rep.as_kv()

    @pytest.mark.parametrize("route", ["exact", "sampled"])
    def test_disconnected_componentwise(self, route, request):
        # two SDDM blocks on interleaved vertices, so each component needs
        # its own slice of the diagonal
        if route == "sampled":
            request.getfixturevalue("sampled")
        A, B = random_sddm(20, 0.3, 21), random_sddm(16, 0.35, 22, slack=3.0)
        perm = np.random.default_rng(5).permutation(A.n + B.n)
        diag = np.zeros(A.n + B.n)
        diag[perm[: A.n]], diag[perm[A.n :]] = A.diag, B.diag
        edges = [
            (perm[shift + u], perm[shift + v], w)
            for shift, X in ((0, A), (A.n, B))
            for u, v, w in zip(X.offdiag.edge_u, X.offdiag.edge_v, X.offdiag.edge_w)
        ]
        M = SddmMatrix(diag, WeightedGraph.from_edges(len(diag), edges))
        alpha = PolyCoeffs.parse("0.5,0.5")
        eps = 0.5
        res = sparsify_sddm(M, alpha, SparsifyConfig(epsilon=eps), RngStream(6))
        dense = dense_poly(M, alpha)
        vals, mismatch = generalized_eigenvalues(res.dense(), dense)
        assert not mismatch
        assert vals.min() >= math.exp(-eps) and vals.max() <= math.exp(eps)
        if route == "exact":
            assert similarity_check(res.dense(), dense, 1e-9).eps_required <= 1e-9

    def test_empty_offdiag_rejected(self):
        G = WeightedGraph.from_edges(3, [])
        M = SddmMatrix(np.ones(3), G)
        with pytest.raises(ValidationError):
            sparsify_sddm(M, PolyCoeffs.parse("1"), SparsifyConfig(epsilon=0.5), RngStream(0))

    @pytest.mark.usefixtures("sampled")
    def test_large_slack_damps_walks(self):
        # heavy diagonal slack shrinks off-diagonal polynomial mass; walks
        # normalized by the SDDM diagonal must follow it
        G = er_graph(25, 0.3, 14)
        M = SddmMatrix(G.degree * 3.0, G)
        alpha = PolyCoeffs.parse("0,1")
        res = sparsify_sddm(M, alpha, SparsifyConfig(epsilon=0.5), RngStream(4))
        dense = dense_poly(M, alpha)
        vals, mismatch = generalized_eigenvalues(res.dense(), dense)
        assert not mismatch
        assert vals.min() >= 0.5 and vals.max() <= 1.5


    @pytest.mark.usefixtures("sampled")
    def test_sampled_budget_is_d_normalised_mass(self, monkeypatch):
        # M = ceil(c_s ln n / eps1^2 sum_r alpha_r tau_r(D)): with D = 3 A 1 the
        # walks lose mass at every interior vertex, far below sum_r alpha_r 2 r m
        G = er_graph(25, 0.3, 14)
        M = SddmMatrix(G.degree * 3.0, G)
        alpha = PolyCoeffs.parse("0,0.75,0.25")
        cfg = SparsifyConfig(epsilon=0.5)
        counts = []
        real = sparsify.graph_sampling

        def spy(draw, tau, count, rng, n):
            counts.append(count)
            return real(draw, tau, count, rng, n)

        monkeypatch.setattr(sparsify, "graph_sampling", spy)
        sparsify_sddm(M, alpha, cfg, RngStream(4))
        scale = cfg.oversample * math.log(M.n) / cfg.eps_stage_one**2
        layers = [G.adjacency] * 3
        masses = SamplerIndex(layers, [2.0] * 3, M.diag).masses([1, 2, 3])
        tau = sum(a * t for a, t in zip(alpha.alpha, masses) if a > 0)
        closed_form = sum(a * 2.0 * r * G.m for r, a in enumerate(alpha.alpha, start=1))
        assert counts == [math.ceil(scale * tau)]
        assert 3 * counts[0] < math.ceil(scale * closed_form)

    @pytest.mark.usefixtures("sampled")
    def test_sampled_mixture_bytes_pinned(self, tmp_path):
        # the sampled three-term mixture's output bytes for this seed are fixed. With
        # D above A 1 the prefixes' absorption vectors differ, and all of them share
        # one left chain
        M = random_sddm(30, 0.2, 13)
        cfg = SparsifyConfig(epsilon=0.5, second_stage=False)
        res = sparsify_sddm(M, PolyCoeffs.parse("0.2,0.3,0.5"), cfg, RngStream(9))
        save_sddm(res.sddm(), tmp_path / "h.mtx")
        digest = hashlib.sha256((tmp_path / "h.mtx").read_bytes()).hexdigest()
        assert digest == "8aecc14dead8c34acc1e953d336c5914deb7bfab5ce4ee15aba4fa61959bb4be"


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
