import math

import numpy as np
import pytest

from walksparse import (
    ErOracle,
    PolyCoeffs,
    ValidationError,
    WeightedGraph,
    dense_monomial,
    dense_poly,
    enumerate_paths,
    similarity_check,
)
from walksparse.oracle import total_enumerated_mass

from conftest import er_graph, path_graph, ring_graph, star_graph
from references import canonical_path_masses, scalar_inequality_suite, support_check


class TestDensePoly:
    def test_triangle_two_step(self, triangle):
        L = dense_poly(triangle, PolyCoeffs.parse("0,1"))
        expected = np.array([[1, -0.5, -0.5], [-0.5, 1, -0.5], [-0.5, -0.5, 1.0]])
        np.testing.assert_allclose(L, expected, atol=1e-12)

    def test_degree_one_is_laplacian(self):
        G = er_graph(12, 0.4, 0, weighted=True)
        np.testing.assert_allclose(
            dense_poly(G, PolyCoeffs.parse("1")), G.laplacian_dense(), rtol=1e-12
        )

    def test_bipartite_edge_two_step_vanishes(self, single_edge):
        L = dense_poly(single_edge, PolyCoeffs.parse("0,1"))
        np.testing.assert_allclose(L, np.zeros((2, 2)), atol=1e-12)

    def test_threshold_guard(self):
        G = er_graph(10, 0.5, 1)
        with pytest.raises(ValidationError):
            dense_poly(G, PolyCoeffs.parse("1"), threshold=5)

    def test_zero_row_sums_random(self):
        for seed in range(3):
            G = er_graph(25, 0.25, 10 + seed, weighted=True)
            L = dense_poly(G, PolyCoeffs(np.array([0.1, 0.6, 0.3])))
            assert np.max(np.abs(L.sum(axis=1))) < 1e-9


class TestSimilarityCheck:
    def test_identity(self):
        G = er_graph(10, 0.4, 2)
        L = G.laplacian_dense()
        rep = similarity_check(L, L, 0.0)
        assert rep.passed
        assert rep.eps_required == pytest.approx(0.0, abs=1e-9)

    def test_scalar_scaling(self):
        G = er_graph(10, 0.4, 3)
        L = G.laplacian_dense()
        delta = 0.2
        rep = similarity_check((1 + delta) * L, L, 0.5)
        assert rep.eps_required == pytest.approx(math.log(1 + delta), rel=1e-8)

    def test_kernel_mismatch_flagged(self):
        conn = ring_graph(6).laplacian_dense()
        disc = WeightedGraph.from_edges(
            6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)]
        ).laplacian_dense()
        rep = similarity_check(conn, disc, 10.0)
        assert rep.kernel_mismatch
        assert not rep.passed

    def test_symmetric_in_arguments(self):
        G = er_graph(12, 0.4, 4, weighted=True)
        X = dense_monomial(G, 2)
        Y = dense_monomial(G, 4)
        a = similarity_check(X, Y, 1.0).eps_required
        b = similarity_check(Y, X, 1.0).eps_required
        assert a == pytest.approx(b, abs=1e-10)

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValidationError):
            similarity_check(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2), 0.1)


class TestExactEr:
    """Closed forms that ErOracle's exact (grounded inverse) resistances meet."""

    def test_unit_triangle(self, triangle):
        oracle = ErOracle(triangle, 0.2)
        assert oracle.method == "dense-exact"
        assert oracle.query(0, 1) == pytest.approx(2 / 3)

    def test_series_law(self):
        # conductances 1 and 1/2 give resistances 1 and 2 in series
        G = path_graph([1.0, 0.5])
        assert ErOracle(G, 0.2).query(0, 2) == pytest.approx(3.0)

    def test_rank_one_formula(self):
        # L = D - a a^T / s with D = diag(a) * s_scale has closed-form ER
        gen = np.random.default_rng(5)
        a = 0.5 + gen.random(6)
        s = a.sum()
        d = 1.7
        L = np.diag(d * a) - d * np.outer(a, a) / s
        oracle = ErOracle(WeightedGraph.from_dense(-L), 0.2)
        for i, j in [(0, 1), (2, 5), (3, 4)]:
            expected = (1.0 / d) * (1.0 / a[i] + 1.0 / a[j])
            assert oracle.query(i, j) == pytest.approx(expected, rel=1e-9)

    def test_triangle_inequality(self):
        G = er_graph(12, 0.4, 6, weighted=True)
        oracle = ErOracle(G, 0.2)
        n = G.n
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    assert oracle.query(u, v) <= oracle.query(u, w) + oracle.query(w, v) + 1e-9


class TestSupportCheck:
    def test_r1_trivial(self, triangle):
        rep = support_check(triangle, 1)
        assert rep.passed
        assert rep.lambda_min == pytest.approx(1.0)

    def test_triangle_r3(self, triangle):
        rep = support_check(triangle, 3)
        assert rep.passed
        assert 0.5 - 1e-9 <= rep.lambda_min <= rep.lambda_max <= 3 + 1e-9

    def test_even_r_against_two_step(self):
        G = er_graph(80, 0.08, 8)
        for r in (2, 4, 6):
            rep = support_check(G, r)
            assert rep.passed, (r, rep)

    def test_all_small_graphs(self):
        graphs = [ring_graph(9), star_graph(10), er_graph(30, 0.2, 9, weighted=True)]
        for G in graphs:
            for r in range(1, 7):
                assert support_check(G, r).passed


class TestEnumeratePaths:
    def test_single_edge_r2(self, single_edge):
        paths = enumerate_paths(single_edge, 2)
        assert len(paths) == 2
        assert all(p.vertices[0] == p.vertices[-1] for p in paths)
        assert total_enumerated_mass(paths) == pytest.approx(4.0)

    def test_triangle_r2(self, triangle):
        paths = enumerate_paths(triangle, 2)
        assert len(paths) == 12
        assert total_enumerated_mass(paths) == pytest.approx(12.0)

    def test_triangle_r1(self, triangle):
        paths = enumerate_paths(triangle, 1)
        assert len(paths) == 6
        assert total_enumerated_mass(paths) == pytest.approx(6.0)

    def test_mass_identity_random(self):
        gen = np.random.default_rng(11)
        for seed in range(4):
            G = er_graph(6, 0.6, 20 + seed, weighted=True)
            for r in range(1, 5):
                total = total_enumerated_mass(enumerate_paths(G, r))
                assert total == pytest.approx(2.0 * r * G.m, rel=1e-9)

    def test_canonical_masses_sum(self, triangle):
        paths = enumerate_paths(triangle, 3)
        masses = canonical_path_masses(paths)
        assert sum(masses.values()) == pytest.approx(2.0 * 3 * 3)

    def test_guards(self, triangle):
        with pytest.raises(ValidationError):
            enumerate_paths(triangle, 6)
        big = er_graph(12, 0.5, 12)
        with pytest.raises(ValidationError):
            enumerate_paths(big, 2)


class TestScalarInequalities:
    def test_full_suite(self):
        assert scalar_inequality_suite()

    def test_limit_ratios(self):
        lam = 1 - 1e-6
        for r in (1, 3, 10):
            odd_ratio = (1 - lam ** (2 * r + 1)) / (1 - lam)
            assert odd_ratio == pytest.approx(2 * r + 1, rel=1e-4)
            even_ratio = (1 - lam ** (2 * r)) / (1 - lam**2)
            assert even_ratio == pytest.approx(r, rel=1e-4)

    def test_negative_lambda_odd_bound(self):
        lam = -1 + 1e-6
        r = 4
        assert 0.5 * (1 - lam) <= 1 - lam ** (2 * r + 1)
        assert 1 - lam ** (2 * r + 1) == pytest.approx(2.0, rel=1e-5)
