import math

import numpy as np
import pytest

from walksparse import (
    InputRefusedError,
    PolyCoeffs,
    RngStream,
    SparsifyConfig,
    ValidationError,
    WeightedGraph,
    dense_poly,
    er_oracle_build,
    estimate_er,
    exact_er,
    exact_er_matrix,
    resparsify,
    similarity_check,
)
from walksparse.resistance import _default_method, _grounded_solve, _incidence_rows, _sketch_potentials
from walksparse.sampling import _as_generator
from walksparse.sparsify import sparsify_poly, stage_two_edge_budget

from conftest import er_graph, path_graph, ring_graph


class TestEstimateEr:
    def test_dense_exact_matches_oracle(self):
        G = er_graph(30, 0.2, 0, weighted=True)
        est = estimate_er(G)
        assert est.method == "dense-exact"
        R = exact_er_matrix(G.laplacian_dense())
        np.testing.assert_allclose(est.Z, R[G.edge_u, G.edge_v], rtol=1e-9)

    def test_sketch_upper_bounds(self):
        G = er_graph(60, 0.15, 1, weighted=True)
        delta = 0.2
        est = estimate_er(G, delta=delta, method="sketch", rng=RngStream(3))
        R = exact_er_matrix(G.laplacian_dense())
        exact = R[G.edge_u, G.edge_v]
        # inflated sketch stays an upper bound and within (1+delta)^4 above
        assert np.all(est.Z >= exact * 0.999)
        assert np.all(est.Z <= exact * (1 + delta) ** 4)

    def test_foster_identity_extreme_weights(self):
        # sum_e w_e R_e = n - 1 (Foster); a truncated pseudoinverse loses it
        # when weights span 16 orders of magnitude
        for seed in range(40):
            gen = np.random.default_rng(10_000 + seed)
            n = int(gen.integers(2, 81))
            G0 = er_graph(n, min(1.0, max(0.1, 2.5 * math.log(n) / n)), seed)
            w = 10.0 ** gen.uniform(-8, 8, G0.m)
            G = WeightedGraph(n, G0.edge_u, G0.edge_v, w)
            est = estimate_er(G)
            assert est.method == "dense-exact"
            assert float(np.sum(w * est.Z)) == pytest.approx(n - 1, rel=1e-3), (seed, n)

    def test_refuses_weights_beyond_double_precision(self):
        # a 1e-9 bridge between 1e8 edges vanishes in the grounded diagonal
        G = path_graph([1e8, 1e-9, 1e8])
        with pytest.raises(InputRefusedError, match="not numerically positive definite"):
            estimate_er(G)

    def test_method_rule(self):
        # exact unless n > max(DENSE_THRESHOLD, k), k = ceil(24 ln n / delta^2)
        G = er_graph(600, 0.02, 11)
        assert estimate_er(G).method == "dense-exact"  # k = 3,838
        assert estimate_er(G, delta=1.0, rng=RngStream(1)).method == "sketch"  # k = 154
        small = er_graph(40, 0.2, 12)
        for delta in (0.2, 1.0, 5.0):
            assert estimate_er(small, delta=delta, rng=RngStream(1)).method == "dense-exact"

    def test_blocked_sketch_matches_one_shot(self, monkeypatch):
        from walksparse import resistance

        G = er_graph(30, 0.2, 13, weighted=True)
        delta = 1.0
        k = int(math.ceil(24 * math.log(G.n) / delta**2))
        gen = _as_generator(RngStream(4))
        signs = gen.integers(0, 2, (k, G.m)) * 2 - 1
        one_shot = _grounded_solve(G, (signs / math.sqrt(k)) @ _incidence_rows(G))
        monkeypatch.setattr(resistance, "SKETCH_BLOCK_ENTRIES", 7 * G.m)  # blocks of 7 rows
        blocked = _sketch_potentials(G, delta, RngStream(4))
        np.testing.assert_array_equal(blocked, one_shot)

    def test_disconnected_refused(self):
        G = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(InputRefusedError):
            estimate_er(G)

    def test_unknown_method(self, triangle):
        with pytest.raises(ValidationError):
            estimate_er(triangle, method="nope")


class TestResparsify:
    def test_early_exit_below_budget(self, triangle):
        cfg = SparsifyConfig(epsilon=0.5)
        H = resparsify(triangle, 0.25, cfg, RngStream(0))
        assert H == triangle

    def test_preserves_similarity(self):
        G = er_graph(80, 0.5, 2, weighted=True)  # dense input worth reducing
        cfg = SparsifyConfig(epsilon=0.5, oversample=1.0)
        eps = 0.35
        H = resparsify(G, eps, cfg, RngStream(1))
        rep = similarity_check(H.laplacian_dense(), G.laplacian_dense(), eps)
        assert rep.passed, rep.as_kv()
        assert H.m <= G.m

    def test_respects_edge_budget(self):
        G = er_graph(100, 0.8, 3)
        cfg = SparsifyConfig(epsilon=0.5, oversample=0.3)
        eps = 0.5
        H = resparsify(G, eps, cfg, RngStream(2))
        # output nnz stays within the n log n / eps^2 budget
        assert H.m <= stage_two_edge_budget(G.n, eps, cfg)

    def test_deterministic(self):
        G = er_graph(60, 0.4, 4)
        cfg = SparsifyConfig(epsilon=0.5, oversample=1.0)
        H1 = resparsify(G, 0.4, cfg, RngStream(5))
        H2 = resparsify(G, 0.4, cfg, RngStream(5))
        assert H1 == H2


class TestErOracle:
    def test_triangle_queries(self, triangle):
        eps, delta = 0.3, 0.2
        oracle = er_oracle_build(triangle, PolyCoeffs.parse("1"), eps, RngStream(0), delta=delta)
        factor = math.exp(eps) * (1 + delta)
        L = triangle.laplacian_dense()
        for u, v in [(0, 1), (0, 2), (1, 2)]:
            truth = exact_er(L, u, v)
            got = oracle.query(u, v)
            assert truth / factor <= got <= truth * factor

    def test_medium_graph_queries(self):
        G = er_graph(100, 0.08, 6)
        eps, delta = 0.3, 0.2
        alpha = PolyCoeffs.parse("0.5,0.5")
        oracle = er_oracle_build(G, alpha, eps, RngStream(7), delta=delta)
        L = dense_poly(G, alpha)
        factor = math.exp(eps) * (1 + delta)
        gen = np.random.default_rng(0)
        for _ in range(50):
            u, v = gen.integers(0, G.n, 2)
            if u == v:
                continue
            truth = exact_er(L, int(u), int(v))
            got = oracle.query(int(u), int(v))
            assert truth / factor <= got <= truth * factor, (u, v, truth, got)

    def test_sketch_mode_queries(self):
        G = er_graph(90, 0.1, 8)
        eps, delta = 0.3, 0.2
        oracle = er_oracle_build(
            G, PolyCoeffs.parse("1"), eps, RngStream(9), delta=delta, method="sketch"
        )
        L = G.laplacian_dense()
        factor = math.exp(eps) * (1 + delta)
        gen = np.random.default_rng(1)
        for _ in range(30):
            u, v = gen.integers(0, G.n, 2)
            if u == v:
                continue
            truth = exact_er(L, int(u), int(v))
            got = oracle.query(int(u), int(v))
            assert truth / factor <= got <= truth * factor

    def test_dense_answers_match_exact_er(self):
        G = er_graph(40, 0.15, 14, weighted=True)
        oracle = er_oracle_build(G, PolyCoeffs.parse("1"), 0.5, RngStream(2))
        assert oracle.method == "dense-exact"
        L = oracle.graph.laplacian_dense()
        for u in range(G.n):
            for v in range(u + 1, G.n):
                truth = exact_er(L, u, v)
                assert oracle.query(u, v) == pytest.approx(truth, rel=1e-8)
                assert oracle.query(v, u) == oracle.query(u, v)

    def test_sketch_width_uses_half_delta(self):
        # at n = 600, delta = 0.8 the stage-2 width 240 < n picks the sketch,
        # but the oracle's width at delta / 2 is 960 >= n, so it stays exact
        G = er_graph(600, 0.02, 11)
        assert _default_method(G.n, 0.8) == "sketch"
        oracle = er_oracle_build(G, PolyCoeffs.parse("1"), 1.0, RngStream(3), delta=0.8)
        assert oracle.method == "dense-exact"

    def test_disconnected_sparsifier_refused(self):
        # cs = 0.1 leaves stage 2 too few samples to keep every vertex
        G = er_graph(100, 0.06, 0)
        alpha = PolyCoeffs.parse("0.5,0.5")
        cfg = SparsifyConfig(epsilon=1.0, oversample=0.1)
        isolated = int(np.sum(sparsify_poly(G, alpha, cfg, RngStream(0)).degree == 0))
        assert isolated > 0
        with pytest.raises(InputRefusedError, match=f"disconnected .*{isolated} isolated vertices"):
            er_oracle_build(G, alpha, 1.0, RngStream(0), delta=0.8, cfg=cfg)

    def test_same_vertex_zero(self, triangle):
        oracle = er_oracle_build(triangle, PolyCoeffs.parse("1"), 0.3, RngStream(0))
        assert oracle.query(1, 1) == 0.0

    def test_out_of_range(self, triangle):
        oracle = er_oracle_build(triangle, PolyCoeffs.parse("1"), 0.3, RngStream(0))
        with pytest.raises(ValidationError):
            oracle.query(0, 5)
