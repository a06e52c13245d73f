import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from walksparse import (
    ConvergenceError,
    ErOracle,
    InputRefusedError,
    PolyCoeffs,
    RngStream,
    SparsifyConfig,
    ValidationError,
    WeightedGraph,
    dense_poly,
    er_oracle_build,
    estimate_er,
    resparsify,
    similarity_check,
)
from walksparse import resistance
from walksparse.resistance import _default_method, _grounded_solve, _incidence_rows, _sketch_potentials
from walksparse.sampling import _as_generator
from walksparse.sparsify import sparsify_poly, stage_two_edge_budget

from conftest import er_graph, path_graph, ring_graph, star_graph
from references import exact_resistances


class TestEstimateEr:
    def test_dense_exact_matches_oracle(self):
        G = er_graph(30, 0.2, 0, weighted=True)
        est = estimate_er(G)
        assert est.method == "dense-exact"
        R = exact_resistances(G)
        np.testing.assert_allclose(est.Z, R[G.edge_u, G.edge_v], rtol=1e-9)

    @pytest.mark.usefixtures("sketched")
    def test_sketch_upper_bounds(self):
        G = er_graph(60, 0.15, 1, weighted=True)
        delta = 0.2
        est = estimate_er(G, delta=delta, rng=RngStream(3))
        assert est.method == "sketch"
        R = exact_resistances(G)
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

    def test_components_match_their_own(self):
        # two interleaved components and an isolated vertex, estimated whole
        A, B = er_graph(30, 0.2, 20, weighted=True), er_graph(25, 0.25, 21, weighted=True)
        perm = np.random.default_rng(3).permutation(A.n + B.n + 1)
        parts = [(A, perm[: A.n]), (B, perm[A.n : -1])]
        u, v = (np.concatenate([ids[getattr(C, e)] for C, ids in parts]) for e in ("edge_u", "edge_v"))
        G = WeightedGraph(len(perm), np.minimum(u, v), np.maximum(u, v), np.concatenate([A.edge_w, B.edge_w]))
        Z = dict(zip(zip(G.edge_u, G.edge_v), estimate_er(G).Z))
        for C, ids in parts:
            whole = [Z[min(ids[a], ids[b]), max(ids[a], ids[b])] for a, b in zip(C.edge_u, C.edge_v)]
            np.testing.assert_allclose(whole, estimate_er(C).Z, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("delta", [0.0, -0.2, math.nan, math.inf])
    def test_delta_positive_and_finite(self, triangle, delta):
        with pytest.raises(ValidationError, match="delta"):
            estimate_er(triangle, delta=delta)
        with pytest.raises(ValidationError, match="delta"):
            er_oracle_build(triangle, PolyCoeffs.parse("1"), 0.3, RngStream(0), delta=delta)

    @pytest.mark.usefixtures("sketched")
    def test_cg_failure_raises_with_residual(self, monkeypatch):
        from walksparse import resistance

        # a cg that reports breakdown (info=1) after returning x = 0
        stub = SimpleNamespace(LinearOperator=spla.LinearOperator, cg=lambda A, b, **kwargs: (np.zeros_like(b), 1))
        monkeypatch.setattr(resistance, "spla", stub)
        with pytest.raises(ConvergenceError, match="conjugate gradient failed") as err:
            estimate_er(er_graph(30, 0.2, 0), rng=RngStream(0))
        assert np.isfinite(err.value.residual) and err.value.residual > 0


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
        R = exact_resistances(triangle)
        for u, v in [(0, 1), (0, 2), (1, 2)]:
            truth = R[u, v]
            got = oracle.query(u, v)
            assert truth / factor <= got <= truth * factor

    def test_medium_graph_queries(self):
        G = er_graph(100, 0.08, 6)
        eps, delta = 0.3, 0.2
        alpha = PolyCoeffs.parse("0.5,0.5")
        oracle = er_oracle_build(G, alpha, eps, RngStream(7), delta=delta)
        R = exact_resistances(WeightedGraph.from_dense(-dense_poly(G, alpha)))
        factor = math.exp(eps) * (1 + delta)
        gen = np.random.default_rng(0)
        for _ in range(50):
            u, v = gen.integers(0, G.n, 2)
            if u == v:
                continue
            truth = R[u, v]
            got = oracle.query(int(u), int(v))
            assert truth / factor <= got <= truth * factor, (u, v, truth, got)

    @pytest.mark.usefixtures("sketched")
    def test_sketch_mode_queries(self):
        G = er_graph(90, 0.1, 8)
        eps, delta = 0.3, 0.2
        oracle = er_oracle_build(G, PolyCoeffs.parse("1"), eps, RngStream(9), delta=delta)
        assert oracle.method == "sketch"
        R = exact_resistances(G)
        factor = math.exp(eps) * (1 + delta)
        gen = np.random.default_rng(1)
        for _ in range(30):
            u, v = gen.integers(0, G.n, 2)
            if u == v:
                continue
            truth = R[u, v]
            got = oracle.query(int(u), int(v))
            assert truth / factor <= got <= truth * factor

    def test_dense_answers_match_exact_er(self):
        G = er_graph(40, 0.15, 14, weighted=True)
        oracle = er_oracle_build(G, PolyCoeffs.parse("1"), 0.5, RngStream(2))
        assert oracle.method == "dense-exact"
        R = exact_resistances(oracle.graph)
        for u in range(G.n):
            for v in range(u + 1, G.n):
                truth = R[u, v]
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

    @pytest.mark.parametrize("cfg", [None, SparsifyConfig(epsilon=0.5, oversample=0.1)], ids=["default", "cfg"])
    def test_disconnected_input_refused(self, cfg, monkeypatch):
        # refused before any sparsifier is built, naming the input graph, with
        # neither an option the resistance CLI lacks nor the oversample constant
        from walksparse import resistance

        def unreachable(*args):
            raise AssertionError("sparsified a disconnected input")

        monkeypatch.setattr(resistance, "sparsify_poly", unreachable)
        tri = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
        G = WeightedGraph.from_edges(6, tri + [(u + 3, v + 3, w) for u, v, w in tri])
        with pytest.raises(InputRefusedError, match=r"input graph G is disconnected \(2 components\)") as err:
            er_oracle_build(G, PolyCoeffs.parse("0.5,0.5"), 0.5, RngStream(0), cfg=cfg)
        assert "infinite" in str(err.value)
        assert "allow_disconnected" not in str(err.value) and "oversample" not in str(err.value)

    def test_cfg_epsilon_is_replaced_by_eps(self):
        # cfg supplies oversample and second_stage; the sparsifier is built at eps
        G = er_graph(40, 0.3, 1)
        alpha = PolyCoeffs.parse("0.5,0.5")
        cfg = SparsifyConfig(epsilon=1.0, oversample=1.0)
        oracle = er_oracle_build(G, alpha, 0.3, RngStream(0), cfg=cfg)
        at_eps = sparsify_poly(G, alpha, SparsifyConfig(epsilon=0.3, oversample=1.0), RngStream(0))
        assert oracle.graph == at_eps
        assert at_eps.m > sparsify_poly(G, alpha, cfg, RngStream(0)).m

    def test_same_vertex_zero(self, triangle):
        oracle = er_oracle_build(triangle, PolyCoeffs.parse("1"), 0.3, RngStream(0))
        assert oracle.query(1, 1) == 0.0

    @pytest.mark.parametrize("route", ["dense-exact", "sketch"])
    def test_across_components_infinite(self, route, request):
        if route == "sketch":
            request.getfixturevalue("sketched")
        G = WeightedGraph.from_edges(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0)])
        oracle = ErOracle(G, 0.2, RngStream(0))
        assert oracle.method == route
        assert oracle.query(0, 3) == oracle.query(4, 2) == oracle.query(5, 0) == math.inf
        assert oracle.query(5, 5) == 0.0
        if route == "dense-exact":
            assert [oracle.query(0, 2), oracle.query(2, 0), oracle.query(3, 4)] == [1.5, 1.5, 1.0]

    def test_one_vertex(self, capfd):
        # no edge, so no LAPACK call on a 0 x 0 matrix
        oracle = ErOracle(WeightedGraph.from_edges(1, []), 0.2)
        assert oracle.query(0, 0) == 0.0
        assert capfd.readouterr() == ("", "")

    def test_out_of_range(self, triangle):
        oracle = er_oracle_build(triangle, PolyCoeffs.parse("1"), 0.3, RngStream(0))
        with pytest.raises(ValidationError):
            oracle.query(0, 5)


def _grounded_inverse_reference(G):
    """The grounded inverse of a connected G from the sparse Laplacian's slice,
    with a zero last row and column for its ground, and the row of each vertex."""
    keep = np.arange(G.n) != np.argmax(G.degree)
    red = G.laplacian().tocsr()[keep][:, keep].toarray(order="F")
    with resistance._one_blas_thread():
        chol, info = lapack.dpotrf(red, lower=0, clean=1, overwrite_a=1)
        chol, info = lapack.dpotri(chol, lower=0, overwrite_c=1)
    X = np.zeros((G.n, G.n))
    X[:-1, :-1] = chol
    return X, np.where(keep, np.cumsum(keep) - 1, G.n - 1)


class TestGroundedInverse:
    @pytest.mark.parametrize("G", [er_graph(120, 0.1, 2, weighted=True), star_graph(9),
                                   WeightedGraph(9, np.arange(8), np.full(8, 8), np.ones(8)),
                                   path_graph(10 ** np.linspace(-6, 6, 29)), WeightedGraph(2, [0], [1], [0.5])],
                             ids=["er", "ground-first", "ground-last", "wide-path", "n2"])
    def test_bytes_match_sparse_laplacian_slice(self, G):
        (X, at), (ref, ref_at) = resistance._grounded_inverse(G), _grounded_inverse_reference(G)
        assert X.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(at, ref_at)

    def test_bytes_independent_of_blas_threads(self):
        # dpotrf and dpotri round differently at 1 and 2 OpenBLAS threads unless pinned
        if resistance._BLAS_THREADS is None:
            pytest.skip("scipy bundles no OpenBLAS whose thread count can be set")
        code = ("import hashlib; from conftest import er_graph; from walksparse import resistance as r; "
                "get = r._BLAS_THREADS[0]; before = get(); "
                "X = r._grounded_inverse(er_graph(200, 0.2, 1, weighted=True))[0]; "
                "print(hashlib.sha256(X.tobytes()).hexdigest(), before, get())")
        path = os.pathsep.join([os.path.dirname(os.path.dirname(resistance.__file__)), os.path.dirname(__file__)])
        out = {}
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
            digest, before, after = run.stdout.split()
            assert before == after  # the count is restored
            out[threads] = digest
        assert out["1"] == out["2"]
