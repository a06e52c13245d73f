import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
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
        assert ErOracle(G, 0.2).method == "dense-exact"
        R = exact_resistances(G)
        np.testing.assert_allclose(estimate_er(G), R[G.edge_u, G.edge_v], rtol=1e-9)

    @pytest.mark.usefixtures("sketched")
    def test_sketch_upper_bounds(self):
        G = er_graph(60, 0.15, 1, weighted=True)
        delta = 0.2
        assert ErOracle(G, delta, RngStream(3)).method == "sketch"
        Z = estimate_er(G, delta=delta, rng=RngStream(3))
        R = exact_resistances(G)
        exact = R[G.edge_u, G.edge_v]
        # inflated sketch stays an upper bound and within (1+delta)^4 above
        assert np.all(Z >= exact * 0.999)
        assert np.all(Z <= exact * (1 + delta) ** 4)

    def test_foster_identity_extreme_weights(self):
        # sum_e w_e R_e = n - 1 (Foster); a truncated pseudoinverse loses it
        # when weights span 16 orders of magnitude
        for seed in range(40):
            gen = np.random.default_rng(10_000 + seed)
            n = int(gen.integers(2, 81))
            G0 = er_graph(n, min(1.0, max(0.1, 2.5 * math.log(n) / n)), seed)
            w = 10.0 ** gen.uniform(-8, 8, G0.m)
            G = WeightedGraph(n, G0.edge_u, G0.edge_v, w)
            assert ErOracle(G, 0.2).method == "dense-exact"
            assert float(np.sum(w * estimate_er(G))) == pytest.approx(n - 1, rel=1e-3), (seed, n)

    def test_refuses_weights_beyond_double_precision(self):
        # a 1e-9 bridge between 1e8 edges vanishes in the grounded diagonal
        G = path_graph([1e8, 1e-9, 1e8])
        with pytest.raises(InputRefusedError, match="not numerically positive definite"):
            estimate_er(G)

    def test_method_rule(self):
        # exact unless n > max(DENSE_THRESHOLD, k), k = ceil(24 ln n / delta^2)
        G = er_graph(600, 0.02, 11)
        assert ErOracle(G, 0.2).method == "dense-exact"  # k = 3,838
        assert ErOracle(G, 1.0, RngStream(1)).method == "sketch"  # k = 154
        small = er_graph(40, 0.2, 12)
        for delta in (0.2, 1.0, 5.0):
            assert ErOracle(small, delta, RngStream(1)).method == "dense-exact"

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
        Z = dict(zip(zip(G.edge_u, G.edge_v), estimate_er(G)))
        for C, ids in parts:
            whole = [Z[min(ids[a], ids[b]), max(ids[a], ids[b])] for a, b in zip(C.edge_u, C.edge_v)]
            np.testing.assert_allclose(whole, estimate_er(C), rtol=1e-12, atol=0)

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

    def test_cg_bytes_independent_of_blas_threads(self):
        # OpenBLAS splits the dot products of vectors this long (10,200 entries) across threads
        assert_bytes_independent_of_blas_threads(
            "i = np.arange(101 * 101).reshape(101, 101); gen = np.random.default_rng(0); "
            "G = WeightedGraph(i.size, np.r_[i[:, :-1].ravel(), i[:-1].ravel()], np.r_[i[:, 1:].ravel(), i[1:].ravel()], "
            "np.exp(gen.uniform(-1, 1, 2 * 101 * 100))); "
            "b = gen.standard_normal((2, G.n)); X = r._grounded_solve(G, b - b.mean(axis=1, keepdims=True))")


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

    @pytest.mark.parametrize("rng", [None, 5])
    def test_rng_without_stream_refused(self, rng):
        # None or a seed would draw OS entropy or an unnamed stream, not a replayable one
        G = er_graph(60, 0.4, 4)
        cfg = SparsifyConfig(epsilon=0.5, oversample=0.1)
        assert resparsify(G, 0.5, cfg, RngStream(5)).m < G.m  # above the budget, so it samples
        with pytest.raises(ValidationError, match="RngStream"):
            resparsify(G, 0.5, cfg, rng)

    @pytest.mark.usefixtures("sketched")
    def test_one_generator_per_call(self, monkeypatch):
        # the samples follow the sketch's signs on one generator, so they reuse none of its bits
        derived, generator = [], RngStream.generator
        monkeypatch.setattr(RngStream, "generator", lambda self: derived.append(self) or generator(self))
        G = er_graph(60, 0.4, 4)
        assert resparsify(G, 0.5, SparsifyConfig(epsilon=0.5, oversample=0.1), RngStream(5, 0)).m < G.m
        assert derived == [RngStream(5, 0)]

    @pytest.mark.parametrize("route, edges, digest", [
        ("dense-exact", 247, "698ab4394907dabb0c36745a13603b316342d6295252b461bb4112df5006e0be"),
        ("sketch", 313, "87a898fa8218d31a656d80bc673ec2db6f48a0e991fd93222e904b4873676a34"),
    ])
    def test_disconnected_stage_two_pinned(self, route, edges, digest, request):
        # two weighted components and an isolated vertex are sampled in one pass; each
        # route grounds the heaviest vertex of each component
        if route == "sketch":
            request.getfixturevalue("sketched")
        A, B = er_graph(40, 0.4, 31, weighted=True), er_graph(30, 0.5, 32, weighted=True)
        G = WeightedGraph(A.n + B.n + 1, np.r_[A.edge_u, B.edge_u + A.n], np.r_[A.edge_v, B.edge_v + A.n],
                          np.r_[A.edge_w, B.edge_w])
        assert (G.m, resistance._default_method(G.n, 0.2)) == (528, route)
        H = resparsify(G, 0.5, SparsifyConfig(epsilon=1.0, oversample=0.3), RngStream(11))
        h = hashlib.sha256()
        for a in (H.edge_u, H.edge_v, H.edge_w):
            h.update(a.tobytes())
        assert (H.m, h.hexdigest()) == (edges, digest)


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

    def test_ground_first_star(self):
        # the centre 0 is the ground, so for u = 0 < v its index k sorts after v's
        G = WeightedGraph.from_edges(7, [(0, i, 0.5 * i) for i in range(1, 7)])
        oracle = ErOracle(G, 0.2)
        assert oracle.method == "dense-exact" and oracle._at[0] == G.n - 1
        R = exact_resistances(G)
        np.testing.assert_allclose(estimate_er(G), R[G.edge_u, G.edge_v], rtol=1e-12)
        u, v = np.triu_indices(G.n, 1)
        np.testing.assert_allclose(oracle.resistances(u, v), R[u, v], rtol=1e-12)
        for a, b in zip(u.tolist(), v.tolist()):
            assert oracle.query(a, b) == oracle.query(b, a) == pytest.approx(R[a, b], rel=1e-12)

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
        isolated = int(np.sum(sparsify_poly(G, alpha, cfg, RngStream(0).split(0)).degree == 0))
        assert isolated > 0
        with pytest.raises(InputRefusedError, match=f"disconnected .*{isolated} isolated vertices"):
            er_oracle_build(G, alpha, 1.0, RngStream(0), delta=0.8, cfg=cfg)

    def test_split_of_disconnected_input_refused(self):
        # G's own isolated vertex and component are no split: the count names
        # only vertices that lost their edges
        C = er_graph(100, 0.06, 0)
        G = WeightedGraph(103, np.r_[C.edge_u, 100], np.r_[C.edge_v, 101], np.r_[C.edge_w, 1.0])
        alpha = PolyCoeffs.parse("0.5,0.5")
        cfg = SparsifyConfig(epsilon=1.0, oversample=0.1)
        H = sparsify_poly(G, alpha, cfg, RngStream(0).split(0))
        isolated = int(np.sum(H.degree == 0)) - 1
        assert isolated > 0
        with pytest.raises(InputRefusedError, match=f"against L_alpha\\(G\\)'s 3, {isolated} isolated vertices"):
            er_oracle_build(G, alpha, 1.0, RngStream(0), delta=0.8, cfg=cfg)

    @pytest.mark.parametrize("a", ["0,1", "0,0,0,1", "0,0.5,0,0.5"])
    def test_bipartite_even_alpha_sides(self, a):
        # with no odd term L_alpha(G) keeps the sides of a bipartite G apart, so its
        # sparsifier's two components are no split: each side answers as the dense
        # pseudoinverse does, and pairs across sides answer inf
        gen = np.random.default_rng(5)
        u, v = np.nonzero(gen.random((30, 30)) < 0.2)
        G = WeightedGraph(60, u, v + 30, 0.5 + gen.random(len(u)))
        assert G.components[0] == 1
        alpha = PolyCoeffs.parse(a)
        oracle = er_oracle_build(G, alpha, 0.5, RngStream(1))
        assert oracle.graph.components[0] == 2
        P = np.linalg.pinv(dense_poly(G, alpha))
        for side in (range(30), range(30, 60)):
            for x in side[:5]:
                for y in side[5:10]:
                    truth = P[x, x] + P[y, y] - 2 * P[x, y]
                    assert oracle.query(x, y) == pytest.approx(truth, rel=1e-9), (x, y)
        assert oracle.query(0, 30) == oracle.query(59, 29) == math.inf

    @pytest.mark.parametrize("cfg", [None, SparsifyConfig(epsilon=0.5, oversample=0.1)], ids=["default", "cfg"])
    def test_disconnected_input_refused(self, cfg):
        # taken whole, with no option: each component answers as its own
        # oracle does, and pairs across components answer inf
        tri = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
        heavy = [(u, v, 3.0 * w) for u, v, w in tri[:2]]  # a weighted path
        G = WeightedGraph.from_edges(6, tri + [(u + 3, v + 3, w) for u, v, w in heavy])
        alpha = PolyCoeffs.parse("0.5,0.5")
        oracle = er_oracle_build(G, alpha, 0.5, RngStream(0), cfg=cfg)
        for edges, at in ((tri, 0), (heavy, 3)):
            own = er_oracle_build(WeightedGraph.from_edges(3, edges), alpha, 0.5, RngStream(0), cfg=cfg)
            for u, v in ((0, 1), (1, 2), (0, 2)):
                assert oracle.query(u + at, v + at) == pytest.approx(own.query(u, v), rel=1e-12, abs=0)
        assert oracle.query(0, 3) == oracle.query(5, 2) == math.inf

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
    column-major and followed by one zero for its ground, and the index of
    each vertex."""
    keep = np.arange(G.n) != np.argmax(G.degree)
    red = G.laplacian().tocsr()[keep][:, keep].toarray(order="F")
    with resistance._one_blas_thread():
        chol, info = lapack.dpotrf(red, lower=0, clean=1, overwrite_a=1)
        chol, info = lapack.dpotri(chol, lower=0, overwrite_c=1)
    k = G.n - 1
    X = np.zeros(k * k + 1)
    X[: k * k] = chol.ravel(order="F")
    return X, np.where(keep, np.cumsum(keep) - 1, k)


class TestGroundedInverse:
    @pytest.mark.parametrize("G", [er_graph(120, 0.1, 2, weighted=True), star_graph(9),
                                   WeightedGraph(9, np.arange(8), np.full(8, 8), np.ones(8)),
                                   path_graph(10 ** np.linspace(-6, 6, 29)), WeightedGraph(2, [0], [1], [0.5])],
                             ids=["er", "ground-first", "ground-last", "wide-path", "n2"])
    def test_bytes_match_sparse_laplacian_slice(self, G):
        (X, at), (ref, ref_at) = resistance._grounded_inverse(G), _grounded_inverse_reference(G)
        assert X.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(at, ref_at)

    def test_peak_memory_one_buffer(self):
        # the k x k inverse is factored, inverted and read in place: no second copy
        G = er_graph(300, 0.03, 4, weighted=True)
        G.degree, G.components  # computed before the trace
        tracemalloc.start()
        try:
            oracle = ErOracle(G, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = G.n - 1
        assert oracle.method == "dense-exact"
        assert peak < 1.25 * 8 * k * k, (peak, 8 * k * k)

    def test_bytes_independent_of_blas_threads(self):
        # dpotrf and dpotri round differently at 1 and 2 OpenBLAS threads unless pinned
        assert_bytes_independent_of_blas_threads("X = r._grounded_inverse(er_graph(200, 0.2, 1, weighted=True))[0]")


def assert_bytes_independent_of_blas_threads(code):
    """Run code, which sets X, at 1 and 2 OpenBLAS threads in subprocesses: X's
    bytes must agree, and each library's thread count be restored after."""
    if not resistance._BLAS_THREADS:
        pytest.skip("numpy and scipy bundle no OpenBLAS whose thread count can be set")
    code = ("import hashlib; import numpy as np; from conftest import er_graph; from walksparse import WeightedGraph; "
            "from walksparse import resistance as r; "
            "counts = lambda: ','.join(str(get()) for get, _ in r._BLAS_THREADS); before = counts(); "
            f"{code}; print(hashlib.sha256(X.tobytes()).hexdigest(), before, counts())")
    path = os.pathsep.join([os.path.dirname(os.path.dirname(resistance.__file__)), os.path.dirname(__file__)])
    out = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        digest, before, after = run.stdout.split()
        assert before == after  # the count is restored
        out[threads] = digest
    assert out["1"] == out["2"]
