import hashlib
import logging
import math

import numpy as np
import pytest
from scipy.linalg import block_diag

from walksparse import (
    RngStream,
    SparsifyConfig,
    ValidationError,
    WeightedGraph,
    dense_monomial,
    save_graph,
    schedule,
    similarity_check,
    sparsify_high_degree,
)
from walksparse.highdegree import (
    PLUS,
    SQUARE,
    MonomialApprox,
    _clamp_degree_excess,
    _full_layer,
    plus_step,
    shortest_program,
    square_step,
)
from walksparse.oracle import generalized_eigenvalues

from conftest import er_graph, ring_graph


def replay(ops):
    """The degree a program reaches from 2."""
    deg = 2
    for op in ops:
        deg = 2 * deg if op == SQUARE else deg + 4
    return deg


def dense_walk_graph(G, r):
    """Off-diagonal part of the r-step walk matrix as a WeightedGraph."""
    L = dense_monomial(G, r)
    A = -L.copy()
    np.fill_diagonal(A, 0.0)
    return WeightedGraph.from_dense(np.maximum(A, 0.0))


class TestSchedule:
    def test_pure_programs(self):
        assert shortest_program(4) == [SQUARE]
        assert shortest_program(12) == [PLUS, SQUARE]

    def test_replay_consistency(self):
        for d in range(4, 400, 4):
            assert replay(shortest_program(d)) == d

    def test_direct_branch(self):
        sch = schedule(4, eps=1.0)
        assert sch.direct and sch.ops == []
        assert not schedule(16, eps=1.0).direct

    def test_substitution_branch(self):
        sch = schedule(10, eps=0.5)
        assert sch.substituted
        assert sch.target == 8
        assert sch.eps_effective == 0.25
        assert replay(sch.ops) == 8

    def test_substitution_skipped_when_direct(self):
        # d = 6 <= 4/eps at eps = 0.5, so no substitution is needed
        assert schedule(6, eps=0.5).direct
        assert not schedule(6, eps=1.0).direct

    def test_odd_or_small_rejected(self):
        with pytest.raises(ValidationError):
            schedule(7, 0.5)
        with pytest.raises(ValidationError):
            schedule(0, 0.5)

    @pytest.mark.parametrize("eps", [0.0, -0.5, math.nan, math.inf])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(ValidationError, match="eps must be positive and finite"):
            schedule(8, eps)

    @pytest.mark.parametrize("d", [8.0, "8"])
    def test_non_integer_degree_rejected(self, d):
        with pytest.raises(ValidationError, match="even integer"):
            schedule(d, 0.5)

    def test_program_length_logarithmic(self):
        # BFS programs stay within 2 log2(d) + O(1) operations
        for d in range(4, 4097, 4):
            k = len(shortest_program(d))
            assert k <= 2 * math.log2(d) + 2, d


class TestSteps:
    def setup_method(self):
        self.G = er_graph(40, 0.25, 4)
        self.D = self.G.degree.copy()
        self.cfg = SparsifyConfig(epsilon=0.5, oversample=4.0, second_stage=False)
        self.cur = MonomialApprox(2, dense_walk_graph(self.G, 2), self.D, 0.0)

    @pytest.mark.usefixtures("sampled")
    def test_square_from_exact_degree_two(self):
        out = square_step(self.cur, 0.3, self.cfg, RngStream(1))
        assert out.degree == 4
        vals, mismatch = generalized_eigenvalues(
            out.graph.laplacian_dense(), dense_monomial(self.G, 4)
        )
        assert not mismatch
        assert math.exp(-0.3) <= vals.min() and vals.max() <= math.exp(0.3)

    @pytest.mark.usefixtures("sampled")
    def test_plus_from_exact_degree_two(self):
        out = plus_step(self.cur, self.G, 0.3, self.cfg, RngStream(2))
        assert out.degree == 6
        vals, mismatch = generalized_eigenvalues(
            out.graph.laplacian_dense(), dense_monomial(self.G, 6)
        )
        assert not mismatch
        assert math.exp(-0.3) <= vals.min() and vals.max() <= math.exp(0.3)

    def test_exact_route_certifies(self, caplog):
        # D - A~ D^-1 A~ and D - A D^-1 A D^-1 A~ D^-1 A D^-1 A, with the loop
        # mass D - deg on the diagonal of A~
        At = self.cur.graph.adjacency_dense()
        np.fill_diagonal(At, self.D - self.cur.graph.degree)
        A = self.G.adjacency_dense() / self.D  # A D^-1
        with caplog.at_level(logging.INFO, logger="walksparse"):
            square = square_step(self.cur, 0.3, self.cfg, RngStream(1))
            plus = plus_step(self.cur, self.G, 0.3, self.cfg, RngStream(2))
        assert caplog.text.count("stage 1 exact") == 2
        for out, product in ((square, At / self.D @ At), (plus, A @ A @ At / self.D @ A @ A * self.D)):
            rep = similarity_check(out.graph.laplacian_dense(), np.diag(self.D) - product, 1e-9)
            assert rep.eps_required <= 1e-9, rep.as_kv()

    def test_clamp_rescales_excess(self):
        G = ring_graph(6, 2.0)
        # degrees 4; base degree 3.8 forces a uniform rescale
        approx = MonomialApprox(2, G, np.full(6, 3.8), 0.0)
        out = _clamp_degree_excess(approx)
        assert np.all(out.graph.degree <= 3.8 + 1e-12)
        assert out.accumulated_eps == pytest.approx(2 * abs(math.log(3.8 / 4.0)))

    def test_clamp_noop_when_within(self):
        G = ring_graph(6)
        approx = MonomialApprox(2, G, np.full(6, 5.0), 0.1)
        assert _clamp_degree_excess(approx) is approx

    @pytest.mark.parametrize("scale", [1.0, 0.8], ids=["unclamped", "clamped"])
    def test_full_layer_rows_sum_to_base_degree(self, scale):
        # why square_step's coefficients are 1: after the clamp, the loop mass
        # D - deg brings every row of the full layer back to D
        cur = MonomialApprox(2, self.cur.graph, scale * self.D, 0.0)
        out = _clamp_degree_excess(cur)
        assert (out is cur) == (scale == 1.0)
        s = np.asarray(_full_layer(out).sum(axis=1)).ravel()
        assert np.all(np.abs(s - out.base_degree) <= 4 * np.spacing(out.base_degree))


class TestDriver:
    @pytest.mark.usefixtures("sampled")
    def test_d8(self):
        G = er_graph(40, 0.25, 5)
        cfg = SparsifyConfig(epsilon=0.75, oversample=1.0)
        H = sparsify_high_degree(G, 8, 0.75, cfg, RngStream(3))
        rep = similarity_check(H.laplacian_dense(), dense_monomial(G, 8), 0.75)
        assert rep.passed, rep.as_kv()

    @pytest.mark.usefixtures("sampled")
    def test_d10_substitution(self):
        G = er_graph(40, 0.25, 6)
        cfg = SparsifyConfig(epsilon=0.5, oversample=1.0)
        H = sparsify_high_degree(G, 10, 0.5, cfg, RngStream(4))
        rep = similarity_check(H.laplacian_dense(), dense_monomial(G, 10), 0.5)
        assert rep.passed, rep.as_kv()

    @pytest.mark.usefixtures("sampled")
    def test_direct_small_degree(self):
        G = er_graph(30, 0.3, 7)
        H = sparsify_high_degree(G, 2, 0.5, SparsifyConfig(epsilon=0.5), RngStream(5))
        rep = similarity_check(H.laplacian_dense(), dense_monomial(G, 2), 0.5)
        assert rep.passed, rep.as_kv()

    @pytest.mark.parametrize("route", ["exact", "sample"])
    def test_replay_byte_identical(self, route, tmp_path, request):
        if route == "sample":
            request.getfixturevalue("sampled")
        G = er_graph(30, 0.3, 8)
        cfg = SparsifyConfig(epsilon=0.75, oversample=1.0)
        assert schedule(12, 0.75).ops == [PLUS, SQUARE]
        for name in ("a.mtx", "b.mtx"):
            save_graph(sparsify_high_degree(G, 12, 0.75, cfg, RngStream(6)), tmp_path / name)
        assert (tmp_path / "a.mtx").read_bytes() == (tmp_path / "b.mtx").read_bytes()

    @pytest.mark.usefixtures("sampled")
    def test_sampled_bytes_pinned(self, tmp_path):
        # the sampled PLUS and SQUARE steps' output bytes for this seed are fixed
        # at every BLAS thread count: stage two's exact resistances come from
        # dpotrf/dpotri in resistance._grounded_inverse, which pins them to one
        G = er_graph(40, 0.2, 5)
        cfg = SparsifyConfig(epsilon=0.75, oversample=0.3)
        save_graph(sparsify_high_degree(G, 12, 0.75, cfg, RngStream(3)), tmp_path / "h.mtx")
        digest = hashlib.sha256((tmp_path / "h.mtx").read_bytes()).hexdigest()
        assert digest == "0c507fc6fef9a85c5152581b36447926d79fe8bc3039424f8fe829e988f87742"

    def test_bipartite_refused(self):
        # taken whole: even walks on the bipartite ring keep its two sides apart
        ring6 = ring_graph(6)
        H = sparsify_high_degree(ring6, 4, 0.5, SparsifyConfig(epsilon=0.5), RngStream(0))
        rep = similarity_check(H.laplacian_dense(), dense_monomial(ring6, 4), 0.5)
        assert rep.passed, rep.as_kv()

    def test_disconnected_refused(self):
        # taken whole: the monomial of two triangles is the direct sum of theirs
        G = WeightedGraph.from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)])
        H = sparsify_high_degree(G, 4, 0.5, SparsifyConfig(epsilon=0.5), RngStream(0))
        rep = similarity_check(H.laplacian_dense(), dense_monomial(G, 4), 0.5)
        assert rep.passed, rep.as_kv()

    def test_odd_degree_rejected(self, triangle):
        with pytest.raises(ValidationError):
            sparsify_high_degree(triangle, 5, 0.5, SparsifyConfig(epsilon=0.5), RngStream(0))

    @pytest.mark.parametrize("d, eps", [(8, 0.0), (2.0, 0.5), (8.0, 0.5)])
    def test_bad_degree_or_eps_rejected(self, triangle, d, eps):
        with pytest.raises(ValidationError):
            sparsify_high_degree(triangle, d, eps, SparsifyConfig(epsilon=0.5), RngStream(0))


def _bipartite(a, b, p, seed):
    """Random bipartite graph on sides 0..a-1 and a..a+b-1, weights 10^U(-1, 1)."""
    gen = np.random.default_rng(seed)
    u, v = np.nonzero(gen.random((a, b)) < p)
    return WeightedGraph(a + b, u, v + a, 10 ** gen.uniform(-1, 1, len(u)))


def _beside(*graphs):
    """Disjoint union, each graph's vertices after the previous ones'."""
    return WeightedGraph.from_dense(block_diag(*(G.adjacency_dense() for G in graphs)))


class TestFamilies:
    """Bipartite and disconnected inputs, certified densely on both stage-one routes."""

    FAMILIES = {
        "bipartite": lambda: _bipartite(25, 25, 0.2, 1),
        "two-er-isolated": lambda: _beside(er_graph(20, 0.3, 2), er_graph(15, 0.4, 3), WeightedGraph(1, [], [], [])),
        "er-bipartite": lambda: _beside(er_graph(20, 0.3, 4), _bipartite(12, 10, 0.3, 5)),
    }

    @pytest.mark.parametrize("route", ["exact", "sample"])
    @pytest.mark.parametrize("d", [8, 12])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_certified(self, family, d, route, request):
        if route == "sample":
            request.getfixturevalue("sampled")
        G = self.FAMILIES[family]()
        H = sparsify_high_degree(G, d, 0.75, SparsifyConfig(epsilon=0.75, oversample=1.0), RngStream(d))
        rep = similarity_check(H.laplacian_dense(), dense_monomial(G, d), 0.75)
        assert rep.passed, rep.as_kv()

    def test_stage_two_samples_both_sides(self):
        # at n = 200 the final resparsify samples the two sides of the degree-8
        # monomial of a connected bipartite graph in one pass
        G = _bipartite(100, 100, 0.1, 1)
        H = sparsify_high_degree(G, 8, 0.75, SparsifyConfig(epsilon=0.75, oversample=1.0), RngStream(8))
        L = dense_monomial(G, 8)
        assert G.components[0] == 1 and H.components[0] == 2
        assert H.m < np.count_nonzero(np.triu(L, 1))
        rep = similarity_check(H.laplacian_dense(), L, 0.75)
        assert rep.passed, rep.as_kv()


class TestBracketImplications:
    """Dense implications behind the squaring step, on (G, perturbed A~) pairs.

    The base matrix is the PSD two-step walk matrix W = D (D^-1 A)^2; the
    perturbation scales its off-diagonal mass by factors in [1 - delta, 1]
    and restores row sums D on the diagonal, so D - A~ stays a Laplacian
    bracketed within (1 +- delta) of D - W and shares its kernel.
    """

    @staticmethod
    def _perturbed_pair(seed, delta):
        G = er_graph(25, 0.3, seed, weighted=True)
        gen = np.random.default_rng(seed + 1)
        D = G.degree
        L2 = dense_monomial(G, 2)
        W = np.diag(D) - L2  # full two-step walk matrix, PSD
        F = 1 - delta * gen.random((G.n, G.n))
        F = np.triu(F, 1)
        F = F + F.T
        At = W * F
        np.fill_diagonal(At, 0.0)
        np.fill_diagonal(At, D - At.sum(axis=1))
        assert np.all(np.diag(At) >= 0)
        return D, W, At

    @staticmethod
    def _linear_bracket(X, Y):
        vals, mismatch = generalized_eigenvalues(X, Y)
        assert not mismatch
        return max(1.0 - vals.min(), vals.max() - 1.0)

    @pytest.mark.parametrize("delta", [0.1, 0.3])
    def test_sum_bracket_preserved(self, delta):
        # (1-e)(D-W) <= D-At <= (1+e)(D-W) implies the same for D+ brackets
        for seed in range(25):
            D, W, At = self._perturbed_pair(30 + seed, delta)
            eps = self._linear_bracket(np.diag(D) - At, np.diag(D) - W)
            got = self._linear_bracket(np.diag(D) + At, np.diag(D) + W)
            assert got <= eps + 1e-9

    @pytest.mark.parametrize("delta", [0.1, 0.3])
    def test_square_bracket_preserved(self, delta):
        # the eps bracket survives squaring: D - At D^-1 At ~ D - W D^-1 W
        for seed in range(25):
            D, W, At = self._perturbed_pair(60 + seed, delta)
            eps = self._linear_bracket(np.diag(D) - At, np.diag(D) - W)
            Di = np.diag(1.0 / D)
            got = self._linear_bracket(
                np.diag(D) - At @ Di @ At, np.diag(D) - W @ Di @ W
            )
            assert got <= eps + 1e-9
