import hashlib
import logging
import math
import os
import subprocess
import sys
import typing

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from walksparse import (
    ConvergenceError,
    PolyCoeffs,
    RngStream,
    SddmMatrix,
    SparsifyConfig,
    ValidationError,
    WeightedGraph,
    dense_poly,
    inv_sqrt_chain,
    newton_sqrt_step,
    qth_root_coefficients,
)
import walksparse
from walksparse.graph import DENSE_THRESHOLD
from walksparse import newton, resistance
from walksparse.newton import NEWTON_ALPHA, AffineFactor, spectral_radius

from conftest import path_graph, random_sddm, star_graph
from references import middle_poly_value


class TestQthRootCoefficients:
    def test_q1_reproduces_cubic(self):
        a = qth_root_coefficients(1)
        np.testing.assert_array_equal(a.alpha, [0.0, 0.75, 0.25])

    def test_q1_scalar_grid_exact(self):
        # middle polynomial equals 1 - 3/4 x^2 - 1/4 x^3 at machine precision
        for x in np.linspace(-0.99, 0.99, 200):
            assert middle_poly_value(1, x) == pytest.approx(
                1 - 0.75 * x**2 - 0.25 * x**3, abs=1e-14
            )

    def test_q2_scalar_value(self):
        # (1 + 0.5/4)^4 * 0.5
        assert middle_poly_value(2, 0.5) == pytest.approx(0.8009033203125, abs=1e-15)

    def test_coefficients_valid_across_q(self):
        for q in range(1, 17):
            a = qth_root_coefficients(q)
            assert a.d == 2 * q + 1
            assert np.all(a.alpha >= 0)
            assert a.alpha.sum() == pytest.approx(1.0, abs=1e-12)

    def test_coefficients_match_scalar_polynomial(self):
        for q in (2, 3, 5):
            a = qth_root_coefficients(q)
            for x in np.linspace(-0.9, 0.9, 7):
                poly = 1 - sum(c * x**r for r, c in enumerate(a.alpha, start=1))
                assert poly == pytest.approx(middle_poly_value(q, x), rel=1e-12)

    def test_q_zero_rejected(self):
        with pytest.raises(ValidationError):
            qth_root_coefficients(0)

    def test_non_integer_q_rejected(self):
        with pytest.raises(ValidationError, match="positive integer"):
            qth_root_coefficients(1.5)

    def test_math_comb_matches_scipy_comb(self):
        from scipy.special import comb

        for q in range(1, 7):
            t = 2 * q
            alpha = [comb(t, r - 1, exact=True) / t ** (r - 1) - comb(t, r, exact=True) / t**r
                     for r in range(1, t + 2)]
            np.testing.assert_array_equal(qth_root_coefficients(q).alpha, np.maximum(alpha, 0.0))

    def test_import_leaves_scipy_special_unloaded(self):
        src = os.path.dirname(os.path.dirname(walksparse.__file__))
        code = "import sys, walksparse; print('scipy.special' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "False"


class TestNewtonSqrtStep:
    def test_no_offdiagonal_identity(self):
        G = WeightedGraph.from_edges(3, [])
        M = SddmMatrix(np.array([2.0, 3.0, 4.0]), G)
        factor, nxt = newton_sqrt_step(M, 0.3, SparsifyConfig(epsilon=0.3), RngStream(0))
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(factor.apply(x), x)
        np.testing.assert_allclose(nxt.dense(), np.diag(M.diag))

    @pytest.mark.usefixtures("sampled")
    def test_2x2_dense_cubic(self):
        M = SddmMatrix(np.array([3.0, 3.0]), WeightedGraph.from_edges(2, [(0, 1, 1.0)]))
        expected = dense_poly(M, NEWTON_ALPHA)
        _, approx = newton_sqrt_step(M, 0.3, SparsifyConfig(epsilon=0.3), RngStream(1))
        vals = np.linalg.eigvalsh(np.linalg.solve(expected, approx.dense()))
        assert math.exp(-0.35) <= vals.min() and vals.max() <= math.exp(0.35)

    @pytest.mark.usefixtures("sampled")
    def test_triangle_with_slack(self, triangle):
        M = SddmMatrix(triangle.degree + 0.5, triangle)
        expected = dense_poly(M, NEWTON_ALPHA)
        _, nxt = newton_sqrt_step(M, 0.3, SparsifyConfig(epsilon=0.3), RngStream(2))
        vals = np.linalg.eigvalsh(np.linalg.solve(expected, nxt.dense()))
        assert math.exp(-0.35) <= vals.min() and vals.max() <= math.exp(0.35)


class TestInvSqrtChain:
    def test_diagonal_input_exact(self):
        G = WeightedGraph.from_edges(3, [])
        M = SddmMatrix(np.array([4.0, 9.0, 16.0]), G)
        chain = inv_sqrt_chain(M, 0.2)
        assert len(chain) == 0
        lo, hi = chain.bracket(M)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_dense_mode_quadratic_convergence(self, caplog):
        M = random_sddm(40, 0.25, 0, slack=0.5)
        with caplog.at_level(logging.INFO, logger="walksparse"):
            chain = inv_sqrt_chain(M, 0.2)
        # stage one formed every cubic exactly, so the rate is the cubic's own
        assert caplog.text.count("stage 1 ") == caplog.text.count("stage 1 exact") == len(chain)
        rho = chain.rho_history
        # once contraction kicks in, log-errors at least ~square each step
        tail = [r for r in rho if r < 0.7]
        assert len(tail) >= 2
        for a, b in zip(tail, tail[1:]):
            assert math.log(b) / math.log(a) >= 1.8

    def test_dense_mode_bracket(self):
        M = random_sddm(50, 0.15, 1, slack=0.5)
        chain = inv_sqrt_chain(M, 0.2)
        lo, hi = chain.bracket(M)
        assert 0.8 <= lo and hi <= 1.2

    def test_bracket_tightens_with_eps(self):
        M = random_sddm(40, 0.2, 2, slack=0.5)
        widths = []
        for eps in (0.4, 0.2, 0.1):
            lo, hi = inv_sqrt_chain(M, eps).bracket(M)
            widths.append(max(1 - lo, hi - 1))
        assert widths[0] >= widths[1] >= widths[2]

    @pytest.mark.usefixtures("sampled")
    def test_sampled_chain_bracket(self):
        M = random_sddm(40, 0.2, 3, slack=1.0)
        cfg = SparsifyConfig(epsilon=0.5, oversample=0.3, second_stage=False)
        chain = inv_sqrt_chain(M, 0.3, cfg=cfg, rng=RngStream(7))
        lo, hi = chain.bracket(M)
        assert 0.7 <= lo and hi <= 1.3, (lo, hi)

    def test_chain_application_linear(self):
        M = random_sddm(30, 0.25, 4, slack=0.5)
        chain = inv_sqrt_chain(M, 0.2)
        gen = np.random.default_rng(0)
        x, y = gen.standard_normal((2, M.n))
        a, b = 1.7, -0.3
        np.testing.assert_allclose(
            chain.apply(a * x + b * y),
            a * chain.apply(x) + b * chain.apply(y),
            atol=1e-10,
        )

    def test_dense_chain_matches_apply(self):
        M = random_sddm(20, 0.3, 5, slack=0.5)
        chain = inv_sqrt_chain(M, 0.2)
        x = np.random.default_rng(1).standard_normal(M.n)
        np.testing.assert_allclose(chain.dense() @ x, chain.apply(x), rtol=1e-10)
        np.testing.assert_allclose(chain.dense().T @ x, chain.apply_t(x), rtol=1e-10)

    def test_spectral_radius_once_per_step(self, monkeypatch):
        calls = []
        monkeypatch.setattr(newton, "spectral_radius", lambda M: calls.append(M) or spectral_radius(M))
        M = random_sddm(30, 0.25, 4, slack=0.5)
        chain = inv_sqrt_chain(M, 0.2)
        assert len(calls) == len(chain.rho_history) > 1
        assert calls[0] is M

    def test_nonpositive_eps_rejected(self):
        M = random_sddm(10, 0.4, 6)
        with pytest.raises(ValidationError):
            inv_sqrt_chain(M, 0.0)

    @pytest.mark.parametrize("eps_total", [math.nan, math.inf])
    def test_nonfinite_eps_rejected(self, eps_total):
        M = random_sddm(10, 0.4, 6)
        with pytest.raises(ValidationError, match="eps_total"):
            inv_sqrt_chain(M, eps_total)

    def test_walk_ratio_at_least_one_refused(self):
        # K_10 whose diagonal sits inside the dominance tolerance but below the
        # degree on nine vertices: validation accepts it, yet rho(D^-1 A) > 1
        G = WeightedGraph.from_dense(np.ones((10, 10)) - np.eye(10))
        diag = G.degree - 8e-12
        diag[9] = G.degree[9] + 1e-11
        M = SddmMatrix(diag, G)
        isq = 1.0 / np.sqrt(M.diag)
        rho = np.max(np.linalg.eigvalsh(isq[:, None] * G.adjacency_dense() * isq[None, :]))
        assert rho > 1
        with pytest.raises(ValidationError, match="walk ratio >= 1"):
            inv_sqrt_chain(M, 0.4)

    def test_chain_bytes_pinned(self):
        # the newton-chain settings; rho enters only the step count, the stop test
        # and eps_bound, so the factors and diagonals keep these bytes. Every
        # cubic takes the dense chain from its first product and uses no BLAS,
        # so the bytes are the same at every BLAS thread count
        M = random_sddm(50, 0.15, 1)
        cfg = SparsifyConfig(epsilon=0.5, oversample=0.3, second_stage=False)
        chain = inv_sqrt_chain(M, 0.4, cfg=cfg, rng=RngStream(1))
        h = hashlib.sha256()
        for f in chain.factors:
            for a in (f.graph.edge_u, f.graph.edge_v, f.graph.edge_w, f.diag):
                h.update(a.tobytes())
        h.update(chain.terminal_diag.tobytes())
        assert len(chain) == 4
        lo, hi = chain.bracket(M)
        assert math.exp(-0.4) <= lo and hi <= math.exp(0.4)
        assert h.hexdigest() == "996f2069f15fa65389e21cb0c7cfc6c17f1ba697c74d647308c4ff04b9422979"


class TestQthRootReduceStep:
    def test_q1_matches_newton_alpha(self):
        np.testing.assert_array_equal(qth_root_coefficients(1).alpha, NEWTON_ALPHA.alpha)


def _dense_radius(M):
    isq = 1.0 / np.sqrt(M.diag)
    X = isq[:, None] * M.offdiag.adjacency_dense() * isq[None, :]
    return np.max(np.abs(np.linalg.eigvalsh(X)))


def _with_slack(G, slack):
    return SddmMatrix(G.degree + slack, G)


@pytest.fixture
def no_lanczos(monkeypatch):
    """ARPACK that never converges, so spectral_radius takes its fallback."""

    def eigsh(X, *args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((X.shape[0], 0)))

    monkeypatch.setattr(spla, "eigsh", eigsh)


class TestSpectralRadius:
    def test_matches_dense(self):
        M = random_sddm(30, 0.3, 9, slack=0.5)
        assert spectral_radius(M) == pytest.approx(_dense_radius(M), rel=1e-12)

    def test_bits_independent_of_blas_threads(self):
        # numpy's eigvalsh rounds differently at 1 and 2 OpenBLAS threads unless pinned
        if not resistance._BLAS_THREADS:
            pytest.skip("numpy and scipy bundle no OpenBLAS whose thread count can be set")
        code = ("from conftest import random_sddm; from walksparse.newton import spectral_radius; "
                "print(spectral_radius(random_sddm(512, 0.05, 1, slack=0.01)).hex())")
        path = os.pathsep.join([os.path.dirname(os.path.dirname(newton.__file__)), os.path.dirname(__file__)])
        out = {}
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            out[threads] = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                          env=env, check=True).stdout
        assert out["1"] == out["2"]

    @pytest.mark.parametrize(
        "M",
        [
            _with_slack(path_graph([1.0] * 39), 1e-3),
            # K_{4,6}: the spectrum holds -rho as well as rho
            _with_slack(WeightedGraph.from_edges(10, [(a, b, 1.0) for a in range(4) for b in range(4, 10)]),
                        1e-3),
            _with_slack(star_graph(25), 1e-3),
            # two paths, each with its own slack
            _with_slack(
                WeightedGraph.from_edges(40, [(i, i + 1, 1.0) for i in range(19)]
                                         + [(i, i + 1, 2.0) for i in range(20, 39)]),
                np.repeat([1e-3, 0.5], 20),
            ),
            _with_slack(WeightedGraph.from_edges(2, [(0, 1, 3.0)]), 1e-3),
        ],
        ids=["path", "bipartite", "star", "disconnected", "n2"],
    )
    def test_never_below_dense(self, M):
        truth = _dense_radius(M)
        assert truth <= spectral_radius(M) <= truth * (1 + 1e-12)

    @pytest.mark.parametrize(
        "weights",
        [
            np.ones(599),
            # 58 eigenvalues lie within 1e-9 of the top, which Lanczos does not
            # resolve; the inverse-iteration bound answers
            10 ** np.random.default_rng(0).uniform(-8, 8, 700),
        ],
        ids=["path", "wide-weights"],
    )
    def test_above_dense_threshold_upper_bound(self, weights):
        M = _with_slack(path_graph(list(weights)), 1e-3)
        assert M.n > DENSE_THRESHOLD
        truth = _dense_radius(M)
        # the dense eigvalsh rounds too: on wide-weights it reads 3e-16 above
        # the Collatz-Wielandt bound, which a Sturm count at 60 digits confirms
        assert truth * (1 - 1e-15) <= spectral_radius(M) <= truth * (1 + 1e-8)

    def test_one_slack_vertex_above_dense_threshold(self, monkeypatch):
        # a grounded wide-weight path: every row but one has zero slack, so
        # the row sums read 1, and Lanczos does not converge
        G = path_graph(list(10 ** np.random.default_rng(0).uniform(-2, 2, 700)))
        M = SddmMatrix(G.degree + np.eye(G.n)[350], G)
        calls = []
        real = newton._inverse_iteration_bound
        monkeypatch.setattr(newton, "_inverse_iteration_bound", lambda M: calls.append(M.n) or real(M))
        truth = _dense_radius(M)
        rho = spectral_radius(M)
        assert calls == [G.n]
        assert np.max(M.offdiag.degree / M.diag) == 1.0
        assert truth * (1 - 1e-15) <= rho < 1
        assert rho <= truth * (1 + 1e-9)
        # the chain takes it: one step, then the iteration cap
        with pytest.raises(ConvergenceError):
            inv_sqrt_chain(M, 0.4, max_iters=1)

    def test_second_eigenpair_never_reads_low(self, monkeypatch):
        # the bound holds whichever eigenpair ARPACK returns; a Ritz residual
        # bound on this second pair reads 0.552 against rho = 0.99915
        real, thetas = spla.eigsh, []

        def second(X, k=1, **kwargs):
            vals, vecs = real(X, k=2, **kwargs)
            thetas.append(vals[0])  # ascending: the second largest first
            return vals[:1], vecs[:, :1]

        monkeypatch.setattr(spla, "eigsh", second)
        M = random_sddm(600, 0.02, 1, slack=0.01)
        assert M.n > DENSE_THRESHOLD
        truth = _dense_radius(M)
        rho = spectral_radius(M)
        assert len(thetas) == 1 and thetas[0] < truth * (1 - 1e-3)
        assert truth * (1 - 1e-15) <= rho < 1

    @pytest.mark.parametrize(
        "M",
        [
            _with_slack(path_graph([1.0] * 599), 1e-3),
            # K_{300,300} with slack on one vertex: the spectrum holds -rho
            _with_slack(WeightedGraph.from_edges(600, [(a, b, 1.0) for a in range(0, 600, 2)
                                                       for b in range(1, 600, 2)]), np.eye(600)[0]),
            # a star grounded at its centre beside a path with its own slack
            _with_slack(WeightedGraph.from_edges(600, [(0, i, 1.0) for i in range(1, 300)]
                                                 + [(i, i + 1, 2.0) for i in range(300, 599)]),
                        np.r_[1.0, np.zeros(299), np.full(300, 0.5)]),
        ],
        ids=["path", "bipartite", "disconnected"],
    )
    @pytest.mark.usefixtures("no_lanczos")
    def test_inverse_iteration_bound(self, M):
        truth = _dense_radius(M)
        assert truth * (1 - 1e-15) <= spectral_radius(M) < 1

    @pytest.mark.usefixtures("no_lanczos")
    def test_inverse_iteration_bound_not_positive_definite(self):
        # weight-10 path whose diagonal sits inside the dominance tolerance but
        # below the degree on all vertices but one: validation accepts it, yet
        # no y > 0 has M y > 0, so the bound reads 1 and the chain refuses it
        G = path_graph([10.0] * 599)
        diag = G.degree - 8e-12
        diag[0] = G.degree[0] + 5e-11
        M = SddmMatrix(diag, G)
        assert _dense_radius(M) > 1
        assert spectral_radius(M) == 1.0
        with pytest.raises(ValidationError, match="walk ratio >= 1"):
            inv_sqrt_chain(M, 0.4)


def test_affine_factor_type_hints_resolve():
    assert typing.get_type_hints(AffineFactor)["graph"] is WeightedGraph
