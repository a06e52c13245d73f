import hashlib
import logging
import math
import re

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
    save_graph,
    similarity_check,
    sparsify_monomial,
    sparsify_poly,
)
from walksparse.sampling import template_mass
from walksparse.sparsify import stage_two_edge_budget

from conftest import er_graph, ring_graph, star_graph


def stage_one_budget(G, alpha, cfg):
    """M = ceil(c_s ln n / eps1^2 * sum_r alpha_r tau_r), tau_r the mass of [A]*r under D = A 1."""
    tau = sum(a * template_mass([G] * r, [2.0] * r, G.degree) for r, a in enumerate(alpha.alpha, start=1) if a > 0)
    return math.ceil(cfg.oversample * math.log(G.n) / cfg.eps_stage_one**2 * tau)


def logged_budget(G, alpha, cfg, caplog):
    """The M that sparsify_poly's stage one logs."""
    with caplog.at_level(logging.INFO, logger="walksparse"):
        sparsify_poly(G, alpha, cfg, RngStream(0))
    (msg,) = [m for m in caplog.messages if m.startswith("stage 1 ")]
    caplog.clear()
    return int(msg.rsplit("M = ", 1)[1].replace(",", ""))


class TestConfig:
    def test_epsilon_range(self):
        with pytest.raises(ValidationError):
            SparsifyConfig(epsilon=0.0)
        with pytest.raises(ValidationError):
            SparsifyConfig(epsilon=1.5)

    def test_split_budget(self):
        cfg = SparsifyConfig(epsilon=0.5, split=0.5)
        assert cfg.eps_stage_one == 0.25
        assert cfg.eps_stage_two == 0.25
        one_stage = SparsifyConfig(epsilon=0.5, second_stage=False)
        assert one_stage.eps_stage_one == 0.5


class TestBudgets:
    def test_stage_one_example(self, triangle, caplog):
        # alpha=(1), m=3, n=3, eps1=0.5, c_s=4: ceil(4*ln3/0.25*6) = 106
        cfg = SparsifyConfig(epsilon=0.5, oversample=4.0, second_stage=False)
        got = logged_budget(triangle, PolyCoeffs.parse("1"), cfg, caplog)
        assert got == 106 == stage_one_budget(triangle, PolyCoeffs.parse("1"), cfg)

    def test_stage_one_scales_with_mass(self, caplog):
        cfg = SparsifyConfig(epsilon=0.5, second_stage=False)
        G = ring_graph(50)
        a1 = logged_budget(G, PolyCoeffs.monomial(1), cfg, caplog)
        a2 = logged_budget(G, PolyCoeffs.monomial(2), cfg, caplog)
        assert a2 == pytest.approx(2 * a1, rel=0.01)

    def test_stage_two_formula(self):
        cfg = SparsifyConfig(epsilon=0.5, oversample=4.0)
        n, eps = 100, 0.25
        assert stage_two_edge_budget(n, eps, cfg) == math.ceil(
            4.0 * n * math.log(n) / eps**2
        )


class TestSparsifyPoly:
    @pytest.mark.usefixtures("sampled")
    def test_triangle_two_step(self, triangle):
        cfg = SparsifyConfig(epsilon=0.5)
        H = sparsify_poly(triangle, PolyCoeffs.parse("0,1"), cfg, RngStream(0))
        rep = similarity_check(
            H.laplacian_dense(), dense_poly(triangle, PolyCoeffs.parse("0,1")), 0.5
        )
        assert rep.passed

    @pytest.mark.usefixtures("sampled")
    def test_medium_mixture(self):
        G = er_graph(60, 0.1, 0)
        alpha = PolyCoeffs.parse("0.2,0.5,0.3")
        cfg = SparsifyConfig(epsilon=0.5)
        H = sparsify_poly(G, alpha, cfg, RngStream(1))
        rep = similarity_check(H.laplacian_dense(), dense_poly(G, alpha), 0.5)
        assert rep.passed, rep.as_kv()

    @pytest.mark.usefixtures("sampled")
    def test_weighted_graph(self):
        G = er_graph(40, 0.15, 2, weighted=True)
        alpha = PolyCoeffs.parse("0.5,0.5")
        H = sparsify_poly(G, alpha, SparsifyConfig(epsilon=0.5), RngStream(2))
        rep = similarity_check(H.laplacian_dense(), dense_poly(G, alpha), 0.5)
        assert rep.passed, rep.as_kv()

    @pytest.mark.usefixtures("sampled")
    def test_structured_graphs(self):
        for G in (ring_graph(40), star_graph(40)):
            alpha = PolyCoeffs.parse("0.5,0,0.5")
            H = sparsify_poly(G, alpha, SparsifyConfig(epsilon=0.5), RngStream(3))
            rep = similarity_check(H.laplacian_dense(), dense_poly(G, alpha), 0.5)
            assert rep.passed, rep.as_kv()

    @pytest.mark.usefixtures("sampled")
    def test_deterministic_replay(self):
        G = er_graph(30, 0.2, 4)
        alpha = PolyCoeffs.parse("0.5,0.5")
        cfg = SparsifyConfig(epsilon=0.5)
        H1 = sparsify_poly(G, alpha, cfg, RngStream(9))
        H2 = sparsify_poly(G, alpha, cfg, RngStream(9))
        assert H1 == H2

    def test_disconnected_refused(self):
        G = WeightedGraph.from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
        with pytest.raises(InputRefusedError):
            sparsify_poly(G, PolyCoeffs.parse("1"), SparsifyConfig(epsilon=0.5), RngStream(0))

    @pytest.mark.usefixtures("sampled")
    def test_disconnected_componentwise(self):
        left = er_graph(20, 0.3, 5)
        edges = [(u, v, w) for u, v, w in zip(left.edge_u, left.edge_v, left.edge_w)]
        edges += [(20 + u, 20 + v, w) for u, v, w in zip(left.edge_u, left.edge_v, left.edge_w)]
        G = WeightedGraph.from_edges(40, edges)
        cfg = SparsifyConfig(epsilon=0.5, allow_disconnected=True)
        alpha = PolyCoeffs.parse("0.5,0.5")
        H = sparsify_poly(G, alpha, cfg, RngStream(6))
        rep = similarity_check(H.laplacian_dense(), dense_poly(G, alpha), 0.5)
        assert rep.passed, rep.as_kv()

    def test_bipartite_even_monomial_two_stages(self, caplog):
        # the 2-step walks of a bipartite graph split into two components, so
        # stage 2 resparsifies each one; stage 1 is the exact product here
        gen = np.random.default_rng(13)
        u = gen.integers(0, 100, 1500)
        v = 100 + gen.integers(0, 100, 1500)
        G = WeightedGraph.from_edges(200, list(zip(u, v, np.ones(1500))))
        assert G.is_connected() and G.is_bipartite()
        alpha = PolyCoeffs.parse("0,1")
        cfg = SparsifyConfig(epsilon=1.0, oversample=1.0)
        stage_one = SparsifyConfig(epsilon=cfg.eps_stage_one, oversample=1.0, second_stage=False)
        with caplog.at_level(logging.INFO, logger="walksparse"):
            H1 = sparsify_poly(G, alpha, stage_one, RngStream(14))
            H = sparsify_poly(G, alpha, cfg, RngStream(14))
        assert caplog.text.count("stage 1 exact") == 2
        assert not H1.is_connected()
        assert H1.m > stage_two_edge_budget(G.n, cfg.eps_stage_two, cfg)
        assert H.m < H1.m
        rep = similarity_check(H.laplacian_dense(), dense_poly(G, alpha), cfg.epsilon)
        assert rep.passed, rep.as_kv()

    def test_empty_graph_rejected(self):
        G = WeightedGraph.from_edges(3, [])
        with pytest.raises(ValidationError):
            sparsify_poly(G, PolyCoeffs.parse("1"), SparsifyConfig(epsilon=0.5), RngStream(0))


class TestSparsifyMonomial:
    @pytest.mark.usefixtures("sampled")
    def test_matches_poly_wrapper(self):
        G = er_graph(30, 0.2, 7)
        cfg = SparsifyConfig(epsilon=0.5)
        H1 = sparsify_monomial(G, 3, cfg, RngStream(11))
        H2 = sparsify_poly(G, PolyCoeffs.monomial(3), cfg, RngStream(11))
        assert H1 == H2

    def test_invalid_degree(self, triangle):
        with pytest.raises(ValidationError):
            sparsify_monomial(triangle, 0, SparsifyConfig(epsilon=0.5), RngStream(0))

    @pytest.mark.usefixtures("sampled")
    def test_odd_degree_accuracy(self):
        G = er_graph(50, 0.12, 8)
        H = sparsify_monomial(G, 5, SparsifyConfig(epsilon=0.5), RngStream(12))
        rep = similarity_check(H.laplacian_dense(), dense_poly(G, PolyCoeffs.monomial(5)), 0.5)
        assert rep.passed, rep.as_kv()


class TestExactRoute:
    """Stage one computed by sparse products when they cost at most M walks."""

    @pytest.mark.parametrize("a", ["1", "0,1", "0.5,0.5"])
    def test_exact_stage_one_certifies(self, a, caplog):
        G = er_graph(40, 0.15, 21, weighted=True)
        alpha = PolyCoeffs.parse(a)
        cfg = SparsifyConfig(epsilon=0.5, second_stage=False)
        with caplog.at_level(logging.INFO, logger="walksparse"):
            H = sparsify_poly(G, alpha, cfg, RngStream(0))
        assert "stage 1 exact" in caplog.text
        rep = similarity_check(H.laplacian_dense(), dense_poly(G, alpha), 1e-9)
        assert rep.eps_required <= 1e-9, rep.as_kv()

    def test_route_logged_with_both_numbers(self, caplog):
        G = er_graph(30, 0.2, 22)
        alpha = PolyCoeffs.parse("0,1")
        cfg = SparsifyConfig(epsilon=0.5, second_stage=False)
        with caplog.at_level(logging.INFO, logger="walksparse"):
            sparsify_poly(G, alpha, cfg, RngStream(0))
        flops = int(np.sum(G.adjacency.getnnz(axis=1) ** 2))  # A D^-1 A costs sum deg^2
        M = stage_one_budget(G, alpha, cfg)
        assert f"stage 1 exact: {flops:,} multiply-adds <= M = {M:,}" in caplog.messages

    def test_sample_when_products_cost_more(self, caplog):
        G = er_graph(60, 0.2, 0)
        alpha = PolyCoeffs.parse("0.25,0.25,0.25,0.25")
        cfg = SparsifyConfig(epsilon=0.5, oversample=1.0, second_stage=False)
        with caplog.at_level(logging.INFO, logger="walksparse"):
            H = sparsify_poly(G, alpha, cfg, RngStream(1))
        (msg,) = [m for m in caplog.messages if m.startswith("stage 1 ")]
        hit = re.fullmatch(r"stage 1 sample: at least ([\d,]+) multiply-adds > M = ([\d,]+)", msg)
        flops, M = (int(x.replace(",", "")) for x in hit.groups())
        assert flops > M == stage_one_budget(G, alpha, cfg)
        # sampled, so not the exact polynomial
        assert similarity_check(H.laplacian_dense(), dense_poly(G, alpha), 0.5).eps_required > 1e-6

    @pytest.mark.usefixtures("sampled")
    @pytest.mark.parametrize(
        "a, digest",
        [
            ("0.5,0.5", "169dda0ae0244c69785823e36d44fa5519cbc4ab57d3c146d2d9d76e3eccc7eb"),
            ("0.2,0.3,0.5", "5f03e4df31372c4242101ffb58040e7b122d7348f7ac0616da4c5f4fdcd571c3"),
        ],
        ids=["0.5,0.5", "0.2,0.3,0.5"],
    )
    def test_sampled_bytes_pinned(self, a, digest, tmp_path):
        # the sampled mixture's output bytes for this seed are fixed
        G = er_graph(30, 0.2, 23)
        H = sparsify_poly(G, PolyCoeffs.parse(a), SparsifyConfig(epsilon=0.5), RngStream(9))
        save_graph(H, tmp_path / "h.mtx")
        assert hashlib.sha256((tmp_path / "h.mtx").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("route", ["exact", "sample"])
    def test_replay_byte_identical(self, route, tmp_path, caplog, request):
        if route == "sample":
            request.getfixturevalue("sampled")
        G = er_graph(30, 0.2, 23)
        alpha = PolyCoeffs.parse("0.5,0.5")
        cfg = SparsifyConfig(epsilon=0.5)
        with caplog.at_level(logging.INFO, logger="walksparse"):
            for name in ("a.mtx", "b.mtx"):
                save_graph(sparsify_poly(G, alpha, cfg, RngStream(9)), tmp_path / name)
        assert ("stage 1 exact" in caplog.text) == (route == "exact")
        assert (tmp_path / "a.mtx").read_bytes() == (tmp_path / "b.mtx").read_bytes()
