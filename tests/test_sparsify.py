import hashlib
import logging
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from walksparse import (
    PolyCoeffs,
    RngStream,
    SparsifyConfig,
    ValidationError,
    WeightedGraph,
    dense_monomial,
    dense_poly,
    er_oracle_build,
    inv_sqrt_chain,
    save_graph,
    similarity_check,
    sparsify_high_degree,
    sparsify_monomial,
    sparsify_poly,
    sparsify_sddm,
)
from walksparse import sparsify
from walksparse.sampling import SamplerIndex
from walksparse.sparsify import stage_two_edge_budget

from conftest import barbell_graph, er_graph, path_graph, random_sddm, ring_graph, star_graph
from references import csr_walk_graph


def stage_one_budget(G, alpha, cfg):
    """M = ceil(c_s ln n / eps1^2 * sum_r alpha_r tau_r), tau_r the mass of [A]*r under D = A 1."""
    masses = SamplerIndex([G] * alpha.d, [2.0] * alpha.d, G.degree).masses(range(1, alpha.d + 1))
    tau = sum(a * t for a, t in zip(alpha.alpha, masses) if a > 0)
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
        cfg = SparsifyConfig(epsilon=0.5)
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

    def test_disconnected_runs_whole(self):
        # stage one is exact and dense; stage two samples both components in one pass.
        # At the default oversample the guarantee holds w.h.p.; at 0.5 a third of seeds miss
        C = er_graph(200, 0.5, 7)
        G = WeightedGraph(400, np.concatenate([C.edge_u, C.edge_u + 200]),
                          np.concatenate([C.edge_v, C.edge_v + 200]), np.tile(C.edge_w, 2))
        alpha = PolyCoeffs.parse("0.5,0.5")
        cfg = SparsifyConfig(epsilon=1.0)
        one = sparsify_poly(G, alpha, SparsifyConfig(epsilon=0.5, second_stage=False), RngStream(8))
        H = sparsify_poly(G, alpha, cfg, RngStream(8))
        assert one.m > stage_two_edge_budget(G.n, cfg.eps_stage_two, cfg) >= H.m
        assert not np.any((H.edge_u < 200) & (H.edge_v >= 200))
        rep = similarity_check(H.laplacian_dense(), dense_poly(G, alpha), cfg.epsilon)
        assert rep.passed, rep.as_kv()

    @pytest.mark.usefixtures("sampled")
    def test_disconnected_componentwise(self):
        left = er_graph(20, 0.3, 5)
        edges = [(u, v, w) for u, v, w in zip(left.edge_u, left.edge_v, left.edge_w)]
        edges += [(20 + u, 20 + v, w) for u, v, w in zip(left.edge_u, left.edge_v, left.edge_w)]
        G = WeightedGraph.from_edges(40, edges)
        cfg = SparsifyConfig(epsilon=0.5)
        alpha = PolyCoeffs.parse("0.5,0.5")
        H = sparsify_poly(G, alpha, cfg, RngStream(6))
        rep = similarity_check(H.laplacian_dense(), dense_poly(G, alpha), 0.5)
        assert rep.passed, rep.as_kv()

    def test_bipartite_even_monomial_two_stages(self, caplog):
        # the 2-step walks of a bipartite graph (u < 100 <= v) split into two
        # components, which stage 2 resparsifies in one pass; stage 1 is the
        # exact product here
        gen = np.random.default_rng(13)
        u = gen.integers(0, 100, 1500)
        v = 100 + gen.integers(0, 100, 1500)
        G = WeightedGraph.from_edges(200, list(zip(u, v, np.ones(1500))))
        assert G.components[0] == 1
        alpha = PolyCoeffs.parse("0,1")
        cfg = SparsifyConfig(epsilon=1.0, oversample=1.0)
        stage_one = SparsifyConfig(epsilon=cfg.eps_stage_one, oversample=1.0, second_stage=False)
        with caplog.at_level(logging.INFO, logger="walksparse"):
            H1 = sparsify_poly(G, alpha, stage_one, RngStream(14))
            H = sparsify_poly(G, alpha, cfg, RngStream(14))
        assert caplog.text.count("stage 1 exact") == 2
        assert H1.components[0] > 1
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

    def test_non_integer_degree(self, triangle):
        with pytest.raises(ValidationError, match="integer"):
            sparsify_monomial(triangle, 1.5, SparsifyConfig(epsilon=0.5), RngStream(0))

    @pytest.mark.parametrize("route", ["exact", "sample"])
    def test_all_closed_walks_give_empty_graph(self, route, single_edge, caplog, request):
        # every 2-step walk on one edge returns to its start, so the
        # off-diagonal of the monomial, and the sparsifier, is empty
        if route == "sample":
            request.getfixturevalue("sampled")
        assert dense_monomial(single_edge, 2)[0, 1] == 0
        with caplog.at_level(logging.INFO, logger="walksparse"):
            H = sparsify_monomial(single_edge, 2, SparsifyConfig(epsilon=0.5), RngStream(0))
        assert ("stage 1 exact" in caplog.text) == (route == "exact")
        assert (H.n, H.m) == (2, 0)

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

    def test_subnormal_half_weight_dropped(self):
        # an entry of P the size of the smallest subnormal, with a zero mirror,
        # halves to zero: it is dropped, not passed on as a zero edge weight
        L = sp.csr_matrix(([np.nextafter(0.0, 1.0), 1.0, 1.0], ([0, 1, 2], [1, 2, 1])), shape=(3, 3))
        H = sparsify.exact_walk_graph([L], np.ones(3), 10, [1.0])
        assert (H.edge_u.tolist(), H.edge_v.tolist(), H.edge_w.tolist()) == ([1], [2], [1.0])

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
            ("0.5,0.5", "fe291a568006de1bb574fea294bf93c3505b20da2a7a8b5d0401ecee47e78879"),
            ("0.2,0.3,0.5", "3e458709391e5363177fccfbbc0f02c4afffbff476866d10e574bea2dd15508b"),
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


def _chain_case(name):
    """(layers, D, alpha) of one exact stage: the newton cubic, a weighted
    mixture of degree 3, three unsymmetric random layers (their chain is
    neither symmetric nor full after the switch) and the fifth power of a
    512-vertex path."""
    if name == "unsymmetric":
        layers = [sp.random(60, 60, 0.15, format="csr", rng=s) for s in range(3)]
        return layers, 1.0 + sum(L.sum(axis=1).A1 for L in layers), [0.0, 0.5, 0.5]
    if name == "newton-cubic":
        M = random_sddm(50, 0.15, 1)
        return [M.offdiag.adjacency] * 3, M.diag, [0.0, 0.75, 0.25]
    if name == "mixture":
        G = er_graph(60, 0.1, 0, weighted=True)
        return [G.adjacency] * 3, G.degree, [0.2, 0.3, 0.5]
    G = path_graph(10.0 ** np.random.default_rng(5).uniform(-2, 2, 511))
    return [G.adjacency] * 5, G.degree, [0.0, 0.0, 0.0, 0.0, 1.0]


class TestDenseChain:
    """exact_walk_graph goes dense from the first product costing n^2 multiply-adds."""

    @pytest.mark.parametrize("name, switch", [("newton-cubic", 0), ("mixture", 1), ("unsymmetric", 0), ("path-512", None)])
    def test_matches_csr_chain(self, name, switch, caplog):
        layers, D, alpha = _chain_case(name)
        n = len(D)
        with caplog.at_level(logging.INFO, logger="walksparse"):
            H = sparsify.exact_walk_graph(layers, D, 10**12, alpha)
        R, counts = csr_walk_graph(layers, D, alpha)
        assert next((j for j, f in enumerate(counts) if f >= n * n), None) == switch
        (msg,) = [m for m in caplog.messages if m.startswith("stage 1 ")]
        assert msg == f"stage 1 exact: {sum(counts):,} multiply-adds <= M = {10**12:,}"
        np.testing.assert_array_equal(H.edge_u, R.edge_u)
        np.testing.assert_array_equal(H.edge_v, R.edge_v)
        if switch is None:
            assert H.edge_w.tobytes() == R.edge_w.tobytes()
        else:
            np.testing.assert_allclose(H.edge_w, R.edge_w, rtol=1e-14, atol=0)


@st.composite
def disconnected_inputs(draw):
    """A union of 1-2 components (path, star, barbell or ER) and 0-2 isolated
    vertices under a random labelling, weights 10**U(-8, 8), and alpha of
    degree 1-4. Components have at most 10 vertices, so the default route is
    the exact product at eps 0.5."""
    family = st.sampled_from(["path", "star", "barbell", "er"])
    parts = []
    for kind in draw(st.lists(family, min_size=1, max_size=2)):
        if kind == "path":
            parts.append(path_graph([1.0] * draw(st.integers(1, 9))))
        elif kind == "star":
            parts.append(star_graph(draw(st.integers(3, 10))))
        elif kind == "barbell":
            parts.append(barbell_graph(draw(st.integers(2, 5))))
        else:
            parts.append(er_graph(draw(st.integers(3, 10)), 0.4, draw(st.integers(0, 1000))))
    n = sum(P.n for P in parts) + draw(st.integers(0, 2))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    label = gen.permutation(n)
    offsets = np.cumsum([0] + [P.n for P in parts])
    u = np.concatenate([label[o + P.edge_u] for o, P in zip(offsets, parts)])
    v = np.concatenate([label[o + P.edge_v] for o, P in zip(offsets, parts)])
    G = WeightedGraph(n, np.minimum(u, v), np.maximum(u, v), 10.0 ** gen.uniform(-8, 8, len(u)))
    a = gen.random(draw(st.integers(1, 4)))
    return G, PolyCoeffs(a / a.sum())


class TestWholeGraphStageOne:
    """Stage one runs on a disconnected graph whole, with no split by component."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(disconnected_inputs())
    def test_exact_matches_dense_and_replays(self, case):
        G, alpha = case
        cfg = SparsifyConfig(epsilon=0.5, second_stage=False)
        L = dense_poly(G, alpha)
        H = sparsify_poly(G, alpha, cfg, RngStream(3))
        np.testing.assert_allclose(H.adjacency_dense(), np.diag(np.diag(L)) - L, rtol=1e-9, atol=0)
        assert sparsify_poly(G, alpha, cfg, RngStream(3)) == H
        with pytest.MonkeyPatch.context() as mp:  # the sampled fixture, inside one example
            mp.setattr(sparsify, "exact_walk_graph", lambda *args: None)
            S = sparsify_poly(G, alpha, cfg, RngStream(3))
            assert sparsify_poly(G, alpha, cfg, RngStream(3)) == S

    @pytest.mark.usefixtures("sampled")
    def test_sampled_with_isolated_vertices_certifies(self):
        # vertex 0 and vertices 21, 22 are isolated
        C = er_graph(20, 0.3, 5)
        G = WeightedGraph(23, C.edge_u + 1, C.edge_v + 1, C.edge_w)
        alpha = PolyCoeffs.parse("0.5,0.5")
        cfg = SparsifyConfig(epsilon=0.5)
        H = sparsify_poly(G, alpha, cfg, RngStream(6))
        rep = similarity_check(H.laplacian_dense(), dense_poly(G, alpha), 0.5)
        assert rep.passed, rep.as_kv()

    def test_dense_exact_with_isolated_vertex(self, caplog):
        # vertex 55 has D = 0; the chain turns dense at its second product,
        # where dividing its zero column by D must raise no 0/0
        A, B = er_graph(30, 0.3, 2), er_graph(25, 0.3, 3)
        G = WeightedGraph(56, np.concatenate([A.edge_u, B.edge_u + 30]),
                          np.concatenate([A.edge_v, B.edge_v + 30]), np.ones(A.m + B.m))
        alpha = PolyCoeffs.parse("0.25,0.25,0.25,0.25")
        with caplog.at_level(logging.INFO, logger="walksparse"):
            H = sparsify_poly(G, alpha, SparsifyConfig(epsilon=0.5, second_stage=False), RngStream(0))
        assert "stage 1 exact" in caplog.text
        L = dense_poly(G, alpha)
        np.testing.assert_allclose(H.adjacency_dense(), np.diag(np.diag(L)) - L, rtol=1e-9, atol=0)


_G, _M, _CFG = er_graph(20, 0.3, 0), random_sddm(12, 0.4, 1), SparsifyConfig(epsilon=0.5)


@pytest.mark.parametrize("run", [
    lambda rng: sparsify_poly(_G, PolyCoeffs.parse("0.5,0.5"), _CFG, rng),
    lambda rng: sparsify_monomial(_G, 2, _CFG, rng),
    lambda rng: sparsify_high_degree(_G, 4, 0.5, _CFG, rng),
    lambda rng: sparsify_high_degree(_G, 12, 0.75, _CFG, rng),
    lambda rng: sparsify_sddm(_M, PolyCoeffs.parse("0.5,0.5"), _CFG, rng),
    lambda rng: inv_sqrt_chain(_M, 0.5, cfg=_CFG, rng=rng),
    lambda rng: er_oracle_build(_G, PolyCoeffs.parse("1"), 0.5, rng, cfg=_CFG),
], ids=["poly", "monomial", "high-degree", "high-degree-composed", "sddm", "inv-sqrt", "er-oracle"])
def test_generator_refused_at_every_entry_point(run):
    # each entry point splits its rng into one stream per stage, which a Generator cannot do
    with pytest.raises(ValidationError, match="RngStream"):
        run(np.random.default_rng(0))
