import numpy as np
import pytest
from scipy import stats

from walksparse import (
    PolyCoeffs,
    RngStream,
    SamplerIndex,
    SparsifyConfig,
    ValidationError,
    WeightedGraph,
    build_template,
    er_oracle_build,
    graph_sampling,
    inv_sqrt_chain,
    sample_paths,
    sample_template_paths,
    sparsify_high_degree,
)
from walksparse.oracle import enumerate_paths
from walksparse.sampling import _RowTable

from conftest import er_graph, random_sddm, ring_graph


def monomial_index(G, r, D=None):
    """Index over the monomial layers [A]*r, coefficient 2, D = A 1 by default."""
    return SamplerIndex([G] * r, [2.0] * r, G.degree if D is None else D)


class TestRngStream:
    def test_replay_identical(self):
        a = RngStream(42).generator().random(10)
        b = RngStream(42).generator().random(10)
        np.testing.assert_array_equal(a, b)

    def test_streams_independent(self):
        a = RngStream(42, 0).generator().random(10)
        b = RngStream(42, 1).generator().random(10)
        assert not np.array_equal(a, b)

    def test_split(self):
        s = RngStream(7)
        assert s.split(3) == RngStream(7, 3)
        assert RngStream(5, 1).split(1) == RngStream(5, 1, 1) != RngStream(5, 1)

    def test_child_differs_from_parent(self):
        # a flat entropy tuple would give (7,) and (7, 0) the same numbers; a spawn key does not
        assert RngStream(7).generator().random() != RngStream(7).split(0).generator().random()

    @pytest.mark.parametrize("seed, path", [(-1, ()), (1.5, ()), (0, (-1,)), (0, (1, 2.0))])
    def test_negative_or_fractional_seed_refused(self, seed, path):
        with pytest.raises(ValidationError, match="nonnegative integers"):
            RngStream(seed, *path)

    def test_root_keeps_its_entropy(self):
        np.testing.assert_array_equal(RngStream(5).generator().random(4),
                                      np.random.default_rng(np.random.SeedSequence((5, 0))).random(4))

    @pytest.mark.parametrize("fixture, run", [
        ("sampled", lambda: sparsify_high_degree(
            er_graph(80, 0.2, 5), 12, 0.75, SparsifyConfig(epsilon=0.75, oversample=0.03), RngStream(3))),
        ("sampled", lambda: inv_sqrt_chain(
            random_sddm(40, 0.15, 1), 1.0, cfg=SparsifyConfig(epsilon=0.5, oversample=0.01), rng=RngStream(1))),
        ("sketched", lambda: er_oracle_build(
            er_graph(30, 0.3, 2), PolyCoeffs.parse("0.5,0.5"), 1.0, RngStream(4), delta=0.8,
            cfg=SparsifyConfig(epsilon=1.0, oversample=0.3))),
    ], ids=["high-degree", "inv-sqrt", "er-oracle"])
    def test_no_two_draws_share_a_stream(self, fixture, run, request, monkeypatch):
        # every stage one and stage two of every step, and the oracle, draws from a path
        # of its own; a path that draws is split by no one
        request.getfixturevalue(fixture)
        drawn, generator = [], RngStream.generator
        monkeypatch.setattr(RngStream, "generator", lambda self: drawn.append((self.seed, *self.path)) or generator(self))
        run()
        assert any(len(p) > 2 and p[-1] == 1 for p in drawn)  # some stage two samples
        assert len(drawn) == len(set(drawn))
        assert not [(p, q) for p in drawn for q in drawn if p != q and q[:len(p)] == p]


class TestSamplerIndex:
    def test_uniform_edge_distribution(self):
        # a length-1 walk is its pivot edge, drawn from the uniform pivot table
        G = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 5.0), (2, 3, 0.1)])
        batch = sample_paths(monomial_index(G, 1), 1, 30000, np.random.default_rng(0))
        a, b = batch.u0, batch.ur
        # edges uniform regardless of weight; orientations both present
        lo = np.minimum(a, b)
        counts = np.bincount(lo, minlength=4)
        for e in range(3):
            assert counts[e] == pytest.approx(10000, rel=0.1)
        assert np.any(a > b) and np.any(a < b)
        # Z(p) of a one-step walk is its coefficient over the edge weight
        np.testing.assert_allclose(batch.z, 2.0 / np.asarray(G.adjacency[a, b]).ravel(), rtol=1e-15)

    def test_neighbor_step_weight_proportional(self):
        G = WeightedGraph.from_edges(3, [(0, 1, 3.0), (0, 2, 1.0)])
        A = G.adjacency
        gen = np.random.default_rng(1)
        slot = _RowTable(A.indptr, A.data).draw(gen, rows=np.zeros(40000, dtype=np.int64))
        nxt, wt = A.indices[slot], A.data[slot]
        frac = np.mean(nxt == 1)
        assert frac == pytest.approx(0.75, abs=0.01)
        np.testing.assert_array_equal(wt, np.where(nxt == 1, 3.0, 1.0))

    def test_row_table_keeps_tiny_rows_exact(self):
        # a raw global cumsum rounds the second row's increments to zero
        indptr = np.array([0, 500, 502])
        weights = np.concatenate([np.full(500, 1e8), [1e-8, 3e-8]])
        gen = np.random.default_rng(2)
        slot = _RowTable(indptr, weights).draw(gen, rows=np.ones(40000, dtype=np.int64))
        assert slot.min() >= 500
        assert np.mean(slot == 500) == pytest.approx(0.25, abs=0.01)
        assert np.mean(slot == 501) == pytest.approx(0.75, abs=0.01)


class TestSamplePaths:
    def test_single_edge_r2_always_closed(self, single_edge):
        idx = monomial_index(single_edge, 2)
        batch = sample_paths(idx, 2, 500, RngStream(0))
        assert np.all(batch.u0 == batch.ur)
        np.testing.assert_allclose(batch.z, 4.0)

    @pytest.mark.filterwarnings("error")
    def test_isolated_vertex_absorbs_nothing(self):
        # D = 0 at an isolated vertex; its absorption is never read
        G = WeightedGraph.from_edges(3, [(0, 1, 1.0)])
        batch = sample_paths(monomial_index(G, 3), 3, 100, RngStream(0))
        assert np.all(batch.u0 != batch.ur)
        np.testing.assert_allclose(batch.z, 6.0)

    def test_z_matches_enumeration(self, triangle):
        # Z(p) depends on the edge weights alone, not on the normalization D
        aux = np.array([0.5, 0.9, 0.25])
        idx = monomial_index(triangle, 3, triangle.degree / aux)
        batch = sample_paths(idx, 3, 200, RngStream(1), record_vertices=True)
        lookup = {p.vertices: p for p in enumerate_paths(triangle, 3)}
        for i in range(len(batch)):
            p = lookup[tuple(int(x) for x in batch.vertices[i])]
            assert batch.z[i] == pytest.approx(p.resistance_bound, rel=1e-12)

    def test_distribution_matches_tau(self, triangle):
        # canonical walks appear with probability tau_p / tau_total. Under
        # D = A 1 that is the enumerated mass over 2 r m; D = A 1 / aux
        # divides tau_p by D at each interior vertex, so the enumerated mass
        # gains the product of aux over them.
        aux = np.array([0.5, 0.9, 0.25])
        n_draw = 60000
        for r, factor, seed in ((2, np.ones(3), 2), (3, aux, 1)):
            idx = monomial_index(triangle, r, triangle.degree / factor)
            batch = sample_paths(idx, r, n_draw, RngStream(seed), record_vertices=True)
            masses = {}
            for p in enumerate_paths(triangle, r):
                key = min(p.vertices, p.vertices[::-1])
                masses[key] = masses.get(key, 0.0) + 0.5 * p.mass * np.prod(factor[list(p.vertices[1:-1])])
            total = sum(masses.values())
            assert total == pytest.approx(idx.template(r).tau_total, rel=1e-12)
            counts = {}
            for row in batch.vertices:
                key = min(tuple(row), tuple(row)[::-1])
                counts[key] = counts.get(key, 0) + 1
            keys = sorted(masses)
            obs = np.array([counts.get(k, 0) for k in keys])
            exp = np.array([masses[k] / total * n_draw for k in keys])
            chi = stats.chisquare(obs, exp)
            assert chi.pvalue > 0.001, (r, chi.pvalue)

    def test_long_walk_finite(self):
        G = er_graph(20, 0.3, 3, weighted=True)
        idx = monomial_index(G, 80)
        batch = sample_paths(idx, 80, 100, RngStream(4))
        assert np.all(np.isfinite(batch.z)) and np.all(batch.z > 0)
        draw = lambda count, gen: sample_paths(idx, 80, count, gen)
        H = graph_sampling(draw, idx.template(80).tau_total, 100, RngStream(4), G.n)
        assert H.m > 0
        assert np.all(np.isfinite(H.edge_w)) and np.all(H.edge_w > 0)

    def test_invalid_length(self, triangle):
        with pytest.raises(ValidationError):
            sample_paths(monomial_index(triangle, 2), 0, 10, RngStream(0))
        with pytest.raises(ValidationError):
            sample_paths(monomial_index(triangle, 2), 3, 10, RngStream(0))

    @pytest.mark.parametrize("prefixes", [[3, 0], [3], [0], [2, 3], [-1]])
    def test_masses_refuse_prefix_out_of_range(self, triangle, prefixes):
        # masses and template refuse the same prefix lengths: a prefix past the
        # layer list is not the whole list's mass, and prefix 0 has none
        idx = monomial_index(triangle, 2)
        with pytest.raises(ValidationError, match=r"prefix length must lie in 1\.\.2"):
            idx.masses(prefixes)
        assert idx.masses([1, 2]) == pytest.approx([2.0 * triangle.m, 4.0 * triangle.m], rel=1e-12)


class TestGraphSampling:
    def test_unbiased_estimator(self, triangle):
        # E[L_H] = L_{G_2}; check edge weights converge to the dense truth
        from walksparse import dense_monomial

        idx = monomial_index(triangle, 2)
        draw = lambda count, gen: sample_paths(idx, 2, count, gen)
        tau = 2.0 * 2 * triangle.m
        H = graph_sampling(draw, tau, 400000, RngStream(6), 3)
        target = dense_monomial(triangle, 2)
        for u, v, w in zip(H.edge_u, H.edge_v, H.edge_w):
            assert w == pytest.approx(-target[u, v], rel=0.05)

    def test_sddm_mixture_unbiased(self, sampled, monkeypatch):
        # walks normalized by the SDDM diagonal estimate M_alpha's off-diagonal
        from walksparse import SparsifyConfig, dense_poly, sparsify

        M = random_sddm(10, 0.4, 9)
        alpha = PolyCoeffs.parse("0.5,0.3,0.2")
        layers = [M.offdiag.adjacency] * 3
        seen = {}

        def spy(draw, tau, count, rng, n):
            seen.update(tau=tau, count=count)
            return graph_sampling(draw, tau, count, rng, n)

        monkeypatch.setattr(sparsify, "graph_sampling", spy)
        cfg = SparsifyConfig(epsilon=1.0, oversample=3502.0, second_stage=False)  # M just above 400,000
        H = sparsify.stage_one(layers, [2.0] * 3, alpha.alpha, M.diag, 1.0, cfg, RngStream(9))
        # the mixture's total is the D-normalised mass, below the 2 r m sum of D = A 1
        tau = sum(a * t for a, t in zip(alpha.alpha, SamplerIndex(layers, [2.0] * 3, M.diag).masses([1, 2, 3])))
        assert seen["tau"] == pytest.approx(tau, rel=1e-12)
        assert tau < sum(a * 2.0 * r * M.offdiag.m for r, a in enumerate(alpha.alpha, start=1))
        assert seen["count"] >= 400000
        target = -dense_poly(M, alpha)
        off = ~np.eye(M.n, dtype=bool)
        np.testing.assert_allclose(H.adjacency_dense()[off], target[off], rtol=0.05, atol=0.01 * target[off].max())


class TestWalkTemplates:
    def test_homogeneous_template_matches_direct(self, triangle):
        # layers (A, A) with coefficient 2 reproduce the plain Z = 2/w bound
        t = build_template([triangle, triangle], [2.0, 2.0], triangle.degree)
        assert t.tau_total == pytest.approx(2.0 * 2 * triangle.m)
        batch = sample_template_paths(t, 5000, RngStream(7), record_vertices=True)
        lookup = {p.vertices: p for p in enumerate_paths(triangle, 2)}
        for i in range(200):
            p = lookup[tuple(int(x) for x in batch.vertices[i])]
            assert batch.z[i] == pytest.approx(p.resistance_bound, rel=1e-12)

    def test_template_estimator_unbiased(self):
        from walksparse import dense_monomial
        from walksparse.oracle import generalized_eigenvalues

        G = er_graph(15, 0.4, 8, weighted=True)
        t = build_template([G, G], [2.0, 2.0], G.degree)
        draw = lambda count, gen: sample_template_paths(t, count, gen)
        H = graph_sampling(draw, t.tau_total, 600000, RngStream(8), G.n)
        vals, mismatch = generalized_eigenvalues(
            H.laplacian_dense(), dense_monomial(G, 2)
        )
        assert not mismatch
        assert vals.min() > 0.9 and vals.max() < 1.1

    def test_coefficients_scale_mass_not_weight(self, triangle):
        t1 = build_template([triangle, triangle], [1.0, 1.0], triangle.degree)
        t2 = build_template([triangle, triangle], [5.0, 5.0], triangle.degree)
        assert t2.tau_total == pytest.approx(5 * t1.tau_total)

    def test_masses_match_templates(self):
        # one left chain for all prefixes gives each template's table-built total
        G = er_graph(20, 0.3, 4, weighted=True)
        H = er_graph(20, 0.2, 6, weighted=True)
        M = random_sddm(20, 0.3, 5)
        for layers, coeffs, D in (
            ([G] * 4, [2.0] * 4, G.degree),
            ([M.offdiag] * 3, [2.0] * 3, M.diag),
            ([G, H, G], [1.0, 3.0, 1.0], G.degree + H.degree),
        ):
            prefixes = list(range(1, len(layers) + 1))
            expected = [build_template(layers[:j], coeffs[:j], D).tau_total for j in prefixes]
            idx = SamplerIndex(layers, coeffs, D)
            np.testing.assert_allclose(idx.masses(prefixes), expected, rtol=1e-12)
            assert [idx.template(j).tau_total for j in prefixes] == expected

    def test_layer_shape_mismatch(self, triangle, single_edge):
        with pytest.raises(ValidationError):
            build_template([triangle, single_edge], [1.0, 1.0], triangle.degree)
