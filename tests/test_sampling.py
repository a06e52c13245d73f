import numpy as np
import pytest
from scipy import stats

from walksparse import (
    PolyCoeffs,
    RngStream,
    SamplerIndex,
    ValidationError,
    WeightedGraph,
    build_template,
    graph_sampling,
    sample_paths,
    sample_template_paths,
)
from walksparse.oracle import canonical_path_masses, enumerate_paths
from walksparse.sampling import _RowTable, total_mass

from conftest import er_graph, ring_graph


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


class TestSamplerIndex:
    def test_uniform_edge_distribution(self):
        # a length-1 walk is its pivot edge, drawn from the uniform pivot table
        G = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 5.0), (2, 3, 0.1)])
        batch = sample_paths(SamplerIndex(G), 1, 30000, np.random.default_rng(0))
        a, b = batch.u0, batch.ur
        # edges uniform regardless of weight; orientations both present
        lo = np.minimum(a, b)
        counts = np.bincount(lo, minlength=4)
        for e in range(3):
            assert counts[e] == pytest.approx(10000, rel=0.1)
        assert np.any(a > b) and np.any(a < b)
        np.testing.assert_allclose(batch.mass, 2.0)

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
        idx = SamplerIndex(single_edge)
        batch = sample_paths(idx, 2, 500, RngStream(0))
        assert np.all(batch.u0 == batch.ur)
        np.testing.assert_allclose(batch.mass, 4.0)

    def test_weights_match_enumeration(self, triangle):
        # aux multiplies the target weight over interior vertices, not the mass
        idx = SamplerIndex(triangle)
        aux = np.array([0.5, 0.9, 0.25])
        batch = sample_paths(idx, 3, 200, RngStream(1), aux=aux, record_vertices=True)
        lookup = {p.vertices: p for p in enumerate_paths(triangle, 3)}
        for i in range(len(batch)):
            verts = tuple(int(x) for x in batch.vertices[i])
            p = lookup[verts]
            factor = np.prod(aux[list(verts[1:-1])])
            assert batch.weight[i] == pytest.approx(p.weight * factor, rel=1e-12)
            assert batch.mass[i] == pytest.approx(p.mass, rel=1e-12)

    def test_distribution_matches_tau(self, triangle):
        # canonical open walks appear with probability tau_p / (2 r m)
        idx = SamplerIndex(triangle)
        n_draw = 60000
        batch = sample_paths(idx, 2, n_draw, RngStream(2), record_vertices=True)
        masses = canonical_path_masses(enumerate_paths(triangle, 2))
        total = 2.0 * 2 * triangle.m
        counts = {}
        for row in batch.vertices:
            key = min(tuple(row), tuple(row)[::-1])
            counts[key] = counts.get(key, 0) + 1
        keys = sorted(masses)
        obs = np.array([counts.get(k, 0) for k in keys])
        exp = np.array([masses[k] / total * n_draw for k in keys])
        chi = stats.chisquare(obs, exp)
        assert chi.pvalue > 0.001

    def test_long_walk_log_space_finite(self):
        G = er_graph(20, 0.3, 3, weighted=True)
        idx = SamplerIndex(G)
        batch = sample_paths(idx, 80, 100, RngStream(4))
        assert np.all(np.isfinite(batch.weight))
        assert np.all(batch.weight > 0)
        assert np.all(batch.mass > 0)

    def test_invalid_length(self, triangle):
        with pytest.raises(ValidationError):
            sample_paths(SamplerIndex(triangle), 0, 10, RngStream(0))


class TestGraphSampling:
    def test_unbiased_estimator(self, triangle):
        # E[L_H] = L_{G_2}; check edge weights converge to the dense truth
        from walksparse import dense_monomial

        idx = SamplerIndex(triangle)
        draw = lambda count, gen: sample_paths(idx, 2, count, gen)
        tau = total_mass(2, triangle.m)
        H = graph_sampling(draw, tau, 400000, RngStream(6), 3)
        target = dense_monomial(triangle, 2)
        for u, v, w in zip(H.edge_u, H.edge_v, H.edge_w):
            assert w == pytest.approx(-target[u, v], rel=0.05)

    def test_total_mass_formula(self):
        assert total_mass(3, 7) == 42.0


class TestWalkTemplates:
    def test_homogeneous_template_matches_direct(self, triangle):
        # layers (A, A) with coefficient 2 reproduce the plain Z = 2/w bound
        t = build_template([triangle, triangle], [2.0, 2.0], triangle.degree)
        assert t.tau_total == pytest.approx(total_mass(2, triangle.m))
        batch = sample_template_paths(t, 5000, RngStream(7), record_vertices=True)
        lookup = {p.vertices: p for p in enumerate_paths(triangle, 2)}
        for i in range(200):
            verts = tuple(int(x) for x in batch.vertices[i])
            p = lookup[verts]
            assert batch.weight[i] == pytest.approx(p.weight, rel=1e-12)
            assert batch.mass[i] == pytest.approx(p.mass, rel=1e-12)

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

    def test_layer_shape_mismatch(self, triangle, single_edge):
        with pytest.raises(ValidationError):
            build_template([triangle, single_edge], [1.0, 1.0], triangle.degree)
