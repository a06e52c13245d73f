"""Acceptance suite: one quantitative criterion per test, one printed verdict line each.

Each test times itself against its budget and prints a single
``CRITERION k <name>: PASS/FAIL`` line to the real stdout (bypassing pytest
capture) so the suite output always shows eleven verdict lines.
"""

import logging
import math
import sys
import time

import numpy as np
import pytest
from scipy import stats

from walksparse import (
    PolyCoeffs,
    RngStream,
    SamplerIndex,
    SddmMatrix,
    SparsifyConfig,
    WeightedGraph,
    dense_monomial,
    dense_poly,
    enumerate_paths,
    er_oracle_build,
    extra_diagonal,
    inv_sqrt_chain,
    qth_root_coefficients,
    sample_paths,
    save_graph,
    save_sddm,
    similarity_check,
    sparsify_high_degree,
    sparsify_poly,
    sparsify_sddm,
    total_enumerated_mass,
)
from walksparse.cli import main as cli_main
from walksparse.oracle import generalized_eigenvalues
from walksparse.sparsify import stage_two_edge_budget

from conftest import barbell_graph, er_graph, random_sddm, ring_graph, star_graph
from references import canonical_path_masses, exact_resistances, scalar_inequality_suite, support_check


def _verdict(num, name, ok, elapsed, budget, detail=""):
    tail = f" ({elapsed:.1f}s / {budget:.0f}s budget)"
    if detail:
        tail += f" {detail}"
    line = f"CRITERION {num:2d} {name}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok and elapsed < budget, line


def test_criterion_01_walk_mass_identity():
    t0 = time.perf_counter()
    cases = 0
    ok = True
    graphs = [ring_graph(4), ring_graph(5), star_graph(5),
              WeightedGraph.from_edges(2, [(0, 1, 2.5)])]
    for seed in range(4):
        graphs.append(er_graph(6, 0.6, 100 + seed, weighted=(seed % 2 == 1)))
    for G in graphs:
        for r in range(1, 5):
            total = total_enumerated_mass(enumerate_paths(G, r))
            if not math.isclose(total, 2.0 * r * G.m, rel_tol=1e-9):
                ok = False
            cases += 1
    _verdict(1, "walk mass identity", ok and cases >= 20,
             time.perf_counter() - t0, 5, f"cases={cases}")


def test_criterion_02_sampler_distribution():
    t0 = time.perf_counter()
    G = ring_graph(4)
    idx = SamplerIndex([G.adjacency] * 3, [2.0, 2.0, 2.0], G.degree)
    masses = canonical_path_masses(enumerate_paths(G, 3))
    total = 2.0 * 3 * G.m
    keys = sorted(masses)
    exp_frac = np.array([masses[k] / total for k in keys])
    pvalues = []
    for seed in range(3):
        batch = sample_paths(idx, 3, 10**5, RngStream(seed), record_vertices=True)
        counts = {}
        for row in batch.vertices:
            key = min(tuple(int(x) for x in row), tuple(int(x) for x in row)[::-1])
            counts[key] = counts.get(key, 0) + 1
        obs = np.array([counts.get(k, 0) for k in keys])
        pvalues.append(stats.chisquare(obs, exp_frac * len(batch)).pvalue)
    ok = all(p > 0.001 for p in pvalues)
    _verdict(2, "sampler path distribution", ok, time.perf_counter() - t0, 10,
             "p=" + ",".join(f"{p:.3f}" for p in pvalues))


@pytest.mark.usefixtures("sampled")
def test_criterion_03_polynomial_sparsifier():
    t0 = time.perf_counter()
    eps = 0.5
    cfg = SparsifyConfig(epsilon=eps, oversample=1.0)
    mix = {
        "1": "1", "2": "0,1", "12": "0.5,0.5",
        "3": "0,0,1", "4": "0.25,0.25,0.25,0.25",
        "6": ",".join(["0.16666666666666666"] * 6),
    }
    cases = []
    for k, (n, p) in enumerate([(50, 0.15), (100, 0.08), (200, 0.04)]):
        G = er_graph(n, p, 300 + k)
        for a in ("1", "2", "12", "4", "6"):
            cases.append((G, mix[a]))
    cases += [
        (ring_graph(101), mix["1"]),
        (ring_graph(101), mix["12"]),
        (star_graph(80), mix["12"]),
        (barbell_graph(20), mix["1"]),
        (barbell_graph(20), mix["12"]),
    ]
    assert len(cases) == 20
    passed = 0
    nnz_ok = True
    for k, (G, a) in enumerate(cases):
        alpha = PolyCoeffs.parse(a)
        H = sparsify_poly(G, alpha, cfg, RngStream(500 + k))
        rep = similarity_check(H.laplacian_dense(), dense_poly(G, alpha), eps)
        if rep.passed:
            passed += 1
        if H.m > stage_two_edge_budget(G.n, cfg.eps_stage_two, cfg):
            nnz_ok = False
    _verdict(3, "polynomial sparsifier guarantee", passed >= 18 and nnz_ok,
             time.perf_counter() - t0, 120, f"passed={passed}/20 nnz_ok={nnz_ok}")


def test_criterion_04_support_brackets():
    t0 = time.perf_counter()
    graphs = [er_graph(30, 0.3, 1), er_graph(100, 0.08, 2),
              er_graph(60, 0.15, 3, weighted=True), ring_graph(15),
              star_graph(20), barbell_graph(8)]
    ok = True
    for G in graphs:
        for r in range(1, 7):
            if not support_check(G, r).passed:
                ok = False
    _verdict(4, "walk support brackets r=1..6", ok, time.perf_counter() - t0, 30)


@pytest.mark.usefixtures("sampled")
def test_criterion_05_high_degree_pipeline():
    t0 = time.perf_counter()
    eps = 0.75
    cfg = SparsifyConfig(epsilon=eps, oversample=1.0)
    results = {}
    for d in (8, 16):
        hit = 0
        for seed in range(10):
            G = er_graph(60, 0.2, 700 + seed)
            H = sparsify_high_degree(G, d, eps, cfg, RngStream(seed))
            if similarity_check(H.laplacian_dense(), dense_monomial(G, d), eps).passed:
                hit += 1
        results[d] = hit
    G = er_graph(60, 0.2, 720)
    cfg10 = SparsifyConfig(epsilon=0.5, oversample=1.0)
    H = sparsify_high_degree(G, 10, 0.5, cfg10, RngStream(0))
    sub_ok = similarity_check(H.laplacian_dense(), dense_monomial(G, 10), 0.5).passed
    ok = results[8] >= 8 and results[16] >= 8 and sub_ok
    _verdict(5, "high-degree pipeline", ok, time.perf_counter() - t0, 180,
             f"d8={results[8]}/10 d16={results[16]}/10 d10-substitution={sub_ok}")


def test_criterion_06_squaring_implications():
    t0 = time.perf_counter()

    def perturbed_pair(seed, delta):
        G = er_graph(25, 0.3, seed, weighted=True)
        gen = np.random.default_rng(seed + 1)
        D = G.degree
        W = np.diag(D) - dense_monomial(G, 2)
        F = 1 - delta * gen.random((G.n, G.n))
        F = np.triu(F, 1)
        F = F + F.T
        At = W * F
        np.fill_diagonal(At, 0.0)
        np.fill_diagonal(At, D - At.sum(axis=1))
        return D, W, At

    def bracket(X, Y):
        vals, mismatch = generalized_eigenvalues(X, Y)
        assert not mismatch
        return max(1.0 - vals.min(), vals.max() - 1.0)

    counterexamples = 0
    pairs = 0
    for delta in (0.1, 0.3):
        for seed in range(25):
            D, W, At = perturbed_pair(1000 + 50 * int(delta * 10) + seed, delta)
            eps = bracket(np.diag(D) - At, np.diag(D) - W)
            Di = np.diag(1.0 / D)
            if bracket(np.diag(D) + At, np.diag(D) + W) > eps + 1e-9:
                counterexamples += 1
            if bracket(np.diag(D) - At @ Di @ At, np.diag(D) - W @ Di @ W) > eps + 1e-9:
                counterexamples += 1
            pairs += 1
    _verdict(6, "squaring-step implications", counterexamples == 0 and pairs == 50,
             time.perf_counter() - t0, 30, f"pairs={pairs} counterexamples={counterexamples}")


@pytest.mark.usefixtures("sampled")
def test_criterion_07_sddm_sparsifier():
    t0 = time.perf_counter()
    eps = 0.5
    alpha = PolyCoeffs.parse("0.5,0.5")
    cfg = SparsifyConfig(epsilon=eps)
    hit = 0
    diag_ok = True
    for seed in range(10):
        M = random_sddm(100, 0.08, 800 + seed)
        dense = dense_poly(M, alpha)
        if np.max(np.abs(extra_diagonal(M, alpha) - dense.sum(axis=1))) > 1e-9:
            diag_ok = False
        res = sparsify_sddm(M, alpha, cfg, RngStream(seed))
        vals, mismatch = generalized_eigenvalues(res.dense(), dense)
        if not mismatch and vals.min() >= 1 - eps and vals.max() <= 1 + eps:
            hit += 1
    _verdict(7, "SDDM polynomial sparsifier", hit >= 9 and diag_ok,
             time.perf_counter() - t0, 60, f"passed={hit}/10 extra_diag_ok={diag_ok}")


def test_criterion_08_newton_inverse_sqrt(caplog, request):
    t0 = time.perf_counter()
    coeffs_ok = np.array_equal(qth_root_coefficients(1).alpha, [0.0, 0.75, 0.25])

    # convergence rate of the default chain, whose stage one forms each cubic exactly
    with caplog.at_level(logging.INFO, logger="walksparse"):
        exact_chain = inv_sqrt_chain(random_sddm(50, 0.15, 901, slack=0.5), 0.2)
    exact_ok = caplog.text.count("stage 1 ") == caplog.text.count("stage 1 exact") == len(exact_chain)
    tail = [r for r in exact_chain.rho_history if r < 0.7]
    quad_ok = exact_ok and len(tail) >= 2 and all(
        math.log(b) / math.log(a) >= 1.8 for a, b in zip(tail, tail[1:])
    )

    # the sampled pipeline's guarantee
    request.getfixturevalue("sampled")
    M = random_sddm(50, 0.15, 900, slack=1.0)
    cfg = SparsifyConfig(epsilon=0.5, oversample=0.3, second_stage=False)
    chain = inv_sqrt_chain(M, 0.2, cfg=cfg, rng=RngStream(11))
    lo, hi = chain.bracket(M)
    bracket_ok = 0.8 <= lo and hi <= 1.2
    _verdict(8, "Newton inverse square root", coeffs_ok and bracket_ok and quad_ok,
             time.perf_counter() - t0, 60,
             f"coeffs={coeffs_ok} bracket=[{lo:.3f},{hi:.3f}] quadratic={quad_ok}")


@pytest.mark.usefixtures("sampled")
def test_criterion_09_resistance_oracle():
    t0 = time.perf_counter()
    eps, delta = 0.3, 0.2
    factor = math.exp(eps) * (1 + delta)
    ok = True

    tri = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    oracle = er_oracle_build(tri, PolyCoeffs.parse("1"), eps, RngStream(0), delta=delta)
    Rtri = exact_resistances(tri)
    for u, v in [(0, 1), (0, 2), (1, 2)]:
        truth = Rtri[u, v]
        got = oracle.query(u, v)
        if not (truth / factor <= got <= truth * factor):
            ok = False

    G = er_graph(100, 0.08, 950)
    alpha = PolyCoeffs.parse("0.5,0.5")
    oracle = er_oracle_build(G, alpha, eps, RngStream(1), delta=delta)
    R = exact_resistances(WeightedGraph.from_dense(-dense_poly(G, alpha)))
    gen = np.random.default_rng(2)
    checked = 0
    while checked < 100:
        u, v = (int(x) for x in gen.integers(0, G.n, 2))
        if u == v:
            continue
        truth = R[u, v]
        got = oracle.query(u, v)
        if not (truth / factor <= got <= truth * factor):
            ok = False
        checked += 1
    _verdict(9, "effective-resistance oracle", ok, time.perf_counter() - t0, 30,
             f"pairs={checked + 3}")


def test_criterion_10_scalar_inequalities():
    t0 = time.perf_counter()
    ok = scalar_inequality_suite()
    _verdict(10, "scalar inequality grid", ok, time.perf_counter() - t0, 5)


def test_criterion_11_determinism(tmp_path, request):
    t0 = time.perf_counter()
    G = er_graph(40, 0.2, 990)
    gfile = tmp_path / "g.mtx"
    save_graph(G, gfile)
    mfile = tmp_path / "m.mtx"
    save_sddm(random_sddm(25, 0.25, 991), mfile)

    commands = [
        ["sparsify-poly", "-i", str(gfile), "--alpha", "0.5,0.5",
         "--eps", "0.5", "--seed", "17"],
        ["high-degree", "-i", str(gfile), "-d", "4", "--eps", "0.6",
         "--seed", "18", "--cs", "1"],
        ["sparsify-sddm", "-i", str(mfile), "--alpha", "0.5,0.5",
         "--eps", "0.5", "--seed", "19"],
    ]
    ok = True
    for route in ("exact", "sample"):
        if route == "sample":
            request.getfixturevalue("sampled")
        for k, args in enumerate(commands):
            a = tmp_path / f"{route}-a{k}.mtx"
            b = tmp_path / f"{route}-b{k}.mtx"
            if cli_main(args + ["-o", str(a)]) != 0 or cli_main(args + ["-o", str(b)]) != 0:
                ok = False
                continue
            if a.read_bytes() != b.read_bytes():
                ok = False
    _verdict(11, "byte-identical replay", ok, time.perf_counter() - t0, 60,
             f"subcommands={len(commands)} routes=exact,sample")
