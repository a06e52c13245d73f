"""The four benchmark workloads: seeded inputs, the timed chain, the check.

Each workload mirrors one `walksparse` CLI runner: load the input file, call
the public entry point, write the output. Inputs are generated here from the
benchmark seed and written with this module's own Matrix Market writer, so
the library only ever sees files. Library entry points are looked up through
their submodules at call time (`ws.sparsify.sparsify_poly`, ...), which is
where the traced run installs its wrappers.

Random graphs use a fixed edge count rather than a fixed edge probability,
so that the seed changes which graph is drawn but not how big it is.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import connected_components
import scipy.sparse as sp

ALPHA = "0.5,0.5"


# ---------------------------------------------------------------------------
# Input generation (no walksparse code runs here)
# ---------------------------------------------------------------------------


def write_mtx(path, n, rows, cols, vals):
    """Matrix Market coordinate real symmetric, 1-based, 17 significant digits."""
    body = np.column_stack([np.asarray(rows) + 1, np.asarray(cols) + 1, vals])
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{n} {n} {len(body)}\n")
        np.savetxt(fh, body, fmt=["%d", "%d", "%.17g"])


def _connected(n, u, v):
    adj = sp.coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    return connected_components(adj, directed=False)[0] == 1


def gnm_connected(gen, n, m, tries=200):
    """Uniform connected graph with exactly m edges (rejection on connectivity)."""
    iu, iv = np.triu_indices(n, k=1)
    for _ in range(tries):
        pick = np.sort(gen.choice(len(iu), size=m, replace=False))
        u, v = iu[pick], iv[pick]
        if _connected(n, u, v):
            return u, v
    raise RuntimeError(f"no connected G({n}, {m}) in {tries} draws")


def tree_plus_edges(gen, n, m):
    """Random recursive tree plus uniform extra edges, exactly m edges.

    The tree makes every draw connected, which G(n, m) at average degree 6
    often is not.
    """
    parent = (gen.random(n - 1) * np.arange(1, n)).astype(np.int64)
    keys = set(zip(parent.tolist(), range(1, n)))
    while len(keys) < m:
        a, b = (int(x) for x in gen.integers(0, n, 2))
        if a != b:
            keys.add((min(a, b), max(a, b)))
    e = np.array(sorted(keys), dtype=np.int64)
    return e[:, 0], e[:, 1]


def digest(root: Path):
    """SHA-256 over the relative names and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def output_bytes(root: Path):
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """setup() writes inputs; run() is the timed chain; check() is untimed."""

    name = ""
    tag = 0  # mixed into the input seed so workloads draw independent inputs

    def generator(self, seed):
        return np.random.default_rng(np.random.SeedSequence((self.tag, seed)))


class PolyGrid(Workload):
    """sparsify_poly on a weighted 2-D grid; stage 2 is under budget."""

    name = "poly-grid"
    tag = 1
    side = 200
    eps = 1.0
    cs = 1.0
    patch = 4  # side of the grid blocks whose indicators are probes

    def setup(self, seed, work: Path):
        gen = self.generator(seed)
        k = self.side
        idx = np.arange(k * k).reshape(k, k)
        u = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
        v = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
        w = np.exp(gen.uniform(-1.0, 1.0, len(u)))
        write_mtx(work / "input.mtx", k * k, u, v, w)
        return {"input": work / "input.mtx", "lib_seed": seed}

    def run(self, ws, inputs, out: Path):
        G = ws.graph.load_graph(inputs["input"])
        cfg = ws.sparsify.SparsifyConfig(epsilon=self.eps, oversample=self.cs)
        alpha = ws.graph.PolyCoeffs.parse(ALPHA)
        H = ws.sparsify.sparsify_poly(G, alpha, cfg, ws.sampling.RngStream(inputs["lib_seed"]))
        ws.graph.save_graph(H, out / "output.mtx")
        return {"out_edges": H.m, "G": G}

    def check(self, ws, inputs, result, out: Path):
        """Probe check, not a certificate: Rayleigh quotients x'L_H x / x'L_a x.

        The e^+-eps guarantee holds for every x, so the probes are both global
        and local: centred Gaussian vectors and the low-frequency grid cosine
        modes, where a sampled sparsifier drifts as a whole, plus the
        indicators of every vertex (x'L x is then a weighted degree) and of
        every patch x patch block of the grid (a cut), which expose a wrong
        region. L_alpha is applied with sparse products, since n is beyond
        the dense oracle.
        """
        G = result["G"]
        H = ws.graph.load_graph(out / "output.mtx")
        k = self.side
        gen = np.random.default_rng(12345)
        dense = [x - x.mean() for x in gen.standard_normal((16, G.n))]
        c = (np.arange(k) + 0.5) * math.pi / k
        dense += [np.outer(np.cos(a * c), np.cos(b * c)).ravel()
                  for a in range(4) for b in range(4) if a or b]
        row, col = np.divmod(np.arange(G.n), k)
        block = row // self.patch * -(-k // self.patch) + col // self.patch
        local = sp.hstack([sp.identity(G.n, format="csc"),
                           sp.csc_matrix((np.ones(G.n), (np.arange(G.n), block)))]).tocsc()
        worst = 0.0
        for X in (np.column_stack(dense), local):
            ratio = _column_forms(X, H.laplacian() @ X) / _column_forms(X, _poly_apply(ws, G, X))
            worst = max(worst, float(np.max(np.abs(np.log(ratio)))))
        return worst <= self.eps, worst, "probe"


def _poly_apply(ws, G, X):
    """L_alpha X with sparse products: D X - sum_r a_r D (D^-1 A)^r X."""
    inv_deg = sp.diags(1.0 / G.degree)
    y = G.adjacency @ X  # D (D^-1 A)^r X, starting at r = 1
    out = sp.diags(G.degree) @ X
    alpha = ws.graph.PolyCoeffs.parse(ALPHA).alpha
    for r, a_r in enumerate(alpha, start=1):
        out = out - a_r * y
        if r < len(alpha):
            y = G.adjacency @ (inv_deg @ y)
    return out


def _column_forms(X, LX):
    """x'L x for every column x of X, given L X."""
    prod = X.multiply(LX) if sp.issparse(X) else X * LX
    return np.asarray(prod.sum(axis=0)).ravel()


class ErOracleWorkload(Workload):
    """er_oracle_build just above the dense cutoff, then a batch of queries."""

    name = "er-oracle"
    tag = 2
    n = 540
    m = 1620  # average degree 6: enough 2-step pairs that stage 2 runs
    eps = 1.0
    cs = 0.5
    delta = 0.8
    queries = 2000

    def setup(self, seed, work: Path):
        gen = self.generator(seed)
        u, v = tree_plus_edges(gen, self.n, self.m)
        w = np.exp(gen.uniform(-1.0, 1.0, len(u)))
        write_mtx(work / "input.mtx", self.n, u, v, w)
        a = gen.integers(0, self.n, self.queries)
        b = (a + gen.integers(1, self.n, self.queries)) % self.n  # never a == b
        np.savetxt(work / "pairs.txt", np.column_stack([a, b]), fmt="%d")
        return {"input": work / "input.mtx", "pairs": work / "pairs.txt", "lib_seed": seed}

    def run(self, ws, inputs, out: Path):
        G = ws.graph.load_graph(inputs["input"])
        cfg = ws.sparsify.SparsifyConfig(epsilon=self.eps, oversample=self.cs)
        alpha = ws.graph.PolyCoeffs.parse(ALPHA)
        oracle = ws.resistance.er_oracle_build(
            G, alpha, self.eps, ws.sampling.RngStream(inputs["lib_seed"]),
            delta=self.delta, cfg=cfg)
        lines = []
        with open(inputs["pairs"]) as fh:
            for line in fh:
                u, v = line.split()
                lines.append(f"{oracle.query(int(u), int(v)):.12g}\n")
        with open(out / "answers.txt", "w") as fh:
            fh.writelines(lines)
        return {"out_edges": oracle.graph.m, "G": G}

    def check(self, ws, inputs, result, out: Path):
        """Every answer within e^eps (1 + delta) of the dense pseudoinverse."""
        G = result["G"]
        L = ws.oracle.dense_poly(G, ws.graph.PolyCoeffs.parse(ALPHA), threshold=G.n)
        Lp = np.linalg.pinv(L, rcond=1e-12)
        pairs = np.loadtxt(inputs["pairs"], dtype=np.int64)
        got = np.loadtxt(out / "answers.txt")
        u, v = pairs[:, 0], pairs[:, 1]
        truth = Lp[u, u] + Lp[v, v] - Lp[u, v] - Lp[v, u]
        worst = float(np.max(np.abs(np.log(got / truth))))
        return worst <= self.eps + math.log1p(self.delta), worst, "dense-pinv"


class HighDegree(Workload):
    """sparsify_high_degree d=12: one PLUS step and one SQUARE step."""

    name = "high-degree"
    tag = 3
    n = 60
    m = 354  # round(0.2 * C(60, 2)), the expected size of er_graph(60, 0.2)
    d = 12
    eps = 0.75
    cs = 1.0

    def setup(self, seed, work: Path):
        gen = self.generator(seed)
        u, v = gnm_connected(gen, self.n, self.m)
        write_mtx(work / "input.mtx", self.n, u, v, np.ones(len(u)))
        return {"input": work / "input.mtx", "lib_seed": seed}

    def run(self, ws, inputs, out: Path):
        G = ws.graph.load_graph(inputs["input"])
        cfg = ws.sparsify.SparsifyConfig(epsilon=self.eps, oversample=self.cs)
        H = ws.highdegree.sparsify_high_degree(
            G, self.d, self.eps, cfg, ws.sampling.RngStream(inputs["lib_seed"]))
        ws.graph.save_graph(H, out / "output.mtx")
        return {"out_edges": H.m, "G": G}

    def check(self, ws, inputs, result, out: Path):
        """Dense certificate against D - D (D^-1 A)^d."""
        H = ws.graph.load_graph(out / "output.mtx")
        target = ws.oracle.dense_monomial(result["G"], self.d)
        rep = ws.oracle.similarity_check(H.laplacian_dense(), target, self.eps)
        return rep.passed, rep.eps_required, "dense-certificate"


class NewtonChain(Workload):
    """inv_sqrt_chain on a random SDDM matrix: the sddm and newton layers."""

    name = "newton-chain"
    tag = 4
    n = 50
    m = 184  # round(0.15 * C(50, 2)), the expected size of er_graph(50, 0.15)
    eps_total = 0.4
    eps = 0.5
    cs = 0.3

    def setup(self, seed, work: Path):
        gen = self.generator(seed)
        u, v = gnm_connected(gen, self.n, self.m)
        w = 0.5 + gen.random(len(u))
        deg = np.bincount(u, w, self.n) + np.bincount(v, w, self.n)
        diag = deg + 0.5 + gen.random(self.n)  # slack in [0.5, 1.5)
        idx = np.arange(self.n)
        write_mtx(work / "input.mtx", self.n,
                  np.concatenate([idx, u]), np.concatenate([idx, v]),
                  np.concatenate([diag, -w]))
        return {"input": work / "input.mtx", "lib_seed": seed}

    def run(self, ws, inputs, out: Path):
        M = ws.graph.load_sddm(inputs["input"])
        cfg = ws.sparsify.SparsifyConfig(
            epsilon=self.eps, oversample=self.cs, second_stage=False)
        chain = ws.newton.inv_sqrt_chain(
            M, self.eps_total, cfg=cfg, rng=ws.sampling.RngStream(inputs["lib_seed"]))
        for k, f in enumerate(chain.factors):
            ws.graph.save_graph(f.graph, out / f"factor_{k}.mtx")
            np.savetxt(out / f"factor_{k}.diag", f.diag, fmt="%.17g")
        np.savetxt(out / "terminal.diag", chain.terminal_diag, fmt="%.17g")
        return {"out_edges": sum(f.graph.m for f in chain.factors), "M": M,
                "factors": len(chain.factors)}

    def check(self, ws, inputs, result, out: Path):
        """Dense certificate: eigenvalues of C'MC for the chain read back."""
        chain = ws.newton.FactorChain(
            factors=[
                ws.newton.AffineFactor(
                    diag=np.loadtxt(out / f"factor_{k}.diag"),
                    graph=ws.graph.load_graph(out / f"factor_{k}.mtx"))
                for k in range(result["factors"])
            ],
            terminal_diag=np.loadtxt(out / "terminal.diag"),
        )
        lo, hi = chain.bracket(result["M"])
        worst = max(abs(math.log(lo)), abs(math.log(hi))) if lo > 0 else math.inf
        return worst <= self.eps_total, worst, "dense-certificate"


WORKLOADS = {w.name: w for w in (PolyGrid(), ErOracleWorkload(), HighDegree(), NewtonChain())}


def clear(root: Path):
    """Empty root, creating it when missing."""
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
