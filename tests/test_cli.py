import math

import numpy as np
import pytest

from walksparse import (
    PolyCoeffs,
    SddmMatrix,
    WeightedGraph,
    load_graph,
    load_sddm,
    save_graph,
    save_sddm,
)
from walksparse.cli import main
from walksparse.newton import AffineFactor, FactorChain

from conftest import er_graph, random_sddm


@pytest.fixture
def tri_file(tmp_path):
    G = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    p = tmp_path / "tri.mtx"
    save_graph(G, p)
    return str(p)


@pytest.fixture
def medium_file(tmp_path):
    G = er_graph(30, 0.3, 0)
    p = tmp_path / "g30.mtx"
    save_graph(G, p)
    return str(p)


@pytest.fixture
def sddm_file(tmp_path):
    M = random_sddm(20, 0.3, 1)
    p = tmp_path / "m20.mtx"
    save_sddm(M, p)
    return str(p)


class TestExitCodes:
    def test_success(self, tri_file, tmp_path):
        out = str(tmp_path / "out.mtx")
        code = main(["sparsify-poly", "-i", tri_file, "--alpha", "0,1",
                     "--eps", "0.5", "--seed", "7", "-o", out])
        assert code == 0

    def test_usage_error_bad_alpha(self, tri_file, tmp_path, capsys):
        code = main(["sparsify-poly", "-i", tri_file, "--alpha", "0.5,0.6",
                     "-o", str(tmp_path / "x.mtx")])
        assert code == 2

    @pytest.mark.parametrize("alpha", ["0.5,nan", "nan"])
    def test_usage_error_nan_alpha(self, tri_file, tmp_path, alpha):
        out = tmp_path / "x.mtx"
        assert main(["sparsify-poly", "-i", tri_file, "--alpha", alpha, "-o", str(out)]) == 2
        assert not out.exists()

    def test_removed_options_are_usage_errors(self, sddm_file, tri_file, tmp_path):
        assert main(["inv-sqrt", "-i", sddm_file, "--dense", "-o", str(tmp_path / "chain")]) == 2
        assert main(["verify", "-a", tri_file, "-b", tri_file, "--alpha", "1", "--eps", "0.5",
                     "--against", "dense"]) == 2

    @pytest.mark.parametrize("route", ["exact", "sampled"])
    def test_negative_seed_is_invalid_input(self, tri_file, tmp_path, capsys, request, route):
        if route == "sampled":
            request.getfixturevalue("sampled")
        out = tmp_path / "x.mtx"
        assert main(["sparsify-poly", "-i", tri_file, "--alpha", "0.5,0.5", "--seed", "-1", "-o", str(out)]) == 3
        assert "nonnegative integers" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_no_subcommand(self):
        assert main([]) == 2

    def test_validation_error_bad_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 -1.0\n")
        code = main(["sparsify-poly", "-i", str(bad), "--alpha", "1",
                     "-o", str(tmp_path / "x.mtx")])
        assert code == 3

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_weight_is_invalid_input(self, tmp_path, bad):
        p = tmp_path / "g.txt"
        p.write_text(f"0 1 1.0\n1 2 {bad}\n2 3 1.0\n3 0 1.0\n")
        out = tmp_path / "out.mtx"
        code = main(["sparsify-poly", "-i", str(p), "-o", str(out), "--alpha", "0.5,0.5"])
        assert code == 3
        assert not out.exists()

    @pytest.mark.parametrize("cs", ["nan", "inf"])
    def test_nonfinite_oversample_is_invalid_input(self, tri_file, tmp_path, capsys, cs):
        code = main(["sparsify-poly", "-i", tri_file, "--alpha", "1", "--cs", cs,
                     "-o", str(tmp_path / "x.mtx")])
        assert code == 3
        assert "oversample" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["0", "-1", "nan", "inf"])
    def test_bad_delta_is_invalid_input(self, tri_file, capsys, delta):
        assert main(["resistance", "-i", tri_file, "--delta", delta]) == 3
        assert "delta" in capsys.readouterr().err

    def test_non_integer_query_is_invalid_input(self, tri_file, tmp_path, capsys):
        q = tmp_path / "queries.txt"
        q.write_text("0 1\na b\n")
        code = main(["resistance", "-i", tri_file, "--queries", str(q)])
        assert code == 3
        assert "'a b'" in capsys.readouterr().err

    def _high_degree_certified(self, G, tmp_path, capsys):
        p, out = tmp_path / "g.mtx", str(tmp_path / "x.mtx")
        save_graph(G, p)
        assert main(["high-degree", "-i", str(p), "-d", "4", "-o", out]) == 0
        assert main(["verify", "-a", out, "-b", str(p), "--alpha", "0,0,0,1", "--eps", "0.5"]) == 0
        assert "pass=true" in capsys.readouterr().out

    def test_refused_disconnected(self, tmp_path, capsys):
        # high-degree takes a disconnected graph whole, with no option
        G = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        self._high_degree_certified(G, tmp_path, capsys)

    def test_disconnected_runs_whole(self, tmp_path, capsys):
        # two components and an isolated vertex, with no option
        C = er_graph(20, 0.3, 5)
        G = WeightedGraph(41, np.concatenate([C.edge_u, C.edge_u + 20]),
                          np.concatenate([C.edge_v, C.edge_v + 20]), np.tile(C.edge_w, 2))
        p, out = tmp_path / "disc.mtx", str(tmp_path / "x.mtx")
        save_graph(G, p)
        assert main(["sparsify-poly", "-i", str(p), "--alpha", "0.5,0.5", "-o", out]) == 0
        assert main(["verify", "-a", out, "-b", str(p), "--alpha", "0.5,0.5", "--eps", "0.5"]) == 0
        assert "pass=true" in capsys.readouterr().out

    def test_inv_sqrt_two_blocks(self, tmp_path):
        # an SDDM matrix SddmMatrix accepts, whose off-diagonal has two components
        A, B = random_sddm(12, 0.4, 3), random_sddm(9, 0.5, 4)
        edges = [(u, v, w) for u, v, w in zip(A.offdiag.edge_u, A.offdiag.edge_v, A.offdiag.edge_w)]
        edges += [(A.n + u, A.n + v, w) for u, v, w in zip(B.offdiag.edge_u, B.offdiag.edge_v, B.offdiag.edge_w)]
        M = SddmMatrix(np.concatenate([A.diag, B.diag]), WeightedGraph.from_edges(A.n + B.n, edges))
        p, out = tmp_path / "blocks.mtx", tmp_path / "chain"
        save_sddm(M, p)
        assert main(["inv-sqrt", "-i", str(p), "--eps", "0.4", "--seed", "1", "-o", str(out)]) == 0
        fields = dict(line.split("=", 1) for line in open(out / "chain.manifest").read().splitlines())
        chain = FactorChain(
            factors=[AffineFactor(np.loadtxt(out / f"factor_{k}.diag"), load_graph(out / f"factor_{k}.mtx"))
                     for k in range(int(fields["chain_length"]))],
            terminal_diag=np.loadtxt(out / "terminal.diag"))
        lo, hi = chain.bracket(M)
        assert math.exp(-0.4) <= lo and hi <= math.exp(0.4)

    def test_resistance_refused_disconnected(self, tmp_path, capsys):
        # a disconnected input is answered: inf across its components
        G = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        p = tmp_path / "disc.mtx"
        save_graph(G, p)
        q = tmp_path / "queries.txt"
        q.write_text("0 1\n1 2\n")
        assert main(["resistance", "-i", str(p), "--queries", str(q)]) == 0
        assert [float(x) for x in capsys.readouterr().out.split()] == [1.0, math.inf]

    def test_resistance_bipartite_even_alpha(self, tmp_path, capsys):
        # C4 is bipartite: under alpha = 0,1 the sides {0, 2} and {1, 3} answer inf between them
        G = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
        p = tmp_path / "c4.mtx"
        save_graph(G, p)
        q = tmp_path / "queries.txt"
        q.write_text("0 2\n0 1\n")
        assert main(["resistance", "-i", str(p), "--alpha", "0,1", "--queries", str(q)]) == 0
        assert [float(x) for x in capsys.readouterr().out.split()] == [pytest.approx(1.0), math.inf]

    def test_refused_bipartite_high_degree(self, tmp_path, capsys):
        # C4 is bipartite: even walks keep its two sides apart, as the sparsifier does
        G = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
        self._high_degree_certified(G, tmp_path, capsys)

    def test_verify_failure_exit_5(self, tri_file, tmp_path):
        # a wildly rescaled graph cannot satisfy a tight bracket
        G = load_graph(tri_file)
        bad = WeightedGraph(G.n, G.edge_u, G.edge_v, G.edge_w * 10)
        p = tmp_path / "bad.mtx"
        save_graph(bad, p)
        code = main(["verify", "-a", str(p), "-b", tri_file,
                     "--alpha", "1", "--eps", "0.5"])
        assert code == 5


class TestOutputs:
    def test_sparsify_and_verify_roundtrip(self, medium_file, tmp_path, capsys):
        out = str(tmp_path / "h.mtx")
        assert main(["sparsify-poly", "-i", medium_file, "--alpha", "0.5,0.5",
                     "--eps", "0.5", "--seed", "3", "-o", out]) == 0
        assert main(["verify", "-a", out, "-b", medium_file,
                     "--alpha", "0.5,0.5", "--eps", "0.5"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert "pass=true" in line
        assert "eps_required=" in line

    def test_manifest_written(self, tri_file, tmp_path):
        out = tmp_path / "out.mtx"
        main(["sparsify-poly", "-i", tri_file, "--alpha", "0,1",
              "--eps", "0.5", "--seed", "7", "-o", str(out)])
        manifest = (tmp_path / "out.mtx.manifest").read_text()
        fields = dict(line.split("=", 1) for line in manifest.strip().splitlines())
        assert fields["subcommand"] == "sparsify-poly"
        assert fields["seed"] == "7"
        assert fields["alpha"] == "0,1"
        assert "output_nnz" in fields

    @pytest.mark.parametrize("cmd", ["sparsify-poly", "sparsify-sddm"])
    @pytest.mark.parametrize("alpha", ["0.3333333,0.3333333,0.3333334", "0.1234567,0.8765433"])
    def test_manifest_alpha_parses_to_run_alpha(self, medium_file, sddm_file, tmp_path, cmd, alpha):
        out = tmp_path / "out.mtx"
        infile = medium_file if cmd == "sparsify-poly" else sddm_file
        assert main([cmd, "-i", infile, "--alpha", alpha, "--eps", "0.5", "--seed", "3", "-o", str(out)]) == 0
        manifest = (tmp_path / "out.mtx.manifest").read_text()
        fields = dict(line.split("=", 1) for line in manifest.strip().splitlines())
        recorded = PolyCoeffs.parse(fields["alpha"]).alpha
        assert recorded.tobytes() == PolyCoeffs.parse(alpha).alpha.tobytes()

    def test_sparsify_monomial_matches_poly(self, medium_file, tmp_path):
        mono, poly = tmp_path / "mono.mtx", tmp_path / "poly.mtx"
        common = ["-i", medium_file, "--eps", "0.5", "--seed", "4"]
        assert main(["sparsify-monomial", "-r", "3", *common, "-o", str(mono)]) == 0
        assert main(["sparsify-poly", "--alpha", "0,0,1", *common, "-o", str(poly)]) == 0
        assert mono.read_bytes() == poly.read_bytes()
        manifest = (tmp_path / "mono.mtx.manifest").read_text()
        fields = dict(line.split("=", 1) for line in manifest.strip().splitlines())
        assert fields["subcommand"] == "sparsify-monomial"
        assert fields["degree"] == "3"

    def test_enumerate_totals(self, tri_file, capsys):
        assert main(["enumerate", "-i", tri_file, "-r", "2"]) == 0
        out = capsys.readouterr().out
        assert "total_mass=12" in out

    def test_resistance_protocol(self, tri_file, tmp_path, capsys):
        q = tmp_path / "queries.txt"
        q.write_text("0 1\n1 2\n")
        assert main(["resistance", "-i", tri_file, "--alpha", "1",
                     "--eps", "0.3", "--seed", "2", "--queries", str(q)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert 0.4 < float(line) < 1.0  # around the exact 2/3

    def test_sddm_subcommand(self, sddm_file, tmp_path):
        out = str(tmp_path / "sd.mtx")
        assert main(["sparsify-sddm", "-i", sddm_file, "--alpha", "0.5,0.5",
                     "--eps", "0.5", "--seed", "1", "-o", out]) == 0
        M = load_sddm(out)
        assert M.n == 20

    def test_qth_root_subcommand(self, sddm_file, tmp_path):
        out = str(tmp_path / "qr.mtx")
        assert main(["qth-root", "-i", sddm_file, "--q", "2", "--eps", "0.5",
                     "--seed", "1", "--cs", "1", "-o", out]) == 0
        manifest = (tmp_path / "qr.mtx.manifest").read_text()
        assert "middle_alpha=" in manifest

    @pytest.mark.parametrize("cmd, extra", [
        ("sparsify-sddm", ["--alpha", "1"]), ("inv-sqrt", []), ("qth-root", ["--q", "2"])],
        ids=["sparsify-sddm", "inv-sqrt", "qth-root"])
    def test_sddm_commands_take_no_format(self, sddm_file, tmp_path, cmd, extra):
        # SDDM inputs are Matrix Market only, so --format is a usage error
        out = tmp_path / "out"
        code = main([cmd, "-i", sddm_file, "--format", "edge-list", "-o", str(out), *extra])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("cmd, extra, run_fields", [
        ("sparsify-poly", ["--alpha", "0.3,0.7"], {"alpha": "0.29999999999999999,0.69999999999999996"}),
        ("sparsify-monomial", ["-r", "3"], {"degree": "3"}),
        ("high-degree", ["-d", "4"], {"degree": "4"}),
        ("sparsify-sddm", ["--alpha", "0.3,0.7"], {"alpha": "0.29999999999999999,0.69999999999999996"}),
        ("qth-root", ["--q", "1"], {"q": "1", "middle_alpha": "0,0.75,0.25"}),
        ("inv-sqrt", [], {"chain_length": None, "factors": None, "eps_bound": None}),
    ], ids=["sparsify-poly", "sparsify-monomial", "high-degree", "sparsify-sddm", "qth-root", "inv-sqrt"])
    def test_manifest_key_order(self, medium_file, sddm_file, tmp_path, cmd, extra, run_fields):
        # shared fields, then the subcommand's own in a fixed order, then wall_time and output_nnz
        infile = sddm_file if cmd in ("sparsify-sddm", "qth-root", "inv-sqrt") else medium_file
        out = tmp_path / "out"
        assert main([cmd, "-i", infile, "--eps", "0.5", "--seed", "3", "-o", str(out), *extra]) == 0
        manifest = out / "chain.manifest" if cmd == "inv-sqrt" else tmp_path / "out.manifest"
        fields = dict(line.split("=", 1) for line in manifest.read_text().splitlines())
        tail = ["wall_time"] if cmd == "inv-sqrt" else ["wall_time", "output_nnz"]
        assert list(fields) == ["subcommand", "input", "eps", "seed", "cs", "version", "output", *run_fields, *tail]
        assert fields["subcommand"] == cmd and fields["output"] == str(out)
        pinned = {k: v for k, v in run_fields.items() if v is not None}
        assert {k: fields[k] for k in pinned} == pinned

    def test_inv_sqrt_chain_files(self, sddm_file, tmp_path):
        out = str(tmp_path / "chain")
        assert main(["inv-sqrt", "-i", sddm_file, "--eps", "0.4", "--seed", "1",
                     "--cs", "0.5", "-o", out]) == 0
        assert (tmp_path / "chain" / "terminal.diag").exists()
        assert (tmp_path / "chain" / "chain.manifest").exists()

    @pytest.mark.parametrize("cmd, extra", [("sparsify-sddm", ["--alpha", "0.5,0.5"]), ("inv-sqrt", [])])
    def test_general_sddm_file_runs_as_its_symmetric_twin(self, tmp_path, cmd, extra):
        # diagonal 5, off-diagonals -1 and -2: dominant, but not if an entry counts twice
        head = "%%MatrixMarket matrix coordinate real "
        (tmp_path / "sym.mtx").write_text(head + "symmetric\n3 3 5\n1 1 5\n2 1 -1\n2 2 5\n3 2 -2\n3 3 5\n")
        (tmp_path / "gen.mtx").write_text(head + "general\n3 3 7\n1 1 5\n1 2 -1\n2 1 -1\n2 2 5\n"
                                          "2 3 -2\n3 2 -2\n3 3 5\n")
        written = []
        for name in ("sym", "gen"):
            (tmp_path / name).mkdir()
            out = tmp_path / name / "out"
            assert main([cmd, "-i", str(tmp_path / f"{name}.mtx"), "--seed", "2", "-o", str(out), *extra]) == 0
            files = sorted(out.iterdir()) if out.is_dir() else [out]
            written.append({f.name: f.read_bytes() for f in files if not f.name.endswith(".manifest")})
        assert written[0] == written[1] and written[0]


@pytest.mark.usefixtures("sampled")
class TestDeterminism:
    def _replay(self, args, out_a, out_b):
        assert main(args + ["-o", out_a]) == 0
        assert main(args + ["-o", out_b]) == 0
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    def test_sparsify_poly_replay(self, medium_file, tmp_path):
        self._replay(
            ["sparsify-poly", "-i", medium_file, "--alpha", "0.5,0.5",
             "--eps", "0.5", "--seed", "42"],
            str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx"),
        )

    def test_high_degree_replay(self, medium_file, tmp_path):
        self._replay(
            ["high-degree", "-i", medium_file, "-d", "4", "--eps", "0.6",
             "--seed", "5", "--cs", "1"],
            str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx"),
        )

    def test_sddm_replay(self, sddm_file, tmp_path):
        self._replay(
            ["sparsify-sddm", "-i", sddm_file, "--alpha", "0.5,0.5",
             "--eps", "0.5", "--seed", "9"],
            str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx"),
        )
