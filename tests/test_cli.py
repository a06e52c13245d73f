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

    def test_refused_disconnected(self, tmp_path):
        G = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        p = tmp_path / "disc.mtx"
        save_graph(G, p)
        code = main(["sparsify-poly", "-i", str(p), "--alpha", "1",
                     "-o", str(tmp_path / "x.mtx")])
        assert code == 4

    def test_refused_bipartite_high_degree(self, tmp_path):
        G = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
        p = tmp_path / "c4.mtx"
        save_graph(G, p)
        code = main(["high-degree", "-i", str(p), "-d", "4",
                     "-o", str(tmp_path / "x.mtx")])
        assert code == 4

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

    def test_inv_sqrt_chain_files(self, sddm_file, tmp_path):
        out = str(tmp_path / "chain")
        assert main(["inv-sqrt", "-i", sddm_file, "--eps", "0.4", "--seed", "1",
                     "--cs", "0.5", "-o", out]) == 0
        assert (tmp_path / "chain" / "terminal.diag").exists()
        assert (tmp_path / "chain" / "chain.manifest").exists()


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
