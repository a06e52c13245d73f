"""The benchmark's tracer (bench/tracing.py) still reads the sampler's walk batches.

The benchmark's workloads all take the exact stage-one route, so its traced
runs never draw a walk; this test draws them.
"""

import importlib.util
import logging
import re
from pathlib import Path

import walksparse
from walksparse import PolyCoeffs, RngStream, SparsifyConfig, save_graph, sparsify_poly

from conftest import er_graph

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_counts_sampled_walks(tmp_path, caplog):
    # the route rule itself samples this input, so stage one logs its M
    G = er_graph(60, 0.2, 0)
    alpha = PolyCoeffs.parse("0.25,0.25,0.25,0.25")
    cfg = SparsifyConfig(epsilon=0.5, oversample=1.0, second_stage=False)
    save_graph(sparsify_poly(G, alpha, cfg, RngStream(1)), tmp_path / "plain.mtx")
    with caplog.at_level(logging.INFO, logger="walksparse"), load_tracer()(walksparse) as tracer:
        save_graph(sparsify_poly(G, alpha, cfg, RngStream(1)), tmp_path / "traced.mtx")
    (msg,) = [m for m in caplog.messages if m.startswith("stage 1 ")]
    M = int(re.fullmatch(r"stage 1 sample: .* > M = ([\d,]+)", msg).group(1).replace(",", ""))
    assert tracer.counts["sampling.walks"] == M
    assert 0 < tracer.counts["sampling.closed"] < M
    assert tracer.counts["sparsify.stage1_edges_out"] > 0
    assert (tmp_path / "traced.mtx").read_bytes() == (tmp_path / "plain.mtx").read_bytes()
