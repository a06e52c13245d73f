"""Spans and counters recorded from outside the walksparse package.

Many walksparse modules bind callees with `from .x import y`, so each callee
is wrapped where its caller looks it up (`walksparse.sparsify.sample_paths`,
`walksparse.highdegree.graph_sampling`, ...). `resparsify` is imported
lazily inside functions, so wrapping `walksparse.resistance.resparsify`
reaches every caller. Wrappers only time the call and read its return value:
they never touch arguments or RNG state, so traced output bytes equal
untraced ones (the worker checks this).

A span is [name, start_ns, end_ns, parent index]. Spans stay in memory and
are written out when the run ends. A layer's self time is its spans' time
minus the time of the spans nested directly inside them, so the self times
of one traced run add up to its root span.
"""

from __future__ import annotations

import logging
import time
from collections import Counter

import numpy as np

# (module, attribute, span name). Several sites may share one span name.
SPAN_SITES = [
    ("graph", "load_graph", "graph.load"),
    ("graph", "load_sddm", "graph.load"),
    ("graph", "save_graph", "graph.save"),
    ("sparsify", "SamplerIndex", "sampling.index_build"),
    ("sddm", "SamplerIndex", "sampling.index_build"),
    ("highdegree", "build_template", "sampling.template_build"),
    ("sparsify", "sample_paths", "sampling.draw"),
    ("highdegree", "sample_template_paths", "sampling.draw"),
    ("sparsify", "graph_sampling", "sampling.graph_sampling"),
    ("highdegree", "graph_sampling", "sampling.graph_sampling"),
    ("sddm", "graph_sampling", "sampling.graph_sampling"),
    ("sparsify", "sparsify_poly", "sparsify.sparsify_poly"),
    ("resistance", "sparsify_poly", "sparsify.sparsify_poly"),
    ("resistance", "resparsify", "resistance.resparsify"),
    ("resistance", "estimate_er", "resistance.estimate_er"),
    ("resistance", "er_oracle_build", "resistance.oracle_build"),
    ("highdegree", "sparsify_high_degree", "highdegree.sparsify_high_degree"),
    ("highdegree", "square_step", "highdegree.square_step"),
    ("highdegree", "plus_step", "highdegree.plus_step"),
    ("newton", "sparsify_sddm", "sddm.sparsify_sddm"),
    ("sddm", "extra_diagonal", "sddm.extra_diagonal"),
    ("newton", "spectral_radius", "newton.spectral_radius"),
    ("newton", "newton_sqrt_step", "newton.step"),
    ("newton", "inv_sqrt_chain", "newton.inv_sqrt_chain"),
]

# per-layer self-time metric -> span name
SELF_TIMES = {
    "graph.load_s": "graph.load",
    "graph.save_s": "graph.save",
    "sampling.index_build_s": "sampling.index_build",
    "sampling.template_build_s": "sampling.template_build",
    "sampling.draw_s": "sampling.draw",
    "sampling.accumulate_s": "sampling.graph_sampling",
    "sparsify.sparsify_poly_s": "sparsify.sparsify_poly",
    "resistance.resparsify_s": "resistance.resparsify",
    "resistance.estimate_er_s": "resistance.estimate_er",
    "resistance.oracle_build_s": "resistance.oracle_build",
    "resistance.query_s": "resistance.query",
    "highdegree.sparsify_high_degree_s": "highdegree.sparsify_high_degree",
    "highdegree.square_step_s": "highdegree.square_step",
    "highdegree.plus_step_s": "highdegree.plus_step",
    "sddm.sparsify_sddm_s": "sddm.sparsify_sddm",
    "sddm.extra_diagonal_s": "sddm.extra_diagonal",
    "newton.inv_sqrt_chain_s": "newton.inv_sqrt_chain",
    "newton.step_s": "newton.step",
    "newton.spectral_radius_s": "newton.spectral_radius",
    "cli.runner_s": "cli.runner",
}

# walksparse warnings that change the guarantee: counter name -> message text
WARNINGS = {
    "highdegree.clamps": "clamped degree excess",
    "graph.self_loops_dropped": "self-loop",
    "sddm.stage2_skipped": "skipping second-stage resparsify",
}


class WarningCounter(logging.Handler):
    """Counts guarantee-changing walksparse warnings (self-loops by number dropped)."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = Counter()

    def emit(self, record):
        msg = record.getMessage()
        for key, text in WARNINGS.items():
            if text in msg:
                self.counts[key] += record.args[0] if key == "graph.self_loops_dropped" else 1


class _CountingLinalg:
    """Stands in for scipy.sparse.linalg inside walksparse.resistance.

    Its cg injects an iteration callback (chained to any caller's own) and
    counts solves; every other attribute is the real module's.
    """

    def __init__(self, real, counts):
        self._real = real
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._real, name)

    def cg(self, A, b, *args, callback=None, **kwargs):
        counts = self._counts
        counts["resistance.cg_solves"] += 1

        def count_iteration(xk):
            counts["resistance.cg_iters"] += 1
            if callback is not None:
                callback(xk)

        return self._real.cg(A, b, *args, callback=count_iteration, **kwargs)


class Tracer:
    """Installs span and counter wrappers into walksparse; removes them on exit."""

    def __init__(self, ws):
        self.ws = ws
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def wrap(self, fn, name, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                after(out, args)
            return out

        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _current(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def __enter__(self):
        ws, counts = self.ws, self.counts

        def after_draw(batch, args):
            counts["sampling.walks"] += len(batch)
            counts["sampling.closed"] += int(np.count_nonzero(batch.u0 == batch.ur))

        def after_sampling(H, args):
            counts["sparsify.stage1_edges_out"] += H.m

        def after_resparsify(H, args):
            counts["resistance.resparsify_noop_calls"] += int(H is args[0])

        after = {
            "sampling.draw": after_draw,
            "sampling.graph_sampling": after_sampling,
            "resistance.resparsify": after_resparsify,
        }
        for module, attr, name in SPAN_SITES:
            owner = getattr(ws, module)
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name, after.get(name)))
        self._patch(ws.resistance.ErOracle, "query",
                    self.wrap(ws.resistance.ErOracle.query, "resistance.query"))

        sketch = ws.resistance._sketch_potentials

        def counted_sketch(*args, **kwargs):
            pot = sketch(*args, **kwargs)
            key = ("resistance.oracle_sketch_width"
                   if self._current() == "resistance.oracle_build"
                   else "resistance.sketch_width")
            counts[key] = max(counts[key], pot.shape[0])
            return pot

        self._patch(ws.resistance, "_sketch_potentials", counted_sketch)
        self._patch(ws.resistance, "spla", _CountingLinalg(ws.resistance.spla, counts))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
        return False

    def self_times(self):
        """Self time in seconds per span name."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start - inner) * 1e-9
        return out

    def durations(self, name):
        return [(end - start) * 1e-9 for n, start, end, _ in self.spans if n == name]
