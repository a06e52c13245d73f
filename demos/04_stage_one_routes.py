"""Time stage one on both of its routes around the rule that picks between them.

Stage one computes the polynomial's off-diagonal exactly while its sparse
products cost at most M multiply-adds (M = the walks it would otherwise
draw), and samples M walks above that. This forces each route in turn on
Erdos-Renyi graphs of average degree 20-200 and prints the multiply-adds,
M, and the best-of-two wall time of each route. Single-stage runs
(second_stage=False), so the time is stage one's alone.
Run with: python3 demos/04_stage_one_routes.py
"""

import logging
import math
import re
import time

import numpy as np

from walksparse import PolyCoeffs, RngStream, SparsifyConfig, WeightedGraph, sparsify, sparsify_poly


def random_graph(n, degree, seed):
    gen = np.random.default_rng(seed)
    u, v = np.nonzero(np.triu(gen.random((n, n)) < degree / (n - 1), 1))
    return WeightedGraph.from_edges(n, list(zip(u, v, np.ones(len(u)))))


class LastMessage(logging.Handler):
    def emit(self, record):
        self.text = record.getMessage()


def best_time(G, alpha, cfg, route):
    exact = sparsify.exact_walk_graph
    force = {
        "exact": lambda layers, D, M, a: exact(layers, D, math.inf, a),
        "sample": lambda *args: None,
    }[route]
    sparsify.exact_walk_graph = force
    try:
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            sparsify_poly(G, alpha, cfg, RngStream(0))
            times.append(time.perf_counter() - t0)
    finally:
        sparsify.exact_walk_graph = exact
    return min(times)


def main():
    logger = logging.getLogger("walksparse")
    last = LastMessage()
    logger.addHandler(last)
    logger.setLevel(logging.INFO)
    cfg = SparsifyConfig(epsilon=0.5, oversample=1.0, second_stage=False)
    print(f"{'alpha':>20} {'n':>5} {'deg':>4} {'mult-adds':>12} {'M':>10} {'ratio':>6}"
          f" {'exact_s':>8} {'sample_s':>8}")
    for a in ("0,1", "0,0,1", "0.25,0.25,0.25,0.25"):
        alpha = PolyCoeffs.parse(a)
        for n, degree in ((400, 20), (400, 200), (1000, 20), (1000, 100)):
            G = random_graph(n, degree, seed=1)
            sparsify_poly(G, alpha, cfg, RngStream(0))  # the rule's own route logs "... M = N"
            M = int(re.search(r"M = ([\d,]+)", last.text).group(1).replace(",", ""))
            t_exact = best_time(G, alpha, cfg, "exact")
            madds = int(last.text.split()[3].replace(",", ""))  # "stage 1 exact: N multiply-adds ..."
            t_sample = best_time(G, alpha, cfg, "sample")
            print(f"{a:>20} {n:>5} {degree:>4} {madds:>12,} {M:>10,} {madds / M:>6.2f}"
                  f" {t_exact:>8.3f} {t_sample:>8.3f}", flush=True)


if __name__ == "__main__":
    main()
