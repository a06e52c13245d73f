"""One workload in its own process: set up, run in a closed loop, check.

Started by run.py, which has already pinned the BLAS/OpenMP thread pools in
the environment to THREADS. This process caps its own address space at
MEM_CAP_MB before any walksparse code runs, so an oversized allocation raises
MemoryError here instead of exhausting the machine.

The loop is closed: one caller, one call at a time. It keeps starting runs
until --seconds have passed (at least MIN_RUNS). With --trace 1 it alternates
untraced and traced runs, so both see the same machine state. Replay and
correctness checks stay outside every timed interval. The last line of
standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import resource
import sys
import time
from pathlib import Path

import workloads
from tracing import SELF_TIMES, WARNINGS, Tracer, WarningCounter

MIN_RUNS = 3
THREADS = 1  # BLAS/OpenMP pools: the single-threaded baseline; never above nproc
MEM_CAP_MB = 2048
SETUP_REPS = 9  # input generations here, fresh-interpreter imports in run.py

ROOT = Path(__file__).resolve().parent.parent


def _percentile(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(math.ceil(q * len(xs))) - 1)] if xs else math.nan


def _is_time(key):
    return key.endswith(("_s", "ns_per_walk")) or key.startswith("query_us")


def _layer_metrics(tracer, counts, run_s):
    """Per-layer numbers from one traced run."""
    selfs = tracer.self_times()
    m = {key: selfs.get(span, 0.0) for key, span in SELF_TIMES.items()}
    c = tracer.counts
    walks = c["sampling.walks"]
    m["sampling.walks"] = walks
    m["sampling.closed_frac"] = c["sampling.closed"] / walks if walks else 0.0
    m["sampling.ns_per_walk"] = (
        (m["sampling.draw_s"] + m["sampling.accumulate_s"]) * 1e9 / walks if walks else 0.0)
    for key in ("sparsify.stage1_edges_out", "resistance.resparsify_noop_calls",
                "resistance.sketch_width", "resistance.oracle_sketch_width",
                "resistance.cg_solves", "resistance.cg_iters"):
        m[key] = c[key]
    m["resistance.resparsify_calls"] = len(tracer.durations("resistance.resparsify"))
    m["newton.steps"] = len(tracer.durations("newton.step"))
    queries = tracer.durations("resistance.query")
    m["query_us.p50"] = _percentile(queries, 0.50) * 1e6 if queries else 0.0
    m["query_us.p99"] = _percentile(queries, 0.99) * 1e6 if queries else 0.0
    m.update({key: counts.get(key, 0) for key in WARNINGS})
    m["trace.run_s"] = run_s
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", required=True, help="working directory for inputs and outputs")
    args = p.parse_args(argv)

    cap = MEM_CAP_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    sys.path.insert(0, str(ROOT / "src"))
    import walksparse as ws

    if Path(ws.__file__).resolve().parent != ROOT / "src" / "walksparse":
        raise SystemExit(f"imported walksparse from {ws.__file__}, not this checkout")

    wl = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    warnings = WarningCounter()
    logging.getLogger("walksparse").addHandler(warnings)

    # set-up: input generation and file writing, several times
    setup_s, input_digests = [], set()
    for _ in range(SETUP_REPS):
        workloads.clear(work / "in")
        t = time.perf_counter()
        inputs = wl.setup(args.seed, work / "in")
        setup_s.append(time.perf_counter() - t)
        input_digests.add(workloads.digest(work / "in"))

    out = work / "out"
    untraced, traced, layers, errors = [], [], [], []
    attempted = failed = mismatches = 0
    ref_digest = result = None
    spans = []
    warn_counts = None
    deadline = time.perf_counter() + args.seconds
    while attempted < MIN_RUNS * (1 + args.trace) or time.perf_counter() < deadline:
        trace_this = args.trace and attempted % 2 == 1
        workloads.clear(out)
        warnings.counts.clear()
        attempted += 1
        try:
            if trace_this:
                with Tracer(ws) as tracer:
                    t = time.perf_counter()
                    res = tracer.wrap(wl.run, "cli.runner")(ws, inputs, out)
                    elapsed = time.perf_counter() - t
            else:
                t = time.perf_counter()
                res = wl.run(ws, inputs, out)
                elapsed = time.perf_counter() - t
        except Exception as exc:  # MemoryError included: a failed run, not a crash
            failed += 1
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        d = workloads.digest(out)
        if ref_digest is None:
            ref_digest, result = d, res
        if d != ref_digest:
            failed += 1
            mismatches += 1
            errors.append(f"run {attempted}: output digest {d} != first run's {ref_digest}")
            continue
        if warn_counts is None:
            warn_counts = dict(warnings.counts)
        if trace_this:
            traced.append(elapsed)
            layers.append(_layer_metrics(tracer, dict(warnings.counts), elapsed))
            layers[-1]["graph.out_bytes"] = workloads.output_bytes(out)
            spans.append(tracer.spans)
        else:
            untraced.append(elapsed)

    check = {"passed": False, "eps_observed": math.nan, "kind": None, "seconds": math.nan}
    if result is not None:
        t = time.perf_counter()
        try:
            passed, eps_obs, kind = wl.check(ws, inputs, result, out)
        except Exception as exc:  # a check that cannot run has not passed
            passed, eps_obs, kind = False, math.nan, f"{type(exc).__name__}: {exc}"
        check = {"passed": bool(passed), "eps_observed": eps_obs, "kind": kind,
                 "seconds": time.perf_counter() - t}
        if not passed:
            # every successful run wrote these same bytes, so every one failed
            failed = attempted
            errors.append(f"{kind} check failed: eps_observed={eps_obs}")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "setup_gen_s": setup_s,
        "input_replay_ok": len(input_digests) == 1,
        "output_replay_ok": mismatches == 0,
        "output_sha256": ref_digest,
        "out_edges": result["out_edges"] if result else None,
        "check": check,
        "peak_rss_mb": peak_rss_mb,
        "run_s": untraced,
        "traced_run_s": traced,
        "warnings": warn_counts or {},
    }
    if layers:
        # the fastest traced run, matching run_s, which is the fastest untraced one
        per_layer = dict(min(layers, key=lambda m: m["trace.run_s"]))
        per_layer["oracle.certify_s"] = check["seconds"]
        per_layer["oracle.eps_observed"] = check["eps_observed"]
        per_layer["trace.untraced_run_s"] = min(untraced, default=math.nan)
        per_layer["trace.overhead_s"] = per_layer["trace.run_s"] - min(untraced, default=math.nan)
        report["per_layer"] = per_layer
        report["counts_repeat"] = all(
            m[k] == layers[0][k] for m in layers for k in layers[0] if not _is_time(k))
        with open(work / "spans.json", "w") as fh:
            json.dump(spans, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
