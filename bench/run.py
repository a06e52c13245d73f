"""walksparse benchmark: one workload, one seed, one JSON line.

    python3 bench/run.py --workload poly-grid --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's own `src/`, and nothing is read or written outside the checkout.
The workload runs in a child process (worker.py) with the BLAS/OpenMP pools
pinned to THREADS and its address space capped at MEM_CAP_MB (both set in
worker.py), so a runaway allocation fails that child's run instead of the
machine.

With --trace 0 the last line of standard output carries the end-to-end
metrics; with --trace 1 the per-layer ones from the traced runs. Either way
the full record, with its environment and every sample behind each figure,
goes to .bench_work/results/BENCH_<workload>_seed<seed>_trace<t>.json. See
bench/README.md for what each metric means and which layer moves it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from worker import MEM_CAP_MB, SETUP_REPS, THREADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("poly-grid", "er-oracle", "high-degree", "newton-chain")  # worker.py defines them
TIME_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _env():
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles the same way
    return env


def _commit():
    """HEAD of the checkout's git metadata, or None when there is none."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "walksparse").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description="walksparse benchmark (one workload)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "walksparse" / "__init__.py").is_file():
        print(f"error: no walksparse package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    env = _env()
    import_s = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import walksparse"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        import_s.append(time.perf_counter() - t)

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    try:
        work.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", str(work)]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=TIME_LIMIT_S - (time.perf_counter() - start))
        if proc.returncode != 0:
            print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        if (work / "spans.json").is_file():
            shutil.move(work / "spans.json", results / f"SPANS_{tag}.json")
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {TIME_LIMIT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not rep["run_s"] or (args.trace and "per_layer" not in rep):
        print("error: no run succeeded: " + "; ".join(rep["errors"][:3]), file=sys.stderr)
        return 1
    setup = [i + g for i, g in zip(import_s, rep["setup_gen_s"])]
    e2e = {
        # the fastest run: on a shared machine slowdowns only add time, and the
        # fastest of a window's runs moves least from one window to the next
        "run_s": {"value": min(rep["run_s"]), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
        "out_edges": {"value": rep["out_edges"], "unit": "count"},
    }
    correct = (rep["check"]["passed"] and rep["input_replay_ok"] and rep["output_replay_ok"]
               and rep.get("counts_repeat", True))
    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(rep["per_layer"].items())}
    else:
        metrics = e2e
    for m in metrics.values():  # keep the result line strict JSON after a failed check
        if not math.isfinite(m["value"]):
            m["value"] = None

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "fail_frac": rep["failed"] / rep["attempted"],
        "errors": rep["errors"],
        "end_to_end": e2e,
        "per_layer": rep.get("per_layer"),
        "sample_counts": {"run_s": len(rep["run_s"]), "setup_s": len(setup),
                          "traced_run_s": len(rep["traced_run_s"])},
        "samples": {
            "run_s": rep["run_s"],
            "traced_run_s": rep["traced_run_s"],
            "setup_s": setup,
            "setup_import_s": import_s,
            "setup_gen_s": rep["setup_gen_s"],
        },
        "check": rep["check"],
        "output_sha256": rep["output_sha256"],
        "input_replay_ok": rep["input_replay_ok"],
        "output_replay_ok": rep["output_replay_ok"],
        "counts_repeat": rep.get("counts_repeat"),
        "warnings": rep["warnings"],
        "env": {
            "commit": _commit(),
            "source_sha256": _source_sha256(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "nproc": os.cpu_count(),
            "threads": THREADS,
            "mem_cap_mb": MEM_CAP_MB,
            "machine": platform.machine(),
        },
    }
    with open(results / f"BENCH_{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


def _unit(key):
    if key == "oracle.eps_observed":
        return "log"
    if key.startswith("query_us"):
        return "us"
    if key.endswith("ns_per_walk"):
        return "ns"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_frac"):
        return "ratio"
    if key.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
