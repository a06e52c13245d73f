"""Command-line surface for reproducible sparsification runs.

Every producing subcommand writes its output plus a flat key=value manifest
next to it; replaying a manifest (same binary, same flags) reproduces the
output byte for byte. Exit codes: 0 success, 2 usage, 3 validation,
4 refused input, 5 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import InputRefusedError, ValidationError, WalksparseError
from .graph import (
    PolyCoeffs,
    load_graph,
    load_sddm,
    save_graph,
    save_sddm,
)
from .highdegree import sparsify_high_degree
from .newton import inv_sqrt_chain, qth_root_coefficients
from .oracle import dense_poly, enumerate_paths, similarity_check, total_enumerated_mass
from .resistance import er_oracle_build
from .sampling import RngStream
from .sddm import sparsify_sddm
from .sparsify import SparsifyConfig, sparsify_monomial, sparsify_poly

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_REFUSED = 4
EXIT_VERIFY = 5

def _alpha_arg(text):
    # bad coefficients are a usage error (exit 2), not a runtime failure
    try:
        return PolyCoeffs.parse(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _common(parser, needs_output=True, graph_input=True):
    parser.add_argument("-i", "--input", required=True, help="input graph/matrix file")
    if needs_output:
        parser.add_argument("-o", "--output", required=True, help="output path")
    parser.add_argument("--eps", type=float, default=0.5, help="error budget epsilon")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--cs", type=float, default=4.0, help="oversampling constant c_s")
    if graph_input:  # SDDM inputs are Matrix Market only
        parser.add_argument("--format", choices=["matrix-market", "edge-list"], default=None,
                            help="input format (sniffed when omitted)")
    parser.add_argument("--no-second-stage", action="store_true",
                        help="skip the resistance-based second sparsification stage")


def build_parser():
    p = argparse.ArgumentParser(prog="walksparse",
                                description="spectral sparsifiers of random-walk matrix polynomials")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("sparsify-poly", help="sparsify L_alpha(G)")
    _common(sp)
    sp.add_argument("--alpha", required=True, type=_alpha_arg,
                    help="comma-separated coefficients, e.g. 0.5,0.5")

    sm = sub.add_parser("sparsify-monomial", help="sparsify the r-step walk Laplacian")
    _common(sm)
    sm.add_argument("--degree", "-r", type=int, required=True)

    hd = sub.add_parser("high-degree", help="even-degree monomial pipeline")
    _common(hd)
    hd.add_argument("--degree", "-d", type=int, required=True)

    sd = sub.add_parser("sparsify-sddm", help="sparsify an SDDM walk polynomial")
    _common(sd, graph_input=False)
    sd.add_argument("--alpha", required=True, type=_alpha_arg)

    iv = sub.add_parser("inv-sqrt", help="inverse square-root factor chain")
    _common(iv, graph_input=False)
    iv.add_argument("--max-iters", type=int, default=40)

    qr = sub.add_parser("qth-root", help="q-th root reduction step")
    _common(qr, graph_input=False)
    qr.add_argument("--q", type=int, required=True)

    rs = sub.add_parser("resistance", help="effective-resistance oracle queries")
    _common(rs, needs_output=False)
    rs.add_argument("--alpha", default="1", type=_alpha_arg)
    rs.add_argument("--delta", type=float, default=0.2)
    rs.add_argument("--queries", default=None,
                    help="file of 'u v' lines; standard input when omitted")

    vf = sub.add_parser("verify", help="compare a sparsifier against the dense oracle")
    vf.add_argument("-a", "--produced", required=True)
    vf.add_argument("-b", "--original", required=True)
    vf.add_argument("--alpha", required=True, type=_alpha_arg)
    vf.add_argument("--eps", type=float, required=True)
    vf.add_argument("--format", choices=["matrix-market", "edge-list"], default=None)

    en = sub.add_parser("enumerate", help="exhaustively list length-r walks")
    en.add_argument("-i", "--input", required=True)
    en.add_argument("--degree", "-r", type=int, required=True)
    en.add_argument("--format", choices=["matrix-market", "edge-list"], default=None)

    return p


def _cfg(args):
    return SparsifyConfig(
        epsilon=args.eps,
        oversample=args.cs,
        second_stage=not args.no_second_stage,
    )


def _timed(fn, *args, **kwargs):
    """fn(*args, **kwargs) and its wall time as the manifest writes it."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, f"{time.perf_counter() - t0:.3f}"


def _write_manifest(path, args, **extra):
    fields = {
        "subcommand": args.cmd,
        "input": args.input,
        "eps": repr(args.eps),
        "seed": args.seed,
        "cs": repr(args.cs),
        "version": __version__,
        "output": args.output,
        **extra,
    }
    with open(str(path) + ".manifest", "w") as fh:
        fh.write("".join(f"{k}={v}\n" for k, v in fields.items()))


def _run_sparsify_poly(args):
    G = load_graph(args.input, fmt=args.format)
    H, wall = _timed(sparsify_poly, G, args.alpha, _cfg(args), RngStream(args.seed))
    save_graph(H, args.output)
    _write_manifest(args.output, args, alpha=",".join(f"{a:.17g}" for a in args.alpha.alpha),
                    wall_time=wall, output_nnz=H.m)
    return EXIT_OK


def _run_sparsify_monomial(args):
    G = load_graph(args.input, fmt=args.format)
    H, wall = _timed(sparsify_monomial, G, args.degree, _cfg(args), RngStream(args.seed))
    save_graph(H, args.output)
    _write_manifest(args.output, args, degree=args.degree, wall_time=wall, output_nnz=H.m)
    return EXIT_OK


def _run_high_degree(args):
    G = load_graph(args.input, fmt=args.format)
    H, wall = _timed(sparsify_high_degree, G, args.degree, args.eps, _cfg(args), RngStream(args.seed))
    save_graph(H, args.output)
    _write_manifest(args.output, args, degree=args.degree, wall_time=wall, output_nnz=H.m)
    return EXIT_OK


def _run_sparsify_sddm(args):
    M = load_sddm(args.input)
    res, wall = _timed(sparsify_sddm, M, args.alpha, _cfg(args), RngStream(args.seed))
    save_sddm(res.sddm(), args.output)
    _write_manifest(args.output, args, alpha=",".join(f"{a:.17g}" for a in args.alpha.alpha),
                    wall_time=wall, output_nnz=res.graph.m)
    return EXIT_OK


def _run_inv_sqrt(args):
    M = load_sddm(args.input)
    chain, wall = _timed(inv_sqrt_chain, M, args.eps, max_iters=args.max_iters,
                         cfg=_cfg(args), rng=RngStream(args.seed))
    os.makedirs(args.output, exist_ok=True)
    files = [f"factor_{k}" for k in range(len(chain))]
    for name, f in zip(files, chain.factors):
        save_graph(f.graph, os.path.join(args.output, f"{name}.mtx"))
        np.savetxt(os.path.join(args.output, f"{name}.diag"), f.diag, fmt="%.17g")
    np.savetxt(os.path.join(args.output, "terminal.diag"), chain.terminal_diag, fmt="%.17g")
    _write_manifest(os.path.join(args.output, "chain"), args, chain_length=len(chain),
                    factors=",".join(files) or "none", eps_bound=f"{chain.eps_bound:.6g}",
                    wall_time=wall)
    return EXIT_OK


def _run_qth_root(args):
    M = load_sddm(args.input)
    alpha = qth_root_coefficients(args.q)
    res, wall = _timed(sparsify_sddm, M, alpha, _cfg(args), RngStream(args.seed))
    save_sddm(res.sddm(), args.output)
    _write_manifest(args.output, args, q=args.q,
                    middle_alpha=",".join(f"{a:.17g}" for a in alpha.alpha),
                    wall_time=wall, output_nnz=res.graph.m)
    return EXIT_OK


def _run_resistance(args):
    G = load_graph(args.input, fmt=args.format)
    cfg = _cfg(args)
    oracle = er_oracle_build(G, args.alpha, args.eps, RngStream(args.seed),
                             delta=args.delta, cfg=cfg)
    stream = open(args.queries) if args.queries else sys.stdin
    try:
        for line in stream:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                u, v = (int(p) for p in line.split())
            except ValueError:
                raise ValidationError(
                    f"query line must be 'u v' with integer ids, got {line!r}") from None
            print(f"{oracle.query(u, v):.12g}")
    finally:
        if args.queries:
            stream.close()
    return EXIT_OK


def _run_verify(args):
    H = load_graph(args.produced, fmt=args.format)
    G = load_graph(args.original, fmt=args.format)
    target = dense_poly(G, args.alpha)
    report = similarity_check(H.laplacian_dense(), target, args.eps)
    print(report.as_kv())
    return EXIT_OK if report.passed else EXIT_VERIFY


def _run_enumerate(args):
    G = load_graph(args.input, fmt=args.format)
    paths = enumerate_paths(G, args.degree)
    for p in sorted(paths, key=lambda p: p.vertices):
        verts = "-".join(str(v) for v in p.vertices)
        print(f"path={verts} w={p.weight:.12g} Z={p.resistance_bound:.12g} tau={p.mass:.12g}")
    total = total_enumerated_mass(paths)
    print(f"total_mass={total:.12g} expected={2.0 * args.degree * G.m:.12g}")
    return EXIT_OK


_RUNNERS = {
    "sparsify-poly": _run_sparsify_poly,
    "sparsify-monomial": _run_sparsify_monomial,
    "high-degree": _run_high_degree,
    "sparsify-sddm": _run_sparsify_sddm,
    "inv-sqrt": _run_inv_sqrt,
    "qth-root": _run_qth_root,
    "resistance": _run_resistance,
    "verify": _run_verify,
    "enumerate": _run_enumerate,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _RUNNERS[args.cmd](args)
    except InputRefusedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (WalksparseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
