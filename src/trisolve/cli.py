"""Command-line interface: solve benchmark systems, generate test matrices,
and emit dynamics portraits.

Every solve uses the row-sum right-hand side, so ``x = (1, ..., 1)^T`` is a
known solution whenever the system is consistent.  Exit codes: 0 for a
successful outcome (approximate, normal-equation, minimum-norm, feasible),
2 for witness/inconclusive outcomes, 3 for iteration caps and numerical
failures, 1 for usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import gallery, mmio
from .centering import CenteringOptions, centering_solve
from .dynamics import write_phase_portrait
from .feasibility import nonnegative_feasibility
from .hybrid import HybridOptions, hybrid_solve
from .linalg import H_MODE_GRAM, H_MODE_SYMMETRIC, nnz_of, norm2, shape_of
from .results import INCONCLUSIVE, WITNESS
from .triangle import solve_adaptive

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNRESOLVED = 2
EXIT_FAILED = 3

SUMMARY_SCHEMA = {
    "type": "object",
    "required": [
        "outcome", "iterations", "final_residual_norm",
        "final_normal_residual_norm", "final_relative_residual",
        "wall_ms", "matrix",
    ],
    "properties": {
        "outcome": {"type": "string"},
        "iterations": {"type": "integer", "minimum": 0},
        "final_residual_norm": {"type": "number"},
        "final_normal_residual_norm": {"type": "number"},
        "final_relative_residual": {"type": "number"},
        "rho_final": {"type": "number"},
        "wall_ms": {"type": "number"},
        "matrix": {
            "type": "object",
            "required": ["m", "n", "nnz"],
            "properties": {
                "m": {"type": "integer"},
                "n": {"type": "integer"},
                "nnz": {"type": "integer"},
                "family": {"type": "string"},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise ValueError(message)


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parsing leaves the parser unchanged, and the
    # build costs about 1 ms, as much as a small solve
    parser = _Parser(prog="trisolve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gen(p, **kwargs):
        # "append", so that a second spec is refused rather than kept
        p.add_argument("--gen", metavar="FAMILY:N[:PARAMS]", action="append",
                       help="generator spec, e.g. diag-pd:1000 or dorr:100:0.01", **kwargs)

    solve = sub.add_parser("solve", help="solve one system with b = row sums")
    source = solve.add_mutually_exclusive_group(required=True)
    source.add_argument("--mtx", metavar="PATH", help="Matrix Market file")
    add_gen(source)
    solve.add_argument("--algo", choices=["cta", "ta", "hybrid", "lpfeas"], default="cta")
    solve.add_argument("--eps", type=float, default=1e-10,
                       help="tolerance relative to ||b||: epsilon for cta, eps ||b|| for ta "
                            "and lpfeas, eps_ta for hybrid")
    solve.add_argument("--eps-prime", type=float, default=None,
                       help="relative to ||b||, default --eps: the normal-equation tolerance "
                            "of ta, eps_cta of hybrid's stage one; cta and lpfeas ignore it")
    solve.add_argument("--t-max", type=int, default=CenteringOptions.t_max)
    solve.add_argument("--max-iters", type=int, default=CenteringOptions.max_iters)
    solve.add_argument("--h-mode", choices=(H_MODE_SYMMETRIC, H_MODE_GRAM),
                       default=CenteringOptions.h_mode)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--rho-max", type=float, default=None)
    solve.add_argument("--min-norm", action="store_true",
                       help="hybrid only: certify a minimum-norm bracket")
    solve.add_argument("--known-solvable", action="store_true",
                       help="cta only: skip the normal-equation stopping clause")
    solve.add_argument("--trace", metavar="PATH", help="write per-iteration CSV")
    solve.add_argument("--summary", metavar="PATH", help="write summary JSON")
    solve.add_argument("--dump-x", metavar="PATH", help="write x in Matrix Market array format")

    gen = sub.add_parser("generate", help="write a generator family to Matrix Market")
    add_gen(gen, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", metavar="PATH", required=True)

    dyn = sub.add_parser("dynamics", help="emit a 2-D phase portrait (SVG + CSV)")
    dyn.add_argument("--lambda", dest="eigenvalues", default="1,3",
                     metavar="L1,L2", help="eigenvalues of the 2x2 operator")
    dyn.add_argument("--steps", type=int, default=20)
    dyn.add_argument("--starts", type=int, default=24)
    dyn.add_argument("--svg", metavar="PATH", default="portrait.svg")
    dyn.add_argument("--trace", metavar="PATH", default="portrait.csv")
    return parser


def _generate(args):
    """The matrix of the one ``--gen`` spec in ``args``, and its family."""
    if len(args.gen) != 1:
        raise ValueError(f"{args.command} takes exactly one --gen spec")
    spec = args.gen[0]
    parts = spec.split(":")
    if not 2 <= len(parts) <= 3:
        raise ValueError(f"generator spec {spec!r} must look like FAMILY:N[:PARAMS]")
    family = parts[0]
    try:
        n = int(parts[1])
    except ValueError:
        raise ValueError(f"generator spec {spec!r}: N must be an integer") from None
    try:
        params = [float(tok) for tok in parts[2].split(",") if tok] if len(parts) == 3 else []
    except ValueError:
        raise ValueError(f"generator spec {spec!r}: bad parameter list") from None
    return gallery.make(family, n, params, args.seed), family


def _load_matrix(args):
    if args.gen:
        return _generate(args)
    if not os.path.exists(args.mtx):
        raise ValueError(f"matrix file not found: {args.mtx}")
    try:
        return mmio.read_matrix_market(args.mtx), None
    except mmio.MatrixMarketError as exc:
        raise ValueError(f"{args.mtx}: {exc}") from None


def _run_algorithm(matrix, b, args):
    algo = args.algo
    eps = args.eps
    eps_prime = args.eps_prime if args.eps_prime is not None else eps
    if algo == "cta":
        return centering_solve(matrix, b, CenteringOptions(
            epsilon=eps, t_max=args.t_max, max_iters=args.max_iters,
            h_mode=args.h_mode, known_solvable=args.known_solvable))
    if algo == "ta":
        # absolute tolerances for the membership machinery
        scale = norm2(b)
        return solve_adaptive(matrix, b, eps=eps * scale, eps_prime=eps_prime * scale,
                              max_iters=args.max_iters)
    if algo == "hybrid":
        return hybrid_solve(matrix, b, HybridOptions(
            eps_cta=eps_prime, eps_ta=eps, want_min_norm=args.min_norm,
            t_max=args.t_max, h_mode=args.h_mode,
            max_iters_stage1=args.max_iters, max_iters_stage2=args.max_iters,
        ))
    # "lpfeas", the last of the --algo choices
    return nonnegative_feasibility(matrix, b, eps=eps * norm2(b), rho_max=args.rho_max,
                                   max_iters=args.max_iters)


def _summary_dict(result, matrix, family, wall_ms, b_norm):
    m, n = shape_of(matrix)
    summary = {
        "outcome": result.status,
        "iterations": result.iterations,
        "final_residual_norm": result.residual_norm,
        "final_normal_residual_norm": result.normal_residual_norm,
        "final_relative_residual": result.residual_norm / b_norm if b_norm else 0.0,
    }
    if result.rho is not None:
        summary["rho_final"] = result.rho
    summary["wall_ms"] = wall_ms
    summary["matrix"] = {"m": m, "n": n, "nnz": nnz_of(matrix)}
    if family:
        summary["matrix"]["family"] = family
    return summary


def _cmd_solve(args) -> int:
    # a flag that the chosen algorithm would drop is refused, not ignored
    if args.min_norm and args.algo != "hybrid":
        raise ValueError(f"--min-norm needs --algo hybrid, got --algo {args.algo}")
    if args.known_solvable and args.algo != "cta":
        raise ValueError(f"--known-solvable needs --algo cta, got --algo {args.algo}")
    matrix, family = _load_matrix(args)
    b = gallery.row_sum_rhs(matrix)
    start = time.perf_counter()
    result = _run_algorithm(matrix, b, args)
    wall_ms = 1000.0 * (time.perf_counter() - start)
    if args.trace:
        result.trace.write_csv(args.trace)
    if args.dump_x:
        mmio.write_matrix_market(np.asarray(result.x).reshape(-1, 1), args.dump_x)
    summary = _summary_dict(result, matrix, family, wall_ms, norm2(b))
    text = json.dumps(summary, indent=2)
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    if result.success:
        return EXIT_OK
    return EXIT_UNRESOLVED if result.status in (WITNESS, INCONCLUSIVE) else EXIT_FAILED


def _cmd_generate(args) -> int:
    matrix, family = _generate(args)
    mmio.write_matrix_market(matrix, args.out)
    m, n_cols = shape_of(matrix)
    print(f"wrote {family} ({m} x {n_cols}, nnz={nnz_of(matrix)}) to {args.out}")
    return EXIT_OK


def _cmd_dynamics(args) -> int:
    try:
        eigs = [float(tok) for tok in args.eigenvalues.split(",")]
    except ValueError:
        raise ValueError(f"bad eigenvalue list {args.eigenvalues!r}") from None
    if len(eigs) != 2 or not all(0.0 < e < math.inf for e in eigs):
        raise ValueError("--lambda needs two positive eigenvalues, e.g. 1,3")
    h2 = np.diag(eigs)
    write_phase_portrait(h2, args.svg, args.trace, num_starts=args.starts,
                         steps=args.steps)
    print(f"wrote {args.svg} and {args.trace}")
    return EXIT_OK


_COMMANDS = {"solve": _cmd_solve, "generate": _cmd_generate, "dynamics": _cmd_dynamics}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else EXIT_USAGE
    except (MemoryError, OSError, ValueError) as exc:  # numpy's MemoryError gives the shape
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
