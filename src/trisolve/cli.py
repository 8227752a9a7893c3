"""Command-line interface: solve benchmark systems, generate test matrices,
run benchmark sweeps, and emit dynamics portraits.

Every solve uses the row-sum right-hand side, so ``x = (1, ..., 1)^T`` is a
known solution whenever the system is consistent.  Exit codes: 0 for a
successful outcome (approximate, normal-equation, minimum-norm, feasible),
2 for witness/inconclusive outcomes, 3 for iteration caps and numerical
failures, 1 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

from . import gallery, mmio
from .centering import CenteringOptions, centering_solve
from .dynamics import write_phase_portrait
from .feasibility import nonnegative_feasibility
from .hybrid import HybridOptions, hybrid_solve
from .linalg import nnz_of, norm2, shape_of
from .results import (
    APPROX_SOLUTION,
    FEASIBLE,
    INCONCLUSIVE,
    ITERATION_CAP,
    MIN_NORM_SOLUTION,
    NORMAL_EQ_SOLUTION,
    NUMERICAL_FAILURE,
    WITNESS,
)
from .triangle import solve_adaptive

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNRESOLVED = 2
EXIT_FAILED = 3

_EXIT_BY_STATUS = {
    APPROX_SOLUTION: EXIT_OK,
    NORMAL_EQ_SOLUTION: EXIT_OK,
    MIN_NORM_SOLUTION: EXIT_OK,
    FEASIBLE: EXIT_OK,
    WITNESS: EXIT_UNRESOLVED,
    INCONCLUSIVE: EXIT_UNRESOLVED,
    ITERATION_CAP: EXIT_FAILED,
    NUMERICAL_FAILURE: EXIT_FAILED,
}

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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="trisolve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--mtx", metavar="PATH", help="Matrix Market file")
        group.add_argument(
            "--gen", metavar="FAMILY:N[:PARAMS]", action="append",
            help="generator spec, e.g. diag-pd:1000 or dorr:100:0.01",
        )

    solve = sub.add_parser("solve", help="solve one system with b = row sums")
    add_matrix_source(solve)
    solve.add_argument("--algo", choices=["cta", "ta", "hybrid", "lpfeas"], default="cta")
    solve.add_argument("--eps", type=float, default=1e-10)
    solve.add_argument("--eps-prime", type=float, default=None)
    solve.add_argument("--t-max", type=int, default=5)
    solve.add_argument("--max-iters", type=int, default=100_000)
    solve.add_argument("--h-mode", choices=["a", "aat"], default="aat")
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
    gen.add_argument("--gen", metavar="FAMILY:N[:PARAMS]", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", metavar="PATH", required=True)

    bench = sub.add_parser("bench", help="benchmark algorithms across generated problems")
    bench.add_argument("--gen", metavar="FAMILY:N[:PARAMS]", action="append", default=[])
    bench.add_argument("--algo", choices=["cta", "ta", "hybrid", "lpfeas"],
                       action="append", default=[])
    bench.add_argument("--eps", type=float, default=1e-10)
    bench.add_argument("--t-max", type=int, default=5)
    bench.add_argument("--max-iters", type=int, default=100_000)
    bench.add_argument("--h-mode", choices=["a", "aat"], default="aat")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--trials", type=int, default=5,
                       help="wall-time trials per problem (median reported)")
    bench.add_argument("--out", metavar="PATH", help="CSV output (default stdout)")

    dyn = sub.add_parser("dynamics", help="emit a 2-D phase portrait (SVG + CSV)")
    dyn.add_argument("--lambda", dest="eigenvalues", default="1,3",
                     metavar="L1,L2", help="eigenvalues of the 2x2 operator")
    dyn.add_argument("--steps", type=int, default=20)
    dyn.add_argument("--starts", type=int, default=24)
    dyn.add_argument("--svg", metavar="PATH", default="portrait.svg")
    dyn.add_argument("--trace", metavar="PATH", default="portrait.csv")
    return parser


def _parse_gen_spec(spec: str):
    parts = spec.split(":")
    if len(parts) < 2:
        raise _UsageError(f"generator spec {spec!r} must look like FAMILY:N[:PARAMS]")
    family = parts[0]
    try:
        n = int(parts[1])
    except ValueError:
        raise _UsageError(f"generator spec {spec!r}: N must be an integer") from None
    params = []
    if len(parts) > 2:
        try:
            params = [float(tok) for tok in parts[2].split(",") if tok]
        except ValueError:
            raise _UsageError(f"generator spec {spec!r}: bad parameter list") from None
    return family, n, params


def _load_matrix(args):
    if getattr(args, "mtx", None):
        if not os.path.exists(args.mtx):
            raise _UsageError(f"matrix file not found: {args.mtx}")
        try:
            matrix = mmio.read_matrix_market(args.mtx)
        except mmio.MatrixMarketError as exc:
            raise _UsageError(f"{args.mtx}: {exc}") from None
        return matrix, None
    specs = args.gen
    if isinstance(specs, list):
        if len(specs) != 1:
            raise _UsageError("solve takes exactly one --gen spec")
        specs = specs[0]
    family, n, params = _parse_gen_spec(specs)
    try:
        matrix = gallery.make(family, n, params, args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return matrix, family


def _run_algorithm(algo, matrix, b, args):
    eps = args.eps
    eps_prime = args.eps_prime if getattr(args, "eps_prime", None) is not None else eps
    if algo == "cta":
        return centering_solve(matrix, b, CenteringOptions(
            epsilon=eps, t_max=args.t_max, max_iters=args.max_iters,
            h_mode=args.h_mode,
            known_solvable=getattr(args, "known_solvable", False),
        ))
    if algo == "ta":
        # absolute tolerances for the membership machinery
        scale = norm2(b)
        return solve_adaptive(matrix, b, eps=eps * scale, eps_prime=eps_prime * scale,
                              max_iters=args.max_iters)
    if algo == "hybrid":
        result = hybrid_solve(matrix, b, HybridOptions(
            eps_cta=eps_prime, eps_ta=eps, want_min_norm=getattr(args, "min_norm", False),
            t_max=args.t_max, h_mode=args.h_mode,
            max_iters_stage1=args.max_iters, max_iters_stage2=args.max_iters,
        ))
        return result
    if algo == "lpfeas":
        return nonnegative_feasibility(matrix, b, eps=eps * norm2(b),
                                       rho_max=getattr(args, "rho_max", None),
                                       max_iters=args.max_iters)
    raise _UsageError(f"unknown algorithm {algo!r}")


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
    matrix, family = _load_matrix(args)
    b = gallery.row_sum_rhs(matrix)
    if norm2(b) == 0.0:
        print("row-sum right-hand side is zero; x = 0 solves the system", file=sys.stderr)
        return EXIT_OK
    start = time.perf_counter()
    result = _run_algorithm(args.algo, matrix, b, args)
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
    return _EXIT_BY_STATUS.get(result.status, EXIT_FAILED)


def _cmd_generate(args) -> int:
    family, n, params = _parse_gen_spec(args.gen)
    try:
        matrix = gallery.make(family, n, params, args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    mmio.write_matrix_market(matrix, args.out)
    m, n_cols = shape_of(matrix)
    print(f"wrote {family} ({m} x {n_cols}, nnz={nnz_of(matrix)}) to {args.out}")
    return EXIT_OK


def _bench_row(spec, algo, args):
    family, n, params = _parse_gen_spec(spec)
    try:
        matrix = gallery.make(family, n, params, args.seed)
        b = gallery.row_sum_rhs(matrix)
        result = _run_algorithm(algo, matrix, b, args)
        times = []
        for _ in range(max(1, args.trials)):
            t0 = time.perf_counter()
            _run_algorithm(algo, matrix, b, args)
            times.append(1000.0 * (time.perf_counter() - t0))
        wall = statistics.median(times)
        m, n_cols = shape_of(matrix)
        return (family, n_cols, algo, result.iterations, f"{wall:.3f}",
                f"{result.residual_norm:.6e}", f"{result.normal_residual_norm:.6e}",
                result.status)
    except Exception as exc:  # individual failures must not abort the suite
        return (family, n, algo, 0, "", "", "", f"error: {exc}")


def _cmd_bench(args) -> int:
    if not args.gen:
        raise _UsageError("bench needs at least one --gen spec")
    algos = args.algo or ["cta"]
    rows = [_bench_row(spec, algo, args) for spec in args.gen for algo in algos]
    lines = ["family,n,algo,iterations,wall_ms,residual,normal_residual,outcome"]
    lines += [",".join(str(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_dynamics(args) -> int:
    try:
        eigs = [float(tok) for tok in args.eigenvalues.split(",")]
    except ValueError:
        raise _UsageError(f"bad eigenvalue list {args.eigenvalues!r}") from None
    if len(eigs) != 2 or min(eigs) <= 0:
        raise _UsageError("--lambda needs two positive eigenvalues, e.g. 1,3")
    h2 = np.diag(eigs)
    write_phase_portrait(h2, args.svg, args.trace, num_starts=args.starts,
                         steps=args.steps)
    print(f"wrote {args.svg} and {args.trace}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "dynamics":
            return _cmd_dynamics(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
