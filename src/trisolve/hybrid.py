"""Two-stage pipeline for rectangular systems: a centering pass takes the
residual down cheaply, then a triangle-family pass finishes the job.

If the first stage reaches an approximate solution, the second stage either
refines it (adaptive radius) or, on request, certifies an approximate
minimum-norm solution.  Otherwise the second stage runs on the
normal-equation pair ``(A^T A, A^T b)``, with the product applied implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centering import CenteringOptions, centering_solve
from .linalg import GramProduct, norm2, prepare_system
from .results import (
    APPROX_SOLUTION,
    NORMAL_EQ_SOLUTION,
    SolveResult,
    Trace,
)
from .triangle import min_norm_solve, solve_adaptive

HYBRID_TRACE_COLUMNS = ("iter", "stage", "residual_norm", "normal_residual_norm", "wall_ns")


@dataclass
class HybridOptions:
    """Tolerances are relative to ``||b||`` (first stage) and to the scale of
    the equation the second stage actually solves."""

    eps_cta: float = 1e-8
    eps_ta: float = 1e-15
    want_min_norm: bool = False
    t_max: int = 5
    h_mode: str = "aat"
    max_iters_stage1: int = 100_000
    max_iters_stage2: int = 400_000
    min_norm_inner_cap: int = 250_000


def _merged_trace(stages) -> Trace:
    merged = Trace(HYBRID_TRACE_COLUMNS)
    row = 0
    for name, result in stages:
        trace = result.trace
        for values in zip(trace.column("residual_norm"), trace.column("normal_residual_norm"),
                          trace.column("wall_ns")):
            merged.append(row, name, *values)
            row += 1
    return merged


def hybrid_solve(a, b, options: HybridOptions | None = None) -> SolveResult:
    """Run the centering stage, then the triangle stage, warm-started.  Both
    stages apply the one operator prepared here."""
    opts = options or HybridOptions()
    op, b = prepare_system(a, b)
    n = op.shape[1]
    b_norm = norm2(b)
    if b_norm == 0.0:
        return SolveResult(APPROX_SOLUTION, np.zeros(n), 0.0, 0.0, 0,
                           Trace(HYBRID_TRACE_COLUMNS))

    stage1 = centering_solve(op, b, CenteringOptions(
        epsilon=opts.eps_cta, t_max=opts.t_max, h_mode=opts.h_mode,
        max_iters=opts.max_iters_stage1,
    ))

    if stage1.status == APPROX_SOLUTION and opts.want_min_norm:
        # Certify a minimum-norm bracket; the gap target cannot be tighter
        # than the residual the first stage actually delivered.
        eps2 = max(opts.eps_ta * b_norm, 1.01 * stage1.residual_norm)
        stage2 = min_norm_solve(op, b, eps2, stage1.x,
                                inner_cap=opts.min_norm_inner_cap,
                                max_iters=opts.max_iters_stage2)
        final_status = stage2.status
        x = stage2.x
    elif stage1.status == APPROX_SOLUTION:
        stage2 = solve_adaptive(op, b, eps=opts.eps_ta * b_norm,
                                max_iters=opts.max_iters_stage2, x0=stage1.x)
        final_status = stage2.status
        x = stage2.x if stage2.residual_norm <= stage1.residual_norm else stage1.x
    else:
        # No consistent-solution evidence: run the triangle stage on the
        # normal-equation pair, applied implicitly.
        gram = GramProduct(op)
        g = op.rmatvec(b)
        stage2 = solve_adaptive(gram, g, eps=opts.eps_ta * norm2(g),
                                max_iters=opts.max_iters_stage2, x0=stage1.x)
        x = (stage2.x if stage2.normal_residual_norm <= stage1.normal_residual_norm
             else stage1.x)
        # An approximate solution of the pair is a normal-equation solution
        # of the original system.
        final_status = (NORMAL_EQ_SOLUTION if stage2.status == APPROX_SOLUTION
                        else stage2.status)

    final = b - op.matvec(x)
    result = SolveResult(
        final_status, x, norm2(final), norm2(op.rmatvec(final)),
        stage1.iterations + stage2.iterations,
        _merged_trace([("stage1", stage1), ("stage2", stage2)]),
        rho=stage2.rho, rho_interval=stage2.rho_interval,
        lower_bound=stage2.lower_bound, detail=stage2.detail,
    )
    result.stage_results = [stage1, stage2]
    return result
