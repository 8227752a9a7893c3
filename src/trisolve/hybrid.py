"""Two-stage pipeline for rectangular systems: a centering pass takes the
residual down cheaply, then a triangle-family pass finishes the job.

If the first stage reaches an approximate solution, the second stage either
refines it (adaptive radius) or, on request, certifies an approximate
minimum-norm solution.  Otherwise the second stage runs on the
normal-equation pair ``(A^T A, A^T b)``, with the product applied implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .centering import CenteringOptions, centering_solve
from .linalg import (GramProduct, check_count, check_positive, norm2, prepare_system,
                     quiet_floating_point)
from .results import (
    APPROX_SOLUTION,
    NORMAL_EQ_SOLUTION,
    NUMERICAL_FAILURE,
    SolveResult,
    Trace,
    finish,
    zero_rhs,
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
    t_max: int = CenteringOptions.t_max
    h_mode: str = CenteringOptions.h_mode
    max_iters_stage1: int = CenteringOptions.max_iters
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


def _stage_one_only(stage1: SolveResult, **changes) -> SolveResult:
    """The solve's result when the second stage cannot run: stage one's
    status, iterate and norms, with the merged trace."""
    return replace(stage1, trace=_merged_trace([("stage1", stage1)]),
                   stage_results=[stage1], **changes)


@quiet_floating_point
def hybrid_solve(a, b, options: HybridOptions | None = None) -> SolveResult:
    """Run the centering stage, then the triangle stage, warm-started.  Both
    stages apply the one operator prepared here.  A first stage that ends in
    ``numerical_failure`` ends the solve: its iterate and norms cannot seed
    the second stage.  So does a first stage that leaves the normal-equation
    pair with a nonzero ``A^T b`` whose norm underflows to 0; the result
    then carries stage one's status and a detail naming the underflow."""
    opts = options or HybridOptions()
    op, b, b_norm = prepare_system(a, b)
    if b_norm == 0.0:
        return zero_rhs(APPROX_SOLUTION, op.shape[1], Trace(HYBRID_TRACE_COLUMNS))
    check_positive(eps_cta=opts.eps_cta, eps_ta=opts.eps_ta)
    check_count(max_iters_stage1=opts.max_iters_stage1, max_iters_stage2=opts.max_iters_stage2,
                min_norm_inner_cap=opts.min_norm_inner_cap)

    stage1 = centering_solve(op, b, CenteringOptions(
        epsilon=opts.eps_cta, t_max=opts.t_max, h_mode=opts.h_mode,
        max_iters=opts.max_iters_stage1,
    ))

    if stage1.status == NUMERICAL_FAILURE:
        return _stage_one_only(stage1)
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
        g = op.rmatvec(b)
        g_norm = norm2(g)
        if g_norm == 0.0 and g.any():
            # the pair's right side is nonzero, but its norm underflows:
            # stage two's entry refuses such a right side, and its
            # tolerance, relative to that norm, would be 0
            return _stage_one_only(stage1, detail="stage two skipped: ||A^T b|| underflows to 0")
        stage2 = solve_adaptive(GramProduct(op), g, eps=opts.eps_ta * g_norm,
                                max_iters=opts.max_iters_stage2, x0=stage1.x)
        # stage two's residual is the pair's, A^T (b - A x): the same
        # quantity as stage one's normal residual
        x = stage2.x if stage2.residual_norm <= stage1.normal_residual_norm else stage1.x
        # An approximate solution of the pair is a normal-equation solution
        # of the original system.
        final_status = (NORMAL_EQ_SOLUTION if stage2.status == APPROX_SOLUTION
                        else stage2.status)

    return finish(final_status, op, b, x, stage1.iterations + stage2.iterations,
                  _merged_trace([("stage1", stage1), ("stage2", stage2)]),
                  rho=stage2.rho, rho_interval=stage2.rho_interval,
                  lower_bound=stage2.lower_bound, detail=stage2.detail,
                  stage_results=[stage1, stage2])
