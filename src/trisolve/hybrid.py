"""Two-stage pipeline for rectangular systems: a centering pass takes the
residual down cheaply, then a triangle-family pass finishes the job.

If the first stage reaches an approximate solution, the second stage either
refines it (adaptive radius) or, on request, certifies an approximate
minimum-norm solution, whose bracket starts from the first stage's dual
iterate ``y`` (``x = A^T y``) when that stage ended on one.  Otherwise the
second stage runs on the normal-equation pair ``(A^T A, A^T b)``, with the
product applied implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .centering import CenteringOptions, centering_solve
from .linalg import GramProduct, check_count, check_positive, norm2, quiet_floating_point
from .results import (APPROX_SOLUTION, ITERATION_CAP, NORMAL_EQ_SOLUTION, NUMERICAL_FAILURE,
                      SolveResult, System)
from .triangle import min_norm_solve, solve_adaptive

HYBRID_TRACE_COLUMNS = ("stage", "residual_norm", "normal_residual_norm")


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


@quiet_floating_point
def hybrid_solve(a, b, options: HybridOptions | None = None) -> SolveResult:
    """Run the centering stage, then the triangle stage, warm-started.  Both
    stages apply the one operator prepared here.  A first stage that ends in
    ``numerical_failure`` ends the solve: its iterate and norms cannot seed
    the second stage.  So does a first stage that leaves the normal-equation
    pair with a nonzero ``A^T b`` whose norm underflows to 0; the result
    then carries stage one's status and a detail naming the underflow; both
    stops leave through ``finish``.  A stage-two normal-equation solution of
    the pair bounds only ``||A^T A A^T(b - Ax)||``: it ends ``iteration_cap``."""
    opts = options or HybridOptions()
    # both stages' rows go to the system's trace, on its clock
    system = System(a, b, HYBRID_TRACE_COLUMNS)
    op, b, b_norm, trace = system.op, system.b, system.b_norm, system.trace
    if b_norm == 0.0:
        return system.zero_rhs(APPROX_SOLUTION)
    check_positive(below=1.0, eps_cta=opts.eps_cta)
    check_positive(eps_ta=opts.eps_ta)
    check_count(max_iters_stage1=opts.max_iters_stage1, max_iters_stage2=opts.max_iters_stage2,
                min_norm_inner_cap=opts.min_norm_inner_cap)

    stage1 = centering_solve(op, b, CenteringOptions(
        epsilon=opts.eps_cta, t_max=opts.t_max, h_mode=opts.h_mode,
        max_iters=opts.max_iters_stage1,
    ))
    trace.extend(stage1.trace, stage="stage1")

    if stage1.status == NUMERICAL_FAILURE:
        return system.finish(stage1.status, stage1.x, stage1.iterations,
                             detail=stage1.detail, stage_results=[stage1])
    min_norm = stage1.status == APPROX_SOLUTION and opts.want_min_norm
    if min_norm:
        # Certify a minimum-norm bracket; the gap target cannot be tighter
        # than the residual the first stage actually delivered.
        eps2 = max(opts.eps_ta * b_norm, 1.01 * stage1.residual_norm)
        stage2 = min_norm_solve(op, b, eps2, stage1.x,
                                inner_cap=opts.min_norm_inner_cap,
                                max_iters=opts.max_iters_stage2, y=stage1.y)
        x = stage2.x
    elif stage1.status == APPROX_SOLUTION:
        stage2 = solve_adaptive(op, b, eps=opts.eps_ta * b_norm,
                                max_iters=opts.max_iters_stage2, x0=stage1.x)
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
            return system.finish(stage1.status, stage1.x, stage1.iterations,
                                 detail="stage two skipped: ||A^T b|| underflows to 0",
                                 stage_results=[stage1])
        stage2 = solve_adaptive(GramProduct(op), g, eps=opts.eps_ta * g_norm,
                                max_iters=opts.max_iters_stage2, x0=stage1.x)
        # stage two's residual is the pair's, A^T (b - A x): the same
        # quantity as stage one's normal residual
        x = stage2.x if stage2.residual_norm <= stage1.normal_residual_norm else stage1.x

    final_status, detail = stage2.status, stage2.detail
    if stage1.status != APPROX_SOLUTION:
        # the pair's approximate solution is a normal-equation solution of
        # Ax = b; its normal-equation clause claims nothing of A^T(b - Ax)
        if final_status == APPROX_SOLUTION:
            final_status = NORMAL_EQ_SOLUTION
        elif final_status == NORMAL_EQ_SOLUTION:
            final_status = ITERATION_CAP
            detail = "stage two stalled: it certified only the normal equation of (A^T A, A^T b)"
    trace.extend(stage2.trace, stage="stage2")
    return system.finish(final_status, x, stage1.iterations + stage2.iterations,
                         rho=stage2.rho, rho_interval=stage2.rho_interval, detail=detail,
                         y=stage2.y if min_norm else None, stage_results=[stage1, stage2])
