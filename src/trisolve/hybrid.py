"""Two-stage pipeline for rectangular systems: a centering pass takes the
residual down cheaply, then a triangle-family pass finishes the job.

Stage two's equation is chosen once, from stage one's status: ``Ax = b``
when stage one reached an approximate solution of it, and otherwise the
normal-equation pair ``(A^T A, A^T b)``, with the product applied
implicitly.  Stage two runs on that equation at ``eps_ta`` times the norm
of its right side, warm-started from stage one's ``x``, and its own iterate
is kept only if that iterate's residual on the equation is no larger than
stage one's.
On request, stage two on ``Ax = b`` certifies an approximate minimum-norm
solution instead, at a gap target no tighter than stage one's residual,
with a bracket that starts from stage one's dual iterate ``y``
(``x = A^T y``) when that stage ended on one.
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
    """Run the centering stage, then one triangle-family call on stage two's
    equation, warm-started; both apply the one operator prepared here.  A
    first stage that ends in ``numerical_failure`` ends the solve, and so
    does a nonzero ``A^T b`` whose norm underflows to 0: the result carries
    stage one's status, through ``finish``.  On the pair, stage two's
    approximate solution is a ``normal_eq_solution`` of ``Ax = b``; its
    normal-equation solution bounds only ``||A^T A A^T(b - Ax)||`` and ends
    ``iteration_cap``."""
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
    # stage two's equation (operator, right side, stage one's residual on it)
    consistent = stage1.status == APPROX_SOLUTION
    if consistent:
        op2, rhs, before = op, b, stage1.residual_norm
    else:
        op2, rhs, before = GramProduct(op), op.rmatvec(b), stage1.normal_residual_norm
    rhs_norm = norm2(rhs)
    if rhs_norm == 0.0 and rhs.any():
        # only A^T b can be such a right side (System refuses such a b);
        # stage two's entry refuses it, and a tolerance from its norm is 0
        return system.finish(stage1.status, stage1.x, stage1.iterations,
                             detail="stage two skipped: ||A^T b|| underflows to 0",
                             stage_results=[stage1])
    eps2 = opts.eps_ta * rhs_norm
    min_norm = consistent and opts.want_min_norm
    if min_norm:
        # the gap target cannot be tighter than the residual stage one delivered
        stage2 = min_norm_solve(op2, rhs, max(eps2, 1.01 * before), stage1.x,
                                inner_cap=opts.min_norm_inner_cap,
                                max_iters=opts.max_iters_stage2, y=stage1.y)
    else:
        stage2 = solve_adaptive(op2, rhs, eps=eps2, max_iters=opts.max_iters_stage2,
                                x0=stage1.x)
    x = stage2.x if min_norm or stage2.residual_norm <= before else stage1.x

    final_status, detail = stage2.status, stage2.detail
    if not consistent:
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
