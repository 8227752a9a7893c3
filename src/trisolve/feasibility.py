"""Feasibility of ``{x : Ax = b, x >= 0}`` via nonnegative-cone pivots.

The adaptive-radius membership solver carries over with two changes.  The
pivot direction ``c = A^T(b - b')`` is replaced by its nonnegative part
``c+``, so the pivot ``v = rho A c+ / ||c+||`` has a nonnegative preimage.
From the second pivot on, the search moves to the point of
``conv{b', v, v_prev}`` nearest ``b``, ``v_prev`` the previous pivot point,
instead of the point of the segment ``[b', v]``: Wolfe's corrective step,
never farther from ``b`` than the segment, which damps the zig-zag between
faces of the cone section.  Its weights lie in the simplex, so every iterate
is a convex combination of nonnegative vectors and ``x >= 0`` holds
exactly.  Such a pivot costs more than a segment step, so a run that ends
at its cap takes longer than it did with segment steps.  When
``c+ = 0`` and ``(b - b')^T b > 0``, the gap ``y = b - b'`` satisfies
``A^T y <= 0`` and ``y^T b > 0``, a Farkas certificate that no ``x >= 0``
solves ``Ax = b``; the run ends in a witness.  When ``c+ = 0`` but
``(b - b')^T b <= 0``, the apex ``x = 0`` is a strict pivot and the search
goes on.  The radius growth is capped; hitting the cap is reported as
inconclusive, never as "infeasible".
"""

from __future__ import annotations

import math
from dataclasses import replace

from .linalg import check_count, check_positive, norm2, prepare, quiet_floating_point
from .results import (
    APPROX_SOLUTION,
    FEASIBILITY_TRACE_COLUMNS,
    FEASIBLE,
    INCONCLUSIVE,
    ITERATION_CAP,
    SolveResult,
    System,
)
from .triangle import _pivot_loop


@quiet_floating_point
def default_rho_max(a, b) -> float:
    """Radius budget ``10 max(n, 1) max(1, ||b|| / sigma)`` with the RMS row
    norm standing in as the scale ``sigma``; ``a`` is a matrix or a prepared
    operator."""
    op = prepare(a, transpose=False)
    m, n = op.shape
    sigma = op.frobenius_norm() / math.sqrt(max(m, 1))
    if sigma == 0.0:
        sigma = 1.0
    return 10.0 * max(n, 1) * max(1.0, norm2(b) / sigma)


@quiet_floating_point
def nonnegative_feasibility(a, b, eps, rho_max=None, max_iters=100_000) -> SolveResult:
    """Search for nonnegative ``x`` with ``||Ax - b|| <= eps`` (absolute).

    Returns ``feasible`` with such an ``x``; ``witness`` with a Farkas
    certificate of infeasibility (``c+ = 0`` and ``(b - b')^T b > 0``);
    ``inconclusive`` when the radius or iteration budget runs out.  For
    ``b = 0`` the feasible point ``x = 0`` is returned at iteration 0.  Only
    a passed ``rho_max`` is checked, not :func:`default_rho_max`.
    """
    system = System(a, b, FEASIBILITY_TRACE_COLUMNS)
    if system.b_norm == 0.0:
        return system.zero_rhs(FEASIBLE, rho=0.0, min_x_entry=0.0)
    check_positive(eps=eps)
    check_count(max_iters=max_iters)
    if rho_max is None:
        rho_max = default_rho_max(system.op, system.b)
    else:
        check_positive(rho_max=rho_max)
    # eps_prime = -inf: the cone search has no normal-equation stop
    run = _pivot_loop(system, None, 0.0, eps, -math.inf, max_iters, rho_cap=rho_max,
                      cone=True)
    status, detail = run.status, run.detail
    if status == APPROX_SOLUTION:
        status = FEASIBLE
    elif status == ITERATION_CAP:
        status = INCONCLUSIVE
        detail = (f"radius budget {rho_max:.3e} exhausted" if detail
                  else "iteration budget exhausted")
    return replace(run, status=status, detail=detail,
                   min_x_entry=float(run.x.min()) if run.x.size else 0.0)
