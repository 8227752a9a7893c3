"""Feasibility of ``{x : Ax = b, x >= 0}`` via nonnegative-cone pivots.

The adaptive-radius membership solver carries over with one change: the
pivot direction ``c = A^T(b - b')`` is replaced by its nonnegative part
``c+``, so the pivot ``rho A c+ / ||c+||`` has a nonnegative preimage and
every iterate stays a convex combination of nonnegative vectors.  When
``c+ = 0`` and ``(b - b')^T b > 0``, the gap ``y = b - b'`` satisfies
``A^T y <= 0`` and ``y^T b > 0``, a Farkas certificate that no ``x >= 0``
solves ``Ax = b``; the run ends in a witness.  When ``c+ = 0`` but
``(b - b')^T b <= 0``, the apex ``x = 0`` is a strict pivot and the search
goes on.  The radius growth is capped; hitting the cap is reported as
inconclusive, never as "infeasible".
"""

from __future__ import annotations

import math
import time

import numpy as np

from .linalg import norm2, prepare, prepare_system
from .results import (
    APPROX_SOLUTION,
    FEASIBILITY_TRACE_COLUMNS,
    FEASIBLE,
    INCONCLUSIVE,
    ITERATION_CAP,
    SolveResult,
    Trace,
)
from .triangle import _check_tolerances, _pivot_loop, _result


def default_rho_max(a, b) -> float:
    """Radius budget ``10 max(n, 1) max(1, ||b|| / sigma)`` with the RMS row
    norm standing in as the scale ``sigma``; ``a`` is a matrix or a prepared
    operator."""
    op = prepare(a, transpose=False)
    m, n = op.shape
    sigma = op.frobenius_norm() / math.sqrt(m)
    if sigma == 0.0:
        sigma = 1.0
    return 10.0 * max(n, 1) * max(1.0, norm2(b) / sigma)


def nonnegative_feasibility(a, b, eps, rho_max=None, max_iters=100_000) -> SolveResult:
    """Search for nonnegative ``x`` with ``||Ax - b|| <= eps`` (absolute).

    Returns ``feasible`` with such an ``x``; ``witness`` with a Farkas
    certificate of infeasibility (``c+ = 0`` and ``(b - b')^T b > 0``);
    ``inconclusive`` when the radius or iteration budget runs out.
    """
    op, b = prepare_system(a, b)
    if norm2(b) == 0.0:
        raise ValueError("b must be nonzero")
    _check_tolerances(eps=eps)
    if rho_max is None:
        rho_max = default_rho_max(op, b)
    if rho_max <= 0.0:
        raise ValueError("rho_max must be positive")
    trace = Trace(FEASIBILITY_TRACE_COLUMNS)
    # eps_prime = -inf: the cone search has no normal-equation stop
    run = _pivot_loop(op, b, None, 0.0, eps, -math.inf, max_iters, trace,
                      time.perf_counter_ns(), rho_cap=rho_max, cone=True)
    status, detail = run.status, run.detail
    if status == APPROX_SOLUTION:
        status = FEASIBLE
    elif status == ITERATION_CAP:
        status = INCONCLUSIVE
        detail = (f"radius budget {rho_max:.3e} exhausted" if detail
                  else "iteration budget exhausted")
    return _result(status, op, b, run.x, run.iterations, trace, rho=run.rho,
                   lower_bound=run.bound, min_x_entry=float(run.x.min()) if run.x.size else 0.0,
                   detail=detail)
