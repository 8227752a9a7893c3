"""Ellipsoid-membership solvers.

The search region is ``E_rho = {Ax : ||x|| <= rho}``.  Each iteration holds a
point ``b' = Ax'`` inside it and asks whether ``b`` can be approached: the
direction ``c = A^T(b - b')`` yields the extreme point
``v = rho * A c / ||c||`` of ``E_rho``, and the inequality
``rho ||c|| >= (b - b')^T b`` decides whether moving toward ``v`` makes
progress (a *pivot*) or whether ``b'`` certifies ``b`` outside the ellipsoid
(a *witness*, carrying the lower bound ``(b - b')^T b / ||c||`` on the
minimum-norm solution).  One loop, :func:`_pivot_loop`, runs this iteration
for every driver: a fixed-radius membership test, an adaptive-radius solver
that grows ``rho`` past ``||x*||``, a bisection on ``rho`` that certifies an
approximate minimum-norm solution, and the nonnegative-cone search of
:mod:`trisolve.feasibility`.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from .linalg import norm2, prepare, prepare_system
from .results import (
    APPROX_SOLUTION,
    ITERATION_CAP,
    MIN_NORM_SOLUTION,
    NORMAL_EQ_SOLUTION,
    NUMERICAL_FAILURE,
    TRIANGLE_TRACE_COLUMNS,
    SolveResult,
    Trace,
    WITNESS,
)

# Re-validate b' = A x' this often; convex-combination updates drift slowly.
_REVALIDATE_EVERY = 512

# The min-norm bisection runs its membership tests at a residual tolerance
# tighter than the bracket target: any point with ||Ax - b|| <= delta can
# undershoot ||x*|| by about ||pinv(A)|| * delta, and this keeps that slack
# small against the bracket width.
_INNER_EPS_FACTOR = 0.25


def pivot_point(a, c, rho):
    """Maximizer of ``c^T x`` over ``E_rho`` plus its preimage:
    ``v = rho A c / ||c||`` attained at ``x = rho c / ||c||``.  ``a`` is a
    matrix or a prepared operator."""
    c_norm = norm2(c)
    if c_norm == 0.0:
        raise ValueError("pivot direction is zero; caller must branch to the witness case")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    preimage = (rho / c_norm) * np.asarray(c, dtype=np.float64)
    return prepare(a, transpose=False).matvec(preimage), preimage


def move_to_pivot(b_prime, x_prime, v, preimage, b):
    """Advance to the point of segment ``[b', v]`` nearest to ``b``.

    Returns ``(b'', x'', alpha)`` with the step ``alpha`` clamped to [0, 1]
    so the new iterate stays a convex combination inside the ellipsoid.
    """
    d = np.asarray(v) - np.asarray(b_prime)
    denom = float(np.dot(d, d))
    if denom == 0.0:
        raise ValueError("degenerate pivot: v coincides with the iterate")
    alpha = float(np.dot(np.asarray(b) - b_prime, d)) / denom
    alpha = min(1.0, max(0.0, alpha))
    return b_prime + alpha * d, (1.0 - alpha) * x_prime + alpha * preimage, alpha


def _check_tolerances(**tolerances) -> None:
    for name, value in tolerances.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _result(status, op, b, x, iterations, trace, **extra) -> SolveResult:
    final = b - op.matvec(x)
    return SolveResult(
        status, x, norm2(final), norm2(op.rmatvec(final)),
        iterations, trace, **extra,
    )


class _Run(NamedTuple):
    status: str
    iterations: int
    x: np.ndarray
    b_prime: np.ndarray
    rho: float
    bound: float | None   # certified lower bound on ||x*|| of a witness
    detail: str


def _pivot_loop(op, b, x0, rho, eps, eps_prime, max_iters, trace, t0, rho_cap=None,
                cone=False, halvings=0, offset=0) -> _Run:
    """The Triangle Algorithm iteration shared by every driver.

    Each step takes the gap ``b - b'`` and the direction ``c = A^T(b - b')``,
    or ``c+ = max(c, 0)`` when ``cone``, and pivots toward
    ``rho A c / ||c||`` when ``rho ||c|| >= (b - b')^T b``.  When that test
    fails, a fixed radius (``rho_cap`` None) ends in a witness, and a growing
    radius becomes ``max(2 rho, (b - b')^T b / ||c||)`` and stops once it
    passes ``rho_cap``.  In the cone, ``c+ = 0`` certifies infeasibility only
    when ``(b - b')^T b > 0``; otherwise the apex ``x = 0`` is a strict pivot.
    ``halvings`` > 0 lets a normal-equation stop instead halve ``eps_prime``
    and go on from the current iterate, at most that many times.
    """
    m, n = op.shape
    # a fixed-radius run must start inside its ball
    if x0 is None or (rho_cap is None and not norm2(x0) <= rho * (1.0 + 1e-9)):
        x, b_prime = np.zeros(n), np.zeros(m)
    else:
        x = np.asarray(x0, dtype=np.float64).copy()
        b_prime = op.matvec(x)
    bound = None
    iterations = 0
    since_revalidate = 0
    while iterations < max_iters:
        gap = b - b_prime
        gap_norm = norm2(gap)
        if not math.isfinite(gap_norm):
            return _Run(NUMERICAL_FAILURE, iterations, x, b_prime, rho, None,
                        "non-finite iterate")
        if gap_norm <= eps:
            return _Run(APPROX_SOLUTION, iterations, x, b_prime, rho, None, "")
        c = op.rmatvec(gap)
        c_norm = norm2(c)
        if not math.isfinite(c_norm):
            return _Run(NUMERICAL_FAILURE, iterations, x, b_prime, rho, None,
                        "non-finite pivot direction")
        if halvings > 0 and 0.0 < c_norm <= eps_prime:
            halvings -= 1
            eps_prime *= 0.5
            continue
        if c_norm <= eps_prime:
            return _Run(NORMAL_EQ_SOLUTION, iterations, x, b_prime, rho, None,
                        "pivot direction vanished" if c_norm == 0.0
                        else f"certified ||A^T(b - Ax)|| <= {eps_prime:.3e}")
        d = np.maximum(c, 0.0) if cone else c
        d_norm = norm2(d) if cone else c_norm
        gap_dot_b = float(np.dot(gap, b))
        wall = time.perf_counter_ns() - t0
        stop = None
        if d_norm == 0.0 and gap_dot_b > 0.0:
            # Farkas: y = b - b' has A^T y <= 0 and y^T b > 0
            event, stop = "witness", WITNESS
            detail = "no ascent direction in the nonnegative cone section"
            bound = gap_dot_b / c_norm if c_norm > 0.0 else math.inf
        elif d_norm == 0.0:
            b_prime, x, _ = move_to_pivot(b_prime, x, 0.0, 0.0, b)
            event = "pivot"
        elif rho > 0.0 and rho * d_norm >= gap_dot_b:
            v, preimage = pivot_point(op, d, rho)
            b_prime, x, _ = move_to_pivot(b_prime, x, v, preimage, b)
            event = "pivot"
        elif rho_cap is None:
            event, stop, detail = "witness", WITNESS, ""
            bound = gap_dot_b / c_norm
        else:
            rho = max(2.0 * rho, gap_dot_b / d_norm)
            event = "expand"
            if rho > rho_cap:
                stop, detail = ITERATION_CAP, f"radius exceeded cap {rho_cap:.3e}"
        if cone:
            x_min = float(x.min()) if n else 0.0
            if x_min < -1e-12:
                # convex combinations of nonnegative vectors cannot go
                # negative; a violation means the state is corrupt
                return _Run(NUMERICAL_FAILURE, iterations, x, b_prime, rho, None,
                            "iterate left the nonnegative cone")
            trace.append(offset + iterations, rho, gap_norm, c_norm, event, x_min, wall)
        else:
            trace.append(offset + iterations, rho, gap_norm, c_norm, event, wall)
        iterations += 1
        if stop is not None:
            return _Run(stop, iterations, x, b_prime, rho, bound, detail)
        if event == "pivot":
            since_revalidate += 1
            if since_revalidate >= _REVALIDATE_EVERY:
                b_prime = op.matvec(x)
                since_revalidate = 0
    return _Run(ITERATION_CAP, iterations, x, b_prime, rho, None, "")


def solve_in_ball(a, b, rho, eps, eps_prime=None, max_iters=100_000,
                  x0=None) -> SolveResult:
    """Membership test at fixed radius: an approximate solution with
    ``||x|| <= rho``, an approximate normal-equation solution, or a witness
    that ``b`` lies outside ``E_rho``.  Tolerances are absolute.  A warm
    start ``x0`` is used only when it already lies inside the ball."""
    op, b = prepare_system(a, b)
    if norm2(b) == 0.0:
        raise ValueError("b must be nonzero")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    eps_prime = eps if eps_prime is None else eps_prime
    _check_tolerances(eps=eps, eps_prime=eps_prime)
    trace = Trace(TRIANGLE_TRACE_COLUMNS)
    run = _pivot_loop(op, b, x0, rho, eps, eps_prime, max_iters, trace, time.perf_counter_ns())
    return _result(run.status, op, b, run.x, run.iterations, trace,
                   rho=rho, b_prime=run.b_prime, lower_bound=run.bound)


def solve_adaptive(a, b, eps, eps_prime=None, rho_cap=None, max_iters=100_000,
                   x0=None, restart_halvings: int = 0) -> SolveResult:
    """Solve ``Ax = b`` or its normal equation by growing the search radius.

    Starts from ``rho = 0`` (or the norm of the warm start ``x0``); whenever
    the strict-pivot test fails, the radius jumps to
    ``max(2 rho, (b - b')^T b / ||c||)``, which eventually clears the norm of
    the minimum-norm solution.  ``c = 0`` certifies an exact normal-equation
    solution immediately.  Tolerances are absolute.

    ``restart_halvings`` > 0 enables the restart heuristic: when the run
    ends through the normal-equation clause while the residual target is
    still open, ``eps_prime`` is halved and the solve resumes from the
    current iterate, at most that many times.
    """
    op, b = prepare_system(a, b)
    if norm2(b) == 0.0:
        return SolveResult(APPROX_SOLUTION, np.zeros(op.shape[1]), 0.0, 0.0, 0,
                           Trace(TRIANGLE_TRACE_COLUMNS), rho=0.0)
    eps_prime = eps if eps_prime is None else eps_prime
    _check_tolerances(eps=eps, eps_prime=eps_prime)
    if rho_cap is None:
        rho_cap = 4.0 * norm2(b) ** 2 / eps_prime
    rho = 0.0 if x0 is None else norm2(np.asarray(x0, dtype=np.float64))
    trace = Trace(TRIANGLE_TRACE_COLUMNS)
    run = _pivot_loop(op, b, x0, rho, eps, eps_prime, max_iters, trace, time.perf_counter_ns(),
                      rho_cap=rho_cap, halvings=max(0, restart_halvings))
    return _result(run.status, op, b, run.x, run.iterations, trace,
                   rho=run.rho, detail=run.detail)


def min_norm_solve(a, b, eps, x_eps, inner_cap=250_000, max_iters=4_000_000) -> SolveResult:
    """Refine an approximate solution ``x_eps`` into an approximate
    minimum-norm solution by bisecting on the ellipsoid radius.

    Maintains a bracket ``rho_lo <= ||x*|| <= rho_hi``: a successful
    fixed-radius test tightens ``rho_hi``, a witness raises ``rho_lo``
    through its certified lower bound.  Stops once
    ``rho_hi - rho_lo <= eps``; the returned result carries the bracket in
    ``rho_interval``.  Each test warm-starts from the most recent iterate
    that still fits inside the new ball.  A vanishing pivot direction ends
    the search with an exact normal-equation solution instead.  Non-finite
    ``A x_eps`` (from NaN or Inf in ``A`` or ``x_eps``) is a numerical
    failure at iteration 0.
    """
    op, b = prepare_system(a, b)
    if norm2(b) == 0.0:
        raise ValueError("b must be nonzero")
    _check_tolerances(eps=eps)
    x_eps = np.asarray(x_eps, dtype=np.float64)
    trace = Trace(TRIANGLE_TRACE_COLUMNS)
    start_gap = norm2(b - op.matvec(x_eps))
    if not math.isfinite(start_gap):
        return _result(NUMERICAL_FAILURE, op, b, x_eps, 0, trace,
                       detail="non-finite start residual")
    if start_gap > eps * (1.0 + 1e-9):
        raise ValueError(
            f"x_eps is not an eps-approximate solution: ||Ax-b|| = {start_gap:.3e} > {eps:.3e}"
        )
    # Floating-point floor standing in for an exact "||c|| > 0" guard.
    zero_floor = 1e-14 * op.frobenius_norm() * norm2(b)

    rho_hi = norm2(x_eps)
    rho_lo = 0.0
    best_x = x_eps.copy()
    warm = None
    t0 = time.perf_counter_ns()
    iterations = 0
    status = MIN_NORM_SOLUTION
    detail = ""

    outer_budget = max(8, int(math.ceil(math.log2(max(rho_hi / eps, 2.0)))) + 8)
    for _ in range(outer_budget):
        if rho_hi - rho_lo <= eps or iterations >= max_iters:
            break
        rho = 0.5 * (rho_hi + rho_lo)
        if rho <= 0.0:
            break
        run = _pivot_loop(op, b, warm, rho, _INNER_EPS_FACTOR * eps, zero_floor,
                          min(inner_cap, max_iters - iterations), trace, t0, offset=iterations)
        iterations += run.iterations
        warm = run.x
        wall = time.perf_counter_ns() - t0
        if run.status == APPROX_SOLUTION:
            best_x = run.x
            rho_hi = min(rho, norm2(run.x))
            trace.append(iterations, rho_hi, norm2(b - run.b_prime), 0.0, "shrink", wall)
        elif run.status == WITNESS:
            # Clamping to rho_hi keeps the bracket ordered; a smaller lower
            # bound is weaker but stays certified (no exact solution lies
            # strictly inside any radius below the witness bound).
            rho_lo = min(max(rho_lo, run.bound), rho_hi)
            trace.append(iterations, rho_lo, norm2(b - run.b_prime), 0.0, "expand", wall)
        elif run.status == NORMAL_EQ_SOLUTION:
            # the STOP branch: c = 0 within the floating floor
            return _result(NORMAL_EQ_SOLUTION, op, b, run.x, iterations, trace,
                           rho=rho, rho_interval=(rho_lo, rho_hi),
                           detail="pivot direction vanished during bisection")
        else:
            status = run.status
            detail = (run.detail if status == NUMERICAL_FAILURE
                      else "inner membership test exhausted its budget")
            break

    if status == MIN_NORM_SOLUTION and rho_hi - rho_lo > eps:
        status, detail = ITERATION_CAP, "bisection budget exhausted"
    return _result(status, op, b, best_x, iterations, trace,
                   rho=rho_hi, rho_interval=(rho_lo, rho_hi), detail=detail)
