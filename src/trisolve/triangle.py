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
:mod:`trisolve.feasibility`, whose pivots move over a triangle rather than a
segment.  Pivots carry ``b'`` by convex combinations;
a success is claimed only on ``b' = Ax'`` measured from the returned ``x'``.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import as_vector, check_count, check_positive, norm2, quiet_floating_point
from .results import (
    APPROX_SOLUTION,
    FEASIBLE,
    INCONCLUSIVE,
    ITERATION_CAP,
    MIN_NORM_SOLUTION,
    NORMAL_EQ_SOLUTION,
    NUMERICAL_FAILURE,
    TRIANGLE_TRACE_COLUMNS,
    SolveResult,
    System,
    WITNESS,
)

# Measure b' = A x' again this often; convex-combination updates drift slowly.
_REVALIDATE_EVERY = 512

# A ball run's first expand from rho = 0 sets rho to this multiple of the
# certified bound (b - b')^T b / ||c||, so that b starts well inside E_rho:
# at the bound itself b sits on the boundary or just outside it, where strict
# pivots crawl and the path depends on rounding.  4 is the largest factor
# whose first radius, 4 ||b||^2 / ||A^T b||, cannot pass solve_adaptive's cap
# 4 ||b||^2 / eps_prime, since the first expand happens only once
# ||A^T b|| > eps_prime; within a few ulps of eps_prime the two sides round
# differently, so the first radius is clipped at the cap.
_FIRST_RADIUS_FACTOR = 4.0

# The min-norm bisection runs its membership tests at a residual tolerance
# tighter than the bracket target: any point with ||Ax - b|| <= delta can
# undershoot ||x*|| by about ||pinv(A)|| * delta, and this keeps that slack
# small against the bracket width.
_INNER_EPS_FACTOR = 0.25

# The smallest normal float64.  A pivot's step rho / ||d|| below it loses
# bits, or underflows to 0 (a tiny first radius against a huge ||A^T b||),
# so the pivot normalizes d first instead.
_TINY = float(np.finfo(np.float64).tiny)


def move_to_pivot(b_prime, x_prime, v, preimage, gap, prev=None):
    """Advance to the point of segment ``[b', v]``, or of the triangle
    ``conv{b', v, v_prev}`` when ``prev = (v_prev, preimage_prev)``, nearest
    to ``b``.

    ``b_prime`` is a float64 array and ``gap`` is ``b - b'``; ``v`` and
    ``preimage`` are ``0.0`` for a move to the cone's apex.  Returns
    ``(b'', x'', alpha)`` with ``alpha`` the weight on ``v``.  The weights on
    ``x'``, ``v`` and ``v_prev`` lie in the simplex, so the new iterate stays
    a convex combination inside the ellipsoid, and nonnegative when its
    preimages are.

    The triangle point is Wolfe's corrective step: with ``d1 = v - b'`` and
    ``d2 = v_prev - b'`` it minimizes ``||gap - s d1 - u d2||`` over
    ``s, u >= 0``, ``s + u <= 1``, by the 2x2 normal equations when their
    solution lies inside and by the best of the three edges otherwise.  The
    segment ``u = 0`` is one of those edges, so up to rounding the triangle
    never ends farther from ``b`` than the segment.
    """
    d = v - b_prime
    a11 = float(d.dot(d))
    if a11 == 0.0:
        raise ValueError("degenerate pivot: v coincides with the iterate")
    g1 = float(gap.dot(d))
    s = min(1.0, max(0.0, g1 / a11))
    if prev is None:
        b_new = s * d
        b_new += b_prime
        x_new = (1.0 - s) * x_prime
        x_new += s * preimage
        return b_new, x_new, s
    v_prev, preimage_prev = prev
    d2 = v_prev - b_prime
    a12, a22, g2 = float(d.dot(d2)), float(d2.dot(d2)), float(gap.dot(d2))
    det = a11 * a22 - a12 * a12
    s_in = u_in = -1.0   # nearly parallel d1, d2 leave only the edges
    if det > 1e-12 * a11 * a22:
        s_in = (g1 * a22 - g2 * a12) / det
        u_in = (g2 * a11 - g1 * a12) / det
    if s_in >= 0.0 and u_in >= 0.0 and s_in + u_in <= 1.0:
        s, u = s_in, u_in
    else:
        # ||gap - s d1 - u d2||^2 - ||gap||^2 at each edge's nearest point,
        # starting from the segment's
        def excess(s, u):
            return s * (s * a11 - 2.0 * g1) + u * (u * a22 - 2.0 * g2) + 2.0 * s * u * a12
        u, best = 0.0, excess(s, 0.0)
        if a22 > 0.0:
            t = min(1.0, max(0.0, g2 / a22))
            if excess(0.0, t) < best:
                s, u, best = 0.0, t, excess(0.0, t)
        e = a11 - 2.0 * a12 + a22   # ||v - v_prev||^2
        if e > 0.0:
            t = min(1.0, max(0.0, (g1 - g2 - a12 + a22) / e))
            if excess(t, 1.0 - t) < best:
                s, u = t, 1.0 - t
    b_new = s * d
    b_new += b_prime
    b_new += u * d2
    x_new = max(0.0, 1.0 - s - u) * x_prime
    x_new += s * preimage
    x_new += u * preimage_prev
    return b_new, x_new, s


def _pivot_loop(system, x0, rho, eps, eps_prime, max_iters, rho_cap=None,
                cone=False) -> SolveResult:
    """The Triangle Algorithm iteration shared by every driver.

    Each step takes the gap ``b - b'`` and the direction ``c = A^T(b - b')``,
    or ``c+ = max(c, 0)`` when ``cone``, and pivots toward
    ``rho A c / ||c||`` when ``rho >= (b - b')^T b / ||c||``.  When that test
    fails, a fixed radius (``rho_cap`` None) ends in a witness, and a growing
    radius becomes ``max(2 rho, (b - b')^T b / ||c||)``, the quotient the
    test compares with, so the next test at the same iterate passes; it
    stops once it passes ``rho_cap``.  A ball run's first expand from
    ``rho = 0`` goes to ``_FIRST_RADIUS_FACTOR`` times that quotient instead,
    clipped at ``rho_cap``, so that ``b`` starts well inside ``E_rho``; a
    cone run keeps the quotient, since overshooting there cost pivots (240
    to 365 at 4x on a feasible 300 x 500 sparse LP).  In the cone,
    ``c+ = 0`` certifies infeasibility only when ``(b - b')^T b > 0``;
    otherwise the apex ``x = 0`` is a strict pivot.
    After its first pivot a cone run moves to the point of
    ``conv{b', v, v_prev}`` nearest ``b``, ``v_prev`` its last pivot point
    (Wolfe's corrective step; the last pivot outlives expands, since
    ``E_rho`` only grows, and the revalidation of ``b'``).  The apex pivot
    and every pivot of a run outside the cone take the segment step: a ball
    run would reach its approximate solution in fewer pivots of higher cost,
    and a fixed-radius run its witness later.
    The run starts from the float64 ``x0``, or the origin when it is None; a
    fixed-radius caller passes an ``x0`` inside the ball.  A stopping clause
    that passes on a carried ``b'`` is tested again on ``b' = op.matvec(x)``,
    which counts no iteration, so a success holds of the returned ``x``.
    The budget is checked after ``y = b - b'`` and ``d`` (``c``, or ``c+``)
    are measured and the step chosen, so every exit ends on its own
    iterate's and a witness at the budget stands, with no row or counted
    iteration.  The run returns through ``system.finish``, unedited by any
    caller, with the final ``rho``, ``detail`` and ``lower_bound``, and after
    a witness or a budget exit the ``y`` it comes from: ``y^T b / ||c||`` for
    a witness (``inf`` at ``c = 0``), ``(y^T b - eps ||y||) / ||d||`` for a
    budget exit when both parts are positive.  A cone run ends ``feasible``
    or ``inconclusive``.  Each iteration adds a row to the system's trace,
    which the runs of one solve share.
    """
    op, b, trace = system.op, system.b, system.trace
    m, n = op.shape
    x = np.zeros(n) if x0 is None else x0.copy()
    b_prime = np.zeros(m) if x0 is None else op.matvec(x)
    solved, capped = (FEASIBLE, INCONCLUSIVE) if cone else (APPROX_SOLUTION, ITERATION_CAP)
    detail, bound = "", None
    prev = None
    iterations = since_revalidate = 0   # pivots since b' was measured from x
    while True:
        if since_revalidate >= _REVALIDATE_EVERY:
            b_prime, since_revalidate = op.matvec(x), 0
        gap = b - b_prime
        gap_norm = norm2(gap)
        if not math.isfinite(gap_norm):
            status, detail = NUMERICAL_FAILURE, "non-finite iterate"
            break
        if gap_norm <= eps:
            if since_revalidate:
                since_revalidate = _REVALIDATE_EVERY
                continue
            status = solved
            break
        c = op.rmatvec(gap)
        c_norm = norm2(c)
        if not math.isfinite(c_norm):
            status, detail = NUMERICAL_FAILURE, "non-finite pivot direction"
            break
        if c_norm <= eps_prime:
            if since_revalidate:
                since_revalidate = _REVALIDATE_EVERY
                continue
            status = NORMAL_EQ_SOLUTION
            detail = ("pivot direction vanished" if c_norm == 0.0
                      else f"certified ||A^T(b - Ax)|| <= {eps_prime:.3e}")
            break
        d = np.maximum(c, 0.0) if cone else c
        d_norm = norm2(d) if cone else c_norm
        gap_dot_b = float(gap.dot(b))
        if d_norm == 0.0 and gap_dot_b > 0.0:
            # Farkas: y = b - b' has A^T y <= 0 and y^T b > 0
            event, detail = "witness", "no ascent direction in the nonnegative cone section"
        elif d_norm == 0.0 or rho > 0.0 and rho >= gap_dot_b / d_norm:
            event = "pivot"
        else:
            event = "witness" if rho_cap is None else "expand"
        stop = WITNESS if event == "witness" else None
        if iterations >= max_iters:
            # a witness in hand at the last allowed measurement stands
            status, detail = (stop, detail) if stop else (capped, "iteration budget exhausted")
            break
        if event == "pivot" and d_norm == 0.0:
            b_prime, x, _ = move_to_pivot(b_prime, x, 0.0, 0.0, gap)
        elif event == "pivot":
            # v = rho A d / ||d||, the maximizer of d^T x over E_rho; a
            # quotient rho / ||d|| that underflows would make v = 0 = b'
            scale = rho / d_norm
            preimage = scale * d if scale >= _TINY else rho * (d / d_norm)
            v = op.matvec(preimage)
            b_prime, x, _ = move_to_pivot(b_prime, x, v, preimage, gap, prev)
            if cone:
                prev = (v, preimage)
        elif event == "expand":
            needed = gap_dot_b / d_norm
            if rho == 0.0 and not cone:
                rho = min(_FIRST_RADIUS_FACTOR * needed, rho_cap)
            else:
                rho = max(2.0 * rho, needed)
            if rho > rho_cap:
                stop, detail = capped, f"radius budget {rho_cap:.3e} exhausted"
        if cone:
            x_min = float(x.min()) if n else 0.0
            if x_min < 0.0:
                # nonnegative weights on nonnegative vectors cannot give a
                # negative entry; one means the state is corrupt
                status, detail = NUMERICAL_FAILURE, "iterate left the nonnegative cone"
                break
            trace.append(rho, gap_norm, c_norm, event, x_min)
        else:
            trace.append(rho, gap_norm, c_norm, event)
        iterations += 1
        if stop is not None:
            status = stop
            break
        if event == "pivot":
            since_revalidate += 1
    if status == WITNESS:
        bound = gap_dot_b / c_norm if c_norm > 0.0 else math.inf
    elif status == capped:
        # every x with ||Ax - b|| <= eps, nonnegative in the cone, has
        # y^T b = (A^T y)^T x + y^T (b - Ax) <= ||d|| ||x|| + eps ||y||
        excess = gap_dot_b - eps * gap_norm
        if excess > 0.0 and d_norm > 0.0:
            bound = excess / d_norm
    return system.finish(status, x, iterations, rho=rho, lower_bound=bound, detail=detail,
                         y=gap if status in (WITNESS, capped) else None)


@quiet_floating_point
def solve_in_ball(a, b, rho, eps, max_iters=100_000) -> SolveResult:
    """Membership test at fixed radius from ``x = 0``: an approximate
    solution with ``||x|| <= rho``, an approximate normal-equation solution
    (``||A^T(b - Ax)|| <= eps``), or a witness that ``b`` lies outside
    ``E_rho``.  Tolerances are absolute.  ``b = 0`` is answered before any
    check: ``x = 0`` at iteration 0, with ``rho``."""
    system = System(a, b, TRIANGLE_TRACE_COLUMNS)
    if system.b_norm == 0.0:
        return system.zero_rhs(APPROX_SOLUTION, rho=rho)
    check_positive(rho=rho, eps=eps)
    check_count(max_iters=max_iters)
    return _pivot_loop(system, None, rho, eps, eps, max_iters)


@quiet_floating_point
def solve_adaptive(a, b, eps, eps_prime=None, max_iters=100_000, x0=None) -> SolveResult:
    """Solve ``Ax = b`` or its normal equation by growing the search radius.

    Starts from ``rho = 0`` (or the norm of the warm start ``x0``); whenever
    the strict-pivot test fails, the radius jumps to
    ``max(2 rho, (b - b')^T b / ||c||)``, which eventually clears the norm of
    the minimum-norm solution.  From ``rho = 0`` the first jump goes to
    ``4 ||b||^2 / ||A^T b||``, four times that certified bound: at the bound
    ``b`` lies on the boundary of ``E_rho`` or just outside it, where strict
    pivots crawl, and 4 is the largest factor that cannot pass the cap
    below, since a first jump happens only once ``||A^T b|| > eps_prime``.
    ``c = 0`` certifies an exact normal-equation solution immediately.
    Tolerances are absolute; ``eps_prime`` defaults to ``eps``.  A radius
    past ``4 ||b||^2 / eps_prime`` ends the run at the iteration cap.
    """
    system = System(a, b, TRIANGLE_TRACE_COLUMNS)
    if system.b_norm == 0.0:
        return system.zero_rhs(APPROX_SOLUTION, rho=0.0)
    eps_prime = eps if eps_prime is None else eps_prime
    check_positive(eps=eps, eps_prime=eps_prime)
    check_count(max_iters=max_iters)
    rho = 0.0
    if x0 is not None:
        x0 = as_vector("x0", x0, system.op.shape[1])
        rho = norm2(x0)
    return _pivot_loop(system, x0, rho, eps, eps_prime, max_iters,
                       rho_cap=4.0 * system.b_norm ** 2 / eps_prime)


def _dual_bound(op, b, delta, y):
    """``(y^T b - delta ||y||) / ||A^T y||``, a lower bound on ``||z||`` for
    every ``z`` with ``||Az - b|| <= delta``, or None when ``y`` gives none:
    a non-finite entry, ``||y||`` or ``||A^T y||`` 0, or a non-finite
    quotient."""
    y_norm = norm2(y)
    if not (math.isfinite(y_norm) and y_norm > 0.0):
        return None
    aty_norm = norm2(op.rmatvec(y))
    if not aty_norm > 0.0:
        return None
    bound = (float(y.dot(b)) - delta * y_norm) / aty_norm
    return bound if math.isfinite(bound) else None


@quiet_floating_point
def min_norm_solve(a, b, eps, x_eps, inner_cap=250_000, max_iters=4_000_000,
                   y=None) -> SolveResult:
    """Refine an approximate solution ``x_eps`` into an approximate
    minimum-norm solution by bisecting on the ellipsoid radius.

    Maintains a bracket ``(rho_lo, rho_hi)``.  It starts at
    ``(0, ||x_eps||)``, or, given a dual vector ``y`` of length ``m`` (such
    as the ``y`` of :func:`~trisolve.centering.centering_solve`, with
    ``x_eps = A^T y``), at ``rho_lo = min(max(0, L), ||x_eps||)`` with
    ``L = (y^T b - delta ||y||) / ||A^T y||`` and
    ``delta = ||b - A x_eps||``: since
    ``y^T b = (A^T y)^T z + y^T (b - A z)``, every ``z`` with
    ``||Az - b|| <= delta`` has ``||z|| >= L``, so ``L`` bounds ``||x*||``,
    and ``||x_LS||`` when ``b`` is slightly inconsistent, for any ``y``.
    That start adds an ``expand`` row to the trace and puts ``y`` on the
    result; a start bracket no wider than ``eps`` runs no bisection step.  A
    ``y`` with a non-finite entry, or with ``||y||`` or ``||A^T y||`` 0, is
    skipped: the result is that of ``y = None``.  A witness raises ``rho_lo``
    through its bound on every exact solution, so ``rho_lo <= ||x*||``; a
    successful fixed-radius test sets ``rho_hi`` to the norm of its
    approximate solution, the one returned, clamped to keep the bracket
    ordered, so ``rho_hi`` may lie below ``||x*||`` by about
    ``||pinv(A)|| eps``.  Stops once ``rho_hi - rho_lo <= eps``; the result
    carries the bracket in ``rho_interval`` and ``rho = rho_hi``.  Each test
    warm-starts from the most recent iterate when its norm is at most
    ``rho (1 + 1e-9)``, and from the origin otherwise.  A vanishing pivot
    direction ends the search with that run's normal-equation solution
    instead.  Non-finite ``A x_eps`` (from NaN or Inf in ``A`` or ``x_eps``)
    or an overflowing ``||x_eps||`` is a numerical failure at iteration 0.
    ``b = 0`` is answered before any check: ``x = 0`` at iteration 0, with
    ``rho = 0`` and ``rho_interval = (0, 0)``.
    """
    system = System(a, b, TRIANGLE_TRACE_COLUMNS)
    if system.b_norm == 0.0:
        return system.zero_rhs(MIN_NORM_SOLUTION, rho=0.0, rho_interval=(0.0, 0.0))
    check_positive(eps=eps)
    check_count(inner_cap=inner_cap, max_iters=max_iters)
    op, b = system.op, system.b
    x_eps = as_vector("x_eps", x_eps, op.shape[1])
    if y is not None:
        y = as_vector("y", y, op.shape[0])
    start = b - op.matvec(x_eps)
    start_gap = norm2(start)
    if not math.isfinite(start_gap):
        return system.finish(NUMERICAL_FAILURE, x_eps, 0, detail="non-finite start residual")
    rho_hi = norm2(x_eps)
    if not math.isfinite(rho_hi):
        return system.finish(NUMERICAL_FAILURE, x_eps, 0, detail="||x_eps|| overflows")
    if start_gap > eps * (1.0 + 1e-9):
        raise ValueError(
            f"x_eps is not an eps-approximate solution: ||Ax-b|| = {start_gap:.3e} > {eps:.3e}"
        )
    # Floating-point floor standing in for an exact "||c|| > 0" guard.
    zero_floor = 1e-14 * system.a_fro * system.b_norm

    rho_lo, best_x, warm, iterations = 0.0, x_eps.copy(), None, 0
    status, detail = MIN_NORM_SOLUTION, ""
    bound = None if y is None else _dual_bound(op, b, start_gap, y)
    if bound is None:
        y = None
    else:
        rho_lo = min(max(0.0, bound), rho_hi)
        system.trace.append(rho_lo, start_gap, norm2(op.rmatvec(start)), "expand")

    # log2(rho_hi / eps) bisection steps, in logs so that the ratio cannot overflow
    outer_budget = max(1, math.ceil(math.log2(max(rho_hi, eps)) - math.log2(eps))) + 8
    for _ in range(outer_budget):
        if rho_hi - rho_lo <= eps or iterations >= max_iters:
            break
        rho = 0.5 * (rho_hi + rho_lo)
        if warm is not None and not norm2(warm) <= rho * (1.0 + 1e-9):
            warm = None   # a fixed-radius run must start inside its ball
        run = _pivot_loop(system, warm, rho, _INNER_EPS_FACTOR * eps, zero_floor,
                          min(inner_cap, max_iters - iterations))
        iterations += run.iterations
        warm = run.x
        if run.status == APPROX_SOLUTION:
            best_x = run.x
            # an approximate solution may undershoot ||x*||: keep the bracket ordered
            rho_hi = max(rho_lo, min(rho, norm2(run.x)))
            system.trace.append(rho_hi, run.residual_norm, run.normal_residual_norm, "shrink")
        elif run.status == WITNESS:
            # Clamping to rho_hi keeps the bracket ordered; a smaller lower
            # bound is weaker but stays certified (no exact solution lies
            # strictly inside any radius below the witness bound).
            rho_lo = min(max(rho_lo, run.lower_bound), rho_hi)
            system.trace.append(rho_lo, run.residual_norm, run.normal_residual_norm, "expand")
        elif run.status == NORMAL_EQ_SOLUTION:
            # the STOP branch: c = 0 within the floating floor
            status, best_x = NORMAL_EQ_SOLUTION, run.x
            detail = "pivot direction vanished during bisection"
            break
        else:
            status = run.status
            detail = (run.detail if status == NUMERICAL_FAILURE
                      else "inner membership test exhausted its budget")
            break

    if status == MIN_NORM_SOLUTION and rho_hi - rho_lo > eps:
        status, detail = ITERATION_CAP, "bisection budget exhausted"
    return system.finish(status, best_x, iterations,
                         rho=rho_hi, rho_interval=(rho_lo, rho_hi), detail=detail, y=y)
