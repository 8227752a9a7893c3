"""Residual-centering solver family.

One step of order ``t`` maps the residual ``r`` to
``r - sum_{i=1..t} alpha_i H^i r`` where the coefficients minimize the new
residual norm over all choices of ``alpha``; they solve a ``t x t`` Hankel
system built from the moments ``phi_k = r^T H^k r``.  The solution iterate is
updated alongside so that ``r = b - A x`` is preserved.  The driver cycles
the order through a triangle wave ``1, 2, ..., t_max, t_max-1, ..., 1, ...``
and stops when either the residual norm or the quadratic form ``r^T H r``
falls under tolerance; the latter certifies an approximate normal-equation
solution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    H_MODE_GRAM,
    H_MODE_SYMMETRIC,
    HOperator,
    matvec,  # noqa: F401  re-exported as trisolve.centering.matvec
    norm2,
    prepare_system,
)
from .results import (
    APPROX_SOLUTION,
    CENTERING_TRACE_COLUMNS,
    ITERATION_CAP,
    NORMAL_EQ_SOLUTION,
    NUMERICAL_FAILURE,
    SolveResult,
    Trace,
)

# Singular values of the moment system below this relative cutoff are
# treated as zero; the Hankel matrices go numerically rank-deficient long
# before the iteration stops making progress.
MOMENT_RCOND = 1e-13

# Accept a step as monotone up to this relative slack.
_MONOTONE_SLACK = 1e-13


class NormalEquationReached(Exception):
    """Raised by the step when ``H r = 0``: the current iterate already
    solves the normal equation exactly."""


@dataclass
class Moments:
    """Moments ``phi_1..phi_2t`` of ``r`` under ``H``, with the Krylov
    vectors ``p_i = H^i r`` (and ``q_i = A^T p_{i-1}`` in Gram mode) that
    produced them, kept for reuse in the residual and solution updates."""

    t: int
    phi: np.ndarray
    krylov: list
    transposed: list | None


def moments(h: HOperator, r: np.ndarray, t: int) -> Moments:
    """Compute ``phi_i = r^T H^i r`` for ``i = 1..2t`` from ``t``
    applications of ``H``; the high moments come from inner products of the
    stored powers (``phi_{i+j} = p_i^T p_j``, exact for symmetric ``H``)."""
    if not 1 <= t <= h.dim:
        raise ValueError(f"order t={t} outside 1..{h.dim}")
    p = [np.asarray(r, dtype=np.float64)]
    q = [] if h.mode == H_MODE_GRAM else None
    for _ in range(t):
        hp, at_p = h.apply_with_transpose(p[-1])
        p.append(hp)
        if q is not None:
            q.append(at_p)
    phi = np.empty(2 * t)
    for k in range(1, 2 * t + 1):
        i = k // 2
        phi[k - 1] = float(np.dot(p[i], p[k - i]))
    return Moments(t, phi, p, q)


def min_norm_coefficients(mom: Moments, order: int | None = None,
                          rcond: float = MOMENT_RCOND) -> np.ndarray:
    """Minimum-norm solution of the moment system at the given order
    (default: the order of ``mom``).

    The Hankel matrix has entries ``phi_{i+j}`` and right-hand side
    ``phi_i``.  It is symmetrically equilibrated by its diagonal before the
    rank-revealing least-squares solve, which keeps the graded moment scales
    from swamping the small singular values.
    """
    t = mom.t if order is None else order
    if not 1 <= t <= mom.t:
        raise ValueError(f"order {t} outside 1..{mom.t}")
    phi = mom.phi
    i = np.arange(t)
    hankel = phi[i[:, None] + i + 1]  # phi_{(i+1)+(j+1)} with 0-based phi
    rhs = phi[:t].copy()
    scale = np.sqrt(np.abs(np.diag(hankel)))
    scale[scale == 0.0] = 1.0
    balanced = hankel / np.outer(scale, scale)
    beta, *_ = np.linalg.lstsq(balanced, rhs / scale, rcond=rcond)
    return beta / scale


@dataclass
class CenteringOptions:
    """Driver knobs.

    ``epsilon`` is relative to ``||b||``: the driver stops with an
    approximate solution once ``||r|| <= epsilon * ||b||`` and with a
    normal-equation solution once ``|r^T H r| <= (epsilon * ||b||)^2``
    (i.e., in Gram mode, once ``||A^T r|| <= epsilon * ||b||``).

    ``known_solvable`` disables the normal-equation clause: when the system
    is known consistent the residual clause alone suffices, and on matrices
    with small singular values the normal-equation certificate would
    otherwise arrive first.
    """

    epsilon: float = 1e-15
    t_max: int = 5
    max_iters: int = 100_000
    h_mode: str = H_MODE_GRAM
    enhanced: bool = False
    known_solvable: bool = False
    recheck_every: int = 250
    start: str = "zero"          # "zero" or "random"
    start_seed: int = 0
    rcond: float = MOMENT_RCOND
    # Optional plug-in: when the residual norm shrinks by less than
    # accel_ratio for accel_patience consecutive steps (slow zig-zag), blend
    # the last two iterates with the contraction-ratio weight, which on a
    # critical line lands the orbit on an eigenvector.
    accelerate: bool = False
    accel_ratio: float = 0.95
    accel_patience: int = 3

    def validated(self, m: int) -> "CenteringOptions":
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.t_max < 1:
            raise ValueError("t_max must be at least 1")
        if self.h_mode not in (H_MODE_SYMMETRIC, H_MODE_GRAM):
            raise ValueError(f"unknown h_mode {self.h_mode!r}")
        if self.start not in ("zero", "random"):
            raise ValueError(f"unknown start {self.start!r}")
        out = self
        if self.t_max > m:
            out = replace(out, t_max=m)
        return out


def _step_arrays(x, r, t, h, a, rcond, enhanced_threshold=None):
    """One order-``t`` step on raw arrays.

    Returns ``(x_new, r_new, used_order, atr_norm, probe)`` where ``probe``
    is the optional refined candidate from :func:`first_order_probe` and
    ``atr_norm`` is ``||A^T r||`` (``||A r||`` in symmetric mode) of the
    incoming residual.  If a step at order ``t`` fails to shrink the
    residual numerically, it is retried at lower orders on the same Krylov
    vectors; the best candidate wins.
    """
    mom = moments(h, r, t)
    if mom.phi[1] == 0.0:  # phi_2 = ||H r||^2, so H r = 0 exactly
        raise NormalEquationReached
    atr_norm = norm2(mom.transposed[0]) if mom.transposed is not None else norm2(mom.krylov[1])

    r_norm = norm2(r)
    best = None
    for order in range(t, 0, -1):
        alpha = min_norm_coefficients(mom, order, rcond)
        r_new = r.copy()
        for i in range(order):
            r_new -= alpha[i] * mom.krylov[i + 1]
        cand_norm = norm2(r_new)
        if best is None or cand_norm < best[0]:
            best = (cand_norm, order, alpha, r_new)
        if cand_norm <= r_norm * (1.0 + _MONOTONE_SLACK):
            best = (cand_norm, order, alpha, r_new)
            break
    _, order, alpha, r_new = best
    directions = mom.transposed if mom.transposed is not None else mom.krylov
    x_new = x.copy()
    for i in range(order):
        x_new += alpha[i] * directions[i]

    probe = None
    if enhanced_threshold is not None and t >= 2:
        probe = first_order_probe(
            x, r, h, j_max=t, threshold=enhanced_threshold,
            hr=mom.krylov[1],
            atr=mom.transposed[0] if mom.transposed is not None else None,
        )
    return x_new, r_new, order, atr_norm, probe


def first_order_probe(x, r, h: HOperator, j_max: int, threshold: float,
                      hr=None, atr=None):
    """Search the short first-order orbit of ``r`` for a refined solution.

    Follows ``y <- y - (y^T H y / y^T H^2 y) H y`` for up to ``j_max - 1``
    compositions; if some image satisfies ``|y^T H y| <= threshold``, returns
    ``(x_hat, j)`` where ``x_hat`` accumulates the per-image first-order
    solution updates.  Returns ``None`` when no image qualifies.
    """
    y = np.asarray(r, dtype=np.float64)
    x_hat = np.asarray(x, dtype=np.float64).copy()
    if hr is None:
        hr, atr = h.apply_with_transpose(y)
    for j in range(1, j_max):
        phi1 = float(np.dot(y, hr))
        phi2 = float(np.dot(hr, hr))
        if phi2 == 0.0:
            return None  # orbit terminated without triggering
        alpha = phi1 / phi2
        x_hat += alpha * (atr if h.mode == H_MODE_GRAM else y)
        y = y - alpha * hr
        hr, atr = h.apply_with_transpose(y)
        if abs(float(np.dot(y, hr))) <= threshold:
            return x_hat, j
    return None


def _order_schedule(t_max: int):
    if t_max == 1:
        while True:
            yield 1
    cycle = list(range(1, t_max + 1)) + list(range(t_max - 1, 1, -1))
    while True:
        yield from cycle


def centering_solve(a, b, options: CenteringOptions | None = None) -> SolveResult:
    """Solve ``Ax = b`` (or its normal equation) by cycled centering steps."""
    opts = options or CenteringOptions()
    # symmetric mode applies A^T once, at the end: no stored transpose
    op, b = prepare_system(a, b, transpose=opts.h_mode == H_MODE_GRAM)
    m, n = op.shape
    opts = opts.validated(m)

    trace = Trace(CENTERING_TRACE_COLUMNS)
    b_norm = norm2(b)
    if b_norm == 0.0:
        x = np.zeros(n)
        return SolveResult(APPROX_SOLUTION, x, 0.0, 0.0, 0, trace)

    h = HOperator(op, opts.h_mode)
    if opts.start == "random":
        x = np.random.default_rng(opts.start_seed).standard_normal(n)
    else:
        x = np.zeros(n)
    r = b - op.matvec(x) if opts.start != "zero" else b.copy()

    eps_abs = opts.epsilon * b_norm
    quad_threshold = eps_abs * eps_abs
    drift_budget = 1e-10
    a_fro = op.frobenius_norm()
    schedule = _order_schedule(opts.t_max)
    t0 = time.perf_counter_ns()
    status = ITERATION_CAP
    detail = ""
    iterations = 0
    slow_steps = 0

    while iterations < opts.max_iters:
        r_norm = norm2(r)
        if not np.isfinite(r_norm):
            status, detail = NUMERICAL_FAILURE, "non-finite residual"
            break
        if r_norm <= eps_abs:
            status = APPROX_SOLUTION
            break
        t = next(schedule)
        try:
            enhanced = opts.enhanced and not opts.known_solvable
            x_new, r_new, _, atr_norm, probe = _step_arrays(
                x, r, t, h, op, opts.rcond,
                enhanced_threshold=quad_threshold if enhanced else None,
            )
        except NormalEquationReached:
            status = NORMAL_EQ_SOLUTION
            break
        except np.linalg.LinAlgError as exc:
            status, detail = NUMERICAL_FAILURE, f"moment solve failed: {exc}"
            break
        trace.append(iterations, t, r_norm, atr_norm, time.perf_counter_ns() - t0)
        if not opts.known_solvable and atr_norm * atr_norm <= quad_threshold:
            # quadratic-form clause: r^T H r under tolerance (checked through
            # ||A^T r|| in Gram mode, ||A r|| in symmetric mode)
            status = NORMAL_EQ_SOLUTION
            detail = f"certified ||A^T A x - A^T b|| <= {eps_abs:.3e}"
            break
        if opts.accelerate:
            ratio = norm2(r_new) / r_norm if r_norm > 0 else 0.0
            slow_steps = slow_steps + 1 if ratio > opts.accel_ratio else 0
            if slow_steps >= opts.accel_patience:
                # contraction-ratio blend of the pre- and post-step iterates
                w = ratio / (1.0 + ratio)
                x_new = w * x + (1.0 - w) * x_new
                r_new = w * r + (1.0 - w) * r_new
                slow_steps = 0
        x, r = x_new, r_new
        iterations += 1
        if probe is not None:
            x_hat, _ = probe
            stepped = norm2(op.rmatvec(b - op.matvec(x)))
            refined = norm2(op.rmatvec(b - op.matvec(x_hat)))
            if refined < stepped:
                x = x_hat
                r = b - op.matvec(x)
            status = NORMAL_EQ_SOLUTION
            break
        if opts.recheck_every and iterations % opts.recheck_every == 0:
            fresh = b - op.matvec(x)
            drift = norm2(fresh - r)
            scale = b_norm + a_fro * norm2(x)
            if drift > drift_budget * scale:
                status, detail = NUMERICAL_FAILURE, "residual drift exceeded budget"
                r = fresh
                break
            r = fresh

    # Honest reporting: final quality measured from the returned iterate.
    final_r = b - op.matvec(x)
    res_norm = norm2(final_r)
    nres_norm = norm2(op.rmatvec(final_r))
    return SolveResult(status, x, res_norm, nres_norm, iterations, trace, detail=detail)
