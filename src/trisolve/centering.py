"""Residual-centering solver family.

One step of order ``t`` maps the residual ``r`` to
``r - sum_{i=1..t} alpha_i H^i r`` where the coefficients minimize the new
residual norm over all choices of ``alpha``; they solve a ``t x t`` Hankel
system built from the moments ``phi_k = r^T H^k r``.  The solution iterate is
updated alongside so that ``r = b - A x`` is preserved.  The driver cycles
the order through a triangle wave ``1, 2, ..., t_max, t_max-1, ..., 1, ...``
and stops when ``||r||`` or, for an approximate normal-equation solution,
``||A^T r||`` (``||A r||`` in symmetric mode) falls under tolerance, or when
``H r = 0``.  A status is claimed only on the true residual ``b - A x`` of
the returned ``x``: a clause that passes on the recurrence residual sends the
driver to that true residual, where it is tested again.

In Gram mode on dense ``A`` with ``m <= n`` the driver forms ``G = A A^T``
once and carries ``y`` with ``x = A^T y`` (see :class:`CenteringOptions`).

The driver carries ``x`` (or ``y``) and ``r`` as one stacked vector
``s = [-x; r]``.  :func:`moments` writes a step's products into one block
laid out so that term ``i`` of the update is one slice ``z_i`` (see
:class:`Moments`), and the step is one chain
``s - alpha_1 z_1 - alpha_2 z_2 - ...``, with the bits of the two chains
on ``x`` and ``r`` it replaces.  ``x`` is read as ``0.0 - s[:-m]`` only at
the rechecks and the exit, so no ``-0.0`` reaches a result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# A private numpy module: the LAPACK ``gelsd`` gufunc that
# ``np.linalg.lstsq`` wraps.  Calling it directly skips about 10 us of
# argument checks, error-state setup and result copies per moment solve, half
# the cost of a solve at order 5, and gives numpy's bits;
# tests/test_centering.py pins them to ``np.linalg.lstsq``.
try:
    from numpy.linalg import _umath_linalg
except ImportError:  # a numpy that moved it: the fallback below
    _umath_linalg = None

from .linalg import (
    H_MODE_GRAM,
    HOperator,
    check_count,
    check_positive,
    matvec,  # noqa: F401  re-exported as trisolve.centering.matvec
    norm2,
    quiet_floating_point,
)
from .results import (
    APPROX_SOLUTION,
    CENTERING_TRACE_COLUMNS,
    ITERATION_CAP,
    NORMAL_EQ_SOLUTION,
    NUMERICAL_FAILURE,
    SolveResult,
    System,
)

# Singular values of the moment system below this relative cutoff are
# treated as zero; the Hankel matrices go numerically rank-deficient long
# before the iteration stops making progress.
MOMENT_RCOND = 1e-13

# numpy 1.x splits the kernel by shape and ``np.linalg.lstsq`` calls
# ``lstsq_m`` for a square system; newer releases merged both into ``lstsq``.
_gelsd = getattr(_umath_linalg, "lstsq", None) or getattr(_umath_linalg, "lstsq_m", None)
if _gelsd is None:
    def _gelsd(a, b, rcond, signature):
        # the same gufunc, wherever numpy keeps it, behind its checks
        return np.linalg.lstsq(a, b, rcond=rcond)

# Accept a step as monotone up to this relative slack.
_MONOTONE_SLACK = 1e-13

# Recompute r = b - A x this often and fail on drift beyond the budget.
_RECHECK_EVERY = 250


class NormalEquationReached(Exception):
    """Raised by the step when ``H r = 0``: the current iterate already
    solves the normal equation exactly."""


@dataclass
class Moments:
    """Moments ``phi_1..phi_2t`` of ``r`` under ``H``, and ``block``, the one
    holder of the products they came from, kept for the updates.

    ``block`` holds ``p_0 = r`` and the Krylov vectors ``p_i = H^i r`` in
    the order a step uses them: ``[r q_1 p_1 q_2 p_2 ...]`` when ``H`` is
    applied as ``A (A^T p)`` (``h.out_length > h.dim``), with
    ``q_i = A^T p_{i-1}`` the direction that produced ``p_i``, else
    ``[r p_1 ... p_t]``.  Term ``i`` of the update of the stacked state
    ``[-x; r]`` is then the one slice of ``block`` of the state's length
    that ends with ``p_i``: ``[q_i; p_i]``, or ``[p_{i-1}; p_i]``
    (``p_{i-1}`` moves ``x`` in symmetric mode and ``y`` with ``G`` formed)."""

    t: int
    phi: np.ndarray
    block: np.ndarray


def moments(h: HOperator, r: np.ndarray, t: int) -> Moments:
    """Compute ``phi_i = r^T H^i r`` for ``i = 1..2t`` from ``t``
    applications of ``H``, written into one zeroed block after ``r`` (see
    :class:`Moments`); the high moments come from inner products of the
    powers, read as views of the block (``phi_{i+j} = p_i^T p_j``, exact
    for symmetric ``H``).
    Raises ``FloatingPointError`` when a moment is not finite."""
    if not 1 <= t <= h.dim:
        raise ValueError(f"order t={t} outside 1..{h.dim}")
    m, size = h.dim, h.out_length
    block = np.zeros(m + t * size)
    block[:m] = r
    p = [block[:m]]
    for start in range(m, block.size, size):
        p.append(h.apply_with_transpose(p[-1], block[start:start + size])[0])
    phi = np.empty(2 * t)
    for k in range(1, 2 * t + 1):
        i = k // 2
        value = float(p[i].dot(p[k - i]))
        if not math.isfinite(value):
            # checked here so that LAPACK never sees (and reports) it
            raise FloatingPointError("non-finite moments")
        phi[k - 1] = value
    return Moments(t, phi, block)


@functools.cache
def _hankel_index(t: int) -> np.ndarray:
    """Read-only ``t x t`` array of ``i + j + 1``: ``phi[_hankel_index(t)]``
    is the order-``t`` Hankel matrix of the 0-based moments."""
    i = np.arange(t)
    index = i[:, None] + i + 1
    index.flags.writeable = False
    return index


def min_norm_coefficients(mom: Moments, order: int | None = None) -> np.ndarray:
    """Minimum-norm solution of the moment system at the given order
    (default: the order of ``mom``).

    The Hankel matrix has entries ``phi_{i+j}`` and right-hand side
    ``phi_i``.  It is symmetrically equilibrated by its diagonal before the
    rank-revealing least-squares solve, which keeps the graded moment scales
    from swamping the small singular values.  The solve is numpy's ``gelsd``
    gufunc with ``MOMENT_RCOND``, called as ``np.linalg.lstsq`` calls it, so
    the coefficients are bit for bit those of ``np.linalg.lstsq``.

    Raises ``np.linalg.LinAlgError`` when a moment it reads is not finite
    (before LAPACK sees it) or when the SVD does not converge.  Outside the
    drivers' floating-point scope numpy also reports a failed SVD as an
    invalid value, by its ``np.errstate`` settings (a warning by default).
    """
    t = mom.t if order is None else order
    if not 1 <= t <= mom.t:
        raise ValueError(f"order {t} outside 1..{mom.t}")
    phi = mom.phi
    head = phi[:2 * t].tolist()
    if not all(map(math.isfinite, head)):
        raise np.linalg.LinAlgError("non-finite moments")
    # sqrt of the Hankel diagonal phi_{2(i+1)}; a zero entry scales by one
    scale = np.array([math.sqrt(abs(p)) or 1.0 for p in head[1::2]])
    col = scale[:, None]
    balanced = phi[_hankel_index(t)] / (col * scale)
    beta = _gelsd(balanced, phi[:t, None] / col, MOMENT_RCOND, signature="ddd->ddid")[0]
    if math.isnan(beta[0, 0]):  # gelsd fills its outputs with NaN on failure
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    return beta[:, 0] / scale


@dataclass
class CenteringOptions:
    """Driver knobs.

    ``epsilon`` is relative to ``||b||``: the driver stops with an
    approximate solution once ``||r|| <= epsilon * ||b||`` and with a
    normal-equation solution once ``||A^T r|| <= epsilon * ||b||``
    (``||A r||`` in symmetric mode).

    ``t_max`` is the top of the order cycle, which never goes above the row
    count ``m``, ``max_iters`` the iteration cap, and ``h_mode`` selects
    ``H = A`` (``"a"``, symmetric ``A``) or ``H = A A^T`` (``"aat"``).
    :func:`centering_solve` checks ``epsilon``, ``t_max`` and ``max_iters``
    at entry, after the ``b = 0`` answer, and raises ``ValueError`` naming
    the first bad one.

    In Gram mode on dense ``A`` (a ``numpy.ndarray`` or array-like, not a
    caller's operator) with no more rows than columns, the driver forms
    ``G = A A^T`` once and carries ``y`` with ``x = A^T y``: ``H`` is applied
    as ``G p``, which reads ``m^2`` entries instead of ``2mn`` (one triangle
    of ``G``, ``m^2 / 2``, from ``SYMMETRIC_MIN_ROWS`` rows on), and ``A^T``
    only at the drift rechecks.  Steps on ``y`` claim nothing.  The solve
    goes on with ``x = A^T y`` and ``H`` as ``A (A^T p)`` once a clause
    passes, once ``sqrt(phi_1)`` (``||A^T r||``, free with ``G``) falls to
    the rounding of ``G``, or once ``y`` drifts beyond the recheck's budget.
    The result carries that ``y``, with ``x = op.rmatvec(y)`` bit for bit,
    when no step ran on ``x`` after the switch; otherwise, and for sparse,
    tall or caller-operator ``A`` and in symmetric mode, its ``y`` is
    ``None``.  In symmetric mode, dense ``A`` of at least that many rows that
    equals ``A^T`` to the bit is applied from one triangle as well (see
    :meth:`linalg.HOperator.form_gram`).

    ``known_solvable`` disables the normal-equation clause: when the system
    is known consistent the residual clause alone suffices, and on matrices
    with small singular values the normal-equation certificate would
    otherwise arrive first.
    """

    epsilon: float = 1e-15
    t_max: int = 5
    max_iters: int = 100_000
    h_mode: str = H_MODE_GRAM
    known_solvable: bool = False


def _stacked(x, r):
    """The state ``[-x; r]`` that a step advances as one vector."""
    return np.concatenate((np.negative(x), r))


def _step(s, t, h, r_norm):
    """One order-``t`` step on the stacked state ``s = [-x; r]``, whose last
    ``h.dim`` entries are ``r``, of norm ``r_norm``; with ``h.gram`` formed,
    ``x`` is ``y`` of ``x = A^T y``.

    Returns ``(s_new, used_order, atr_norm, new_norm)`` where ``new_norm``
    is ``||r_new||`` and ``atr_norm`` is ``||A^T r||`` (``||A r||`` in
    symmetric mode) of the incoming residual; with ``h.gram`` formed it is
    ``sqrt(phi_1)``, whose ``phi_1`` carries rounding of size
    ``u ||A||^2 ||r||^2``, else ``||q_1||`` off the block or ``sqrt(phi_2)``.

    The update is one chain ``s - alpha_1 z_1 - alpha_2 z_2 - ...`` over the
    terms ``z_i`` of the moment block (see :class:`Moments`): it starts from
    the first term, with no copy of ``s``, and subtracts the others one by
    one, each scaled into one scratch vector.  It has the bits of
    ``r - alpha_i p_i`` and ``x + alpha_i d_i`` applied term by term, since
    ``fl(-x - fl(alpha d)) = -fl(x + fl(alpha d))``; only the sign of a zero
    of ``x`` may differ, and ``0.0 - s`` reads every zero as ``+0.0``.
    If a step at order ``t`` fails to shrink the residual numerically, it is
    retried at lower orders on the same Krylov vectors; the best candidate
    wins.
    """
    k = s.size - h.dim
    mom = moments(h, s[k:], t)
    if mom.phi[1] == 0.0:  # phi_2 = ||H r||^2, so H r = 0 exactly
        raise NormalEquationReached
    if h.gram is not None:
        atr_norm = math.sqrt(abs(mom.phi[0]))  # phi_1 = r^T A A^T r
    elif h.out_length > h.dim:
        atr_norm = norm2(mom.block[h.dim:h.out_length])  # q_1 = A^T r
    else:
        atr_norm = math.sqrt(mom.phi[1])  # p_1 . p_1, the dot norm2(p_1) takes

    # z_i: the s.size entries of the block that end with p_i
    block, width = mom.block, s.size
    terms = [block[end - width:end] for end in range(h.dim + h.out_length, block.size + 1,
                                                     h.out_length)]
    scratch = np.empty(width)
    best = None
    for order in range(t, 0, -1):
        alpha = min_norm_coefficients(mom, order)
        s_new = np.multiply(terms[0], alpha[0])
        np.subtract(s, s_new, out=s_new)
        for i in range(1, order):
            s_new -= np.multiply(terms[i], alpha[i], out=scratch)
        new_norm = norm2(s_new[k:])
        if best is None or new_norm < best[0]:
            best = (new_norm, order, s_new)
        if new_norm <= r_norm * (1.0 + _MONOTONE_SLACK):
            break
    new_norm, order, s_new = best
    return s_new, order, atr_norm, new_norm


def _step_arrays(x, r, t, h):
    """:func:`_step` on separate arrays ``x`` and ``r``, of norm
    ``norm2(r)``.  Returns ``(x_new, r_new, used_order, atr_norm)``,
    ``x_new`` without ``-0.0``."""
    r = np.asarray(r, dtype=np.float64)
    s_new, order, atr_norm, _ = _step(_stacked(x, r), t, h, norm2(r))
    k = s_new.size - r.size
    return np.subtract(0.0, s_new[:k]), s_new[k:], order, atr_norm


def _order_schedule(t_max: int):
    cycle = list(range(1, t_max + 1)) + list(range(t_max - 1, 1, -1))
    while True:
        yield from cycle


@quiet_floating_point
def centering_solve(a, b, options: CenteringOptions | None = None) -> SolveResult:
    """Solve ``Ax = b`` (or its normal equation) by cycled centering steps."""
    opts = options or CenteringOptions()
    system = System(a, b, CENTERING_TRACE_COLUMNS)
    op, b, b_norm, trace = system.op, system.b, system.b_norm, system.trace
    m, n = op.shape
    if b_norm == 0.0:
        return system.zero_rhs(APPROX_SOLUTION)
    check_positive(below=1.0, epsilon=opts.epsilon)
    check_count(at_least=1, t_max=opts.t_max)
    check_count(max_iters=opts.max_iters)

    h = HOperator(op, opts.h_mode)
    h.form_gram()
    # x (y of x = A^T y while G is formed) and r advance as one vector,
    # s = [-x; r]; x is read as 0.0 - s[:-m] only at rechecks and the exit
    s = _stacked(np.zeros(n if h.gram is None else m), b)

    eps_abs = opts.epsilon * b_norm
    drift_budget = 1e-10
    # with G formed, sqrt(phi_1) is ||A^T r|| up to the rounding of forming
    # and applying G, at most about sqrt((m + n) u) ||A||_F ||r||; a pass
    # over A that only a solve with G formed needs
    gram_floor = (math.sqrt((m + n) * np.finfo(np.float64).eps) * system.a_fro
                  if h.gram is not None else 0.0)
    schedule = _order_schedule(min(opts.t_max, m))
    status = ITERATION_CAP
    detail = ""
    iterations = 0

    y = None  # y of the returned x = A^T y; None once a step runs on x

    def true_residual(s, h):
        """The returned ``x`` (``A^T y`` with ``G`` formed, which ``H``
        then stops using, and ``y`` kept), its true residual ``b - A x``
        and the ``H`` to go on with."""
        nonlocal y
        x = np.subtract(0.0, s[:-m])
        if h.gram is not None:
            y, x, h = x, op.rmatvec(x), HOperator(op, opts.h_mode)
        return x, b - op.matvec(x), h

    r_norm = norm2(s[-m:])  # ||r||, from each accepted step on
    fresh = False  # r is b - A x of the returned x: set by true_residual
    while iterations < opts.max_iters:
        if not math.isfinite(r_norm):
            status, detail = NUMERICAL_FAILURE, "non-finite residual"
            break
        if r_norm <= eps_abs:
            if fresh:
                status = APPROX_SOLUTION
                break
            x, r, h = true_residual(s, h)
            s, r_norm, fresh = _stacked(x, r), norm2(r), True
            continue
        t = next(schedule)
        try:
            s_new, _, atr_norm, new_norm = _step(s, t, h, r_norm)
        except NormalEquationReached:
            if fresh:
                status = NORMAL_EQ_SOLUTION
                break
            x, r, h = true_residual(s, h)
            s, r_norm, fresh = _stacked(x, r), norm2(r), True
            continue
        except FloatingPointError as exc:
            status, detail = NUMERICAL_FAILURE, str(exc)
            break
        except np.linalg.LinAlgError as exc:
            status, detail = NUMERICAL_FAILURE, f"moment solve failed: {exc}"
            break
        certified = not opts.known_solvable and atr_norm <= eps_abs
        if (certified and not fresh) or (h.gram is not None and atr_norm <= gram_floor * r_norm):
            # the clause passed on a residual the result would not have, or
            # sqrt(phi_1) is down to the rounding of G, where steps on y
            # stall (rank-deficient A, b outside its range): the step is
            # dropped and the next one measures the true residual
            x, r, h = true_residual(s, h)
            s, r_norm, fresh = _stacked(x, r), norm2(r), True
            continue
        trace.append(t, r_norm, atr_norm)
        if certified:
            status = NORMAL_EQ_SOLUTION
            detail = f"certified ||A^T A x - A^T b|| <= {eps_abs:.3e}"
            break
        s, r_norm = s_new, new_norm
        fresh = False
        y = None  # x moved off A^T y; with G still formed the exit sets y again
        iterations += 1
        if iterations % _RECHECK_EVERY == 0:
            x_now, r_now, h_now = true_residual(s, h)
            if norm2(r_now - s[-m:]) > drift_budget * (b_norm + system.a_fro * norm2(x_now)):
                if h.gram is None:
                    status, detail = NUMERICAL_FAILURE, "residual drift exceeded budget"
                    break
                # y drifts faster than x would, by up to the condition of A
                s, h = _stacked(x_now, r_now), h_now
            else:
                s[-m:] = r_now
            r_norm = norm2(r_now)

    x = np.subtract(0.0, s[:-m])
    if h.gram is not None:
        y, x = x, op.rmatvec(x)
    return system.finish(status, x, iterations, detail=detail, y=y)
