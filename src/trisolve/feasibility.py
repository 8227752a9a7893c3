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
inconclusive, never as "infeasible", with a certified lower bound on the
norm of every ``eps``-feasible point when the last gap gives one; the
shared pivot loop sets these statuses and bounds itself.

Before the first pivot, the first check of an LP presolve: a row ``i``
whose signs alone rule out ``x >= 0`` (every entry of ``A_i`` at most 0
and ``b_i > eps``, or at least 0 and ``b_i < -eps``) gives the Farkas
certificate ``y = b_i e_i`` at ``x = 0``, and the solve ends in a witness
at iteration 0.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import (
    Operator,
    check_count,
    check_positive,
    issparse,
    norm2,
    prepare,
    quiet_floating_point,
)
from .results import FEASIBILITY_TRACE_COLUMNS, FEASIBLE, WITNESS, SolveResult, System
from .triangle import _pivot_loop


def _scaled_norm(v) -> tuple[float, int]:
    """``(||v 2^-e||, e)`` for ``e`` the binary exponent of the largest
    ``|v_i|``, 0 for a zero vector: the scaling is exact, and the scaled norm
    neither overflows nor underflows."""
    e = math.frexp(float(np.max(np.abs(v), initial=0.0)))[1]
    return norm2(np.ldexp(v, -e)), e


def _sign_row(op, b, eps) -> int | None:
    """The lowest row ``i`` whose signs alone rule out ``x >= 0``: every
    stored entry of ``A_i`` at most 0 and ``b_i > eps``, or at least 0 and
    ``b_i < -eps``.  Implicit zeros fit both, so an empty row counts.
    ``None`` when no row does, when a stored value of ``A`` is not finite,
    and for a caller's operator, whose entries are out of reach."""
    if not isinstance(op, Operator):
        return None
    a = op.matrix
    if issparse(a):
        a = a if a.format == "csr" else a.tocsr()
        values, starts = a.data, a.indptr[:-1]
        # the stored entries of a nonempty row run from its start to the
        # next nonempty row's
        filled = starts < a.indptr[1:]
        positive, negative = np.zeros((2, a.shape[0]), dtype=bool)
        positive[filled] = np.logical_or.reduceat(values > 0.0, starts[filled])
        negative[filled] = np.logical_or.reduceat(values < 0.0, starts[filled])
    else:
        values = a
        positive, negative = (a > 0.0).any(axis=1), (a < 0.0).any(axis=1)
    if not np.isfinite(values).all():
        return None
    rows = np.flatnonzero((~positive & (b > eps)) | (~negative & (b < -eps)))
    return int(rows[0]) if rows.size else None


@quiet_floating_point
def default_rho_max(a, b) -> float:
    """Radius budget ``10 max(n, 1) max(1, ||b|| / sigma)`` with the RMS row
    norm standing in as the scale ``sigma``; ``a`` is a matrix or a prepared
    operator.

    One formula: the norms come from ``A 2^-e_A`` and ``b 2^-e_b``, ``e`` the
    binary exponent of the largest entry, and the ratio is scaled back by
    ``2^(e_b - e_A)``.  Where no square in the plain norms is subnormal or
    overflows, this gives the plain ratio's bits; it does not change when
    ``A`` and ``b`` are scaled by one power of two.  A caller's operator,
    whose entries are out of reach, keeps its own ``frobenius_norm()``."""
    op = prepare(a)
    m, n = op.shape
    b_norm, b_exp = _scaled_norm(b)
    fro, a_exp = (_scaled_norm(op.entries()) if isinstance(op, Operator)
                  else (op.frobenius_norm(), 0))
    sigma = fro / math.sqrt(max(m, 1)) or 1.0
    return 10.0 * max(n, 1) * max(1.0, float(np.ldexp(b_norm / sigma, b_exp - a_exp)))


@quiet_floating_point
def nonnegative_feasibility(a, b, eps, rho_max=None, max_iters=100_000) -> SolveResult:
    """Search for nonnegative ``x`` with ``||Ax - b|| <= eps`` (absolute).

    Returns ``feasible`` with such an ``x``; ``witness`` with a Farkas
    certificate of infeasibility ``y = b - b_prime`` (``A^T y <= 0`` and
    ``y^T b > 0``); ``inconclusive`` when the radius or iteration budget
    runs out.  For ``b = 0`` the feasible point ``x = 0`` is returned at
    iteration 0.  A row of ``A`` whose signs alone rule out ``x >= 0``
    (:func:`_sign_row`; checked when ``||b||`` and ``A``'s stored values are
    finite) ends in a witness at iteration 0: ``x = 0``, ``rho = 0`` and
    ``y = b_i e_i``.  An inconclusive result carries the certified bound
    ``lower_bound = (y^T b - eps ||y||) / ||max(A^T y, 0)||`` for
    ``y = b - b_prime`` when both parts are positive, else ``None``: every
    ``x >= 0`` with ``||Ax - b|| <= eps`` has ``||x||`` at least that; the
    pivot loop computes it.  Only a passed ``rho_max`` is checked.
    """
    system = System(a, b, FEASIBILITY_TRACE_COLUMNS)
    if system.b_norm == 0.0:
        return system.zero_rhs(FEASIBLE, rho=0.0, min_x_entry=0.0)
    check_positive(eps=eps)
    check_count(max_iters=max_iters)
    op, b = system.op, system.b
    row = _sign_row(op, b, eps) if math.isfinite(system.b_norm) else None
    if row is not None:
        # Farkas: y = b_i e_i has A^T y <= 0 < y^T b = b_i^2
        y = np.zeros_like(b)
        y[row] = b[row]
        c_norm = norm2(op.rmatvec(y))
        return system.finish(
            WITNESS, np.zeros(op.shape[1]), 0, rho=0.0, b_prime=b - y,
            lower_bound=float(y.dot(b)) / c_norm if c_norm > 0.0 else math.inf,
            min_x_entry=0.0, detail=f"row {row} of A has no entry of the sign of b[{row}]")
    if rho_max is None:
        rho_max = default_rho_max(op, b)
    else:
        check_positive(rho_max=rho_max)
    # eps_prime = -inf: the cone search has no normal-equation stop
    return _pivot_loop(system, None, 0.0, eps, -math.inf, max_iters, rho_cap=rho_max,
                       cone=True)
