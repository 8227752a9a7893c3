"""Correctness oracle: re-verify the certificate of every returned result.

The check uses only the returned record (status, ``x``, the reported norms,
the radius fields and the iteration count), the inputs ``A`` and ``b``, the
tolerances the solver was asked for, and a reference solution ``x_ref``
computed once per problem with ``scipy.sparse.linalg.lsqr``.  Norms are
recomputed with plain numpy/scipy products, not with the package's kernels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

SUCCESS = frozenset({"approx_solution", "normal_eq_solution", "min_norm_solution", "feasible"})

# Relative agreement required between a reported norm and the recomputed one;
# both come from the same x, so only the summation order differs.
_AGREE = 1e-9
# Relative slack on a claimed tolerance, for the drift the drivers allow
# between their maintained residual and b - Ax (recheck budget 1e-10).
_DRIFT = 1e-9

LSQR_ITER_LIM = 300


@dataclass
class Reference:
    x: np.ndarray
    norm: float
    iterations: int
    ms: float


def reference(a, b) -> Reference:
    """Minimum-norm least-squares reference from LSQR (Paige & Saunders)."""
    start = time.perf_counter()
    out = spla.lsqr(a, b, atol=1e-14, btol=1e-14, iter_lim=LSQR_ITER_LIM)
    ms = 1000.0 * (time.perf_counter() - start)
    x = np.asarray(out[0])
    return Reference(x, float(np.linalg.norm(x)), int(out[2]), ms)


def _fro(a) -> float:
    if hasattr(a, "multiply"):
        return float(np.sqrt(a.multiply(a).sum()))
    return float(np.linalg.norm(a))


def verify(inst, res, ref: Reference) -> tuple[bool, str]:
    """Return ``(ok, reason)`` for one result of one problem instance."""
    a, b = inst.a, inst.b
    x = np.asarray(res.x, dtype=np.float64)
    if x.shape != (a.shape[1],) or not np.all(np.isfinite(x)):
        return False, "x has the wrong shape or non-finite entries"
    r = b - np.asarray(a @ x)
    res_norm = float(np.linalg.norm(r))
    normal_norm = float(np.linalg.norm(np.asarray(a.T @ r)))
    a_fro = _fro(a)
    scale = float(np.linalg.norm(b)) + a_fro * float(np.linalg.norm(x))
    if abs(res_norm - res.residual_norm) > _AGREE * scale:
        return False, f"reported residual {res.residual_norm:.6e} != recomputed {res_norm:.6e}"
    if abs(normal_norm - res.normal_residual_norm) > _AGREE * a_fro * scale:
        return False, (f"reported normal residual {res.normal_residual_norm:.6e} "
                       f"!= recomputed {normal_norm:.6e}")

    status = res.status
    if status == "approx_solution":
        if res_norm > inst.tol_residual + _DRIFT * scale:
            return False, f"approx claim: residual {res_norm:.3e} > {inst.tol_residual:.3e}"
    elif status == "normal_eq_solution":
        if normal_norm > inst.tol_normal + _DRIFT * a_fro * scale:
            return False, f"normal_eq claim: {normal_norm:.3e} > {inst.tol_normal:.3e}"
    elif status == "min_norm_solution":
        lo, hi = res.rho_interval
        width = inst.tol_residual
        if res_norm > width + _DRIFT * scale:
            return False, f"min_norm claim: residual {res_norm:.3e} > {width:.3e}"
        # lo is a certified lower bound; hi is the norm of an approximate
        # solution and may undershoot the minimum norm by about the target
        if not lo <= ref.norm * (1.0 + 1e-9):
            return False, f"rho_interval lower end {lo:.9e} above ||x_ref|| {ref.norm:.9e}"
        if not ref.norm <= hi + width:
            return False, f"rho_interval upper end {hi:.9e} below ||x_ref|| {ref.norm:.9e}"
        if hi - lo > width * (1.0 + 1e-9):
            return False, f"rho_interval width {hi - lo:.3e} > {width:.3e}"
    elif status == "witness":
        if res.lower_bound is None or not res.lower_bound <= ref.norm * (1.0 + 1e-9):
            return False, f"witness bound {res.lower_bound} above ||x_ref|| {ref.norm:.9e}"
    elif status == "feasible":
        if x.min() < 0.0:
            return False, f"feasible claim with x.min() = {x.min():.3e}"
        if res_norm > inst.tol_residual + _DRIFT * scale:
            return False, f"feasible claim: residual {res_norm:.3e} > {inst.tol_residual:.3e}"
    elif status in ("iteration_cap", "inconclusive"):
        # a staged driver's cap applies to each stage; the last one ran out
        stages = getattr(res, "stage_results", None) or [res]
        at_cap = stages[-1].iterations == inst.cap
        over_radius = (inst.rho_cap is not None and res.rho is not None
                       and res.rho > inst.rho_cap)
        if not (at_cap or over_radius):
            return False, (f"{status} after {res.iterations} of {inst.cap} iterations "
                           f"with rho {res.rho} within its budget")
    else:
        # numerical_failure on finite input, or an unknown status
        return False, f"status {status!r}"
    return True, ""
