"""Shared helpers: controlled-spectrum operators, instance builders, the
witness and budget-exit rechecks used across suites, and a fresh interpreter
to run a script in."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sparse

from trisolve.linalg import matvec, matvec_transpose, norm2


def spd_with_spectrum(rng, m, lam_min=1.0, lam_max=5.0, eigenvalues=None):
    """Random symmetric positive definite matrix with a controlled spectrum.

    Returns ``(H, eigenvalues, eigenvectors)`` where the eigenvectors are the
    columns of a random orthogonal matrix, so the conditioning is exactly
    ``lam_max / lam_min`` rather than the tail luck of a Wishart draw.
    """
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    if eigenvalues is None:
        eigenvalues = np.sort(rng.uniform(lam_min, lam_max, m))
    lam = np.asarray(eigenvalues, dtype=np.float64)
    h = (q * lam) @ q.T
    h = 0.5 * (h + h.T)
    return h, lam, q


def random_instance(rng, max_m=40, max_n=40, square=False):
    """Random dense system ``(A, b)`` with entries O(1)."""
    m = int(rng.integers(2, max_m + 1))
    n = m if square else int(rng.integers(2, max_n + 1))
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    return a, b


def random_sparse(rng, max_mn=50, density=0.3):
    m = int(rng.integers(1, max_mn + 1))
    n = int(rng.integers(1, max_mn + 1))
    mask = rng.random((m, n)) < density
    vals = rng.standard_normal((m, n)) * mask
    return sparse.csr_array(vals)


def check_witness(a, b, result, atol=0.0):
    """Re-verify a witness outcome: recompute the pivot inequality from the
    returned state and confirm it fails strictly."""
    assert result.status == "witness"
    assert result.b_prime is not None and result.rho is not None
    gap = np.asarray(b, dtype=np.float64) - result.b_prime
    c = matvec_transpose(a, gap)
    lhs = result.rho * norm2(c)
    rhs = float(np.dot(gap, b))
    assert lhs < rhs + atol, f"witness recheck failed: {lhs} >= {rhs}"
    if result.lower_bound is not None and norm2(c) > 0:
        assert np.isclose(result.lower_bound, rhs / norm2(c), rtol=1e-9)


def check_cap_bound(a, b, result, eps):
    """Re-verify a pivot run's budget exit from ``b_prime`` alone: with
    ``y = b - b_prime`` and ``d = A^T y``, or its nonnegative part for an
    ``inconclusive`` cone run, ``lower_bound`` is
    ``(y^T b - eps ||y||) / ||d||`` when both parts are positive, else None.
    Every ``x`` (nonnegative in the cone) within ``eps`` of ``b`` has
    ``y^T b <= ||d|| ||x|| + eps ||y||``, so none is shorter."""
    assert result.status in ("iteration_cap", "inconclusive")
    b = np.asarray(b, dtype=np.float64)
    y = b - result.b_prime
    d = matvec_transpose(a, y)
    if result.status == "inconclusive":
        d = np.maximum(d, 0.0)
    excess = float(np.dot(y, b)) - eps * norm2(y)
    if excess > 0.0 and norm2(d) > 0.0:
        assert np.isclose(result.lower_bound, excess / norm2(d), rtol=1e-9)
    else:
        assert result.lower_bound is None


def status_holds(res, a, b, eps, h_mode="aat"):
    """Whether a result's status is true of its returned ``x``, measured with
    the solvers' own kernels on ``a``: ``||b - Ax||`` for an approximate,
    minimum-norm or feasible solution, a feasible ``x`` also nonnegative;
    ``||A^T r||`` (``||A r||`` in symmetric mode, the clause's own measure)
    for a normal-equation one; each against ``eps ||b||``.  A status that
    claims nothing holds."""
    b = np.asarray(b, dtype=np.float64)
    r = b - matvec(a, res.x)
    if res.status == "feasible" and (res.x < 0.0).any():
        return False
    if res.status in ("approx_solution", "min_norm_solution", "feasible"):
        measured = r
    elif res.status == "normal_eq_solution":
        measured = matvec(a, r) if h_mode == "a" else matvec_transpose(a, r)
    else:
        return True
    return norm2(measured) <= eps * norm2(b)


def krylov_degree(h, r, tol=1e-8):
    """Degree of the minimal polynomial of ``r`` with respect to ``h``:
    the numerical rank of the Krylov block ``[r, Hr, H^2 r, ...]``."""
    h = np.asarray(h, dtype=np.float64)
    m = h.shape[0]
    cols = [np.asarray(r, dtype=np.float64)]
    for _ in range(m - 1):
        cols.append(h @ cols[-1])
    k = np.column_stack([c / max(norm2(c), 1e-300) for c in cols])
    return int(np.linalg.matrix_rank(k, tol=tol))


def fresh_python(script, *args, env=None):
    """Run ``python -c script *args`` in a fresh interpreter that imports
    this checkout's ``trisolve``, with ``env`` added to the environment;
    returns its stdout and fails on a nonzero exit."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src, **(env or {}))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
