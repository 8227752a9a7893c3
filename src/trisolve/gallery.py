"""Test-matrix families used by the benchmark drivers, plus the row-sum
right-hand side that makes ``x = (1, ..., 1)^T`` a known solution.

Families: seeded random diagonal matrices (positive definite, positive
semidefinite with a forced zero, indefinite with a forced sign pattern),
Clement and Dorr tridiagonal matrices, Lotkin matrices, 2-D Laplacians with
Dirichlet or Neumann boundaries, a convection-diffusion operator on the unit
square, and the ``A^{-1} B`` matrix of a second-order boundary-value problem.
Every generator is bit-deterministic for a fixed argument tuple.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from .linalg import matvec

DIAG_PD = "pd"
DIAG_PSD = "psd"
DIAG_INDEFINITE = "indefinite"


def gen_diag(kind: str, n: int, seed: int = 0):
    """Random diagonal matrix (sparse CSR).

    ``pd``: entries uniform in [1, 3n].  ``psd``: entries uniform in [0, 3n]
    with one forced exact zero.  ``indefinite``: entries uniform in [-3n, 3n]
    with one forced zero, one forced positive and one forced negative entry,
    so class membership is testable rather than probabilistic.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    hi = 3.0 * n
    if kind == DIAG_PD:
        vals = rng.uniform(1.0, hi, size=n)
    elif kind == DIAG_PSD:
        vals = rng.uniform(0.0, hi, size=n)
        vals[int(rng.integers(n))] = 0.0
    elif kind == DIAG_INDEFINITE:
        if n < 3:
            raise ValueError("indefinite diagonal needs n >= 3 for the sign pattern")
        vals = rng.uniform(-hi, hi, size=n)
        zero_pos, pos_pos, neg_pos = rng.choice(n, size=3, replace=False)
        vals[zero_pos] = 0.0
        vals[pos_pos] = rng.uniform(1.0, hi)
        vals[neg_pos] = -rng.uniform(1.0, hi)
    else:
        raise ValueError(f"unknown diagonal kind {kind!r}")
    return sparse.csr_array(sparse.diags_array(vals))


def gen_gram_psd(n: int, seed: int = 0) -> np.ndarray:
    """Dense PSD matrix ``B^T B`` with ``B`` uniform on [0, 1); the seeded
    alternative to the diagonal PSD family."""
    if n < 1:
        raise ValueError("n must be positive")
    b = np.random.default_rng(seed).random((n, n))
    return b.T @ b


def gen_clement(n: int):
    """Symmetric tridiagonal with zero diagonal and off-diagonals
    ``sqrt(k (n - k))``; singular for odd ``n``."""
    if n < 2:
        raise ValueError("n must be at least 2")
    k = np.arange(1, n, dtype=np.float64)
    off = np.sqrt(k * (n - k))
    return sparse.csr_array(sparse.diags_array([off, off], offsets=[-1, 1]))


def gen_dorr(n: int, theta: float = 0.01):
    """Dorr tridiagonal matrix: a row-diagonally-dominant M-matrix that grows
    ill-conditioned as ``theta`` shrinks."""
    if n < 3:
        raise ValueError("n must be at least 3")
    if theta <= 0:
        raise ValueError("theta must be positive")
    h = 1.0 / (n + 1)
    term = theta / h**2
    sub = np.zeros(n)    # sub[i] multiplies y_{i-1} in row i
    sup = np.zeros(n)    # sup[i] multiplies y_{i+1} in row i
    i = np.arange(1, n + 1, dtype=np.float64)
    half = (n + 1) // 2
    lo = i <= half
    sub[lo] = -term
    sup[lo] = -term - (0.5 - i[lo] * h) / h
    sup[~lo] = -term
    sub[~lo] = -term + (0.5 - i[~lo] * h) / h
    diag = -(sub + sup)
    return sparse.csr_array(
        sparse.diags_array([sub[1:], diag, sup[:-1]], offsets=[-1, 0, 1])
    )


def gen_lotkin(n: int) -> np.ndarray:
    """Lotkin matrix: first row all ones, the rest the corresponding Hilbert
    rows.  Nonsymmetric and severely ill-conditioned."""
    if n < 2:
        raise ValueError("n must be at least 2")
    i = np.arange(n, dtype=np.float64)[:, None]
    j = np.arange(n, dtype=np.float64)[None, :]
    a = 1.0 / (i + j + 1.0)
    a[0, :] = 1.0
    return a


POISSON_DIRICHLET = "dirichlet"
POISSON_NEUMANN = "neumann"


def _five_point(grid: int, center, west, east, south, north):
    """Sparse CSR matrix of a 5-point stencil on a ``grid x grid`` mesh,
    unknown ``ix + grid * iy``, neighbours off the mesh dropped; a ``center``
    of None is the neighbour count.  Each row holds its centre, then its
    west, east, south and north entries, explicit zeros included."""
    n = grid * grid
    k = np.arange(n)
    ix, iy = k % grid, k // grid
    sides = ((ix > 0, -1, west), (ix < grid - 1, 1, east),
             (iy > 0, -grid, south), (iy < grid - 1, grid, north))
    if center is None:
        # float masks: numpy adds bool arrays as a logical or
        center = sum(mask.astype(np.float64) for mask, _, _ in sides)
    rows, cols, vals = [k], [k], [np.broadcast_to(center, n)]
    for mask, step, coeff in sides:
        rows.append(k[mask])
        cols.append(k[mask] + step)
        vals.append(np.full(len(rows[-1]), coeff, dtype=np.float64))
    coo = sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    return sparse.csr_array(coo)


def gen_poisson2d(grid: int, bc: str = POISSON_DIRICHLET):
    """Standard 5-point Laplacian on a ``grid x grid`` mesh (sparse CSR).

    Dirichlet boundaries give the positive definite matrix with diagonal 4
    and neighbor entries -1.  Neumann boundaries (one-sided differences at
    the boundary) give the singular PSD grid-graph Laplacian, whose nullspace
    contains the constant vector.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if bc not in (POISSON_DIRICHLET, POISSON_NEUMANN):
        raise ValueError(f"unknown boundary condition {bc!r}")
    return _five_point(grid, 4.0 if bc == POISSON_DIRICHLET else None, -1.0, -1.0, -1.0, -1.0)


def gen_convdiff(grid: int, p1: float, p2: float, p3: float):
    """Convection-diffusion operator ``-Lap(u) + 2 p1 u_x + 2 p2 u_y - p3 u``
    on the unit square, central differences on the 5-point stencil, scaled by
    ``h^2`` (sparse CSR, ``grid^2 x grid^2``).  Nonsymmetric whenever ``p1``
    or ``p2`` is nonzero."""
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if p1 <= 0 or p2 <= 0 or p3 <= 0:
        raise ValueError("p1, p2, p3 must be positive")
    h = 1.0 / (grid + 1)
    return _five_point(grid, 4.0 - p3 * h * h, -1.0 - p1 * h, -1.0 + p1 * h,
                       -1.0 - p2 * h, -1.0 + p2 * h)


def gen_ode_mvm(n: int, gamma: float, h: float) -> np.ndarray:
    """``M = A^{-1} B`` for the finite-difference operator ``A`` of
    ``y'' = -mu^2 y`` with ``y(0) = 0`` and ``y'(0) + gamma y'(1) = 0``,
    and ``B = h^2 diag(1, ..., 1, 0)``.

    ``A`` is the second-difference matrix whose last row carries the mixed
    boundary condition (eliminating the ghost node adds a ``-1/gamma`` corner
    entry); the inverse is applied column-by-column with a banded solve plus
    a rank-one correction for the corner.  The zero last column of ``B``
    makes ``M`` singular by construction.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if h <= 0:
        raise ValueError("h must be positive")
    # Banded part T: rows 0..n-2 are (1, -2, 1); the last row is (1, -1).
    ab = np.zeros((3, n))
    ab[0, 1:] = 1.0                      # superdiagonal
    ab[1, :] = -2.0
    ab[1, n - 1] = -1.0
    ab[2, :-1] = 1.0                     # subdiagonal
    # A = T + u v^T with u = e_{n-1}, v = -(1/gamma) e_0.
    rhs = np.zeros((n, n))
    idx = np.arange(n - 1)
    rhs[idx, idx] = h * h                # columns of B; last column stays zero
    u = np.zeros(n)
    u[n - 1] = 1.0
    z = scipy.linalg.solve_banded((1, 1), ab, np.column_stack([rhs, u]))
    w = z[:, n]
    tz = z[:, :n]
    denom = 1.0 - w[0] / gamma
    # Sherman-Morrison: A^{-1} y = T^{-1} y + w (T^{-1}y)[0] / (gamma * denom)
    return tz + np.outer(w, tz[0, :] / (gamma * denom))


def row_sum_rhs(a) -> np.ndarray:
    """Row sums of ``a``, computed through the same matvec path the solvers
    use, so ``matvec(a, ones) == row_sum_rhs(a)`` holds exactly."""
    return matvec(a, np.ones(a.shape[1]))


# CLI-facing registry: family name -> (constructor from (n, params, seed), notes)
def _make_diag(kind):
    def make(n, params, seed):
        return gen_diag(kind, n, seed)
    return make


def _make_clement(n, params, seed):
    return gen_clement(n)


def _make_dorr(n, params, seed):
    theta = params[0] if params else 0.01
    return gen_dorr(n, theta)


def _make_lotkin(n, params, seed):
    return gen_lotkin(n)


def _make_poisson(bc):
    def make(n, params, seed):
        return gen_poisson2d(n, bc)
    return make


def _make_convdiff(n, params, seed):
    p1, p2, p3 = (params + [1.0, 1.0, 1.0])[:3]
    return gen_convdiff(n, p1, p2, p3)


def _make_ode(n, params, seed):
    gamma = params[0] if params else 0.5
    h = params[1] if len(params) > 1 else 1.0 / (n + 1)
    return gen_ode_mvm(n, gamma, h)


def _make_gram(n, params, seed):
    return gen_gram_psd(n, seed)


FAMILIES = {
    "diag-pd": _make_diag(DIAG_PD),
    "diag-psd": _make_diag(DIAG_PSD),
    "diag-indef": _make_diag(DIAG_INDEFINITE),
    "gram-psd": _make_gram,
    "clement": _make_clement,
    "dorr": _make_dorr,
    "lotkin": _make_lotkin,
    "poisson-d": _make_poisson(POISSON_DIRICHLET),
    "poisson-n": _make_poisson(POISSON_NEUMANN),
    "convdiff": _make_convdiff,
    "ode": _make_ode,
}


def make(family: str, n: int, params: list[float] | None = None, seed: int = 0):
    """Build a family member by name; ``n`` is the grid dimension for the
    ``poisson-*`` and ``convdiff`` families (matrix order ``n^2``) and the
    matrix order otherwise."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    return FAMILIES[family](n, list(params or []), seed)
