"""Matrix storage, the prepared operator of a solve, and the implicit
operator ``H`` used by all solvers.

Matrices are plain ``numpy.ndarray`` (dense, row-major) or ``scipy.sparse``
objects, usually ``csr_array`` / ``csr_matrix`` (compressed-row); array-likes
such as nested lists become float64 arrays.  Every solver prepares its matrix
once, at entry, into an :class:`Operator`.  For sparse storage the operator
of a solve that applies ``A^T`` in its loop also holds a CSR copy of ``A^T``,
which about doubles the matrix storage; dense ``A`` keeps BLAS ``a.T @ v``.
Objects that already are operators, with ``matvec``, ``rmatvec``, ``shape``
and ``frobenius_norm`` (e.g. :class:`GramProduct`), are used as they are.
``H`` is either the matrix itself, for symmetric positive semidefinite
input, or the Gram operator ``A A^T`` applied as ``A (A^T r)`` without ever
forming the ``m x m`` product.

Sparse kernels accumulate left-to-right within each row and are
single-threaded; dense products go through BLAS and stay deterministic for a
fixed thread count.  All objects here are immutable after construction
(apart from :attr:`HOperator.apply_count`) and safe to share across
concurrent solves.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sparse

H_MODE_SYMMETRIC = "a"   # H = A, caller guarantees A symmetric (PSD for theory)
H_MODE_GRAM = "aat"      # H = A A^T, applied implicitly


def shape_of(a) -> tuple[int, int]:
    m, n = a.shape
    return int(m), int(n)


def matvec(a, v: np.ndarray) -> np.ndarray:
    """``A @ v`` for a stored matrix, with a deterministic summation order
    for fixed storage."""
    v = np.asarray(v, dtype=np.float64)
    n = a.shape[1]
    if v.shape != (n,):
        raise ValueError(f"matvec: vector has length {v.shape}, matrix has {n} columns")
    return a @ v


def matvec_transpose(a, v: np.ndarray, a_t=None) -> np.ndarray:
    """``A.T @ v`` for a stored matrix.

    ``a_t`` is the CSR copy of ``A^T`` that an :class:`Operator` keeps for
    sparse ``a``; the product is then the row-wise ``a_t @ v``.  Without it a
    sparse product is ``v @ a``, for which scipy builds a transposed matrix
    object on every call.  For CSR or CSC ``a`` both accumulate the same
    terms in the same order and give the same bits.
    """
    v = np.asarray(v, dtype=np.float64)
    m = a.shape[0]
    if v.shape != (m,):
        raise ValueError(f"matvec_transpose: vector has length {v.shape}, matrix has {m} rows")
    if a_t is not None:
        return a_t @ v
    if sparse.issparse(a):
        return np.asarray(v @ a)
    return a.T @ v


def norm2(v: np.ndarray) -> float:
    """Euclidean norm ``sqrt(v . v)``: the bits of ``np.linalg.norm`` on a
    real array, without its dispatch."""
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 1:
        x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def frobenius_norm(a) -> float:
    if sparse.issparse(a):
        return float(np.sqrt((a.multiply(a)).sum()))
    return float(np.linalg.norm(np.asarray(a), "fro"))


def nnz_of(a) -> int:
    if sparse.issparse(a):
        return int(a.nnz)
    arr = np.asarray(a)
    return int(np.count_nonzero(arr))


def validate_symmetric(a, rel_tol: float = 1e-12) -> bool:
    """Debug check that ``a`` is square and symmetric. O(n^2); not called by solvers."""
    m, n = shape_of(a)
    if m != n:
        return False
    if sparse.issparse(a):
        d = a - a.T
        num = float(np.sqrt(abs((d.multiply(d)).sum())))
    else:
        arr = np.asarray(a)
        num = float(np.linalg.norm(arr - arr.T, "fro"))
    return num <= rel_tol * max(frobenius_norm(a), 1.0)


class Operator:
    """The matrix of one solve: ``A`` as float64 storage and, when
    ``transpose`` is set and ``A`` is sparse, a CSR copy of ``A^T`` that
    :meth:`rmatvec` applies.  An operator built without it applies ``A^T``
    as ``v @ A``, which suits a solve that does so once."""

    def __init__(self, a, transpose: bool = True):
        if sparse.issparse(a):
            if a.dtype != np.float64:
                a = a.astype(np.float64)
        else:
            a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"A must be a 2-D matrix, got shape {a.shape}")
        self.matrix = a
        self.shape = shape_of(a)
        self.transposed = a.T.tocsr() if transpose and sparse.issparse(a) else None

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return matvec(self.matrix, v)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        return matvec_transpose(self.matrix, v, self.transposed)

    def frobenius_norm(self) -> float:
        return frobenius_norm(self.matrix)


def prepare(a, transpose: bool = True):
    """The operator a solve applies: ``a`` itself when it already is one (an
    :class:`Operator`, a :class:`GramProduct`, or any object with
    ``matvec``, ``rmatvec``, ``shape`` and ``frobenius_norm``), otherwise an
    :class:`Operator` over ``a``, storing ``A^T`` when ``transpose`` is set."""
    if isinstance(a, np.ndarray) or sparse.issparse(a) or not hasattr(a, "rmatvec"):
        return Operator(a, transpose)
    return a


def prepare_system(a, b, transpose: bool = True):
    """``(prepare(a, transpose), b)`` with ``b`` as a float64 vector of the
    operator's row count."""
    op = prepare(a, transpose)
    b = np.asarray(b, dtype=np.float64)
    m = op.shape[0]
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")
    return op, b


class GramProduct:
    """Implicit ``A^T A`` (shape ``n x n``), applied as ``A^T (A v)``.

    Used to run triangle-family solvers on the normal-equation pair
    ``(A^T A, A^T b)`` without forming the product.  Symmetric, so
    ``rmatvec`` coincides with ``matvec``.
    """

    def __init__(self, a):
        self._op = prepare(a)
        n = self._op.shape[1]
        self.shape = (n, n)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self._op.rmatvec(self._op.matvec(v))

    rmatvec = matvec

    def frobenius_norm(self) -> float:
        # ||A^T A||_F <= ||A||_F^2; an upper bound is enough for the
        # floating-point floors this feeds.
        return self._op.frobenius_norm() ** 2


class HOperator:
    """The solver-side operator ``H``: mode ``"a"`` applies the matrix itself
    (caller asserts symmetry, see :func:`validate_symmetric`); mode ``"aat"``
    applies ``A (A^T r)`` without materializing ``A A^T``.  Only the Gram
    mode stores ``A^T`` of a sparse matrix.
    """

    def __init__(self, a, mode: str = H_MODE_GRAM):
        if mode not in (H_MODE_SYMMETRIC, H_MODE_GRAM):
            raise ValueError(f"unknown H mode {mode!r}")
        self.operator = prepare(a, transpose=mode == H_MODE_GRAM)
        m, n = self.operator.shape
        if mode == H_MODE_SYMMETRIC and m != n:
            raise ValueError("symmetric mode requires a square matrix")
        self.mode = mode
        self.dim = m  # H acts on residuals of length m
        self.apply_count = 0

    def apply(self, r: np.ndarray) -> np.ndarray:
        """``H r``."""
        return self.apply_with_transpose(r)[0]

    def apply_with_transpose(self, r: np.ndarray):
        """``(H r, A^T r)``; the transpose product is the intermediate of the
        Gram mode and comes for free there, ``None`` in symmetric mode."""
        self.apply_count += 1
        op = self.operator
        if self.mode == H_MODE_SYMMETRIC:
            return op.matvec(r), None
        at_r = op.rmatvec(r)
        return op.matvec(at_r), at_r

    def quadratic_form(self, r: np.ndarray, hr: np.ndarray) -> float:
        """``r^T H r`` given a precomputed ``hr = H r``."""
        return float(np.dot(r, hr))
