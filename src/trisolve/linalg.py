"""Matrix storage, the prepared operator of a solve, and the implicit
operator ``H`` used by all solvers.

Matrices are plain ``numpy.ndarray`` (dense, row-major) or ``scipy.sparse``
objects, usually ``csr_array`` / ``csr_matrix`` (compressed-row); array-likes
such as nested lists become float64 arrays.  Every solver prepares its matrix
once, at entry, into an :class:`Operator`.  For sparse storage the operator
of a solve that applies ``A^T`` in its loop also holds a CSR copy of ``A^T``,
which about doubles the matrix storage; dense ``A`` keeps BLAS ``a.T @ v``.
Objects with all four of ``matvec``, ``rmatvec``, ``shape`` and
``frobenius_norm`` (e.g. :class:`GramProduct`) are used as they are; anything
else that is not a 2-D real matrix raises ``ValueError`` naming ``A``.
``H`` is either the matrix itself, for symmetric positive semidefinite
input, or the Gram operator ``A A^T`` applied as ``A (A^T r)`` without ever
forming the ``m x m`` product.

Products on CSR storage (``A`` itself, or the stored ``A^T``) call scipy's
compiled ``csr_matvec`` kernel directly, skipping the per-call dispatch of
``A @ v``; this is the kernel ``A @ v`` runs, so the bits are the same.
Other sparse formats, CSR storage of another dtype and dense matrices go
through scipy's and numpy's own ``@``.

This is the one module of the package that reaches ``scipy.sparse``, and it
imports it on first use (:func:`scipy_sparse`): that import is about half
of ``import trisolve``'s start-up, which a caller with dense input never
needs.  No sparse object can exist before ``scipy.sparse`` is loaded, so
:func:`issparse` answers ``False`` without importing it.

Sparse kernels accumulate left-to-right within each row and are
single-threaded; dense products go through BLAS and stay deterministic for a
fixed thread count.  All objects here are immutable after construction
and safe to share across concurrent solves.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys

import numpy as np

H_MODE_SYMMETRIC = "a"   # H = A, caller guarantees A symmetric (PSD for theory)
H_MODE_GRAM = "aat"      # H = A A^T, applied implicitly


@functools.cache
def scipy_sparse() -> tuple:
    """``(scipy.sparse, (csr_array, csr_matrix), csr_matvec)``, imported on
    the first call.  A plain tuple, because every sparse product unpacks it.
    ``csr_matvec`` is the compiled kernel behind ``csr @ v``, from a private
    scipy module: calling it directly saves about 4 us of dispatch per
    product, most of the cost of a product on small systems;
    tests/test_linalg.py pins its bits to ``a @ v``."""
    import scipy.sparse as sparse
    from scipy.sparse import _sparsetools

    return sparse, (sparse.csr_array, sparse.csr_matrix), _sparsetools.csr_matvec


def issparse(a) -> bool:
    """``scipy.sparse.issparse(a)``, without importing scipy when no sparse
    object can exist yet."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(a)

_OPERATOR_MEMBERS = ("matvec", "rmatvec", "shape", "frobenius_norm")
_NOT_AN_OPERATOR = ("A must be a 2-D real matrix or an operator with matvec, rmatvec, "
                    "shape and frobenius_norm")


def quiet_floating_point(solve):
    """Run ``solve`` with numpy's floating-point reports switched off.

    Numpy reports overflow and invalid operations as warnings on stderr.  The
    drivers check for non-finite values themselves and say so in the result's
    status, so every public driver runs under this scope.  Each call enters a
    fresh ``np.errstate``, so nested drivers restore the caller's settings."""

    @functools.wraps(solve)
    def quiet(*args, **kwargs):
        with np.errstate(all="ignore"):
            return solve(*args, **kwargs)

    return quiet


def shape_of(a) -> tuple[int, int]:
    m, n = a.shape
    return int(m), int(n)


def _product(a, v: np.ndarray, m: int, n: int) -> np.ndarray:
    """``a @ v`` as a vector of length ``m``, for an ``m x n`` matrix ``a``
    and a float64 vector ``v`` of length ``n``; float64 CSR storage goes
    straight to the kernel, with the output buffer that ``a @ v`` would
    allocate.  Other storage keeps its own ``@``, whose result for one row
    of n-d COO storage is a numpy scalar, hence the reshape."""
    if type(a) is np.ndarray:
        return a @ v
    _, csr_types, csr_matvec = scipy_sparse()
    if isinstance(a, csr_types) and a.dtype == np.float64:
        out = np.zeros(m)
        csr_matvec(m, n, a.indptr, a.indices, a.data, v, out)
        return out
    return np.asarray(a @ v).reshape(m)


def matvec(a, v: np.ndarray) -> np.ndarray:
    """``A @ v`` for a stored matrix, with a deterministic summation order
    for fixed storage."""
    v = np.asarray(v, dtype=np.float64)
    m, n = a.shape
    if v.shape != (n,):
        raise ValueError(f"matvec: vector has length {v.shape}, matrix has {n} columns")
    return _product(a, v, m, n)


def matvec_transpose(a, v: np.ndarray, a_t=None) -> np.ndarray:
    """``A.T @ v`` for a stored matrix: the product :func:`_product` makes on
    ``a_t``, the CSR copy of ``A^T`` that an :class:`Operator` keeps for
    sparse ``a``, or else on the transposed view ``a.T``.  A CSC ``a`` has a
    CSR view, which goes straight to the kernel; other sparse views run
    scipy's ``@``, and dense ``a`` BLAS ``a.T @ v``.  For CSR or CSC ``a``
    the stored copy and the view accumulate the same terms in the same order
    and give the bits of ``v @ a``.
    """
    v = np.asarray(v, dtype=np.float64)
    m, n = a.shape
    if v.shape != (m,):
        raise ValueError(f"matvec_transpose: vector has length {v.shape}, matrix has {m} rows")
    return _product(a.T if a_t is None else a_t, v, n, m)


def norm2(v: np.ndarray) -> float:
    """Euclidean norm ``sqrt(v . v)``: the bits of ``np.linalg.norm`` on a
    real array, without its dispatch."""
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 1:
        x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def nnz_of(a) -> int:
    if issparse(a):
        return int(a.nnz)
    arr = np.asarray(a)
    return int(np.count_nonzero(arr))


class Operator:
    """The matrix of one solve: ``A`` as float64 storage and, when
    ``transpose`` is set and ``A`` is sparse, a CSR copy of ``A^T`` that
    :meth:`rmatvec` applies.  An operator built without it applies the view
    ``A.T``, which suits a solve that does so once."""

    def __init__(self, a, transpose: bool = True):
        is_sparse = issparse(a)
        try:
            matrix = a if is_sparse else np.asarray(a)
            if matrix.dtype != np.float64 and not np.iscomplexobj(matrix):
                matrix = matrix.astype(np.float64)
        except (TypeError, ValueError):
            raise ValueError(f"{_NOT_AN_OPERATOR}, got {type(a).__name__}") from None
        _check_real("A", matrix)
        if matrix.ndim != 2:
            raise ValueError(f"{_NOT_AN_OPERATOR}, got shape {matrix.shape}")
        self.matrix = matrix
        self.shape = shape_of(matrix)
        self.transposed = matrix.T.tocsr() if transpose and is_sparse else None

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return matvec(self.matrix, v)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        return matvec_transpose(self.matrix, v, self.transposed)

    def frobenius_norm(self) -> float:
        a = self.matrix
        if issparse(a):
            return float(np.sqrt((a.multiply(a)).sum()))
        return float(np.linalg.norm(a, "fro"))


def prepare(a, transpose: bool = True):
    """The operator a solve applies: ``a`` itself when it has all of
    ``_OPERATOR_MEMBERS`` (an :class:`Operator`, a :class:`GramProduct`),
    otherwise an :class:`Operator` over ``a``, storing ``A^T`` when
    ``transpose`` is set; that raises ``ValueError`` naming ``A`` for anything
    but a 2-D real matrix, such as a scipy ``LinearOperator``."""
    if all(hasattr(a, member) for member in _OPERATOR_MEMBERS):
        return a
    return Operator(a, transpose)


def _check_real(name: str, v) -> None:
    # before any float64 cast, which would drop the imaginary part and warn
    if np.iscomplexobj(v):
        raise ValueError(f"{name} must be real, got dtype {v.dtype}")


def as_vector(name: str, v, length: int) -> np.ndarray:
    """``v`` as a float64 vector of the given length; raises ``ValueError``
    naming the argument for complex values or any other shape."""
    v = np.asarray(v)
    _check_real(name, v)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (length,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({length},)")
    return v


def prepare_system(a, b, transpose: bool = True):
    """The entry of every driver: ``(prepare(a, transpose), b, ||b||)`` with
    ``b`` as a float64 vector of the operator's row count.  Raises
    ``ValueError`` for a wrong shape, and for a nonzero ``b`` whose norm
    underflows to 0, which the drivers would read as ``b = 0``.  NaN, Inf or
    an overflowing norm pass; the drivers end in ``numerical_failure``."""
    op = prepare(a, transpose)
    b = as_vector("b", b, op.shape[0])
    b_norm = norm2(b)
    if b_norm == 0.0 and b.any():
        raise ValueError("b is nonzero but its norm underflows to 0; scale b up")
    return op, b, b_norm


def check_positive(**named) -> None:
    """Raise ``ValueError`` naming the first keyword argument that is not a
    finite positive number."""
    for name, value in named.items():
        if not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def check_count(**named) -> None:
    """Raise ``ValueError`` naming the first keyword argument that is not an
    integer of at least 0, such as an iteration cap."""
    for name, value in named.items():
        if not (isinstance(value, numbers.Integral) and value >= 0):
            raise ValueError(f"{name} must be an integer of at least 0, got {value!r}")


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
    (caller asserts symmetry); mode ``"aat"`` applies ``A (A^T r)`` without
    materializing ``A A^T``.  Only the Gram mode stores ``A^T`` of a sparse
    matrix.
    """

    def __init__(self, a, mode: str = H_MODE_GRAM):
        if mode not in (H_MODE_SYMMETRIC, H_MODE_GRAM):
            raise ValueError(f"unknown h_mode {mode!r}")
        self.operator = prepare(a, transpose=mode == H_MODE_GRAM)
        m, n = self.operator.shape
        if mode == H_MODE_SYMMETRIC and m != n:
            raise ValueError("symmetric mode requires a square matrix")
        self.mode = mode
        self.dim = m  # H acts on residuals of length m

    def apply(self, r: np.ndarray) -> np.ndarray:
        """``H r``."""
        return self.apply_with_transpose(r)[0]

    def apply_with_transpose(self, r: np.ndarray):
        """``(H r, A^T r)``; the transpose product is the intermediate of the
        Gram mode and comes for free there, ``None`` in symmetric mode."""
        op = self.operator
        if self.mode == H_MODE_SYMMETRIC:
            return op.matvec(r), None
        at_r = op.rmatvec(r)
        return op.matvec(at_r), at_r
