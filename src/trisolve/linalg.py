"""Matrix storage, the prepared operator of a solve, and the
operator ``H`` used by all solvers.

Matrices are plain ``numpy.ndarray`` (dense, row-major) or ``scipy.sparse``
objects, usually ``csr_array`` / ``csr_matrix`` (compressed-row); array-likes
such as nested lists become float64 arrays.  Every solver prepares its matrix
once, at entry, into an :class:`Operator`, which stores ``A`` alone: ``A^T``
is applied from ``A``'s own storage, never from a transposed copy.
CSR and CSC storage keeps int32 indices whenever they fit (see
:class:`Operator`): 12 bytes per nonzero, a quarter fewer than with the
int64 indices that scipy's coordinate constructors give.
Objects with all four of ``matvec``, ``rmatvec``, ``shape`` and
``frobenius_norm`` (e.g. :class:`GramProduct`) are used as they are; anything
else that is not a 2-D real matrix raises ``ValueError`` naming ``A``.
``H`` is either the matrix itself, for symmetric positive semidefinite
input, or the Gram operator ``A A^T``.  :class:`HOperator` applies the Gram
operator as ``A (A^T r)``; on request (:meth:`HOperator.form_gram`, which
``centering_solve`` makes) it forms the ``m x m`` product once for dense
``A`` with ``m <= n`` and applies that instead.

Products on float64 CSR storage call scipy's compiled kernels directly,
skipping the per-call dispatch of ``A @ v``: ``csr_matvec``, and for
``A^T v`` ``csc_matvec`` on the same arrays, the CSC arrays of ``A^T``.
Scipy's own products run these kernels, so the bits are the same, and each
is one template for both index types, so int32 storage keeps the bits of
int64 storage as well.  An :class:`HOperator` on such storage binds its
kernels and their arguments once, when it is built, so each application of
``H`` is two kernel calls in Gram mode, one in symmetric mode, and no
Python frame more (3.2 to 3.7 us instead of 4.7 to 5.2 us on
``clement:301`` and ``convdiff:12``), with the same bits; the kernels add
into a caller's zeroed buffer, so a solve's products can go straight into
one block.  Other sparse formats and CSR storage of another dtype go
through scipy's own ``@``, and dense matrices through numpy's ``matmul``, a
BLAS ``gemv``, which writes into a caller's buffer as well.
The exception is a symmetric dense ``H`` of ``SYMMETRIC_MIN_ROWS`` rows or
more: a formed Gram matrix, or in symmetric mode an ``A`` equal to ``A^T``
to the bit.  :func:`matvec` applies it with BLAS ``dsymv``, which reads one
triangle, so each such bandwidth-bound product reads half the bytes.

This is the one module of the package that reaches ``scipy.sparse``, and it
imports it on first use (:func:`scipy_sparse`): that import is about half
of ``import trisolve``'s start-up, which a caller with dense input never
needs.  No sparse object can exist before ``scipy.sparse`` is loaded, so
:func:`issparse` answers ``False`` without importing it.  ``dsymv`` comes
from ``scipy.linalg.blas``, imported likewise on the first product that
uses it (:func:`blas_dsymv`), so dense work below the floor loads no scipy.

Sparse kernels accumulate left-to-right within each row and are
single-threaded; dense products go through BLAS and stay deterministic for a
fixed thread count; the bits of ``dsymv`` also change with the thread
count.  All objects here are immutable after construction, but for the one
:meth:`HOperator.form_gram` call a solve makes before its first product,
and are safe to share across concurrent solves.
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
import sys

import numpy as np

H_MODE_SYMMETRIC = "a"   # H = A, caller guarantees A symmetric (PSD for theory)
H_MODE_GRAM = "aat"      # H = A A^T

# Dense symmetric products of at least this many rows read one triangle
# (:func:`matvec` with ``symmetric=True``).  A product below it costs at most
# about 55 us, which would not pay back the one-time import of scipy.linalg:
# about 125 ms after scipy.sparse, 260 ms cold, and 8 MB.
SYMMETRIC_MIN_ROWS = 512


@functools.cache
def scipy_sparse() -> tuple:
    """``(scipy.sparse, (csr_array, csr_matrix), csr_matvec, csc_matvec)``,
    imported on the first call.  A plain tuple, because every sparse product
    unpacks it.  The kernels behind ``csr @ v`` and ``csc @ v``, from a
    private scipy module: calling them directly saves about 4 us of dispatch
    per product, most of the cost of a product on small systems;
    tests/test_linalg.py pins their bits to ``a @ v`` and ``v @ a``.  A scipy
    without that module gets :func:`_scipy_matvec` in their place."""
    import scipy.sparse as sparse

    try:
        from scipy.sparse._sparsetools import csc_matvec, csr_matvec
    except ImportError:
        csr_matvec, csc_matvec = (functools.partial(_scipy_matvec, kind)
                                  for kind in (sparse.csr_array, sparse.csc_array))
    return (sparse, (sparse.csr_array, sparse.csr_matrix), csr_matvec, csc_matvec)


def _scipy_matvec(kind, m: int, n: int, indptr, indices, data, v, out) -> None:
    """``out[:] = A @ v`` by scipy's own product, ``A`` the ``m x n`` matrix
    ``kind((data, indices, indptr))``: a private kernel's call shape."""
    out[:] = kind((data, indices, indptr), shape=(m, n)) @ v


@functools.cache
def blas_dsymv():
    """BLAS ``dsymv`` from ``scipy.linalg.blas``, imported on the first call."""
    from scipy.linalg.blas import dsymv

    return dsymv


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


def _product(a, v: np.ndarray, m: int, n: int, out=None) -> np.ndarray:
    """``a @ v`` as a vector of length ``m``, for an ``m x n`` matrix ``a``
    and a float64 vector ``v`` of length ``n``, in ``out`` when given (see
    :func:`matvec`).  Dense storage is numpy's ``matmul`` into ``out``;
    float64 CSR storage goes straight to the kernel, with the output buffer
    that ``a @ v`` would allocate.  Other storage keeps its own ``@``, whose
    result for one row of n-d COO storage is a numpy scalar, hence the
    reshape, and is copied into ``out``."""
    if type(a) is np.ndarray:
        return np.matmul(a, v, out=out)
    _, csr_types, csr_matvec, _ = scipy_sparse()
    if isinstance(a, csr_types) and a.dtype == np.float64:
        if out is None:
            out = np.zeros(m)
        csr_matvec(m, n, a.indptr, a.indices, a.data, v, out)
        return out
    product = np.asarray(a @ v).reshape(m)
    if out is None:
        return product
    out[:] = product
    return out


def matvec(a, v: np.ndarray, *, symmetric: bool = False, out=None) -> np.ndarray:
    """``A @ v`` for a stored matrix, with a deterministic summation order
    for fixed storage.  ``symmetric`` asserts that ``a`` is exactly
    symmetric: a float64 square ndarray of at least ``SYMMETRIC_MIN_ROWS``
    rows then goes to BLAS ``dsymv``, which reads one triangle, half the
    bytes of ``a @ v``, and rounds differently.  Anything else keeps
    ``a @ v`` and its bits.

    ``out``, a zero-filled contiguous float64 vector of ``A``'s row count,
    takes the product and is returned: dense and float64 CSR products write
    into it in place, other sparse storage is copied in.  A wrong-length
    ``v`` raises ``ValueError`` before ``out`` is touched."""
    v = np.asarray(v, dtype=np.float64)
    m, n = a.shape
    if v.shape != (n,):
        raise ValueError(f"matvec: vector has length {v.shape}, matrix has {n} columns")
    if (symmetric and m == n and m >= SYMMETRIC_MIN_ROWS and type(a) is np.ndarray
            and a.dtype == np.float64):
        # the Fortran-ordered one of a and a.T, equal by symmetry: scipy
        # copies a C-ordered argument, about 7x the product at 1000 rows;
        # y is the zero vector dsymv would otherwise allocate
        if out is None:
            out = np.zeros(m)
        return blas_dsymv()(1.0, a.T if a.flags.c_contiguous else a, v, y=out,
                            overwrite_y=True, lower=1)
    return _product(a, v, m, n, out)


def matvec_transpose(a, v: np.ndarray, out=None) -> np.ndarray:
    """``A.T @ v`` for a stored matrix, read from ``a``'s own storage: a
    float64 CSR ``a`` goes to ``csc_matvec`` on its arrays, anything else to
    the product :func:`_product` makes on the view ``a.T``.  A CSC ``a`` has
    a CSR view, which goes to ``csr_matvec``; other sparse views run
    scipy's ``@``, and dense ``a`` BLAS ``a.T @ v``.  For CSR or CSC ``a``
    each entry of the result adds the terms ``A_ji v_j`` in ascending ``j``,
    duplicates in storage order: the bits of ``v @ a``.  ``out`` is that of
    :func:`matvec`, of ``A``'s column count.
    """
    v = np.asarray(v, dtype=np.float64)
    m, n = a.shape
    if v.shape != (m,):
        raise ValueError(f"matvec_transpose: vector has length {v.shape}, matrix has {m} rows")
    if type(a) is not np.ndarray:
        _, csr_types, _, csc_matvec = scipy_sparse()
        if isinstance(a, csr_types) and a.dtype == np.float64:
            if out is None:
                out = np.zeros(n)
            csc_matvec(n, m, a.indptr, a.indices, a.data, v, out)
            return out
    return _product(a.T, v, n, m, out)


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


_INT32_MAX = np.iinfo(np.int32).max


def _narrow_indices(a):
    """CSR or CSC ``a`` with int32 copies of wider ``indices`` and ``indptr``
    when every valid index fits, any other storage as it is (see
    :class:`Operator`).  A shallow copy: it shares ``data`` and keeps the
    class and the cached sortedness flags, at about a third of the cost of
    scipy's constructor."""
    if (a.format not in ("csr", "csc")
            or a.indices.dtype == a.indptr.dtype == np.int32
            or max(a.shape) > _INT32_MAX or a.nnz > _INT32_MAX):
        return a
    narrow = copy.copy(a)
    narrow.indices = a.indices.astype(np.int32)
    narrow.indptr = a.indptr.astype(np.int32)
    return narrow


class Operator:
    """The matrix of one solve: ``A`` as float64 storage, the only matrix
    it stores; :meth:`rmatvec` applies ``A^T`` from it.

    CSR or CSC ``A`` with int64 ``indices`` and ``indptr`` is stored with
    int32 copies of those two arrays when every index fits (shape and
    nonzero count at most ``2^31 - 1``), in the caller's class and sharing
    its ``data``; the caller's object is not touched.  Sparse storage then
    costs 12 bytes per nonzero, and 4 more while the caller keeps its int64
    matrix; the products keep their bits.  Each bandwidth-bound product
    streams a quarter fewer bytes; a matrix that fits in cache gains
    little."""

    def __init__(self, a):
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
        if is_sparse:
            matrix = _narrow_indices(matrix)
        self.matrix = matrix
        self.shape = shape_of(matrix)

    def matvec(self, v: np.ndarray, out=None) -> np.ndarray:
        return matvec(self.matrix, v, out=out)

    def rmatvec(self, v: np.ndarray, out=None) -> np.ndarray:
        return matvec_transpose(self.matrix, v, out)

    def entries(self) -> np.ndarray:
        """Values whose Euclidean norm is ``||A||_F``: the dense matrix, the
        ``data`` of CSR or CSC storage without duplicate entries, with no
        temporary the size of the matrix, or else the ``data`` of a
        canonical CSR copy."""
        a = self.matrix
        if not issparse(a):
            return a
        if not (a.format in ("csr", "csc") and a.has_canonical_format):
            a = a.tocsr(copy=True)
            a.sum_duplicates()
        return a.data

    def frobenius_norm(self) -> float:
        return norm2(self.entries())


def prepare(a):
    """The operator a solve applies: ``a`` itself when it has all of
    ``_OPERATOR_MEMBERS`` (an :class:`Operator`, a :class:`GramProduct`),
    otherwise an :class:`Operator` over ``a``; that raises ``ValueError``
    naming ``A`` for anything but a 2-D real matrix, such as a scipy
    ``LinearOperator``."""
    if all(hasattr(a, member) for member in _OPERATOR_MEMBERS):
        return a
    return Operator(a)


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


def check_positive(*, below: float = math.inf, **named) -> None:
    """Raise ``ValueError`` naming the first keyword argument that is not a
    number in the open interval ``(0, below)``: by default a finite positive
    number, with ``below=1`` a tolerance relative to ``||b||``.  A ``bool``
    is not a number here, though Python counts it as one."""
    for name, value in named.items():
        if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and 0.0 < value < below):
            raise ValueError(f"{name} must be finite and positive, got {value!r}"
                             if below == math.inf else
                             f"{name} must lie in (0, {below:g}), got {value!r}")


def check_count(*, at_least: int = 0, **named) -> None:
    """Raise ``ValueError`` naming the first keyword argument that is not an
    integer of at least ``at_least``: an iteration cap, a size, a seed, an
    order or a step count.  A ``bool`` is not an integer here, though Python
    counts it as one."""
    for name, value in named.items():
        if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                and value >= at_least):
            raise ValueError(f"{name} must be an integer of at least {at_least}, got {value!r}")


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
    (caller asserts symmetry); mode ``"aat"`` applies ``A A^T`` as
    ``A (A^T r)``, or as ``matvec(gram, r)`` once :meth:`form_gram` formed
    ``gram``.  The constructor never forms it: ``gram`` starts as ``None``,
    and ``exactly_symmetric`` as ``False``.

    On float64 CSR storage of an :class:`Operator` the constructor reads
    ``m, n``, ``A``'s three arrays and the kernels ``csc_matvec`` and
    ``csr_matvec`` once; :meth:`apply_with_transpose` then calls those
    kernels (both in Gram mode, ``csr_matvec`` alone in symmetric mode) with
    the arguments :func:`matvec_transpose` and :func:`matvec` would pass, so
    the bits are the same and the four Python frames between them go (3.2
    to 3.7 us instead of 4.7 to 5.2 us per Gram-mode application on
    centering's small gallery systems).  Other storage and caller-supplied
    operators keep the operator's own products; dense ones write into the
    buffer, the others are copied into it.

    ``out_length`` is the length of the one buffer
    :meth:`apply_with_transpose` fills, the caller's or its own: ``n + m``
    while it computes ``A^T r`` as well, else ``m``.
    """

    def __init__(self, a, mode: str = H_MODE_GRAM):
        if mode not in (H_MODE_SYMMETRIC, H_MODE_GRAM):
            raise ValueError(f"unknown h_mode {mode!r}")
        self.operator = prepare(a)
        m, n = self.operator.shape
        if mode == H_MODE_SYMMETRIC and m != n:
            raise ValueError(f"h_mode {mode!r} needs a square matrix, got {m} x {n}")
        self.mode = mode
        self.dim = m  # H acts on residuals of length m
        self.gram = None
        self.exactly_symmetric = False
        self.out_length = n + m if mode == H_MODE_GRAM else m
        # float64 CSR storage, the test _product makes on every call: the
        # kernels and their arguments, read once
        self._kernels = None
        op = self.operator
        if isinstance(op, Operator) and issparse(op.matrix):
            a = op.matrix
            _, csr_types, csr_matvec, csc_matvec = scipy_sparse()
            if isinstance(a, csr_types) and a.dtype == np.float64:
                self._kernels = (m, n, a.indptr, a.indices, a.data, csr_matvec, csc_matvec)

    def form_gram(self) -> bool:
        """Set up the dense products of ``H`` once, before the first; return
        whether ``H`` is now applied as ``gram r``.  Only dense
        :class:`Operator` storage takes part.

        In Gram mode with ``m <= n`` it forms ``gram = A A^T`` with BLAS-3.
        Each application then reads ``m^2`` entries instead of ``2mn``, one
        triangle of them from ``SYMMETRIC_MIN_ROWS`` rows on, since ``gram``
        is exactly symmetric; it costs ``m^2`` more floats, never more than
        ``A``'s own ``mn``.  Sparse ``A`` (whose product fills in), tall
        ``A`` and caller-supplied operators keep their products.

        In symmetric mode with at least ``SYMMETRIC_MIN_ROWS`` rows it checks
        once, for about six products' worth of reads, whether ``A`` equals
        ``A^T`` to the bit, and sets ``exactly_symmetric``: each product then
        reads one triangle.  A matrix that is not exactly symmetric keeps
        its full product and its bits."""
        op = self.operator
        m, n = op.shape
        dense = isinstance(op, Operator) and type(op.matrix) is np.ndarray
        if self.mode == H_MODE_GRAM and dense and m <= n:
            self.gram = op.matrix @ op.matrix.T
            self.out_length = m
        elif self.mode == H_MODE_SYMMETRIC and dense and m >= SYMMETRIC_MIN_ROWS:
            self.exactly_symmetric = np.array_equal(op.matrix, op.matrix.T)
        return self.gram is not None

    def apply(self, r: np.ndarray) -> np.ndarray:
        """``H r``."""
        return self.apply_with_transpose(r)[0]

    def apply_with_transpose(self, r: np.ndarray, out: np.ndarray | None = None):
        """``(H r, A^T r)`` when ``H`` is applied as ``A (A^T r)``, whose
        intermediate comes for free; ``(H r, None)`` when no ``A^T`` product
        was computed: in symmetric mode, and with ``gram`` formed.

        ``out``, a zero-filled float64 vector of :attr:`out_length` that is
        allocated here when not given, takes the products: ``[A^T r; H r]``,
        or ``H r`` alone, and the results are views of it.  The kernels bound
        on CSR storage add into it in place, and dense products (``gemv``,
        ``dsymv``, a formed ``gram``) write into it (see :func:`matvec`);
        other sparse storage and caller operators are copied into it."""
        if out is None:
            out = np.zeros(self.out_length)
        if self._kernels is not None:
            m, n, indptr, indices, data, csr_matvec, csc_matvec = self._kernels
            r = np.asarray(r, dtype=np.float64)
            if r.shape == (m,):  # else the operator's own product names the length
                if self.mode == H_MODE_SYMMETRIC:
                    csr_matvec(m, n, indptr, indices, data, r, out)
                    return out, None
                at_r, hr = out[:n], out[n:]
                csc_matvec(n, m, indptr, indices, data, r, at_r)
                csr_matvec(m, n, indptr, indices, data, at_r, hr)
                return hr, at_r
        op = self.operator
        if self.gram is not None:
            return matvec(self.gram, r, symmetric=True, out=out), None
        if self.exactly_symmetric:
            return matvec(op.matrix, r, symmetric=True, out=out), None
        if self.mode == H_MODE_SYMMETRIC:
            return self._product(op.matvec, r, out), None
        n = op.shape[1]
        at_r = self._product(op.rmatvec, r, out[:n])
        return self._product(op.matvec, at_r, out[n:]), at_r

    def _product(self, product, v, out):
        """``product(v)`` in ``out``: an :class:`Operator`'s products write
        into it themselves, a caller operator's result is copied in."""
        if isinstance(self.operator, Operator):
            return product(v, out)
        out[:] = product(v)
        return out
