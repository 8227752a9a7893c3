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

:func:`matvec` and :func:`matvec_transpose` return ``A v`` and ``A^T v`` as
new vectors: numpy's ``matmul`` (a BLAS ``gemv``) on dense storage, scipy's
``@`` on other storage but float64 CSR and CSC, whose products skip that
dispatch and call scipy's compiled kernels ``csr_matvec`` and
``csc_matvec`` on ``A``'s own arrays (the arrays of ``A^T`` in the other
format).  :func:`_kernels` alone maps storage to them.  Scipy's own
products run these kernels, one template for both index types, so the bits
are those of ``A @ v`` for int32 and int64 storage alike.

``H`` is either the matrix itself, for symmetric positive semidefinite
input, or the Gram operator ``A A^T``, applied as ``A (A^T r)`` or, once
:meth:`HOperator.form_gram` formed it for dense ``A`` with ``m <= n``, as
the ``m x m`` product.  :class:`HOperator` binds its products once, and is
the one writer into a caller's buffer and the one user of BLAS ``dsymv``,
which reads one triangle of a symmetric dense ``H``, half the bytes.

This is the one module of the package that reaches ``scipy.sparse``, and it
imports it on first use (:func:`scipy_sparse`): that import is about half
of ``import trisolve``'s start-up, which a caller with dense input never
needs.  No sparse object can exist before ``scipy.sparse`` is loaded, so
:func:`issparse` answers ``False`` without importing it.  ``dsymv`` comes
from ``scipy.linalg.blas``, imported likewise on the first ``H`` that
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

# Dense symmetric ``H`` of at least this many rows reads one triangle
# (:meth:`HOperator.form_gram`).  A product below it costs at most about
# 55 us, which would not pay back the one-time import of scipy.linalg:
# about 125 ms after scipy.sparse, 260 ms cold, and 8 MB.
SYMMETRIC_MIN_ROWS = 512


@functools.cache
def scipy_sparse() -> tuple:
    """``(scipy.sparse, kernels)``, imported on the first call.  ``kernels``
    maps each CSR and CSC class to the pair of kernels behind ``a @ v`` and
    ``v @ a``, from a private scipy module: calling them directly saves
    about 4 us of dispatch per product, most of the cost of a product on
    small systems; tests/test_linalg.py pins their bits to ``a @ v`` and
    ``v @ a``.  A scipy without that module gets :func:`_scipy_matvec` in
    their place.  Read through :func:`_kernels`."""
    import scipy.sparse as sparse

    try:
        from scipy.sparse._sparsetools import csc_matvec, csr_matvec
    except ImportError:
        csr_matvec, csc_matvec = (functools.partial(_scipy_matvec, kind)
                                  for kind in (sparse.csr_array, sparse.csc_array))
    # the CSR arrays of A are the CSC arrays of A^T, and the other way round
    by_row, by_column = (csr_matvec, csc_matvec), (csc_matvec, csr_matvec)
    return sparse, {sparse.csr_array: by_row, sparse.csr_matrix: by_row,
                    sparse.csc_array: by_column, sparse.csc_matrix: by_column}


def _scipy_matvec(kind, m: int, n: int, indptr, indices, data, v, out) -> None:
    """``out[:] = A @ v`` by scipy's own product, ``A`` the ``m x n`` matrix
    ``kind((data, indices, indptr))``: a private kernel's call shape."""
    out[:] = kind((data, indices, indptr), shape=(m, n)) @ v


def _kernels(a):
    """Scipy's kernel pair ``(A v, A^T v)`` for float64 CSR or CSC storage
    ``a`` (not an ndarray), else ``None``.  Each kernel is called as
    ``kernel(rows, cols, a.indptr, a.indices, a.data, v, out)`` with the
    shape of its own product, and adds into ``out``.  A lookup of
    ``type(a)``, a fraction of the cost of ``issparse``."""
    kernels = scipy_sparse()[1].get(type(a))
    return kernels if kernels is not None and a.dtype == np.float64 else None


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


def _vector(name: str, v, length: int) -> np.ndarray:
    """``v`` as the float64 vector of ``length`` entries that the product
    ``name``, :func:`matvec` or :func:`matvec_transpose`, takes; raises
    ``ValueError`` naming the product for any other shape."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (length,):
        side = "rows" if name == "matvec_transpose" else "columns"
        raise ValueError(f"{name}: vector has length {v.shape}, matrix has {length} {side}")
    return v


def matvec(a, v: np.ndarray) -> np.ndarray:
    """``A @ v`` as a new vector, for a stored matrix, with a deterministic
    summation order for fixed storage: numpy's ``matmul`` on dense storage,
    the kernel of :func:`_kernels` on float64 CSR or CSC storage, scipy's
    ``@`` on anything else (whose result for one row of n-d COO storage is
    a numpy scalar, hence the reshape)."""
    m, n = a.shape
    v = _vector("matvec", v, n)
    if type(a) is np.ndarray:
        return np.matmul(a, v)
    kernels = _kernels(a)
    if kernels is None:
        return np.asarray(a @ v).reshape(m)
    out = np.zeros(m)
    kernels[0](m, n, a.indptr, a.indices, a.data, v, out)
    return out


def matvec_transpose(a, v: np.ndarray) -> np.ndarray:
    """``A.T @ v`` as a new vector, read from ``a``'s own storage: BLAS
    ``a.T @ v`` on dense storage, the other kernel of :func:`_kernels` on
    ``a``'s arrays for float64 CSR or CSC storage, scipy's ``@`` on the
    view ``a.T`` for anything else.  For CSR or CSC ``a`` each entry of the
    result adds the terms ``A_ji v_j`` in ascending ``j``, duplicates in
    storage order: the bits of ``v @ a``."""
    m, n = a.shape
    v = _vector("matvec_transpose", v, m)
    if type(a) is np.ndarray:
        return np.matmul(a.T, v)
    kernels = _kernels(a)
    if kernels is None:
        return np.asarray(a.T @ v).reshape(n)
    out = np.zeros(n)
    kernels[1](n, m, a.indptr, a.indices, a.data, v, out)
    return out


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

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return matvec(self.matrix, v)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        return matvec_transpose(self.matrix, v)

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
    ``A (A^T r)``, or as ``gram r`` once :meth:`form_gram` formed ``gram``.
    The constructor never forms it: ``gram`` starts as ``None``, and
    ``exactly_symmetric`` as ``False``.

    ``H`` is the one writer into a caller's buffer.  The constructor picks
    its writers ``f(v, out)`` of ``A v`` and ``A^T v`` once: numpy's
    ``matmul`` on dense :class:`Operator` storage, the kernels of
    :func:`_kernels` bound to ``A``'s shape and arrays on float64 CSR or CSC
    storage, both in place and with the bits of :func:`matvec` and
    :func:`matvec_transpose` (3.2 to 3.7 us instead of 4.7 to 5.2 us per
    Gram-mode application on centering's small gallery systems), else a
    copy of the operator's own product.  Symmetric mode has no ``A^T``
    writer.  :meth:`form_gram` rebinds the ``A v`` writer to ``gram`` or to
    an exactly symmetric ``A``, by BLAS ``dsymv`` from ``SYMMETRIC_MIN_ROWS``
    rows on.

    ``out_length`` is the length of the one buffer
    :meth:`apply_with_transpose` fills, the caller's or its own: ``n + m``
    while it computes ``A^T r`` as well, else ``m``.
    """

    def __init__(self, a, mode: str = H_MODE_GRAM):
        if mode not in (H_MODE_SYMMETRIC, H_MODE_GRAM):
            raise ValueError(f"unknown h_mode {mode!r}")
        op = self.operator = prepare(a)
        m, n = op.shape
        if mode == H_MODE_SYMMETRIC and m != n:
            raise ValueError(f"h_mode {mode!r} needs a square matrix, got {m} x {n}")
        self.mode = mode
        self.dim = m  # H acts on residuals of length m
        self.gram = None
        self.exactly_symmetric = False
        self.out_length = n + m if mode == H_MODE_GRAM else m
        matrix = op.matrix if isinstance(op, Operator) else None
        if type(matrix) is np.ndarray:
            self._a = functools.partial(np.matmul, matrix)
            self._at = functools.partial(np.matmul, matrix.T)
        elif matrix is not None and (kernels := _kernels(matrix)) is not None:
            arrays = (matrix.indptr, matrix.indices, matrix.data)
            self._a = functools.partial(kernels[0], m, n, *arrays)
            self._at = functools.partial(kernels[1], n, m, *arrays)
        else:
            self._a, self._at = _copied(op.matvec), _copied(op.rmatvec)
        if mode == H_MODE_SYMMETRIC:
            self._at = None

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
        symmetric = None  # a dense H equal to its transpose to the bit
        if self.mode == H_MODE_GRAM and dense and m <= n:
            symmetric = self.gram = op.matrix @ op.matrix.T
            self._a, self._at, self.out_length = functools.partial(np.matmul, symmetric), None, m
        elif self.mode == H_MODE_SYMMETRIC and dense and m >= SYMMETRIC_MIN_ROWS:
            self.exactly_symmetric = np.array_equal(op.matrix, op.matrix.T)
            symmetric = op.matrix if self.exactly_symmetric else None
        if symmetric is not None and m >= SYMMETRIC_MIN_ROWS:
            # the Fortran-ordered one of H and H^T, equal by symmetry: scipy
            # copies a C-ordered argument, about 7x the product at 1000 rows;
            # out is the zero vector dsymv would otherwise allocate
            dsymv = blas_dsymv()
            g = symmetric.T if symmetric.flags.c_contiguous else symmetric
            self._a = lambda v, out: dsymv(1.0, g, v, y=out, overwrite_y=True, lower=1)
        return self.gram is not None

    def apply(self, r: np.ndarray) -> np.ndarray:
        """``H r``."""
        return self.apply_with_transpose(r)[0]

    def apply_with_transpose(self, r: np.ndarray, out: np.ndarray | None = None):
        """``(H r, A^T r)`` when ``H`` is applied as ``A (A^T r)``, whose
        intermediate comes for free; ``(H r, None)`` when no ``A^T`` product
        was computed: in symmetric mode, and with ``gram`` formed.

        ``out``, a zero-filled C-contiguous float64 vector of
        :attr:`out_length` entries that is allocated here when not given,
        takes the products: ``[A^T r; H r]``, or ``H r`` alone, and the
        results are views of it.  Any other ``out``, and an ``r`` of another
        length than ``A``'s rows, raise ``ValueError`` before anything is
        written."""
        m = self.dim
        r = _vector("matvec" if self._at is None else "matvec_transpose", r, m)
        if out is None:
            out = np.zeros(self.out_length)
        elif not (type(out) is np.ndarray and out.dtype == np.float64
                  and out.shape == (self.out_length,) and out.flags.c_contiguous):
            raise ValueError(f"out must be a C-contiguous float64 vector of "
                             f"{self.out_length} entries")
        if self._at is None:
            self._a(r, out)
            return out, None
        n = self.out_length - m
        at_r, hr = out[:n], out[n:]
        self._at(r, at_r)
        self._a(at_r, hr)
        return hr, at_r


def _copied(product):
    """``product(v)`` as a writer ``f(v, out)`` of ``H``: the result is
    copied into ``out``."""
    def write(v, out):
        out[:] = product(v)
    return write
