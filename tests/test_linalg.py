import functools
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.sparse.linalg import aslinearoperator

import trisolve
from conftest import fresh_python, random_sparse
from trisolve import gallery
from trisolve.centering import CenteringOptions, centering_solve
from trisolve.dynamics import phase_portrait
from trisolve.feasibility import nonnegative_feasibility
from trisolve.hybrid import HybridOptions, hybrid_solve
from trisolve.linalg import (
    SYMMETRIC_MIN_ROWS,
    GramProduct,
    HOperator,
    Operator,
    check_count,
    check_positive,
    matvec,
    matvec_transpose,
    norm2,
    _scipy_matvec,
    prepare,
    scipy_sparse,
)
from trisolve.triangle import min_norm_solve, solve_adaptive, solve_in_ball


class TestMatvec:
    def test_row_sums(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matvec(a, [1.0, 1.0]), [3.0, 7.0])

    def test_identity(self):
        assert np.array_equal(matvec(np.eye(3), [5.0, -2.0, 0.0]), [5.0, -2.0, 0.0])

    def test_sparse_single_entry(self):
        a = sparse.csr_array(([7.0], ([1], [2])), shape=(2, 3))
        assert np.array_equal(matvec(a, [0.0, 0.0, 2.0]), [0.0, 14.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matvec(np.eye(3), [1.0, 2.0])


class TestMatvecTranspose:
    def test_picks_first_row(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matvec_transpose(a, [1.0, 0.0]), [1.0, 2.0])

    def test_zero_matrix(self):
        a = sparse.csr_array(np.zeros((4, 3)))
        assert np.array_equal(matvec_transpose(a, np.ones(4)), np.zeros(3))

    def test_column_sum(self):
        a = np.array([[1.0], [1.0], [1.0]])
        assert np.array_equal(matvec_transpose(a, [1.0, 2.0, 3.0]), [6.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matvec_transpose(np.eye(3), np.ones(4))

    def test_basis_vectors_recover_rows(self):
        # A^T e_i must equal row i read straight out of storage.
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = int(rng.integers(1, 31))
            n = int(rng.integers(1, 31))
            dense = rng.standard_normal((m, n))
            for a in (dense, sparse.csr_array(dense)):
                for i in range(m):
                    e = np.zeros(m)
                    e[i] = 1.0
                    assert np.array_equal(matvec_transpose(a, e), dense[i])


class TestHOperator:
    def test_gram_mode_hand_expansion(self):
        h = HOperator(np.array([[2.0, 0.0], [0.0, 0.0]]), "aat")
        assert np.array_equal(h.apply(np.array([1.0, 1.0])), [4.0, 0.0])

    def test_symmetric_mode_diagonal(self):
        h = HOperator(np.diag([1.0, 3.0]), "a")
        assert np.array_equal(h.apply(np.array([1.0, 1.0])), [1.0, 3.0])

    def test_gram_mode_identity(self):
        h = HOperator(np.eye(2), "aat")
        r = np.array([2.5, -1.25])
        assert np.allclose(h.apply(r), r)

    def test_symmetric_mode_needs_square(self):
        with pytest.raises(ValueError, match="^h_mode 'a' needs a square matrix, got 2 x 3$"):
            HOperator(np.ones((2, 3)), "a")

    def test_gram_quadratic_form_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = int(rng.integers(1, 15))
            n = int(rng.integers(1, 15))
            a = rng.standard_normal((m, n))
            r = rng.standard_normal(m)
            h = HOperator(a, "aat")
            hr = h.apply(r)
            assert float(np.dot(r, hr)) >= -1e-12

    @pytest.mark.parametrize("case, formed", [
        ("wide", True), ("square", True), ("tall", False), ("sparse", False),
        ("symmetric", False), ("operator", False)])
    def test_form_gram_on_dense_storage_with_m_at_most_n(self, case, formed):
        wide = np.random.default_rng(5).standard_normal((4, 6))
        a, mode = {"wide": (wide, "aat"), "square": (wide[:, :4], "aat"),
                   "tall": (wide.T, "aat"), "sparse": (sparse.csr_array(wide), "aat"),
                   "symmetric": (wide @ wide.T, "a"), "operator": (GramProduct(wide), "aat")}[case]
        h = HOperator(a, mode)
        assert h.gram is None  # the constructor never forms it
        assert h.form_gram() is formed
        assert (h.gram is not None) is formed

    def test_formed_gram_applies_the_product(self):
        rng = np.random.default_rng(6)
        a, r = rng.standard_normal((5, 8)), rng.standard_normal(5)
        h = HOperator(a, "aat")
        products = h.apply(r)
        h.form_gram()
        hr, direction = h.apply_with_transpose(r)
        assert direction is None  # no A^T product was computed
        assert np.allclose(hr, products, rtol=1e-13, atol=0.0)
        assert np.array_equal(h.gram, h.gram.T)

    def test_gram_never_materializes_product(self):
        # a 1 x n matrix: the Gram product would be n x n, but only O(n)
        # work and memory are needed
        n = 50_000
        a = sparse.csr_array(np.ones((1, n)))
        h = HOperator(a, "aat")
        out = h.apply(np.array([2.0]))
        assert out.shape == (1,) and out[0] == 2.0 * n


def _exactly_symmetric(m, seed=22):
    b = np.random.default_rng(seed).standard_normal((m, m // 2))
    return b @ b.T


class TestSymmetricKernel:
    """Exactly symmetric dense storage of ``SYMMETRIC_MIN_ROWS`` rows or more
    is applied by BLAS ``dsymv``, which reads one triangle; everything else
    keeps the bits of ``a @ v``."""

    @pytest.mark.parametrize("m", [SYMMETRIC_MIN_ROWS, 600])
    def test_one_triangle_matches_the_full_product(self, m):
        g = _exactly_symmetric(m)
        v = np.random.default_rng(m).standard_normal(m)
        full = g @ v
        out = matvec(g, v, symmetric=True)
        assert norm2(out - full) <= 1e-13 * norm2(full)
        # the Fortran-ordered copy reads the same triangle in the same order
        assert matvec(np.asfortranarray(g), v, symmetric=True).tobytes() == out.tobytes()

    @pytest.mark.parametrize("m", [5, SYMMETRIC_MIN_ROWS - 1])
    def test_below_the_floor_keeps_the_full_product(self, m):
        g = _exactly_symmetric(m)
        v = np.random.default_rng(m).standard_normal(m)
        assert matvec(g, v, symmetric=True).tobytes() == (g @ v).tobytes()

    def test_other_storage_keeps_its_product(self):
        g = _exactly_symmetric(600)
        v = np.random.default_rng(1).standard_normal(600)
        for stored in (sparse.csr_array(g), g.astype(np.float32)):
            assert matvec(stored, v, symmetric=True).tobytes() == matvec(stored, v).tobytes()

    @pytest.mark.parametrize("m, exact", [(600, True), (SYMMETRIC_MIN_ROWS - 1, False)])
    def test_symmetric_mode_checks_the_matrix(self, m, exact):
        a = _exactly_symmetric(m)
        r = np.random.default_rng(2).standard_normal(m)
        h = HOperator(a, "a")
        assert h.exactly_symmetric is False  # the constructor never checks
        assert h.form_gram() is False
        assert h.exactly_symmetric is exact
        expected = matvec(a, r, symmetric=True) if exact else a @ r
        assert h.apply(r).tobytes() == expected.tobytes()

    def test_one_ulp_off_symmetric_keeps_the_full_product(self):
        a = _exactly_symmetric(600)
        a[3, 7] = np.nextafter(a[3, 7], np.inf)
        r = np.random.default_rng(3).standard_normal(600)
        h = HOperator(a, "a")
        h.form_gram()
        assert h.exactly_symmetric is False
        assert h.apply(r).tobytes() == (a @ r).tobytes()

    def test_formed_gram_reads_one_triangle(self):
        rng = np.random.default_rng(4)
        a, r = rng.standard_normal((600, 700)), rng.standard_normal(600)
        h = HOperator(a, "aat")
        assert h.form_gram() is True
        hr, direction = h.apply_with_transpose(r)
        assert direction is None
        assert hr.tobytes() == matvec(h.gram, r, symmetric=True).tobytes()


class TestProductsIntoOut:
    """``HOperator.apply_with_transpose(r, out)`` writes ``[A^T r; H r]``,
    or ``H r`` alone, into a zeroed ``out`` of ``out_length`` entries and
    returns views of it, with the bytes of ``out=None``, on every storage and
    mode; with ``out=None`` it fills one buffer of its own the same way."""

    @staticmethod
    def _operator(case):
        rng = np.random.default_rng(31)
        base = sparse.random(9, 12, density=0.4, random_state=rng, format="csr")
        square = (base[:, :9] + base[:, :9].T).tocsr()
        wide = rng.standard_normal((SYMMETRIC_MIN_ROWS + 4, SYMMETRIC_MIN_ROWS + 20))
        mode = "a" if case.startswith("symmetric") else "aat"
        a = {"csr": base, "csr-int64": _with_index_dtype(base, np.int64),
             "csc": base.tocsc(), "coo": base.tocoo(), "dense": base.toarray(),
             "tall-dense": base.toarray().T, "formed": base.toarray(), "formed-dsymv": wide,
             "gram-product": GramProduct(base), "symmetric-csr": square,
             "symmetric-dense": square.toarray(), "symmetric-dsymv": _exactly_symmetric(600),
             }[case]
        h = HOperator(a, mode)
        if case in ("formed", "formed-dsymv", "symmetric-dsymv"):
            h.form_gram()
        assert (h.gram is not None) is case.startswith("formed")
        assert h.exactly_symmetric is (case == "symmetric-dsymv")
        return h

    @pytest.mark.parametrize("case", [
        "csr", "csr-int64", "csc", "coo", "dense", "tall-dense", "formed", "formed-dsymv",
        "gram-product", "symmetric-csr", "symmetric-dense", "symmetric-dsymv"])
    def test_products_are_views_of_out_with_the_same_bytes(self, case):
        h = self._operator(case)
        m, n = h.operator.shape
        rng = np.random.default_rng(32)
        for r in (rng.standard_normal(m), rng.standard_normal(2 * m)[::2]):
            hr, at_r = h.apply_with_transpose(r)
            own = hr if hr.base is None else hr.base
            assert own.shape == (h.out_length,) and own.flags.owndata
            assert at_r is None or at_r.base is own
            out = np.zeros(h.out_length)
            into, at_into = h.apply_with_transpose(r, out)
            assert np.shares_memory(into, out) and into.tobytes() == hr.tobytes()
            if at_r is None:
                assert at_into is None and h.out_length == m
                assert out.tobytes() == hr.tobytes()
            else:
                assert np.shares_memory(at_into, out) and at_into.tobytes() == at_r.tobytes()
                assert out.tobytes() == np.concatenate((at_r, hr)).tobytes()
        for bad in (np.ones(m + 1), np.ones(max(m - 1, 0))):
            with pytest.raises(ValueError) as plain:
                h.apply_with_transpose(bad)
            out = np.zeros(h.out_length)
            with pytest.raises(ValueError) as into:
                h.apply_with_transpose(bad, out)
            assert str(into.value) == str(plain.value)
            assert not out.any()  # nothing was written


    def test_dense_products_write_into_out_with_the_bits_of_matmul(self):
        # gemv into a slice of a larger zeroed block, on C- and F-ordered and
        # strided storage, with contiguous and strided vectors: the bytes of
        # a @ v and a.T @ v; dsymv into it has the bytes of its own result
        rng = np.random.default_rng(33)
        base = rng.standard_normal((70, 90))
        for a in (base, np.asfortranarray(base), base[::2, 1::3], base.T):
            m, n = a.shape
            for v, w in ((rng.standard_normal(n), rng.standard_normal(m)),
                         (rng.standard_normal(2 * n)[::2], rng.standard_normal(2 * m)[::2])):
                for product, vector, length, expected in (
                        (lambda v, out: matvec(a, v, out=out), v, m, a @ v),
                        (lambda v, out: matvec_transpose(a, v, out), w, n, a.T @ w),
                        (lambda v, out: Operator(a).matvec(v, out), v, m, a @ v),
                        (lambda v, out: Operator(a).rmatvec(v, out), w, n, a.T @ w)):
                    block = np.zeros(length + 5)
                    got = product(vector, block[3:3 + length])
                    assert np.shares_memory(got, block) and got.tobytes() == expected.tobytes()
                    assert not block[:3].any() and not block[3 + length:].any()
        g = _exactly_symmetric(SYMMETRIC_MIN_ROWS + 3)
        m = g.shape[0]
        v = rng.standard_normal(m)
        block = np.zeros(m + 4)
        got = matvec(g, v, symmetric=True, out=block[2:2 + m])
        assert np.shares_memory(got, block)
        assert got.tobytes() == matvec(g, v, symmetric=True).tobytes()


class TestNorm2:
    def test_three_four_five(self):
        assert norm2(np.array([3.0, 4.0])) == 5.0

    def test_zero(self):
        assert norm2(np.zeros(7)) == 0.0

    def test_ones(self):
        assert norm2(np.ones(4)) == 2.0

    def test_bits_match_numpy(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            v = rng.standard_normal(int(rng.integers(0, 500))) * 10.0 ** rng.integers(-150, 150)
            assert norm2(v) == np.linalg.norm(v)
        m = rng.standard_normal((7, 9))
        for w in (m, m.T, m[:, ::2], [3.0, 4.0]):
            assert norm2(w) == np.linalg.norm(w)


class TestSparseDenseAgreement:
    def test_paths_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            sp = random_sparse(rng, max_mn=30)
            de = sp.toarray()
            v = rng.standard_normal(sp.shape[1])
            w = rng.standard_normal(sp.shape[0])
            mv_s, mv_d = matvec(sp, v), matvec(de, v)
            mt_s, mt_d = matvec_transpose(sp, w), matvec_transpose(de, w)
            scale = max(norm2(mv_d), 1e-300)
            assert norm2(mv_s - mv_d) <= 1e-13 * scale
            scale = max(norm2(mt_d), 1e-300)
            assert norm2(mt_s - mt_d) <= 1e-13 * scale


def _csr_parts(cls, rng, shape, rows_of_entries):
    """CSR matrix of class ``cls`` whose row ``i`` stores the entries of
    ``rows_of_entries[i]`` (column lists, kept in the given order, repeats
    kept as duplicates)."""
    indptr = np.cumsum([0] + [len(cols) for cols in rows_of_entries])
    indices = np.array([c for cols in rows_of_entries for c in cols], dtype=np.int32)
    return cls((rng.standard_normal(len(indices)), indices, indptr), shape=shape)


_CSC = (sparse.csc_array, sparse.csc_matrix)


def _with_index_dtype(a, dtype):
    a = a.copy()
    a.indices = a.indices.astype(dtype)
    a.indptr = a.indptr.astype(dtype)
    return a


# scipy's private kernel module as a scipy without it would have it; scipy's
# own products keep the kernels they bound at import
_WITHOUT_SPARSETOOLS = """
import functools
import sys

import scipy.sparse

sys.modules["scipy.sparse._sparsetools"] = None
del scipy.sparse._sparsetools

from trisolve import linalg
assert isinstance(linalg.scipy_sparse()[2], functools.partial)
"""

_SPARSE_SOLVES = """
import numpy as np
import scipy.sparse as sparse
from trisolve import (CenteringOptions, HybridOptions, centering_solve, gallery, hybrid_solve,
                      nonnegative_feasibility, solve_adaptive)

rng = np.random.default_rng(24)
a = sparse.random(15, 25, density=0.3, random_state=rng, format="csr")
b = a @ rng.uniform(0.5, 1.5, 25)
spd = gallery.make("poisson-d", 4)
for res in (solve_adaptive(a, b, 1e-8),
            centering_solve(a, b, CenteringOptions(1e-10, h_mode="aat")),
            centering_solve(spd, gallery.row_sum_rhs(spd), CenteringOptions(1e-10, h_mode="a")),
            nonnegative_feasibility(a, b, 1e-6),
            hybrid_solve(a, b, HybridOptions(want_min_norm=True))):
    print(res.status, res.iterations, res.x.tobytes().hex())
"""


# numpy's private LAPACK gufuncs blocked, as a numpy that moved them would
# leave them: argv[1] "module" removes the module, "attribute" leaves one
# with neither ``lstsq`` nor ``lstsq_m``.  numpy.testing imports the module
# itself, so it and the scipy modules that import it come first.
_WITHOUT_UMATH_LINALG = """
import sys

import numpy.testing
import scipy.linalg
import scipy.sparse
import numpy.linalg

if sys.argv[1] == "module":
    sys.modules["numpy.linalg._umath_linalg"] = None
    del numpy.linalg._umath_linalg
else:
    numpy.linalg._umath_linalg = object()

from trisolve import centering
assert not isinstance(centering._gelsd, numpy.ufunc)
"""

_MOMENT_SOLVES = """
import numpy as np
from trisolve import CenteringOptions, HybridOptions, centering_solve, gallery, hybrid_solve

for family, n, h_mode in (("convdiff", 12, "aat"), ("clement", 101, "aat"),
                          ("poisson-d", 20, "a"), ("ode", 600, "aat")):
    a = gallery.make(family, n)
    res = centering_solve(a, gallery.row_sum_rhs(a), CenteringOptions(1e-9, h_mode=h_mode))
    print(res.status, res.iterations, res.x.tobytes().hex())
rng = np.random.default_rng(7)
a = rng.standard_normal((60, 90))
res = hybrid_solve(a, a @ rng.standard_normal(90), HybridOptions(want_min_norm=True))
print(res.status, res.iterations, res.x.tobytes().hex())
"""


@pytest.fixture
def module_products(monkeypatch):
    """One entry per call of ``linalg.matvec`` or ``linalg.matvec_transpose``,
    the module functions that ``Operator`` products go through."""
    calls = []
    for name in ("matvec", "matvec_transpose"):
        def counted(*args, _name=name, _product=getattr(trisolve.linalg, name), **kwargs):
            calls.append(_name)
            return _product(*args, **kwargs)

        monkeypatch.setattr(trisolve.linalg, name, counted)
    return calls


class TestStoredTranspose:
    """Products on CSR storage go straight to scipy's kernels, ``A^T v``
    through the CSC kernel on ``A``'s own arrays, and have the bits of
    scipy's own ``A @ v`` and ``v @ A``."""

    def _cases(self, classes=(sparse.csr_array, sparse.csr_matrix)):
        rng = np.random.default_rng(17)
        for cls in classes:
            # a CSC class stores the index lists below as columns
            flip = (lambda shape: shape[::-1]) if cls in _CSC else (lambda shape: shape)
            matrices = []
            for shape in ((40, 40), (25, 60), (60, 25)):
                matrices.append(cls(sparse.random(*shape, density=0.2, random_state=rng,
                                                  format="csr")))
            # unsorted indices, then duplicate entries
            matrices.append(_csr_parts(cls, rng, flip((3, 5)),
                                       [[4, 0, 2], [3, 1], [2, 4, 0, 1]]))
            matrices.append(_csr_parts(cls, rng, flip((3, 4)),
                                       [[1, 1, 3], [0, 2, 0, 0], [3, 1, 3]]))
            # empty rows (columns), one of them last
            matrices.append(_csr_parts(cls, rng, flip((5, 4)), [[], [2, 0], [], [1, 3], []]))
            # no rows, no columns
            matrices.append(_csr_parts(cls, rng, flip((0, 4)), []))
            matrices.append(_csr_parts(cls, rng, flip((4, 0)), [[], [], [], []]))
            for a in matrices:
                for dtype in (np.int32, np.int64):
                    yield _with_index_dtype(a, dtype)

    @staticmethod
    def _vectors(rng, k):
        yield rng.standard_normal(k)
        yield rng.standard_normal(k)
        yield rng.standard_normal(2 * k)[::2]  # strided, not contiguous

    def test_byte_identical_to_left_product(self):
        rng = np.random.default_rng(18)
        cases = list(self._cases((sparse.csr_array, sparse.csr_matrix) + _CSC))
        cases += [a.astype(np.float32) for a in self._cases()]
        for a in cases:
            op = Operator(a)
            for v in self._vectors(rng, a.shape[0]):
                expected = np.asarray(v @ a)
                assert op.rmatvec(v).tobytes() == expected.tobytes()
                assert matvec_transpose(a, v).tobytes() == expected.tobytes()

    def test_matvec_byte_identical_to_product(self):
        rng = np.random.default_rng(19)
        for a in self._cases():
            op = Operator(a)
            for v in self._vectors(rng, a.shape[1]):
                expected = a @ v
                assert matvec(a, v).tobytes() == expected.tobytes()
                assert op.matvec(v).tobytes() == expected.tobytes()

    def test_other_storage_keeps_scipy_product(self):
        # other sparse formats, and CSR of another dtype, go through a @ v
        rng = np.random.default_rng(20)
        base = sparse.random(7, 5, density=0.4, random_state=rng, format="csr")
        others = [cls(base) for cls in (sparse.csc_array, sparse.csc_matrix,
                                        sparse.coo_array, sparse.coo_matrix,
                                        sparse.lil_array, sparse.bsr_array)]
        # COO with duplicate coordinates, which products sum
        others.append(sparse.coo_array((rng.standard_normal(6), ([0, 0, 3, 6, 3, 0],
                                                                 [1, 1, 4, 0, 4, 1])),
                                       shape=(7, 5)))
        others += [sparse.csr_array(base, dtype=np.float32),
                   sparse.csr_array(np.round(10 * base.toarray()).astype(np.int64)),
                   sparse.csr_array(base * (1.0 + 2.0j))]
        for a in others:
            v, w = rng.standard_normal(5), rng.standard_normal(7)
            assert matvec(a, v).tobytes() == (a @ v).tobytes()
            assert matvec_transpose(a, w).tobytes() == np.asarray(w @ a).tobytes()

    def test_dense_storage_keeps_blas_product(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((7, 5))
        for stored in (a, np.asfortranarray(a), sparse.csr_array(a)):
            for bad in (np.ones(6), np.ones((5, 1))):
                with pytest.raises(ValueError, match="^matvec: vector has length"):
                    matvec(stored, bad)
            with pytest.raises(ValueError, match="^matvec_transpose: vector has length"):
                matvec_transpose(stored, np.ones(5))
        for stored in (a, np.asfortranarray(a)):
            v, w = rng.standard_normal(5), rng.standard_normal(7)
            assert matvec(stored, v).tobytes() == (stored @ v).tobytes()
            assert matvec_transpose(stored, w).tobytes() == (stored.T @ w).tobytes()

    def test_fallback_kernels_have_the_private_kernels_bits(self):
        rng = np.random.default_rng(23)
        _, _, csr_kernel, csc_kernel = scipy_sparse()
        assert not isinstance(csr_kernel, functools.partial)
        for a in self._cases():
            m, n = a.shape
            for kind, kernel, rows, cols in ((sparse.csr_array, csr_kernel, m, n),
                                             (sparse.csc_array, csc_kernel, n, m)):
                for v in self._vectors(rng, cols):
                    private, fallback = np.zeros(rows), np.zeros(rows)
                    kernel(rows, cols, a.indptr, a.indices, a.data, v, private)
                    _scipy_matvec(kind, rows, cols, a.indptr, a.indices, a.data, v, fallback)
                    assert fallback.tobytes() == private.tobytes()

    def test_gram_mode_on_csr_storage_binds_both_kernels(self, module_products):
        # int32 and narrowed int64 indices, csr_array and csr_matrix,
        # unsorted and duplicate entries, tall, wide, empty-row and empty
        # shapes: H applies A (A^T r) by the two kernels it bound when built,
        # with the bits of the operator's own products
        calls = module_products
        rng = np.random.default_rng(25)
        for a in self._cases():
            h = HOperator(a, "aat")
            op = h.operator
            for r in self._vectors(rng, a.shape[0]):
                at_r = op.rmatvec(r)
                expected = (op.matvec(at_r).tobytes(), at_r.tobytes())
                assert calls == ["matvec_transpose", "matvec"]
                calls.clear()
                hr, direction = h.apply_with_transpose(r)
                assert (hr.tobytes(), direction.tobytes()) == expected
                assert h.apply(r).tobytes() == expected[0]
                assert calls == []
            with pytest.raises(ValueError, match="^matvec_transpose: vector has length"):
                h.apply(np.ones(a.shape[0] + 1))
            calls.clear()

    def test_symmetric_mode_on_csr_storage_binds_its_kernel(self, module_products):
        # H = A on square CSR storage, int32 and narrowed int64 indices:
        # one call of the csr_matvec kernel H bound when it was built, with
        # the bits of the operator's own product
        calls = module_products
        rng = np.random.default_rng(27)
        square = [a for a in self._cases() if a.shape[0] == a.shape[1]]
        assert len(square) == 4
        for a in square:
            h = HOperator(a, "a")
            for r in self._vectors(rng, a.shape[0]):
                expected = h.operator.matvec(r).tobytes()
                calls.clear()
                hr, direction = h.apply_with_transpose(r)
                assert direction is None and hr.tobytes() == expected
                assert calls == []
            with pytest.raises(ValueError, match="^matvec: vector has length"):
                h.apply(np.ones(a.shape[0] + 1))

    @pytest.mark.parametrize("case, products", [
        # symmetric mode on CSR storage: the kernel H bound when it was built
        ("symmetric-csr", []),
        ("csc", ["matvec_transpose", "matvec"]),
        ("coo", ["matvec_transpose", "matvec"]),
        ("dense", ["matvec_transpose", "matvec"]),
        # GramProduct.rmatvec is its matvec, A^T (A v), applied twice
        ("gram-product", ["matvec", "matvec_transpose"] * 2),
    ])
    def test_other_storage_and_modes_keep_the_module_products(self, case, products,
                                                             module_products):
        rng = np.random.default_rng(26)
        base = sparse.random(9, 9, density=0.4, random_state=rng, format="csr")
        a, mode = {"symmetric-csr": ((base + base.T).tocsr(), "a"), "csc": (base.tocsc(), "aat"),
                   "coo": (base.tocoo(), "aat"), "dense": (base.toarray(), "aat"),
                   "gram-product": (GramProduct(base), "aat")}[case]
        h = HOperator(a, mode)
        op = h.operator
        r = rng.standard_normal(9)
        expected = op.matvec(r) if mode == "a" else op.matvec(op.rmatvec(r))
        module_products.clear()
        assert h.apply(r).tobytes() == expected.tobytes()
        assert module_products == products

    def test_sparse_solves_keep_their_bits_without_the_private_kernels(self, capsys):
        # a scipy without _sparsetools still runs every sparse solve, with
        # its own products in the kernels' place, bit for bit
        fresh = fresh_python(_WITHOUT_SPARSETOOLS + _SPARSE_SOLVES)
        exec(_SPARSE_SOLVES, {})
        assert fresh == capsys.readouterr().out
        assert len(fresh.splitlines()) == 5

    @pytest.mark.parametrize("cls", [sparse.csr_array, sparse.csc_matrix])
    def test_operator_stores_only_the_matrix(self, cls):
        a = cls(sparse.random(6, 4, density=0.5, random_state=np.random.default_rng(22)))
        for op in (Operator(a), HOperator(a, "aat").operator):
            held = [value for value in vars(op).values() if sparse.issparse(value)]
            assert len(held) == 1 and held[0] is op.matrix


@pytest.mark.parametrize("gone", ["module", "attribute"])
def test_moment_solves_keep_their_bits_without_the_private_gufuncs(gone, capsys):
    # a numpy without _umath_linalg's kernels still runs the centering
    # moment solves, through np.linalg.lstsq, bit for bit: sparse and dense,
    # in both H modes, with G = A A^T formed (ode), and hybrid_solve's
    # min-norm stage after them
    fresh = fresh_python(_WITHOUT_UMATH_LINALG + _MOMENT_SOLVES, gone)
    exec(_MOMENT_SOLVES, {})
    assert fresh == capsys.readouterr().out
    assert len(fresh.splitlines()) == 5


class TestIndexStorage:
    """Sparse storage whose int64 indices fit int32 is kept with int32 copies
    of ``indices`` and ``indptr``: 12 bytes per nonzero a product streams
    instead of 16.  The caller's matrix is not touched; the bits of the
    products are pinned by :class:`TestStoredTranspose`."""

    @pytest.mark.parametrize("cls", [sparse.csr_array, sparse.csr_matrix,
                                     sparse.csc_array, sparse.csc_matrix])
    # the operator built directly, or the one a Gram-mode ``H`` holds and
    # applies ``A^T`` through
    @pytest.mark.parametrize("gram", [True, False])
    def test_int64_indices_are_stored_as_int32(self, cls, gram):
        rng = np.random.default_rng(30)
        a = _with_index_dtype(cls(sparse.random(9, 13, density=0.3, random_state=rng)),
                              np.int64)
        indices, indptr = a.indices, a.indptr
        before = (indices.tobytes(), indptr.tobytes())
        op = HOperator(a, "aat").operator if gram else Operator(a)
        assert op.matrix.indices.dtype == op.matrix.indptr.dtype == np.int32
        assert type(op.matrix) is cls
        assert np.shares_memory(op.matrix.data, a.data)
        # the caller's matrix keeps its own index arrays, dtypes and bytes
        assert a.indices is indices and a.indptr is indptr
        assert indices.dtype == indptr.dtype == np.int64
        assert (indices.tobytes(), indptr.tobytes()) == before
        v = rng.standard_normal(13)
        assert op.matvec(v).tobytes() == (a @ v).tobytes()
        w = rng.standard_normal(9)
        assert op.rmatvec(w).tobytes() == np.asarray(w @ a).tobytes()

    def test_int32_storage_is_kept_as_it_is(self):
        a = sparse.csr_array(np.eye(4))
        assert a.indices.dtype == np.int32
        assert Operator(a).matrix is a

    def test_indices_beyond_int32_stay_int64(self):
        # one entry in column 2^31: no int32 index can name it
        a = sparse.csr_array((np.ones(1), np.array([2**31]), np.array([0, 1])),
                             shape=(1, 2**31 + 1))
        assert a.indices.dtype == np.int64
        op = Operator(a)
        assert op.matrix is a
        assert op.matrix.indices.dtype == op.matrix.indptr.dtype == np.int64


class TestPrepare:
    def test_operators_pass_through(self):
        g = GramProduct(np.ones((2, 3)))
        op = Operator(np.eye(2))
        assert prepare(g) is g and prepare(op) is op

    def test_coerces_array_likes(self):
        op = prepare([[1, 2], [3, 4]])
        assert op.matrix.dtype == np.float64
        assert np.array_equal(op.matvec([1.0, 1.0]), [3.0, 7.0])
        with pytest.raises(ValueError, match="2-D"):
            prepare([1.0, 2.0])


_ENTRY_POINTS = {
    "centering_solve": lambda a, b: centering_solve(a, b, CenteringOptions(epsilon=1e-10)),
    "solve_in_ball": lambda a, b: solve_in_ball(a, b, rho=10.0, eps=1e-10),
    "solve_adaptive": lambda a, b: solve_adaptive(a, b, eps=1e-10),
    "min_norm_solve": lambda a, b: min_norm_solve(a, b, eps=1e-6, x_eps=[1.0, 1.0]),
    "nonnegative_feasibility": lambda a, b: nonnegative_feasibility(a, b, eps=1e-10),
    "hybrid_solve": lambda a, b: hybrid_solve(a, b),
}


def test_entry_points_cover_every_public_driver():
    # quiet_floating_point marks the public drivers with __wrapped__; a new
    # driver must join the table and so meet the entry rules below
    drivers = {name for name in trisolve.__all__
               if hasattr(getattr(trisolve, name), "__wrapped__")}
    assert set(_ENTRY_POINTS) == drivers


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_entry_point_answers_a_zero_rhs(name):
    res = _ENTRY_POINTS[name](np.array([[2.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    assert res.success
    assert res.iterations == 0
    assert np.array_equal(res.x, np.zeros(2))
    assert res.residual_norm == 0.0 and res.normal_residual_norm == 0.0


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_entry_point_refuses_an_underflowing_rhs(name):
    # each entry squares to 2^-1200, below the smallest subnormal: ||b|| = 0
    # although b is not
    tiny = 2.0 ** -600
    with pytest.raises(ValueError, match=r"^b is nonzero but its norm underflows"):
        _ENTRY_POINTS[name](np.array([[2.0, 0.0], [0.0, 1.0]]), [tiny, tiny])


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("b", [[np.nan, 1.0], [2.0, np.inf], [2e200, 1e200]],
                         ids=["nan", "inf", "norm-overflow"])
def test_entry_point_fails_at_once_on_a_non_finite_rhs(name, b):
    res = _ENTRY_POINTS[name](np.array([[2.0, 0.0], [0.0, 1.0]]), b)
    assert res.status == "numerical_failure"
    assert res.iterations == 0


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_entry_point_solves_a_nested_list(name):
    res = _ENTRY_POINTS[name]([[2.0, 0.0], [0.0, 1.0]], [2.0, 1.0])
    assert res.success
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-5)


class _CountingFrobenius:
    """An operator over ``a`` that counts its ``frobenius_norm`` calls."""

    def __init__(self, a):
        self._op = Operator(a)
        self.matvec, self.rmatvec, self.shape = self._op.matvec, self._op.rmatvec, self._op.shape
        self.calls = 0

    def frobenius_norm(self):
        self.calls += 1
        return self._op.frobenius_norm()


class _CountingOperator(Operator):
    """An :class:`Operator` that counts its ``frobenius_norm`` calls: dense
    Gram-mode centering forms ``G = A A^T`` on it, where
    :class:`_CountingFrobenius` keeps its products."""

    calls = 0

    def frobenius_norm(self):
        self.calls += 1
        return super().frobenius_norm()


@pytest.mark.parametrize("name, calls", [
    ("centering_solve", 0), ("solve_in_ball", 0), ("solve_adaptive", 0),
    ("min_norm_solve", 1), ("nonnegative_feasibility", 1), ("hybrid_solve", 0),
    ("hybrid_solve-min-norm", 1), ("centering_solve-gram", 1),
])
def test_entry_point_computes_the_frobenius_norm_on_first_use(name, calls):
    # ||A||_F costs a pass over A; only the solves with a floating-point
    # floor or a default radius budget use it, once per stage: centering
    # only with G formed (or at a drift recheck), min_norm_solve always
    solve = _ENTRY_POINTS.get(name.removesuffix("-gram")) or (lambda a, b: hybrid_solve(
        a, b, HybridOptions(eps_ta=1e-8, want_min_norm=True)))
    counting = _CountingOperator if name.endswith("-gram") else _CountingFrobenius
    op = counting(np.array([[2.0, 0.0], [0.0, 1.0]]))
    res = solve(op, np.array([2.0, 1.0]))
    assert res.success
    assert op.calls == calls


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("a", [aslinearoperator(np.eye(2)), object(), "abc"],
                         ids=["LinearOperator", "object", "str"])
def test_entry_point_names_a_bad_matrix(name, a):
    # neither a 2-D real matrix nor an object with all four operator members
    with pytest.raises(ValueError, match="^A must be a 2-D real matrix or an operator"):
        _ENTRY_POINTS[name](a, np.array([2.0, 1.0]))


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("arg, a, b", [
    ("A", np.array([[2.0 + 1.0j, 0.0], [0.0, 1.0]]), [2.0, 1.0]),
    ("A", sparse.csr_array(np.array([[2.0 + 1.0j, 0.0], [0.0, 1.0]])), [2.0, 1.0]),
    ("A", [[2.0, 0.0], [0.0, 1.0 + 0.0j]], [2.0, 1.0]),
    ("b", np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([2.0, 1.0 + 1.0j])),
], ids=["dense-A", "sparse-A", "nested-list-A", "b"])
def test_entry_point_refuses_complex_input(name, arg, a, b):
    # a float64 cast would solve the real part and print a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{arg} must be real, got dtype complex128$"):
            _ENTRY_POINTS[name](a, b)


@pytest.mark.parametrize("name, solve", [
    ("x0", lambda v: solve_adaptive(np.eye(2), np.ones(2), eps=1e-8, x0=v)),
    ("x_eps", lambda v: min_norm_solve(np.eye(2), np.ones(2), eps=1e-8, x_eps=v)),
], ids=["solve_adaptive", "min_norm_solve"])
def test_complex_start_names_its_argument(name, solve):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be real, got dtype complex128$"):
            solve(np.array([1.0, 1.0j]))


def _solve_with_start(name, a, b, x):
    """The entry point ``name`` on ``(a, b)``; ``x`` solves the system and
    serves as ``min_norm_solve``'s ``x_eps``."""
    if name == "min_norm_solve":
        return min_norm_solve(a, b, eps=1e-6, x_eps=x)
    return _ENTRY_POINTS[name](a, b)


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("cls", [sparse.coo_array, sparse.coo_matrix])
@pytest.mark.parametrize("dense, x", [
    (np.array([[1.0, 1.0, 1.0]]), np.array([1.0, 0.0, 0.0])),
    (np.array([[1.0], [2.0], [3.0]]), np.array([1.0])),
], ids=["one-row", "one-column"])
def test_one_row_or_column_coo_solves_as_csr(name, cls, dense, x):
    # (1 x n) @ v on scipy's n-d COO is a numpy scalar, not a vector
    b = dense @ x
    res = _solve_with_start(name, cls(dense), b, x)
    ref = _solve_with_start(name, sparse.csr_array(dense), b, x)
    assert (res.status, res.iterations) == (ref.status, ref.iterations)
    assert res.x.shape == (dense.shape[1],)


# Every integer argument the package takes: (its name, its least value, the
# type a call returns, a call given the value).  The caps solve a nonzero system; the sizes go
# through gallery.make, which reaches each generator's own check.
_RESULT = trisolve.SolveResult
_INTEGERS = {
    "centering_solve": ("max_iters", 0, _RESULT, lambda v: centering_solve(
        np.eye(2), [2.0, 1.0], CenteringOptions(max_iters=v))),
    "solve_in_ball": ("max_iters", 0, _RESULT, lambda v: solve_in_ball(
        np.eye(2), [2.0, 1.0], rho=10.0, eps=1e-10, max_iters=v)),
    "solve_adaptive": ("max_iters", 0, _RESULT, lambda v: solve_adaptive(
        np.eye(2), [2.0, 1.0], eps=1e-10, max_iters=v)),
    "min_norm_solve-inner_cap": ("inner_cap", 0, _RESULT, lambda v: min_norm_solve(
        np.eye(2), [2.0, 1.0], eps=1e-6, x_eps=[2.0, 1.0], inner_cap=v)),
    "min_norm_solve-max_iters": ("max_iters", 0, _RESULT, lambda v: min_norm_solve(
        np.eye(2), [2.0, 1.0], eps=1e-6, x_eps=[2.0, 1.0], max_iters=v)),
    "nonnegative_feasibility": ("max_iters", 0, _RESULT, lambda v: nonnegative_feasibility(
        np.eye(2), [2.0, 1.0], eps=1e-10, max_iters=v)),
    "hybrid_solve-stage1": ("max_iters_stage1", 0, _RESULT, lambda v: hybrid_solve(
        np.eye(2), [2.0, 1.0], HybridOptions(max_iters_stage1=v))),
    "hybrid_solve-stage2": ("max_iters_stage2", 0, _RESULT, lambda v: hybrid_solve(
        np.eye(2), [2.0, 1.0], HybridOptions(max_iters_stage2=v))),
    "hybrid_solve-inner_cap": ("min_norm_inner_cap", 0, _RESULT, lambda v: hybrid_solve(
        np.eye(2), [2.0, 1.0], HybridOptions(min_norm_inner_cap=v))),
    "centering_solve-t_max": ("t_max", 1, _RESULT, lambda v: centering_solve(
        np.eye(2), [2.0, 1.0], CenteringOptions(t_max=v))),
    "hybrid_solve-t_max": ("t_max", 1, _RESULT, lambda v: hybrid_solve(
        np.eye(2), [2.0, 1.0], HybridOptions(t_max=v))),
    "diag-pd-n": ("n", 1, sparse.csr_array, lambda v: gallery.make("diag-pd", v)),
    "gram-psd-n": ("n", 1, np.ndarray, lambda v: gallery.make("gram-psd", v)),
    "clement-n": ("n", 2, sparse.csr_array, lambda v: gallery.make("clement", v)),
    "lotkin-n": ("n", 2, np.ndarray, lambda v: gallery.make("lotkin", v)),
    "ode-n": ("n", 2, np.ndarray, lambda v: gallery.make("ode", v)),
    "dorr-n": ("n", 3, sparse.csr_array, lambda v: gallery.make("dorr", v)),
    "poisson-d-grid": ("grid", 2, sparse.csr_array, lambda v: gallery.make("poisson-d", v)),
    "poisson-n-grid": ("grid", 2, sparse.csr_array, lambda v: gallery.make("poisson-n", v)),
    "convdiff-grid": ("grid", 2, sparse.csr_array, lambda v: gallery.make("convdiff", v)),
    "diag-pd-seed": ("seed", 0, sparse.csr_array, lambda v: gallery.make("diag-pd", 3, seed=v)),
    "gram-psd-seed": ("seed", 0, np.ndarray, lambda v: gallery.make("gram-psd", 3, seed=v)),
    "clement-seed": ("seed", 0, sparse.csr_array, lambda v: gallery.make("clement", 3, seed=v)),
    "phase_portrait-steps": ("steps", 0, tuple, lambda v: phase_portrait(np.eye(2), steps=v)),
    "phase_portrait-num_starts": ("num_starts", 1, tuple, lambda v: phase_portrait(
        np.eye(2), num_starts=v)),
}


@pytest.mark.parametrize("case", sorted(_INTEGERS))
@pytest.mark.parametrize("value", [None, -1, "5", 2.5])
def test_bad_cap_names_the_argument(case, value):
    name, at_least, _, call = _INTEGERS[case]
    if isinstance(value, int):  # an integer counts from the row's least value
        value += at_least
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least {at_least}, got"):
        call(value)


def test_least_value_is_keyword_only():
    # a positional bound would make check_count(n) check nothing
    with pytest.raises(TypeError):
        check_count(1)


@pytest.mark.parametrize("case", sorted(_INTEGERS))
def test_cap_of_zero_is_valid(case):
    # each row's least value is valid; numpy integers count as integers
    _, at_least, expected, call = _INTEGERS[case]
    assert isinstance(call(np.int64(at_least)), expected)


# the tolerances relative to ||b|| and the ode family's gamma lie in (0, 1)
_INTERVALS = {
    "epsilon": (_RESULT, lambda v: centering_solve(
        np.eye(2), [2.0, 1.0], CenteringOptions(epsilon=v))),
    "eps_cta": (_RESULT, lambda v: hybrid_solve(np.eye(2), [2.0, 1.0], HybridOptions(eps_cta=v))),
    "gamma": (np.ndarray, lambda v: gallery.gen_ode_mvm(4, v)),
}


@pytest.mark.parametrize("name", sorted(_INTERVALS))
@pytest.mark.parametrize("value", [0.0, 1.0, 2.0, -0.5, np.nan, np.inf, "a", None])
def test_open_interval_names_the_argument(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must lie in \(0, 1\), got "
                                         rf"{re.escape(repr(value))}$"):
        _INTERVALS[name][1](value)


@pytest.mark.parametrize("name", sorted(_INTERVALS))
def test_open_interval_admits_its_inside(name):
    expected, call = _INTERVALS[name]
    assert isinstance(call(np.float64(0.5)), expected)


def test_bound_is_keyword_only():
    # a positional bound would make check_positive(x) check nothing
    with pytest.raises(TypeError):
        check_positive(1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: centering_solve(np.eye(2), [1.0, 2.0], CenteringOptions(max_iters=False)),
     "max_iters must be an integer of at least 0, got False"),
    (lambda: solve_adaptive(np.eye(2), [1.0, 2.0], eps=True),
     "eps must be finite and positive, got True"),
], ids=["check_count", "check_positive"])
def test_gates_refuse_bool(call, message):
    # Python counts a bool as an integer, so True would pass as a cap of 1
    # or a tolerance of 1.0
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("b", [np.ones((2, 1)), np.ones(3), 1.0])
def test_entry_point_names_a_bad_rhs(name, b):
    with pytest.raises(ValueError, match=r"^b has shape .*, expected \(2,\)$"):
        _ENTRY_POINTS[name](np.eye(2), b)


@pytest.mark.parametrize("name, solve", [
    ("x0", lambda v: solve_adaptive(np.eye(3), np.ones(3), eps=1e-8, x0=v)),
    ("x_eps", lambda v: min_norm_solve(np.eye(3), np.ones(3), eps=1e-8, x_eps=v)),
], ids=["solve_adaptive", "min_norm_solve"])
@pytest.mark.parametrize("start", [np.ones(2), np.ones((3, 1)), 1.0],
                         ids=["short", "column", "scalar"])
def test_warm_start_of_wrong_shape_names_its_argument(name, solve, start):
    with pytest.raises(ValueError, match=rf"^{name} has shape .*, expected \(3,\)$"):
        solve(start)


# Runs every entry point on a consistent system made non-finite three ways
# (one NaN entry, one Inf entry, A scaled by 2^300 so that the moments
# overflow) and prints one status line per solve.
_NON_FINITE_SCRIPT = """
import numpy as np
from trisolve import (CenteringOptions, centering_solve, hybrid_solve, min_norm_solve,
                      nonnegative_feasibility, solve_adaptive, solve_in_ball)
rng = np.random.default_rng(11)
base = rng.standard_normal((6, 6))
base = base + base.T
ones = np.ones(6)
solves = {
    "centering_solve": lambda a, b: centering_solve(a, b, CenteringOptions(epsilon=1e-10)),
    "solve_in_ball": lambda a, b: solve_in_ball(a, b, rho=10.0, eps=1e-10),
    "solve_adaptive": lambda a, b: solve_adaptive(a, b, eps=1e-10),
    "min_norm_solve": lambda a, b: min_norm_solve(a, b, eps=1e-6, x_eps=ones),
    "nonnegative_feasibility": lambda a, b: nonnegative_feasibility(a, b, eps=1e-10),
    "hybrid_solve": lambda a, b: hybrid_solve(a, b),
}
for bad in ("nan", "inf", "2^300"):
    for name, solve in solves.items():
        b = base @ ones
        a = base.copy()
        if bad == "2^300":
            a *= 2.0 ** 300
            b *= 2.0 ** 300  # exact: ones still solves the system
        else:
            a[2, 3] = float(bad)
        print(bad, name, solve(a, b).status)
"""


def test_non_finite_input_is_silent_outside_pytest():
    # pytest's warnings plugin hides numpy's RuntimeWarnings from capfd, so
    # the solves run in a plain interpreter that prints every warning
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-W", "always", "-c", _NON_FINITE_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 * len(_ENTRY_POINTS)
    for line in lines:
        bad, _, status = line.split()
        if bad != "2^300":
            assert status == "numerical_failure", line


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [None, np.nan])
def test_entry_point_restores_the_callers_error_settings(name, bad):
    # hybrid_solve nests centering_solve and a triangle driver; each scope
    # must hand back exactly the settings it was entered with
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    if bad is not None:
        a[0, 1] = bad
    with np.errstate(all="raise", under="warn"):
        before = np.geterr()
        _ENTRY_POINTS[name](a, np.array([2.0, 1.0]))
        assert np.geterr() == before


class TestGramProduct:
    def test_matches_explicit_product(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 6))
        g = GramProduct(a)
        v = rng.standard_normal(6)
        assert np.allclose(g.matvec(v), a.T @ (a @ v))
        assert g.shape == (6, 6)
        assert g.frobenius_norm() >= np.linalg.norm(a.T @ a, "fro") - 1e-9


def test_frobenius_norm_sparse_matches_dense():
    rng = np.random.default_rng(2)
    sp = random_sparse(rng, max_mn=20)
    assert np.isclose(Operator(sp).frobenius_norm(), np.linalg.norm(sp.toarray(), "fro"))


@pytest.mark.parametrize("cls", [sparse.csr_array, sparse.csc_matrix])
def test_frobenius_norm_sums_duplicate_entries(cls):
    # a stored 3 and 4 at one place hold a 7; the stored values alone give 5
    a = cls((np.array([3.0, 4.0]), np.array([1, 1]), np.array([0, 2, 2])), shape=(2, 2))
    assert not a.has_canonical_format
    assert Operator(a).frobenius_norm() == 7.0
    a.sum_duplicates()
    assert a.has_canonical_format
    assert Operator(a).frobenius_norm() == 7.0
