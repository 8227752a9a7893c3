import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.sparse.linalg import aslinearoperator

import trisolve
from conftest import random_sparse
from trisolve.centering import CenteringOptions, centering_solve
from trisolve.feasibility import nonnegative_feasibility
from trisolve.hybrid import HybridOptions, hybrid_solve
from trisolve.linalg import (
    GramProduct,
    HOperator,
    Operator,
    matvec,
    matvec_transpose,
    norm2,
    prepare,
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
        with pytest.raises(ValueError):
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

    def test_gram_never_materializes_product(self):
        # a 1 x n matrix: the Gram product would be n x n, but only O(n)
        # work and memory are needed
        n = 50_000
        a = sparse.csr_array(np.ones((1, n)))
        h = HOperator(a, "aat")
        out = h.apply(np.array([2.0]))
        assert out.shape == (1,) and out[0] == 2.0 * n


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


def _with_index_dtype(a, dtype):
    a = a.copy()
    a.indices = a.indices.astype(dtype)
    a.indptr = a.indptr.astype(dtype)
    return a


class TestStoredTranspose:
    """Products on CSR storage, ``A`` itself or the CSR copy of ``A^T`` an
    :class:`Operator` stores, go straight to scipy's kernel and have the
    bits of scipy's own ``A @ v`` and ``v @ A``."""

    def _cases(self):
        rng = np.random.default_rng(17)
        for cls in (sparse.csr_array, sparse.csr_matrix):
            matrices = []
            for shape in ((40, 40), (25, 60), (60, 25)):
                matrices.append(cls(sparse.random(*shape, density=0.2, random_state=rng,
                                                  format="csr")))
            # unsorted column indices, then duplicate entries
            matrices.append(_csr_parts(cls, rng, (3, 5), [[4, 0, 2], [3, 1], [2, 4, 0, 1]]))
            matrices.append(_csr_parts(cls, rng, (3, 4), [[1, 1, 3], [0, 2, 0, 0], [3, 1, 3]]))
            # empty rows, one of them last
            matrices.append(_csr_parts(cls, rng, (5, 4), [[], [2, 0], [], [1, 3], []]))
            # no rows, no columns
            matrices.append(_csr_parts(cls, rng, (0, 4), []))
            matrices.append(_csr_parts(cls, rng, (4, 0), [[], [], [], []]))
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
        for a in self._cases():
            op = Operator(a)
            assert op.transposed is not None
            a_t = _with_index_dtype(op.transposed, a.indices.dtype)
            for v in self._vectors(rng, a.shape[0]):
                expected = np.asarray(v @ a)
                assert op.rmatvec(v).tobytes() == expected.tobytes()
                assert matvec_transpose(a, v, a_t).tobytes() == expected.tobytes()

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

    def test_stored_only_where_asked(self):
        a = sparse.csr_array(np.eye(3))
        assert Operator(a, transpose=False).transposed is None
        assert Operator(np.eye(3)).transposed is None  # dense keeps a.T @ v
        assert HOperator(a, "a").operator.transposed is None
        assert HOperator(a, "aat").operator.transposed is not None


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


# (the cap's name, a solve of a nonzero system given the cap's value)
_CAPS = {
    "centering_solve": ("max_iters", lambda v: centering_solve(
        np.eye(2), [2.0, 1.0], CenteringOptions(max_iters=v))),
    "solve_in_ball": ("max_iters", lambda v: solve_in_ball(
        np.eye(2), [2.0, 1.0], rho=10.0, eps=1e-10, max_iters=v)),
    "solve_adaptive": ("max_iters", lambda v: solve_adaptive(
        np.eye(2), [2.0, 1.0], eps=1e-10, max_iters=v)),
    "min_norm_solve-inner_cap": ("inner_cap", lambda v: min_norm_solve(
        np.eye(2), [2.0, 1.0], eps=1e-6, x_eps=[2.0, 1.0], inner_cap=v)),
    "min_norm_solve-max_iters": ("max_iters", lambda v: min_norm_solve(
        np.eye(2), [2.0, 1.0], eps=1e-6, x_eps=[2.0, 1.0], max_iters=v)),
    "nonnegative_feasibility": ("max_iters", lambda v: nonnegative_feasibility(
        np.eye(2), [2.0, 1.0], eps=1e-10, max_iters=v)),
    "hybrid_solve-stage1": ("max_iters_stage1", lambda v: hybrid_solve(
        np.eye(2), [2.0, 1.0], HybridOptions(max_iters_stage1=v))),
    "hybrid_solve-stage2": ("max_iters_stage2", lambda v: hybrid_solve(
        np.eye(2), [2.0, 1.0], HybridOptions(max_iters_stage2=v))),
    "hybrid_solve-inner_cap": ("min_norm_inner_cap", lambda v: hybrid_solve(
        np.eye(2), [2.0, 1.0], HybridOptions(min_norm_inner_cap=v))),
}


@pytest.mark.parametrize("case", sorted(_CAPS))
@pytest.mark.parametrize("value", [None, -1, "5", 2.5])
def test_bad_cap_names_the_argument(case, value):
    name, solve = _CAPS[case]
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 0, got"):
        solve(value)


@pytest.mark.parametrize("case", sorted(_CAPS))
def test_cap_of_zero_is_valid(case):
    # numpy integers count as integers
    assert isinstance(_CAPS[case][1](np.int64(0)), trisolve.SolveResult)


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
