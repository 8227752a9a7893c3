import numpy as np
import pytest
import scipy.sparse as sparse

from conftest import random_sparse
from trisolve.centering import CenteringOptions, centering_solve
from trisolve.feasibility import nonnegative_feasibility
from trisolve.hybrid import hybrid_solve
from trisolve.linalg import (
    GramProduct,
    HOperator,
    Operator,
    frobenius_norm,
    matvec,
    matvec_transpose,
    norm2,
    prepare,
    validate_symmetric,
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
            assert h.quadratic_form(r, hr) >= -1e-12

    def test_apply_count_increments(self):
        h = HOperator(np.eye(3), "aat")
        h.apply(np.ones(3))
        h.apply(np.ones(3))
        assert h.apply_count == 2

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


class TestStoredTranspose:
    """``A^T v`` through the CSR copy an :class:`Operator` stores has the
    bits of ``v @ A``."""

    def _cases(self):
        rng = np.random.default_rng(17)
        for cls in (sparse.csr_array, sparse.csr_matrix):
            for shape in ((40, 40), (25, 60), (60, 25)):
                yield cls(sparse.random(*shape, density=0.2, random_state=rng, format="csr"))
            # unsorted column indices, then duplicate entries
            yield _csr_parts(cls, rng, (3, 5), [[4, 0, 2], [3, 1], [2, 4, 0, 1]])
            yield _csr_parts(cls, rng, (3, 4), [[1, 1, 3], [0, 2, 0, 0], [3, 1, 3]])
            # empty rows, one of them last
            yield _csr_parts(cls, rng, (5, 4), [[], [2, 0], [], [1, 3], []])

    def test_byte_identical_to_left_product(self):
        rng = np.random.default_rng(18)
        for a in self._cases():
            op = Operator(a)
            assert op.transposed is not None
            for _ in range(3):
                v = rng.standard_normal(a.shape[0])
                expected = np.asarray(v @ a)
                assert op.rmatvec(v).tobytes() == expected.tobytes()
                assert matvec_transpose(a, v, op.transposed).tobytes() == expected.tobytes()

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


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_entry_point_solves_a_nested_list(name):
    res = _ENTRY_POINTS[name]([[2.0, 0.0], [0.0, 1.0]], [2.0, 1.0])
    assert res.success
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-5)


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("b", [np.ones((2, 1)), np.ones(3), 1.0])
def test_entry_point_names_a_bad_rhs(name, b):
    with pytest.raises(ValueError, match=r"^b has shape .*, expected \(2,\)$"):
        _ENTRY_POINTS[name](np.eye(2), b)


class TestGramProduct:
    def test_matches_explicit_product(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 6))
        g = GramProduct(a)
        v = rng.standard_normal(6)
        assert np.allclose(g.matvec(v), a.T @ (a @ v))
        assert g.shape == (6, 6)
        assert g.frobenius_norm() >= np.linalg.norm(a.T @ a, "fro") - 1e-9


def test_validate_symmetric():
    assert validate_symmetric(np.diag([1.0, 2.0]))
    assert not validate_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert not validate_symmetric(np.ones((2, 3)))


def test_frobenius_norm_sparse_matches_dense():
    rng = np.random.default_rng(2)
    sp = random_sparse(rng, max_mn=20)
    assert np.isclose(frobenius_norm(sp), np.linalg.norm(sp.toarray(), "fro"))
