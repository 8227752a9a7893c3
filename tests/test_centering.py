import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fresh_python, krylov_degree, random_instance, spd_with_spectrum, status_holds
import trisolve
from trisolve import centering, gallery
from trisolve.centering import (
    MOMENT_RCOND,
    CenteringOptions,
    Moments,
    NormalEquationReached,
    centering_solve,
    min_norm_coefficients,
    moments,
    _order_schedule,
    _step_arrays,
)
from trisolve.hybrid import HybridOptions, hybrid_solve
from trisolve.linalg import (SYMMETRIC_MIN_ROWS, GramProduct, HOperator, Operator, matvec,
                             matvec_transpose, norm2, prepare)
from trisolve.results import CENTERING_TRACE_COLUMNS, SolveResult, System, Trace


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One gallery solve, from argv: family, size, h_mode and epsilon.  Prints the
# status and the iteration count.
_GALLERY_SOLVE = """
import sys
from trisolve import CenteringOptions, centering_solve, gallery

family, n, h_mode, eps = sys.argv[1:]
a = gallery.make(family, int(n))
res = centering_solve(a, gallery.row_sum_rhs(a), CenteringOptions(float(eps), h_mode=h_mode))
print(res.status, res.iterations)
"""


# numpy's private LAPACK module as a numpy that moved it would have it:
# argv[1] "stub" leaves a module with neither kernel, "module" none at all.
_WITHOUT_PRIVATE_GELSD = """
import sys
import types

import numpy as np
import numpy.linalg

stub = types.ModuleType("numpy.linalg._umath_linalg") if sys.argv[1] == "stub" else None
sys.modules["numpy.linalg._umath_linalg"] = stub
if stub is None:
    del numpy.linalg._umath_linalg
else:
    numpy.linalg._umath_linalg = stub

from trisolve import centering
assert not isinstance(centering._gelsd, np.ufunc)
"""

# Two small dense centering solves, of full and of low rank; prints the
# status, iterations and bytes of each x.
_SMALL_SOLVES = """
import numpy as np
from trisolve import CenteringOptions, centering_solve

rng = np.random.default_rng(12)
for a in (rng.standard_normal((15, 25)), rng.standard_normal((15, 4)) @ rng.standard_normal((4, 25))):
    res = centering_solve(a, rng.standard_normal(15), CenteringOptions(epsilon=1e-10))
    print(res.status, res.iterations, res.x.tobytes().hex())
"""


def _lstsq_reference(mom, t):
    """The moment solve written with numpy's public calls: diagonal
    equilibration and ``np.linalg.lstsq``.  Returns the coefficients and the
    rank ``lstsq`` reports."""
    phi = mom.phi
    i = np.arange(t)
    hankel = phi[i[:, None] + i + 1]
    rhs = phi[:t].copy()
    scale = np.sqrt(np.abs(np.diag(hankel)))
    scale[scale == 0.0] = 1.0
    balanced = hankel / np.outer(scale, scale)
    beta, _, rank, _ = np.linalg.lstsq(balanced, rhs / scale, rcond=MOMENT_RCOND)
    return beta / scale, rank


def _gallery_moments(spec, h_mode, t):
    family, n = spec.split(":")
    a = gallery.make(family, int(n))
    system = System(a, gallery.row_sum_rhs(a), CENTERING_TRACE_COLUMNS)
    return moments(HOperator(system.op, h_mode), system.b, t)


def _count_applications(h):
    """A list that gains one entry per application of ``h``."""
    calls = []
    apply = h.apply_with_transpose

    def counted(r, out=None):
        calls.append(r)
        return apply(r, out)

    h.apply_with_transpose = counted
    return calls


class TestMoments:
    def test_scalar_case(self):
        h = HOperator(np.array([[2.0]]), "a")
        mom = moments(h, np.array([1.0]), 1)
        assert np.array_equal(mom.phi, [2.0, 4.0])

    def test_identity_powers(self):
        r = np.array([1.0, 2.0, -1.0])
        s = float(np.dot(r, r))
        h = HOperator(np.eye(3), "a")
        mom = moments(h, r, 2)
        assert np.allclose(mom.phi, [s, s, s, s])

    def test_diagonal_values(self):
        h = HOperator(np.diag([1.0, 3.0]), "a")
        mom = moments(h, np.array([1.0, 1.0]), 1)
        assert np.array_equal(mom.phi, [4.0, 10.0])

    def test_even_moments_nonnegative_for_gram(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = random_instance(rng, 12, 12)
            h = HOperator(a, "aat")
            mom = moments(h, b, min(3, a.shape[0]))
            assert np.all(mom.phi[1::2] >= -1e-10 * np.abs(mom.phi).max())

    def test_uses_t_operator_applications(self):
        h = HOperator(np.eye(5), "aat")
        calls = _count_applications(h)
        moments(h, np.ones(5), 4)
        assert len(calls) == 4

    def test_order_out_of_range(self):
        h = HOperator(np.eye(2), "a")
        with pytest.raises(ValueError):
            moments(h, np.ones(2), 3)


class TestMomentSystem:
    def test_order_one_ratio(self):
        h = HOperator(np.array([[2.0]]), "a")
        mom = moments(h, np.array([1.0]), 1)
        assert np.allclose(min_norm_coefficients(mom), [0.5])
        with pytest.raises(ValueError, match=r"order 2 outside 1\.\.1"):
            min_norm_coefficients(mom, 2)

    def test_order_two_closed_form(self):
        rng = np.random.default_rng(2)
        h_mat, _, _ = spd_with_spectrum(rng, 6, 1.0, 4.0)
        h = HOperator(h_mat, "a")
        r = rng.standard_normal(6)
        mom = moments(h, r, 2)
        p1, p2, p3, p4 = mom.phi
        det = p2 * p4 - p3 * p3
        expected = [(p1 * p4 - p2 * p3) / det, (p2 * p2 - p1 * p3) / det]
        got = min_norm_coefficients(mom)
        assert np.allclose(got, expected, rtol=1e-12)

    def test_rank_deficient_min_norm_uniform(self):
        # identity operator: the moment matrix is rank one and the
        # minimum-norm coefficients are uniform 1/t
        r = np.array([2.0, -1.0, 0.5, 1.0])
        h = HOperator(np.eye(4), "a")
        for t in (1, 2, 3):
            mom = moments(h, r, t)
            got = min_norm_coefficients(mom, t)
            assert np.allclose(got, np.full(t, 1.0 / t), atol=1e-10)
            # dense pseudo-inverse oracle on the same system
            s = float(np.dot(r, r))
            hankel = np.full((t, t), s)
            oracle = np.linalg.pinv(hankel) @ np.full(t, s)
            assert np.allclose(got, oracle, atol=1e-10)


class TestMomentSolveBits:
    """``min_norm_coefficients`` calls numpy's LAPACK gufunc directly; its
    coefficients must equal ``np.linalg.lstsq``'s byte for byte."""

    @staticmethod
    def _assert_bits_match(mom):
        ranks = []
        for k in range(1, mom.t + 1):
            expected, rank = _lstsq_reference(mom, k)
            got = min_norm_coefficients(mom, k)
            assert got.dtype == np.float64 and got.shape == (k,)
            assert got.tobytes() == expected.tobytes(), k
            ranks.append(rank)
        return ranks

    @pytest.mark.parametrize("spec, h_mode", [
        ("convdiff:12", "aat"), ("clement:301", "aat"), ("poisson-d:60", "a"),
    ])
    @pytest.mark.parametrize("t", range(1, 9))
    def test_gallery_moments(self, spec, h_mode, t):
        self._assert_bits_match(_gallery_moments(spec, h_mode, t))

    def test_zero_even_moments_scale_by_one(self):
        phi = np.array([1.5, 0.0, 0.25, 4.0, -0.75, -0.0, 2.0, 9.0,
                        0.5, 0.0, 1.0, 3.0, -2.0, 7.0, 0.125, 6.0])
        for t in range(1, 9):
            self._assert_bits_match(Moments(t, phi[:2 * t].copy(), None))

    def test_rank_deficient_hankel_is_truncated(self):
        # r touches three eigenspaces: from order 4 on the Hankel matrix has
        # numerical rank 3, and the rcond cutoff drops the rest
        h = HOperator(np.diag([1.0, 2.0, 5.0, 9.0, 9.0, 9.0, 9.0, 9.0]), "a")
        r = np.array([1.0, -0.5, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0])
        ranks = self._assert_bits_match(moments(h, r, 8))
        assert ranks[3:] == [3] * 5
        # a constant Hankel matrix (H = I) has rank one
        ranks = self._assert_bits_match(moments(HOperator(np.eye(8), "a"), r, 8))
        assert ranks == [1] * 8
        # two eigenvalues 5e-6 apart: the third singular value of the
        # balanced order-3 matrix is about 8e-15 relative, inside the cutoff
        h = HOperator(np.diag([1.0, 1.0 + 5e-6, 3.0]), "a")
        ranks = self._assert_bits_match(moments(h, np.ones(3), 3))
        assert ranks == [1, 2, 2]

    @pytest.mark.parametrize("errors", [None, "ignore", "raise"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_moments_fail_before_lapack(self, errors, bad, capfd):
        # LAPACK prints "DLASCL parameter number 4" for non-finite input
        for index in (0, 1, 2, 5):
            phi = np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
            phi[index] = bad
            mom = Moments(3, phi, None)
            with np.errstate(**({"all": errors} if errors else {})):
                with pytest.raises(np.linalg.LinAlgError, match="non-finite moments"):
                    min_norm_coefficients(mom)
        assert capfd.readouterr() == ("", "")

    def test_failed_svd_ends_the_solve(self, monkeypatch):
        # gelsd fills its outputs with NaN when the SVD does not converge
        def failed(a, b, rcond, signature):
            t = a.shape[0]
            return np.full((t, 1), np.nan), np.full(1, np.nan), -1, np.full(t, np.nan)

        monkeypatch.setattr(centering, "_gelsd", failed)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            min_norm_coefficients(moments(HOperator(np.eye(2), "a"), np.ones(2), 1))
        res = centering_solve(np.diag([1.0, 3.0]), np.ones(2))
        assert res.status == "numerical_failure"
        assert res.detail == ("moment solve failed: "
                              "SVD did not converge in Linear Least Squares")

    @pytest.mark.parametrize("gone", ["stub", "module"])
    def test_public_lstsq_replaces_a_moved_private_gufunc(self, gone, capsys):
        # a numpy without the private kernels still imports trisolve, and
        # np.linalg.lstsq then gives the same coefficients, bit for bit
        fresh = fresh_python(_WITHOUT_PRIVATE_GELSD + _SMALL_SOLVES, gone)
        exec(_SMALL_SOLVES, {})
        assert fresh == capsys.readouterr().out
        assert len(fresh.splitlines()) == 2


class TestStep:
    def test_identity_one_step(self):
        b = np.array([3.0, -1.0, 2.0])
        a = np.eye(3)
        h = HOperator(a, "a")
        x, r, *_ = _step_arrays(np.zeros(3), b.copy(), 1, h)
        assert norm2(r) <= 1e-15
        assert np.allclose(x, b)

    def test_strict_decrease_diagonal(self):
        a = np.diag([1.0, 3.0])
        b = np.array([1.0, 3.0])
        h = HOperator(a, "a")
        x, r, *_ = _step_arrays(np.zeros(2), b.copy(), 1, h)
        assert np.isclose(float(np.dot(r, r)), 10.0 - 784.0 / 82.0)
        assert norm2(r) < norm2(b)
        # invariant r = b - A x preserved
        assert np.allclose(r, b - a @ x, atol=1e-14)

    def test_eigenvector_single_step(self):
        rng = np.random.default_rng(3)
        h_mat, lam, q = spd_with_spectrum(rng, 8, 1.0, 3.0)
        a = h_mat
        h = HOperator(a, "a")
        r0 = q[:, 2].copy()
        _, r, *_ = _step_arrays(np.zeros(8), r0.copy(), 1, h)
        assert norm2(r) <= 1e-12 * norm2(r0)

    def test_gram_zero_signals_normal_equation(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([0.0, 1.0])  # orthogonal to range(A)
        h = HOperator(a, "aat")
        with pytest.raises(NormalEquationReached):
            _step_arrays(np.zeros(2), b.copy(), 1, h)

    def test_apply_budget_at_most_2t(self):
        rng = np.random.default_rng(4)
        for t in (1, 2, 3, 5):
            a, b = random_instance(rng, 20, 20)
            h = HOperator(a, "aat")
            calls = _count_applications(h)
            _step_arrays(np.zeros(a.shape[1]), b, t, h)
            assert len(calls) == t


def _krylov(h, r, t):
    """The Krylov vectors ``p = [r, H r, ..., H^t r]`` and, when ``H`` is
    applied as ``A (A^T p)``, the directions
    ``q = [A^T p_0, ..., A^T p_{t-1}]`` (else ``[]``), each application of
    ``H`` in a buffer of its own rather than in the block of
    :func:`moments`."""
    p, q = [r], []
    for _ in range(t):
        hp, at_p = h.apply_with_transpose(p[-1])
        p.append(hp)
        if at_p is not None:
            q.append(at_p)
    return p, q


def _reference_step(x, r, t, h, r_norm):
    """``_step_arrays`` in its plainest arithmetic: ``r.copy()`` and
    ``x.copy()``, then ``-= alpha_i p_i`` and ``+= alpha_i d_i`` term by
    term."""
    mom = moments(h, r, t)
    p, q = _krylov(h, r, t)
    best = None
    for order in range(t, 0, -1):
        alpha = min_norm_coefficients(mom, order)
        r_new = r.copy()
        for i in range(order):
            r_new -= alpha[i] * p[i + 1]
        cand_norm = norm2(r_new)
        if best is None or cand_norm < best[0]:
            best = (cand_norm, order, alpha, r_new)
        if cand_norm <= r_norm * (1.0 + centering._MONOTONE_SLACK):
            break
    _, order, alpha, r_new = best
    directions = q or p
    x_new = x.copy()
    for i in range(order):
        x_new += alpha[i] * directions[i]
    return x_new, r_new, order


class TestStepBits:
    """The step builds ``r - sum alpha_i p_i`` and ``x + sum alpha_i d_i``
    from their first terms, with no copy of ``r`` or ``x``; it must keep the
    bits of the copy-then-accumulate updates, so that a later change to the
    update (a fused or stacked product) cannot move them unnoticed."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(23)
        dense = rng.standard_normal((30, 45))
        yield "dense-gram", HOperator(dense, "aat")
        yield "csr-gram", HOperator(gallery.make("convdiff", 7), "aat")  # int64 indices
        formed = HOperator(dense, "aat")
        assert formed.form_gram()  # steps on y of x = A^T y
        yield "formed-gram", formed
        spd, _, _ = spd_with_spectrum(rng, 35, 0.5, 4.0)
        yield "symmetric", HOperator(spd, "a")

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_bits_of_the_copy_then_accumulate_step(self, t):
        rng = np.random.default_rng(24 + t)
        for name, h in self._cases():
            width = h.dim if h.gram is not None else h.operator.shape[1]
            x, r = rng.standard_normal(width), rng.standard_normal(h.dim)
            r_norm = norm2(r)
            x_new, r_new, order, _ = _step_arrays(x, r, t, h)
            x_ref, r_ref, order_ref = _reference_step(x, r, t, h, r_norm)
            assert order == order_ref, name
            assert r_new.tobytes() == r_ref.tobytes(), name
            assert x_new.tobytes() == x_ref.tobytes(), name

    def test_bits_on_a_long_vector(self):
        a = gallery.make("poisson-d", 317)  # 100489 rows
        assert a.shape[0] >= 10**5
        rng = np.random.default_rng(29)
        x, r = rng.standard_normal(a.shape[0]), rng.standard_normal(a.shape[0])
        for h in (HOperator(a, "a"), HOperator(a, "aat")):
            r_norm = norm2(r)
            x_new, r_new, order, _ = _step_arrays(x, r, 3, h)
            x_ref, r_ref, order_ref = _reference_step(x, r, 3, h, r_norm)
            assert order == order_ref
            assert r_new.tobytes() == r_ref.tobytes()
            assert x_new.tobytes() == x_ref.tobytes()


def _two_chain_step(x, r, t, h, r_norm):
    """The step as two chains of numpy calls, one on ``r`` and one on ``x``,
    each term through a temporary of its own, on Krylov vectors in arrays of
    their own: the step before ``x`` and ``r`` were stacked."""
    p, q = _krylov(h, r, t)
    phi = np.array([float(p[k // 2].dot(p[k - k // 2])) for k in range(1, 2 * t + 1)])
    mom = Moments(t, phi, None)
    if phi[1] == 0.0:
        raise NormalEquationReached
    if h.gram is not None:
        atr_norm = float(np.sqrt(abs(phi[0])))
    elif q:
        atr_norm = norm2(q[0])
    else:
        atr_norm = norm2(p[1])
    best = None
    for order in range(t, 0, -1):
        alpha = min_norm_coefficients(mom, order)
        r_new = alpha[0] * p[1]
        np.subtract(r, r_new, out=r_new)
        for i in range(1, order):
            r_new -= alpha[i] * p[i + 1]
        cand_norm = norm2(r_new)
        if best is None or cand_norm < best[0]:
            best = (cand_norm, order, alpha, r_new)
        if cand_norm <= r_norm * (1.0 + centering._MONOTONE_SLACK):
            break
    _, order, alpha, r_new = best
    directions = q or p
    x_new = alpha[0] * directions[0]
    np.add(x, x_new, out=x_new)
    for i in range(1, order):
        x_new += alpha[i] * directions[i]
    return x_new, r_new, order, atr_norm


def _solve_two_chain(a, b, opts, monkeypatch):
    """``centering_solve`` whose steps run :func:`_two_chain_step` on the
    ``x`` and ``r`` of the stacked state, and hand the driver ``norm2`` of
    the fresh ``r_new``, as the loop once measured it."""

    def two_chain(s, t, h, r_norm):
        k = s.size - h.dim
        x_new, r_new, order, atr_norm = _two_chain_step(0.0 - s[:k], s[k:].copy(), t, h, r_norm)
        # no zero of x_new is -0.0, so -x_new stacks it exactly
        assert not np.signbit(x_new[x_new == 0.0]).any()
        return np.concatenate((-x_new, r_new)), order, atr_norm, norm2(r_new)

    with monkeypatch.context() as patch:
        patch.setattr(centering, "_step", two_chain)
        return centering_solve(a, b, opts)


class TestStackedSolveBits:
    """``x`` and ``r`` advance as one vector ``[-x; r]`` over one block of
    products.  Whole solves must return the ``x``, ``y``, status, iterations
    and trace of the two-chain step, byte for byte and signed zeros
    included, on every path of the products and the driver."""

    @staticmethod
    def _case(case):
        rng = np.random.default_rng(41)
        if case.startswith("csr-"):
            a = gallery.make("convdiff", 8)
            index = np.int32 if case == "csr-int32" else np.int64
            a = sparse.csr_array((a.data, a.indices.astype(index), a.indptr.astype(index)),
                                 shape=a.shape)
            return a, gallery.row_sum_rhs(a), CenteringOptions(epsilon=1e-10), None
        if case in ("tall-dense", "empty-column-dense"):
            a = rng.standard_normal((40, 25))
            empty = None
            if case == "empty-column-dense":
                empty = 3
                a[:, empty] = 0.0
            return a, rng.standard_normal(40), CenteringOptions(epsilon=1e-10), empty
        if case == "empty-column-csr":
            a = gallery.make("convdiff", 8).tolil()
            a[:, 5] = 0.0
            a = sparse.csr_array(a)
            a.eliminate_zeros()
            # capped past a recheck: x is read off the recurrence at the exit
            opts = CenteringOptions(epsilon=1e-10, max_iters=260)
            return a, rng.standard_normal(a.shape[0]), opts, 5
        if case in ("formed", "formed-dsymv"):
            m = 30 if case == "formed" else SYMMETRIC_MIN_ROWS + 8
            a = rng.standard_normal((m, m + 40))
            return a, rng.standard_normal(m), CenteringOptions(epsilon=1e-10, max_iters=300), None
        if case == "symmetric-csr":
            a = gallery.make("poisson-d", 12)
            return a, gallery.row_sum_rhs(a), CenteringOptions(epsilon=1e-10, h_mode="a"), None
        if case == "dsymv":
            half = rng.standard_normal((SYMMETRIC_MIN_ROWS + 8, 260))
            a = half @ half.T
            assert np.array_equal(a, a.T)  # applied from one triangle
            opts = CenteringOptions(epsilon=1e-10, h_mode="a", max_iters=300)
            return a, gallery.row_sum_rhs(a), opts, None
        assert case == "gram-product"
        wide = rng.standard_normal((10, 15))
        return GramProduct(wide), wide.T @ rng.standard_normal(10), CenteringOptions(1e-8), None

    @pytest.mark.parametrize("case", [
        "csr-int32", "csr-int64", "tall-dense", "formed", "formed-dsymv", "symmetric-csr",
        "dsymv", "gram-product", "empty-column-csr", "empty-column-dense"])
    def test_solves_keep_the_bits_of_the_two_chain_step(self, case, monkeypatch):
        a, b, opts, empty = self._case(case)
        got = centering_solve(a, b, opts)
        ref = _solve_two_chain(a, b, opts, monkeypatch)
        assert (got.status, got.iterations, got.detail) == (ref.status, ref.iterations, ref.detail)
        assert got.x.tobytes() == ref.x.tobytes()
        assert (got.y is None) == (ref.y is None)
        if got.y is not None:
            assert got.y.tobytes() == ref.y.tobytes()
        for column in CENTERING_TRACE_COLUMNS:
            assert got.trace.column(column) == ref.trace.column(column)
        assert not np.signbit(got.x[got.x == 0.0]).any()
        if empty is not None:
            assert got.x[empty] == 0.0  # no step moves the column A does not have
        assert (got.y is not None) == case.startswith("formed")  # G formed, y returned

    @pytest.mark.parametrize("case", ["dense", "dsymv", "csr"])
    def test_symmetric_mode_reads_its_normal_residual_off_the_moments(self, case):
        # ||A r|| is sqrt(phi_2): the ddot norm2(A r) takes, on the same p_1
        rng = np.random.default_rng(43)
        m = {"dense": 40, "dsymv": SYMMETRIC_MIN_ROWS + 8, "csr": 144}[case]
        if case == "csr":
            a = gallery.make("poisson-d", 12)
        else:
            half = rng.standard_normal((m, m // 2))
            a = half @ half.T
        h = HOperator(a, "a")
        h.form_gram()
        assert h.exactly_symmetric is (case == "dsymv")
        for t in (1, 3):
            x, r = rng.standard_normal(m), rng.standard_normal(m)
            _, _, _, atr_norm = _step_arrays(x, r, t, h)
            expected = norm2(h.operator.matvec(r) if case != "dsymv" else h.apply(r))
            assert np.float64(atr_norm).tobytes() == np.float64(expected).tobytes()


class TestSchedule:
    def test_triangle_wave(self):
        gen = _order_schedule(5)
        first = [next(gen) for _ in range(12)]
        assert first == [1, 2, 3, 4, 5, 4, 3, 2, 1, 2, 3, 4]

    def test_degenerate(self):
        gen = _order_schedule(1)
        assert [next(gen) for _ in range(3)] == [1, 1, 1]


class TestDriver:
    def test_diag_ladder_against_direct_oracle(self):
        d = np.arange(1.0, 101.0)
        a = np.diag(d)
        b = d.copy()  # row sums: exact solution is all-ones
        eps = 1e-10 / norm2(b)  # realize an absolute 1e-10 target
        res = centering_solve(a, b, CenteringOptions(epsilon=eps, h_mode="a"))
        oracle = np.linalg.solve(a, b)
        assert res.status == "approx_solution"
        assert res.residual_norm <= 1e-10
        assert np.abs(res.x - 1.0).max() <= 1e-8
        assert np.abs(res.x - oracle).max() <= 1e-8
        assert res.iterations < 2300  # well under the kappa ln(1/eps) budget

    def test_rank_one_inconsistent_normal_equation(self):
        u = np.array([1.0, 0.0])
        v = np.array([1.0, 1.0])
        a = np.outer(u, v)
        b = np.array([0.0, 1.0])  # orthogonal to range(A)
        res = centering_solve(a, b, CenteringOptions(epsilon=1e-12))
        assert res.status == "normal_eq_solution"
        assert res.normal_residual_norm <= np.sqrt(1e-12)

    def test_zero_rhs(self):
        res = centering_solve(np.eye(4), np.zeros(4))
        assert res.status == "approx_solution"
        assert res.iterations == 0
        assert np.array_equal(res.x, np.zeros(4))

    @pytest.mark.parametrize("h_mode", ["a", "aat"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "2^300"])
    def test_non_finite_moments_fail_silently(self, h_mode, bad, capfd):
        # LAPACK reports non-finite input to lstsq on stderr; the moments
        # are checked before they reach it
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        if bad == "2^300":
            a *= 2.0 ** 300
        else:
            a[2, 3] = float(bad)
        res = centering_solve(a, rng.standard_normal(6),
                              CenteringOptions(epsilon=1e-10, h_mode=h_mode))
        assert res.status == "numerical_failure"
        assert res.detail == "non-finite moments"
        assert capfd.readouterr() == ("", "")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            centering_solve(np.eye(3), np.ones(4))

    def test_bad_options(self):
        with pytest.raises(ValueError):
            centering_solve(np.eye(2), np.ones(2), CenteringOptions(epsilon=2.0))
        with pytest.raises(ValueError):
            centering_solve(np.eye(2), np.ones(2), CenteringOptions(t_max=0))
        with pytest.raises(ValueError, match="^epsilon must lie in"):
            centering_solve(np.eye(2), np.ones(2), CenteringOptions(epsilon="a"))
        with pytest.raises(ValueError, match="^unknown h_mode 'x'$"):
            centering_solve(np.eye(2), np.ones(2), CenteringOptions(h_mode="x"))

    def test_t_max_must_be_an_integer(self):
        with pytest.raises(ValueError, match="^t_max must be an integer of at least 1"):
            centering_solve(np.eye(2), np.ones(2), CenteringOptions(t_max=2.5))
        res = centering_solve(np.eye(2), np.ones(2), CenteringOptions(t_max=np.int64(2)))
        assert res.status == "approx_solution"

    def test_iteration_cap(self):
        a = gallery.gen_diag("pd", 50, seed=1)
        b = gallery.row_sum_rhs(a)
        res = centering_solve(a, b, CenteringOptions(epsilon=1e-14, max_iters=3))
        assert res.status == "iteration_cap"
        assert res.iterations == 3

    @pytest.mark.parametrize("spec, eps, status, iterations", [
        ("convdiff:12", 1e-8, "normal_eq_solution", 921),
        ("clement:301", 1e-9, "approx_solution", 1100),
    ])
    def test_golden_iteration_counts(self, spec, eps, status, iterations):
        # Ill-conditioned problems whose counts move under any reordering
        # of floating-point sums: a kernel change must keep them exactly.
        family, n = spec.split(":")
        a = gallery.make(family, int(n))
        res = centering_solve(a, gallery.row_sum_rhs(a), CenteringOptions(epsilon=eps))
        assert (res.status, res.iterations) == (status, iterations)

    @pytest.mark.parametrize("spec, h_mode, eps, status, iterations", [
        ("gram-psd:600", "a", 1e-9, "approx_solution", 93),
        ("ode:600", "aat", 1e-8, "normal_eq_solution", 150),
    ])
    def test_golden_iteration_counts_on_one_triangle(self, spec, h_mode, eps, status,
                                                     iterations):
        # dense products of 600 rows read one triangle (BLAS dsymv), whose
        # rounding depends on the BLAS thread count: one thread, pinned
        # before numpy loads
        family, n = spec.split(":")
        out = fresh_python(_GALLERY_SOLVE, family, n, h_mode, str(eps),
                           env=dict.fromkeys(_BLAS_THREADS, "1"))
        assert out.split() == [status, str(iterations)]

    def test_trace_schema_and_monotone_tail(self):
        a = gallery.gen_diag("pd", 30, seed=3)
        b = gallery.row_sum_rhs(a)
        res = centering_solve(a, b, CenteringOptions(epsilon=1e-9, h_mode="a"))
        assert res.trace.columns == ("iter", "t", "residual_norm",
                                     "normal_residual_norm", "wall_ns")
        norms = res.trace.column("residual_norm")
        assert all(b2 <= a2 * (1 + 1e-10) for a2, b2 in zip(norms, norms[1:]))
        with pytest.raises(ValueError, match="^trace row has 1 fields between iter and "
                                             "wall_ns, schema has 2$"):
            Trace(("a", "b")).append(1)

    @pytest.mark.parametrize("columns", [("a", "b", "c"), ("iter",), (), ("wall_ns", "iter"),
                                         ("iter", "t", "residual_norm")])
    def test_trace_schema_is_checked(self, columns):
        # the trace stamps iter and wall_ns itself: a field may name neither
        if "iter" in columns or "wall_ns" in columns:
            with pytest.raises(ValueError, match="^trace fields must not name the stamped "
                                                 "columns 'iter' or 'wall_ns', got "):
                Trace(columns)
        else:
            assert Trace(columns).columns == ("iter", *columns, "wall_ns")

    @pytest.mark.parametrize("driver, args, header", [
        ("centering_solve", (), "iter,t,residual_norm,normal_residual_norm,wall_ns"),
        ("solve_in_ball", (10.0, 1e-8),
         "iter,rho,residual_norm,normal_residual_norm,event,wall_ns"),
        ("solve_adaptive", (1e-8,), "iter,rho,residual_norm,normal_residual_norm,event,wall_ns"),
        ("min_norm_solve", (1e-6, np.ones(3)),
         "iter,rho,residual_norm,normal_residual_norm,event,wall_ns"),
        ("nonnegative_feasibility", (1e-8,),
         "iter,rho,residual_norm,normal_residual_norm,event,min_x_entry,wall_ns"),
        ("hybrid_solve", (), "iter,stage,residual_norm,normal_residual_norm,wall_ns"),
    ], ids=["centering_solve", "solve_in_ball", "solve_adaptive", "min_norm_solve",
            "nonnegative_feasibility", "hybrid_solve"])
    def test_each_driver_writes_its_trace_header(self, driver, args, header, tmp_path):
        # the headers the drivers wrote when their schemas named iter and
        # wall_ns themselves: the trace's frame leaves every CSV as it was
        a = np.array([[2.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        b = np.array([3.0, 2.0])  # x = (1, 1, 1) solves it
        res = getattr(trisolve, driver)(a, b, *args)
        path = tmp_path / "trace.csv"
        res.trace.write_csv(path)
        assert path.read_bytes().startswith(header.encode() + b"\r\n")
        assert res.trace.columns == tuple(header.split(","))

    def test_result_repr_elides_arrays(self):
        res = SolveResult("approx_solution", np.zeros(3), 1.5e-9, 2e-10, 7, Trace(()))
        assert repr(res) == ("SolveResult(status='approx_solution', iterations=7, "
                             "residual_norm=1.500e-09, normal_residual_norm=2.000e-10)")

    def test_known_solvable_disables_normal_clause(self):
        # a small-singular-value consistent system: the normal-equation
        # certificate arrives first unless the caller says it is solvable
        a = gallery.gen_poisson2d(20)
        b = gallery.row_sum_rhs(a)
        eps = 1e-13
        plain = centering_solve(a, b, CenteringOptions(epsilon=eps, h_mode="a"))
        assert plain.status == "normal_eq_solution"
        known = centering_solve(a, b, CenteringOptions(epsilon=eps, h_mode="a",
                                                       known_solvable=True))
        assert known.status == "approx_solution"
        assert known.residual_norm <= eps * norm2(b) * (1 + 1e-9)


class TestInvariants:
    def test_monotone_steps_random(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            mode = "aat" if rng.random() < 0.7 else "a"
            if mode == "a":
                h_mat, _, _ = spd_with_spectrum(rng, int(rng.integers(2, 20)), 0.5, 8.0)
                a, b = h_mat, rng.standard_normal(h_mat.shape[0])
            else:
                a, b = random_instance(rng, 20, 20)
            m = a.shape[0]
            t = int(rng.integers(1, min(5, m) + 1))
            h = HOperator(a, mode)
            x0 = np.zeros(a.shape[1])
            try:
                x1, r1, _, _ = _step_arrays(x0, b, t, h)
            except NormalEquationReached:
                continue
            assert norm2(r1) <= norm2(b) * (1 + 1e-12)
            hr = h.apply(b)
            if norm2(hr) > 1e-10:
                assert norm2(r1) < norm2(b)

    def test_pointwise_orbit_ordering(self):
        # the one-step norm is nonincreasing in the order t and becomes
        # constant at the degree of the residual's minimal polynomial
        lam = np.array([1.0, 2.0, 5.0, 9.0, 9.0, 9.0])
        m = len(lam)
        h_mat = np.diag(lam)
        r0 = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])  # touches 3 eigenspaces
        s = krylov_degree(h_mat, r0)
        assert s == 3
        h = HOperator(h_mat, "a")
        norms = []
        for t in range(1, m + 1):
            alpha = min_norm_coefficients(moments(h, r0, t), t)
            p, _ = _krylov(h, r0, t)
            r_t = r0.copy()
            for i in range(t):
                r_t -= alpha[i] * p[i + 1]
            norms.append(norm2(r_t))
        for t in range(1, s):
            assert norms[t] < norms[t - 1] - 1e-12
        # plateau from s on (here at zero: the touched spectrum is invertible,
        # so F_s annihilates the residual entirely)
        for t in range(s, m):
            assert abs(norms[t] - norms[s - 1]) <= 1e-12 * norms[0]
        assert norms[s - 1] <= 1e-12 * norms[0]

    @staticmethod
    def _controlled_rect(rng, m, n, rank=None):
        # separated singular values and balanced right-hand-side components:
        # a single-shot F_s check only resolves what sits above its rank
        # cutoff, so near-duplicate spectra and vanishing components are
        # excluded by construction
        k = rank or min(m, n)
        u, _ = np.linalg.qr(rng.standard_normal((m, m)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = u[:, :k] * np.sqrt(np.linspace(1.0, 4.0, k)) @ v[:, :k].T
        return a, u

    @staticmethod
    def _balanced(rng, k):
        return rng.uniform(0.5, 1.5, k) * rng.choice([-1.0, 1.0], k)

    def test_solvability_detection(self):
        rng = np.random.default_rng(15)

        def f_s(a, b):
            h = HOperator(a, "aat")
            s = krylov_degree(a @ a.T, b)
            alpha = min_norm_coefficients(moments(h, b, s), s)
            p, _ = _krylov(h, b, s)
            r_s = b.copy()
            for i in range(s):
                r_s -= alpha[i] * p[i + 1]
            return r_s

        # solvable: F_s annihilates the residual
        for _ in range(10):
            a, u = self._controlled_rect(rng, 4, 8)
            b = u @ self._balanced(rng, 4)
            assert norm2(f_s(a, b)) <= 1e-10 * norm2(b)
        # inconsistent: F_s leaves the out-of-range part, killed by A^T
        for _ in range(10):
            a, u = self._controlled_rect(rng, 7, 3)
            b = u @ self._balanced(rng, 7)  # touches range and its complement
            r_s = f_s(a, b)
            assert norm2(r_s) > 1e-6
            assert norm2(matvec_transpose(a, r_s)) <= 1e-10 * norm2(b)

    def test_residual_identity_along_run(self):
        rng = np.random.default_rng(16)
        a, _ = random_instance(rng, 15, 15)
        x_true = rng.standard_normal(a.shape[1])
        b = a @ x_true
        h = HOperator(a, "aat")
        x = np.zeros(a.shape[1])
        r = b.copy()
        sched = _order_schedule(4)
        for _ in range(60):
            t = next(sched)
            try:
                x, r, _, _ = _step_arrays(x, r, t, h)
            except NormalEquationReached:
                break
            fresh = b - matvec(a, x)
            scale = norm2(b) + np.linalg.norm(a, "fro") * norm2(x)
            assert norm2(fresh - r) <= 1e-10 * scale


def _dense_gallery(spec):
    family, n = spec.split(":")
    a = gallery.make(family, int(n))
    return a.toarray() if sparse.issparse(a) else a


def _wide_gaussian(rank=None):
    """A seeded 60 x 90 Gaussian, of full rank or of the given rank, with a
    Gaussian right-hand side: consistent at full rank, not below it."""
    rng = np.random.default_rng(19)
    a = rng.standard_normal((60, 90))
    if rank is not None:
        a = rng.standard_normal((60, rank)) @ rng.standard_normal((rank, 90))
    return a, rng.standard_normal(60)


def _claim_case(case):
    """``(A, b, options)`` of one solve per centering path: wide dense Gram
    (``G`` formed), sparse Gram, tall dense Gram and symmetric mode."""
    if case == "gram":
        a, b = _wide_gaussian()
        return a, b, CenteringOptions(epsilon=1e-10)
    if case == "tall":
        rng = np.random.default_rng(23)
        return rng.standard_normal((30, 20)), rng.standard_normal(30), CenteringOptions(epsilon=1e-8)
    a = gallery.make(*{"sparse": ("convdiff", 6), "symmetric": ("gram-psd", 20)}[case])
    h_mode = "a" if case == "symmetric" else "aat"
    return a, gallery.row_sum_rhs(a), CenteringOptions(epsilon=1e-8, h_mode=h_mode)


@pytest.fixture
def formed(monkeypatch):
    """What each ``HOperator.form_gram`` call returned."""
    calls = []
    form = HOperator.form_gram

    def recorded(self):
        calls.append(form(self))
        return calls[-1]

    monkeypatch.setattr(HOperator, "form_gram", recorded)
    return calls


@pytest.fixture
def transposes(monkeypatch):
    """One entry per ``Operator.rmatvec`` call."""
    calls = []
    rmatvec = Operator.rmatvec

    def counted(self, v, out=None):
        calls.append(len(v))
        return rmatvec(self, v, out)

    monkeypatch.setattr(Operator, "rmatvec", counted)
    return calls


class TestExplicitGram:
    """Gram mode on dense A with m <= n forms G = A A^T and carries y with
    x = A^T y."""

    @pytest.mark.parametrize("spec, eps, status", [
        ("ode:400", 1e-8, "normal_eq_solution"),
        ("clement:301", 1e-9, "approx_solution"),
        ("convdiff:12", 1e-8, "normal_eq_solution"),
        ("gaussian", 1e-10, "approx_solution"),
        # steps on y stall at the rounding of G: the solve goes on with x
        ("gaussian-rank-40", 1e-10, "normal_eq_solution"),
        ("gaussian-rank-40", 1e-12, "normal_eq_solution"),
    ])
    def test_status_is_true_of_the_returned_x(self, spec, eps, status, formed):
        if spec.startswith("gaussian"):
            a, b = _wide_gaussian(40 if spec.endswith("40") else None)
        else:
            a = _dense_gallery(spec)
            b = gallery.row_sum_rhs(a)
        res = centering_solve(a, b, CenteringOptions(epsilon=eps, max_iters=5_000))
        assert formed == [True]
        assert res.status == status
        assert status_holds(res, a, b, eps)
        # y is exact, or absent once steps ran on x (the rank-40 solves)
        if spec.startswith("gaussian-rank"):
            assert res.y is None
        else:
            assert np.array_equal(res.x, prepare(a).rmatvec(res.y))

    @pytest.mark.parametrize("spec, eps", [("clement:301", 1e-9), ("convdiff:12", 1e-8)])
    def test_transpose_products_counted(self, spec, eps, transposes):
        # one per recheck, one for x = A^T y once a clause passes, one at the
        # exit, and t for the step of order t that then measures ||A^T r||
        # to certify a normal-equation solution
        a = _dense_gallery(spec)
        res = centering_solve(a, gallery.row_sum_rhs(a), CenteringOptions(epsilon=eps))
        assert res.iterations >= 500
        certifying = res.trace.column("t")[-1] if res.status == "normal_eq_solution" else 0
        assert len(transposes) == res.iterations // 250 + 2 + certifying

    @pytest.mark.parametrize("spec, eps", [("clement:301", 1e-9), ("convdiff:12", 1e-8)])
    def test_transpose_products_counted_on_sparse_storage(self, spec, eps, transposes):
        # H = A A^T on CSR storage runs both kernels it bound when built, so
        # the one Operator.rmatvec call is the exit's ||A^T r||
        family, n = spec.split(":")
        a = gallery.make(family, int(n))
        assert sparse.issparse(a) and a.format == "csr"
        res = centering_solve(a, gallery.row_sum_rhs(a), CenteringOptions(epsilon=eps))
        assert res.iterations >= 500
        assert len(transposes) == 1

    @pytest.mark.parametrize("case", ["gram", "sparse", "tall", "symmetric"])
    def test_false_certificate_is_refused(self, case, monkeypatch):
        # a first step whose ||A^T r|| (sqrt(phi_1) with G formed, ||A r||
        # in symmetric mode) passes the clause while the true one fails: the
        # solve goes to the true residual of x and measures it itself
        a, b, opts = _claim_case(case)
        step, lies = centering._step, []

        def lying(s, t, h, r_norm):
            s_new, order, atr_norm, new_norm = step(s, t, h, r_norm)
            if not lies:
                lies.append(atr_norm)
                atr_norm = 0.0
            return s_new, order, atr_norm, new_norm

        monkeypatch.setattr(centering, "_step", lying)
        faked = centering_solve(a, b, opts)
        assert len(lies) == 1 and lies[0] > opts.epsilon * norm2(b)
        assert faked.success and status_holds(faked, a, b, opts.epsilon, opts.h_mode)
        first = matvec(a, b) if opts.h_mode == "a" else matvec_transpose(a, b)
        assert faked.trace.column("normal_residual_norm")[0] == norm2(first)

    def test_hybrid_stage_one_forms_gram(self, formed):
        a, b = _wide_gaussian()
        res = hybrid_solve(a, b, HybridOptions(want_min_norm=True, eps_ta=1e-4))
        assert formed == [True]
        assert res.stage_results[0].status == "approx_solution"

    @pytest.mark.parametrize("case", ["sparse", "tall", "symmetric", "operator"])
    def test_other_solves_keep_their_products(self, case, formed):
        if case == "operator":
            rng = np.random.default_rng(23)
            wide = rng.standard_normal((10, 15))
            a, b = GramProduct(wide), wide.T @ rng.standard_normal(10)
            opts = CenteringOptions(epsilon=1e-8)
        else:
            a, b, opts = _claim_case(case)
        res = centering_solve(a, b, opts)
        assert formed == [False]
        assert res.success
        assert res.y is None  # no y of x = A^T y without G


class TestDriftRecheck:
    """Every 250 iterations the driver measures ``b - A x`` and compares it
    with the residual its recurrence carries.  A drift past the budget ends
    a solve on ``x``, and moves a solve on ``y`` (``G`` formed) over to
    ``x``.  One step here scales its new residual by ``1 + 1e-6``, a drift
    the recurrence keeps from then on."""

    @staticmethod
    def _drift_once(monkeypatch):
        """One entry per step: whether ``G`` was formed."""
        step, formed = centering._step, []

        def drifting(s, t, h, r_norm):
            s_new, order, atr_norm, new_norm = step(s, t, h, r_norm)
            if not formed:
                s_new[-h.dim:] *= 1.0 + 1e-6
                new_norm = norm2(s_new[-h.dim:])
            formed.append(h.gram is not None)
            return s_new, order, atr_norm, new_norm

        monkeypatch.setattr(centering, "_step", drifting)
        return formed

    def test_drift_on_x_ends_the_solve(self, monkeypatch):
        formed = self._drift_once(monkeypatch)
        a = gallery.make("convdiff", 12)
        res = centering_solve(a, gallery.row_sum_rhs(a), CenteringOptions(epsilon=1e-10))
        assert not any(formed)
        assert res.status == "numerical_failure"
        assert res.detail == "residual drift exceeded budget"
        assert res.iterations == 250

    def test_drift_on_y_moves_the_solve_to_x(self, monkeypatch):
        formed = self._drift_once(monkeypatch)
        a = _dense_gallery("ode:200")
        b = gallery.row_sum_rhs(a)
        res = centering_solve(a, b, CenteringOptions(epsilon=1e-10))
        assert formed.index(False) == 250 and not any(formed[250:])
        assert res.iterations > 250 and res.success
        assert status_holds(res, a, b, 1e-10)
        assert res.y is None  # steps ran on x after the move


class TestClaimRule:
    """Every status is claimed on the true residual of the returned x."""

    @pytest.mark.parametrize("seed", [75, 86, 127, 145, 151, 184, 191])
    def test_tall_rank_deficient_normal_equation(self, seed):
        # draws whose recurrence residual passed the normal-equation clause
        # while the returned x missed it by up to 1.2x
        rng = np.random.default_rng(2000 + seed)
        n = rng.integers(2, 40)
        m = rng.integers(n + 1, 80)
        k = rng.integers(1, n + 1)
        a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
        b = rng.standard_normal(m)
        eps = 10 ** -rng.uniform(9, 13)
        res = centering_solve(a, b, CenteringOptions(epsilon=eps))
        assert res.status == "normal_eq_solution"
        assert status_holds(res, a, b, eps)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["dense", "csr", "psd"]), m=st.integers(1, 10),
           n=st.integers(1, 10), rank=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
           digits=st.floats(8, 13))
    def test_every_status_holds(self, kind, m, n, rank, seed, digits):
        # dense and CSR Gram systems of every shape and rank, and symmetric
        # positive semidefinite B B^T, from epsilon 1e-8 to 1e-13
        rng = np.random.default_rng(seed)
        n = m if kind == "psd" else n
        k = min(rank, m, n)
        left = rng.standard_normal((m, k))
        a = left @ left.T if kind == "psd" else left @ rng.standard_normal((k, n))
        if kind == "csr":
            a = sparse.csr_array(a)
        b = rng.standard_normal(m)
        eps = 10.0 ** -digits
        h_mode = "a" if kind == "psd" else "aat"
        res = centering_solve(a, b, CenteringOptions(epsilon=eps, max_iters=300, h_mode=h_mode))
        assert status_holds(res, a, b, eps, h_mode)
