import numpy as np
import pytest

from conftest import krylov_degree, random_instance, spd_with_spectrum
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
from trisolve.linalg import HOperator, matvec, matvec_transpose, norm2, prepare_system
from trisolve.results import Trace


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
    op, b, _ = prepare_system(a, gallery.row_sum_rhs(a), transpose=h_mode == "aat")
    return moments(HOperator(op, h_mode), b, t)


def _count_applications(h):
    """A list that gains one entry per application of ``h``."""
    calls = []
    apply = h.apply_with_transpose

    def counted(r):
        calls.append(r)
        return apply(r)

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
            self._assert_bits_match(Moments(t, phi[:2 * t].copy(), [], None))

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
            mom = Moments(3, phi, [], None)
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


class TestStep:
    def test_given_residual_norm_changes_nothing(self):
        rng = np.random.default_rng(5)
        a, b = random_instance(rng, 20, 20)
        x0 = rng.standard_normal(a.shape[1])
        for t in (1, 3):
            plain = _step_arrays(x0, b, t, HOperator(a, "aat"))
            given = _step_arrays(x0, b, t, HOperator(a, "aat"), norm2(b))
            assert plain[2:] == given[2:]
            assert plain[0].tobytes() == given[0].tobytes()
            assert plain[1].tobytes() == given[1].tobytes()

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

    def test_trace_schema_and_monotone_tail(self):
        a = gallery.gen_diag("pd", 30, seed=3)
        b = gallery.row_sum_rhs(a)
        res = centering_solve(a, b, CenteringOptions(epsilon=1e-9, h_mode="a"))
        assert res.trace.columns == ("iter", "t", "residual_norm",
                                     "normal_residual_norm", "wall_ns")
        norms = res.trace.column("residual_norm")
        assert all(b2 <= a2 * (1 + 1e-10) for a2, b2 in zip(norms, norms[1:]))
        with pytest.raises(ValueError, match="trace row has 1 fields, schema has 2"):
            Trace(("a", "b")).append(1)

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
            mom = moments(h, r0, t)
            alpha = min_norm_coefficients(mom, t)
            r_t = r0.copy()
            for i in range(t):
                r_t -= alpha[i] * mom.krylov[i + 1]
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
            mom = moments(h, b, s)
            alpha = min_norm_coefficients(mom, s)
            r_s = b.copy()
            for i in range(s):
                r_s -= alpha[i] * mom.krylov[i + 1]
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
