import numpy as np
import pytest

from conftest import krylov_degree, random_instance, spd_with_spectrum
from trisolve import gallery
from trisolve.centering import (
    MOMENT_RCOND,
    CenteringOptions,
    NormalEquationReached,
    centering_solve,
    first_order_probe,
    min_norm_coefficients,
    moments,
    _order_schedule,
    _step_arrays,
)
from trisolve.linalg import HOperator, matvec, matvec_transpose, norm2


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
        moments(h, np.ones(5), 4)
        assert h.apply_count == 4

    def test_order_out_of_range(self):
        h = HOperator(np.eye(2), "a")
        with pytest.raises(ValueError):
            moments(h, np.ones(2), 3)


class TestMomentSystem:
    def test_order_one_ratio(self):
        h = HOperator(np.array([[2.0]]), "a")
        mom = moments(h, np.array([1.0]), 1)
        assert np.allclose(min_norm_coefficients(mom), [0.5])

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


class TestStep:
    def test_identity_one_step(self):
        b = np.array([3.0, -1.0, 2.0])
        a = np.eye(3)
        h = HOperator(a, "a")
        x, r, *_ = _step_arrays(np.zeros(3), b.copy(), 1, h, a, MOMENT_RCOND)
        assert norm2(r) <= 1e-15
        assert np.allclose(x, b)

    def test_strict_decrease_diagonal(self):
        a = np.diag([1.0, 3.0])
        b = np.array([1.0, 3.0])
        h = HOperator(a, "a")
        x, r, *_ = _step_arrays(np.zeros(2), b.copy(), 1, h, a, MOMENT_RCOND)
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
        _, r, *_ = _step_arrays(np.zeros(8), r0.copy(), 1, h, a, MOMENT_RCOND)
        assert norm2(r) <= 1e-12 * norm2(r0)

    def test_gram_zero_signals_normal_equation(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([0.0, 1.0])  # orthogonal to range(A)
        h = HOperator(a, "aat")
        with pytest.raises(NormalEquationReached):
            _step_arrays(np.zeros(2), b.copy(), 1, h, a, MOMENT_RCOND)

    def test_apply_budget_at_most_2t(self):
        rng = np.random.default_rng(4)
        for t in (1, 2, 3, 5):
            a, b = random_instance(rng, 20, 20)
            h = HOperator(a, "aat")
            before = h.apply_count
            _step_arrays(np.zeros(a.shape[1]), b, t, h, a, 1e-13,
                         enhanced_threshold=1e-30)
            assert h.apply_count - before <= 2 * t


class TestFirstOrderProbe:
    def test_identity_triggers_immediately(self):
        a = np.eye(3)
        h = HOperator(a, "a")
        r = np.array([1.0, -2.0, 0.5])
        x = np.zeros(3)
        out = first_order_probe(x, r, h, j_max=3, threshold=1e-20)
        assert out is not None
        x_hat, j = out
        assert j == 1
        assert np.allclose(x_hat, x + r)  # alpha_{1,1} = 1 for H = I

    def test_eigenvector_triggers(self):
        rng = np.random.default_rng(5)
        h_mat, lam, q = spd_with_spectrum(rng, 6, 1.0, 4.0)
        h = HOperator(h_mat, "a")
        out = first_order_probe(np.zeros(6), q[:, 0].copy(), h, j_max=4, threshold=1e-18)
        assert out is not None and out[1] == 1

    def test_generic_residual_not_triggered(self):
        rng = np.random.default_rng(6)
        h_mat, _, _ = spd_with_spectrum(rng, 6, 1.0, 4.0)
        h = HOperator(h_mat, "a")
        out = first_order_probe(np.zeros(6), rng.standard_normal(6), h,
                                j_max=4, threshold=1e-300)
        assert out is None


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

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            centering_solve(np.eye(3), np.ones(4))

    def test_bad_options(self):
        with pytest.raises(ValueError):
            centering_solve(np.eye(2), np.ones(2), CenteringOptions(epsilon=2.0))
        with pytest.raises(ValueError):
            centering_solve(np.eye(2), np.ones(2), CenteringOptions(t_max=0))
        with pytest.raises(ValueError):
            centering_solve(np.eye(2), np.ones(2), CenteringOptions(h_mode="x"))

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

    def test_random_start_reproducible(self):
        a = gallery.gen_diag("pd", 20, seed=2)
        b = gallery.row_sum_rhs(a)
        opts = CenteringOptions(epsilon=1e-10, start="random", start_seed=9, h_mode="a")
        r1 = centering_solve(a, b, opts)
        r2 = centering_solve(a, b, opts)
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.x, r2.x)

    def test_trace_schema_and_monotone_tail(self):
        a = gallery.gen_diag("pd", 30, seed=3)
        b = gallery.row_sum_rhs(a)
        res = centering_solve(a, b, CenteringOptions(epsilon=1e-9, h_mode="a"))
        assert res.trace.columns == ("iter", "t", "residual_norm",
                                     "normal_residual_norm", "wall_ns")
        norms = res.trace.column("residual_norm")
        assert all(b2 <= a2 * (1 + 1e-10) for a2, b2 in zip(norms, norms[1:]))

    def test_enhanced_driver_matches_plain_on_inconsistent(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal(8)  # generically inconsistent
        plain = centering_solve(a, b, CenteringOptions(epsilon=1e-9))
        enhanced = centering_solve(a, b, CenteringOptions(epsilon=1e-9, enhanced=True))
        assert plain.status == enhanced.status == "normal_eq_solution"
        scale = norm2(b)
        assert enhanced.normal_residual_norm <= 1e-9 * scale * (1 + 1e-9)
        assert enhanced.iterations <= plain.iterations

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

    def test_acceleration_plugin_speeds_up_critical_line(self):
        lam = np.array([1.0, 1000.0])
        a = np.diag(lam)
        alpha_i = np.sqrt(lam[1] / (lam[0] + lam[1]))
        alpha_j = np.sqrt(lam[0] / (lam[0] + lam[1]))
        b = np.array([alpha_i, alpha_j])  # start on the slow line
        slow = centering_solve(a, b, CenteringOptions(
            epsilon=1e-10, h_mode="a", t_max=1, max_iters=20_000))
        fast = centering_solve(a, b, CenteringOptions(
            epsilon=1e-10, h_mode="a", t_max=1, max_iters=20_000, accelerate=True))
        assert fast.status == "approx_solution"
        assert fast.iterations < slow.iterations / 10


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
                x1, r1, _, _, _ = _step_arrays(x0, b, t, h, a, 1e-13)
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
                x, r, _, _, _ = _step_arrays(x, r, t, h, a, 1e-13)
            except NormalEquationReached:
                break
            fresh = b - matvec(a, x)
            scale = norm2(b) + np.linalg.norm(a, "fro") * norm2(x)
            assert norm2(fresh - r) <= 1e-10 * scale
