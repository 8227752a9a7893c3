import functools
import math

import numpy as np
import pytest
import scipy.sparse as sparse

from conftest import check_cap_bound, check_witness, status_holds
from hypothesis import given, settings, strategies as st
from trisolve import feasibility, triangle
from trisolve.centering import CenteringOptions, centering_solve
from trisolve.feasibility import nonnegative_feasibility
from trisolve.hybrid import HybridOptions, hybrid_solve
from trisolve.linalg import GramProduct, matvec_transpose, norm2
from trisolve.results import TRIANGLE_TRACE_COLUMNS, System
from trisolve.triangle import (
    min_norm_solve,
    move_to_pivot,
    solve_adaptive,
    solve_in_ball,
)


class TestPivotDirection:
    """The direction ``c = A^T(b - b')`` as the pivot loop uses it: ``||c||``
    is the trace's ``normal_residual_norm``, and a pivot from the origin
    lands on ``rho c / ||c||``."""

    def test_zero_at_target(self):
        b = np.array([1.0, 2.0])
        res = solve_adaptive(np.eye(2), b, eps=1e-12, x0=b)
        assert res.status == "approx_solution" and res.iterations == 0
        assert res.normal_residual_norm == 0.0

    def test_identity(self):
        res = solve_adaptive(np.eye(2), np.array([1.0, 0.0]), eps=1e-12)
        assert res.trace.column("normal_residual_norm")[0] == 1.0
        assert np.array_equal(res.x, [1.0, 0.0])

    def test_rank_deficient_kills_component(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        res = solve_adaptive(a, np.array([0.0, 1.0]), eps=1e-12)
        assert res.normal_residual_norm == 0.0
        assert res.detail == "pivot direction vanished"


class TestStrictPivotTest:
    """``rho ||c|| >= (b - b')^T b``, read off the first event of a
    fixed-radius run from the origin."""

    def test_boundary_equality_is_strict(self):
        # rho ||c|| = (b - b')^T b = 1
        res = solve_in_ball(np.eye(2), np.array([1.0, 0.0]), rho=1.0, eps=1e-12)
        assert res.trace.column("event")[0] == "pivot"

    def test_vanishing_radius_fails(self):
        res = solve_in_ball(np.eye(2), np.array([1.0, 0.0]), rho=1e-12, eps=1e-12)
        assert res.trace.column("event") == ["witness"]


class TestMoveToPivot:
    def test_projection_hits_target_on_segment(self):
        b_prime = np.zeros(2)
        v = np.array([2.0, 0.0])
        b = np.array([1.0, 0.0])
        b2, x2, alpha = move_to_pivot(b_prime, np.zeros(2), v, v.copy(), b - b_prime)
        assert np.allclose(b2, b) and alpha == 0.5

    def test_pivot_equals_target(self):
        b = np.array([1.0, 1.0])
        b2, _, alpha = move_to_pivot(np.zeros(2), np.zeros(2), b.copy(), b.copy(), b.copy())
        assert alpha == 1.0 and np.array_equal(b2, b)

    def test_identity_one_step(self):
        # A = diag(2, 1), b = (2, 0), rho = 1: from the origin the gap is b,
        # c = A^T b = (4, 0), and the pivot v = rho A c / ||c|| = b is
        # attained at x = (1, 0)
        b = np.array([2.0, 0.0])
        b2, x2, alpha = move_to_pivot(np.zeros(2), np.zeros(2), b.copy(),
                                      np.array([1.0, 0.0]), b.copy())
        assert alpha == 1.0 and np.array_equal(b2, b)
        assert np.array_equal(x2, [1.0, 0.0])

    def test_monotone_improvement(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.standard_normal((3, 5))
            b = a @ rng.standard_normal(5)
            x_prime = rng.standard_normal(5) * 0.1
            b_prime = a @ x_prime
            rho = norm2(x_prime) + float(rng.uniform(0.5, 2.0))
            c = a.T @ (b - b_prime)
            if norm2(c) < 1e-12 or rho * norm2(c) < float(np.dot(b - b_prime, b)):
                continue
            pre = (rho / norm2(c)) * c
            b2, _, _ = move_to_pivot(b_prime, x_prime, a @ pre, pre, b - b_prime)
            assert norm2(b - b2) <= norm2(b - b_prime) + 1e-12

    def test_degenerate_pivot_rejected(self):
        with pytest.raises(ValueError):
            move_to_pivot(np.ones(2), np.ones(2), np.ones(2), np.ones(2), -np.ones(2))


class TestSolveInBall:
    def test_identity_inside(self):
        res = solve_in_ball(np.eye(2), np.array([1.0, 0.0]), rho=1.0, eps=1e-12)
        assert res.status == "approx_solution"
        assert res.iterations <= 2
        assert np.allclose(res.x, [1.0, 0.0])

    def test_identity_outside_gives_witness(self):
        b = np.array([2.0, 0.0])
        res = solve_in_ball(np.eye(2), b, rho=1.0, eps=1e-12)
        assert res.status == "witness"
        # distance from b to the unit disk is 1; the gap obeys the two-sided bound
        assert 1.0 <= res.residual_norm <= 2.0
        check_witness(np.eye(2), b, res)
        assert res.lower_bound <= 2.0 + 1e-12  # ||x*|| = 2

    def test_loose_tolerance_returns_origin(self):
        b = np.array([1.0, 0.0])
        res = solve_in_ball(np.eye(2), b, rho=0.5, eps=2.0 * norm2(b))
        assert res.status == "approx_solution"
        assert res.iterations == 0
        assert np.array_equal(res.x, np.zeros(2))

    def test_iterates_stay_in_ball(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.standard_normal((3, 4))
            x_true = rng.standard_normal(4)
            b = a @ x_true
            rho = float(rng.uniform(0.2, 1.0)) * norm2(x_true)
            res = solve_in_ball(a, b, rho=rho, eps=1e-8, max_iters=2000)
            assert norm2(res.x) <= rho * (1 + 1e-9)

    def test_witnesses_are_sound_and_bounded_by_pinv(self):
        rng = np.random.default_rng(3)
        seen = 0
        for _ in range(50):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(m, 15))
            a = rng.standard_normal((m, n))
            b = a @ rng.standard_normal(n)
            x_star = np.linalg.pinv(a) @ b
            res = solve_in_ball(a, b, rho=0.5 * norm2(x_star), eps=1e-10,
                                max_iters=20_000)
            if res.status == "witness":
                seen += 1
                check_witness(a, b, res)
                assert res.lower_bound <= norm2(x_star) * (1 + 1e-9)
        assert seen >= 30  # half-radius balls almost always exclude b

    def test_non_finite_iterate_names_its_cause(self):
        res = solve_in_ball(np.eye(2), [np.nan, 1.0], rho=1.0, eps=1e-8)
        assert res.status == "numerical_failure"
        assert res.detail == "non-finite iterate"


class TestSolveAdaptive:
    def test_first_pass_radius_jump(self):
        # from rho = 0 the first expand goes to 4x the certified bound
        a = np.diag([1.0, 2.0])
        b = np.array([1.0, 2.0])
        res = solve_adaptive(a, b, eps=1e-10)
        first = res.trace.rows[0]
        assert first[4] == "expand"
        assert first[1] == 4.0 * float(np.dot(b, b)) / norm2(a.T @ b)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(m=st.integers(1, 6), n=st.integers(1, 6), csr=st.booleans(),
           scale=st.integers(-40, 40), ulps=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_first_radius_stays_within_the_cap(self, m, n, csr, scale, ulps, seed):
        # ||A^T b|| a few ulps above eps_prime: 4 (b.b) / ||A^T b|| and the
        # cap 4 ||b||^2 / eps_prime round differently, and the first radius
        # is clipped at the cap
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n)) * 2.0 ** scale
        b = rng.standard_normal(m)
        if csr:
            a = sparse.csr_array(a)
        system = System(a, b, TRIANGLE_TRACE_COLUMNS)
        c_norm = norm2(system.op.rmatvec(system.b))
        eps_prime = c_norm
        for _ in range(ulps):
            eps_prime = np.nextafter(eps_prime, 0.0)
        if not eps_prime > 0.0:
            return
        res = solve_adaptive(a, b, eps=1e-300, eps_prime=eps_prime, max_iters=1)
        (rho,), (event,) = res.trace.column("rho"), res.trace.column("event")
        cap = 4.0 * system.b_norm ** 2 / eps_prime
        assert event == "expand" and res.status == "iteration_cap"
        assert res.detail == "iteration budget exhausted"
        assert rho == min(4.0 * float(system.b.dot(system.b)) / c_norm, cap)
        assert rho <= cap

    def test_diagonal_solve(self):
        res = solve_adaptive(np.diag([1.0, 2.0]), np.array([1.0, 2.0]), eps=1e-10)
        assert res.status == "approx_solution"
        assert np.abs(res.x - 1.0).max() <= 1e-9

    def test_inconsistent_reaches_normal_equation(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([1.0, 1.0])
        res = solve_adaptive(a, b, eps=1e-12, eps_prime=1e-10)
        assert res.status == "normal_eq_solution"
        assert res.normal_residual_norm <= 1e-10
        assert np.abs(res.x - np.array([1.0, 0.0])).max() <= 1e-9  # lsq oracle

    def test_exact_pivot_vanishing(self):
        # A^T b = 0 exactly: x = 0 already solves the normal equation
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([0.0, 1.0])
        res = solve_adaptive(a, b, eps=1e-12)
        assert res.status == "normal_eq_solution"
        assert res.iterations == 0

    def test_radius_at_least_doubles(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4))
        b = a @ rng.standard_normal(4)
        res = solve_adaptive(a, b, eps=1e-9, max_iters=50_000)
        rhos = [row[1] for row in res.trace.rows if row[4] == "expand"]
        for prev, nxt in zip(rhos, rhos[1:]):
            assert nxt >= 2.0 * prev - 1e-12
        assert all(b2 >= a2 for a2, b2 in zip(rhos, rhos[1:]))

    def test_zero_rhs(self):
        res = solve_adaptive(np.eye(3), np.zeros(3), eps=1e-10)
        assert res.status == "approx_solution" and res.iterations == 0

    def test_works_on_implicit_gram_operator(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 6))
        b = rng.standard_normal(3)
        gram = GramProduct(a)
        g = a.T @ b
        res = solve_adaptive(gram, g, eps=1e-9 * norm2(g), max_iters=100_000)
        assert res.status == "approx_solution"
        # solving the pair means solving the normal equation of the original
        assert norm2(a.T @ (a @ res.x) - g) <= 1e-9 * norm2(g) * (1 + 1e-9)


class TestMinNorm:
    def test_identity_unique_solution(self):
        b = np.array([1.0, 0.0])
        res = min_norm_solve(np.eye(2), b, eps=1e-6, x_eps=b.copy())
        assert res.status == "min_norm_solution"
        lo, hi = res.rho_interval
        assert hi - lo <= 1e-6
        assert lo >= 1.0 - 1e-6
        assert np.isclose(norm2(res.x), 1.0, atol=1e-6)

    def test_wide_row(self):
        a = np.array([[1.0, 1.0]])
        res = min_norm_solve(a, np.array([2.0]), eps=1e-6, x_eps=np.array([2.0, 0.0]))
        assert res.status == "min_norm_solution"
        assert abs(norm2(res.x) - np.sqrt(2.0)) <= 1e-6

    def test_underdetermined_vs_pinv_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(m + 1, 12))
            a = rng.standard_normal((m, n))
            x0 = rng.standard_normal(n)
            b = a @ x0
            x_star = np.linalg.pinv(a) @ b
            res = min_norm_solve(a, b, eps=1e-6, x_eps=x0)
            assert res.status == "min_norm_solution"
            assert norm2(res.x) <= norm2(x_star) + 1e-6
            # when the certified point is at least as long as the true
            # minimum-norm solution, it is also close to it
            if norm2(x_star) <= norm2(res.x):
                assert norm2(res.x - x_star) <= 1e-6 * (1 + norm2(x_star))

    def test_bisection_certificate(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 7))
        x0 = rng.standard_normal(7)
        b = a @ x0
        res = min_norm_solve(a, b, eps=1e-7, x_eps=x0)
        lo, hi = res.rho_interval
        assert hi - lo <= 1e-7
        assert 0.0 <= lo <= norm2(res.x) + 1e-12
        assert res.residual_norm <= 1e-7

    @pytest.mark.parametrize("seed", range(6))
    def test_bracket_bounds_exact_solutions_below_and_the_returned_x_above(self, seed):
        # the lower end is certified for every exact solution; the upper end
        # is ||x|| of the returned approximate solution, which may lie below
        # ||x*|| (it does at seeds 0, 2, 4 and 5, by 1.6e-8 to 4.2e-8)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((12, 20))
        b = a @ rng.standard_normal(20)
        eps = 1e-4 * norm2(b)
        res = min_norm_solve(a, b, eps, solve_adaptive(a, b, eps=1e-8 * norm2(b)).x)
        lo, hi = res.rho_interval
        x_star = norm2(np.linalg.pinv(a) @ b)
        assert res.status == "min_norm_solution" and hi - lo <= eps
        assert lo <= x_star * (1.0 + 1e-12)
        assert res.rho == hi == norm2(res.x)
        if seed == 0:
            assert hi < x_star - 1e-8

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            min_norm_solve(np.eye(2), np.array([1.0, 0.0]), eps=1e-8,
                           x_eps=np.array([0.0, 5.0]))

    def test_normal_equation_stop_branch(self):
        # inconsistent part is invisible to A^T: the inner loop hits c = 0
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([1.0, 0.5])
        # x_eps solves within eps = 0.6 (residual is exactly 0.5)
        res = min_norm_solve(a, b, eps=0.6, x_eps=np.array([1.0, 0.0]))
        assert res.status in ("min_norm_solution", "normal_eq_solution")
        if res.status == "normal_eq_solution":
            assert res.normal_residual_norm <= 1e-10

    def test_pivot_direction_vanishing_ends_the_bisection(self):
        # the first radius, ||x_eps|| / 2, reaches x = (1, 0), where
        # A^T(b - Ax) = 0 exactly
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        res = min_norm_solve(a, np.array([1.0, 1.0]), eps=2.0, x_eps=np.array([1.0, 5.0]))
        assert res.status == "normal_eq_solution"
        assert res.detail == "pivot direction vanished during bisection"
        assert res.iterations == 1
        # the result reports the bracket's upper end, like every bisection exit
        assert res.rho == pytest.approx(math.sqrt(26.0), rel=1e-15)
        assert res.rho_interval == pytest.approx((0.0, math.sqrt(26.0)), rel=1e-15)
        assert res.normal_residual_norm == 0.0

    def test_capped_inner_run_ends_the_bisection(self):
        # one pivot per membership test: the first test witnesses, the
        # second runs out of its budget; the bracket raised so far stands
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 20))
        b = a @ rng.standard_normal(20)
        eps = 1e-4 * norm2(b)
        x_eps = solve_adaptive(a, b, eps=1e-8 * norm2(b)).x
        res = min_norm_solve(a, b, eps, x_eps, inner_cap=1)
        lo, hi = res.rho_interval
        assert res.status == "iteration_cap" and res.iterations == 2
        assert res.detail == "inner membership test exhausted its budget"
        assert 0.0 < lo <= hi and hi - lo > eps
        assert lo <= norm2(np.linalg.pinv(a) @ b) * (1.0 + 1e-12)


class TestMinNormDualStart:
    """``min_norm_solve(..., y=...)`` starts its bracket's lower end at the
    dual bound ``(y^T b - delta ||y||) / ||A^T y||``, ``delta = ||b - A x_eps||``."""

    @staticmethod
    def _wide(seed=0):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((12, 20))
        b = a @ rng.standard_normal(20)
        eps = 1e-4 * norm2(b)
        return a, b, eps, solve_adaptive(a, b, eps=1e-8 * norm2(b)).x

    @pytest.mark.parametrize("weak", ["b", "random"])
    def test_weak_y_bisects_from_its_bound(self, weak):
        a, b, eps, x_eps = self._wide()
        y = b.copy() if weak == "b" else np.random.default_rng(5).standard_normal(12)
        delta = norm2(b - a @ x_eps)
        bound = (float(y @ b) - delta * norm2(y)) / norm2(a.T @ y)
        assert norm2(x_eps) - bound > eps   # the start misses the target
        res = min_norm_solve(a, b, eps, x_eps, y=y)
        lo, hi = res.rho_interval
        assert res.status == "min_norm_solution" and res.iterations > 0
        assert hi - lo <= eps and lo >= max(0.0, bound)
        assert lo <= norm2(np.linalg.pinv(a) @ b) * (1.0 + 1e-12)
        assert res.trace.column("event")[0] == "expand"
        assert res.trace.column("rho")[0] == pytest.approx(max(0.0, bound), rel=1e-12)
        assert np.array_equal(res.y, y)

    def test_y_of_the_wrong_length_is_refused(self):
        a, b, eps, x_eps = self._wide()
        with pytest.raises(ValueError, match=r"^y has shape \(11,\), expected \(12,\)"):
            min_norm_solve(a, b, eps, x_eps, y=np.ones(11))

    @pytest.mark.parametrize("bad", ["nan", "inf", "zero", "null-space"])
    def test_y_without_a_bound_is_skipped(self, bad, capfd):
        if bad == "null-space":
            # tall A with two zero rows: A^T y = 0 exactly for y on them
            rng = np.random.default_rng(3)
            a = np.vstack([rng.standard_normal((3, 3)), np.zeros((2, 3))])
            b = a @ rng.standard_normal(3)
            eps, x_eps = 1e-4 * norm2(b), np.linalg.solve(a[:3], b[:3])
            y = np.array([0.0, 0.0, 0.0, 1.0, -2.0])
        else:
            a, b, eps, x_eps = self._wide()
            y = b.copy()
            if bad == "zero":
                y[:] = 0.0
            else:
                y[4] = np.nan if bad == "nan" else np.inf
        plain = min_norm_solve(a, b, eps, x_eps)
        res = min_norm_solve(a, b, eps, x_eps, y=y)
        assert (res.status, res.iterations, res.rho_interval) == (
            plain.status, plain.iterations, plain.rho_interval)
        assert res.x.tobytes() == plain.x.tobytes()
        assert len(res.trace) == len(plain.trace) and res.y is None
        assert capfd.readouterr().err == ""


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solve", [
    lambda a, b: solve_in_ball(a, b, rho=1.0, eps=1e-8),
    lambda a, b: solve_adaptive(a, b, eps=1e-8),
    lambda a, b: min_norm_solve(a, b, eps=1e-8, x_eps=np.eye(a.shape[1])[0]),
    lambda a, b: nonnegative_feasibility(a, b, eps=1e-8),
], ids=["solve_in_ball", "solve_adaptive", "min_norm_solve", "nonnegative_feasibility"])
def test_non_finite_matrix_fails_at_once(solve, bad):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((20, 30))
    a[3, 5] = bad
    b = a[:, 0].copy()  # finite, and solved by x = e_0
    with np.errstate(invalid="ignore"):
        res = solve(a, b)
    assert res.status == "numerical_failure"
    assert res.iterations <= 1


@pytest.mark.parametrize("where", ["matrix", "x_eps"])
def test_min_norm_non_finite_start_fails_at_once(where):
    # Inf in A times x_eps = 0, or a NaN in x_eps, gives a NaN start
    # residual; NaN fails every comparison, so the start check alone would
    # let it through to a false certificate
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 8))
    x_eps = np.zeros(8)
    if where == "matrix":
        a[1, 2] = np.inf
    else:
        x_eps[4] = np.nan
    with np.errstate(invalid="ignore"):
        res = min_norm_solve(a, np.ones(5), eps=1e-6, x_eps=x_eps)
    assert res.status == "numerical_failure"
    assert res.iterations == 0
    assert res.rho_interval is None


@pytest.mark.parametrize("x_eps, eps, status", [
    ([1e155, -1e155, 1.0], 1e-6, "numerical_failure"),   # ||x_eps|| overflows
    ([1e10, -1e10, 1.0], 1e-300, "min_norm_solution"),   # rho_hi / eps overflows
    ([1.0, 0.0, 0.0], 1e-310, "min_norm_solution"),      # and with a subnormal eps
], ids=["norm-overflow", "ratio-overflow", "subnormal-eps"])
def test_min_norm_extreme_scales_end_in_a_status(x_eps, eps, status):
    res = min_norm_solve(np.ones((1, 3)), np.ones(1), eps=eps, x_eps=np.array(x_eps))
    assert res.status == status
    if status == "numerical_failure":
        assert res.iterations == 0 and res.rho_interval is None
    else:
        # ||x*|| = 1/sqrt(3); an eps below its ulp leaves a rounding-level
        # bracket, which must still be ordered
        lo, hi = res.rho_interval
        assert 0.0 <= hi - lo <= eps
        assert math.isclose(lo, 3 ** -0.5, rel_tol=1e-15) and math.isclose(hi, lo, rel_tol=1e-15)


_B = np.array([1.0, 2.0])
_BAD_TOLERANCES = [
    ("adaptive-zero", lambda: solve_adaptive(np.eye(2), _B, eps=0.0), "eps"),
    ("adaptive-negative", lambda: solve_adaptive(np.eye(2), _B, eps=-1.0), "eps"),
    ("adaptive-string", lambda: solve_adaptive(np.eye(2), _B, eps="a"), "eps"),
    ("adaptive-eps-prime-nan",
     lambda: solve_adaptive(np.eye(2), _B, eps=1e-8, eps_prime=np.nan), "eps_prime"),
    ("ball-negative",
     lambda: solve_in_ball(np.eye(2), np.array([1.0, 0.0]), rho=1.0, eps=-1.0), "eps"),
    ("min-norm-inf", lambda: min_norm_solve(np.eye(2), np.array([1.0, 0.0]), eps=np.inf,
                                            x_eps=np.array([1.0, 0.0])), "eps"),
    ("feasibility-nan", lambda: nonnegative_feasibility(np.eye(2), _B, eps=np.nan), "eps"),
]
# the radii and the hybrid tolerances, each solve given the bad value for the
# argument it names; NaN fails every comparison, so a check of the form
# "value <= 0" lets it through
_SOLVE_WITH = {
    "rho": lambda v: solve_in_ball(np.eye(2), _B, rho=v, eps=1e-8),
    "rho_max": lambda v: nonnegative_feasibility(np.eye(2), _B, eps=1e-8, rho_max=v),
    "eps_cta": lambda v: hybrid_solve(np.eye(2), _B, HybridOptions(eps_cta=v)),
    "eps_ta": lambda v: hybrid_solve(np.eye(2), _B, HybridOptions(eps_ta=v)),
}
_BAD_VALUES = {"rho": (np.nan, np.inf, 0.0, -1.0),
               "rho_max": (np.nan, np.inf, -1.0), "eps_cta": (0.0, np.nan),
               "eps_ta": (0.0, np.nan)}
_BAD_TOLERANCES += [(f"{name}-{value}", functools.partial(_SOLVE_WITH[name], value), name)
                    for name, values in _BAD_VALUES.items() for value in values]


@pytest.mark.parametrize("solve, name", [case[1:] for case in _BAD_TOLERANCES],
                         ids=[case[0] for case in _BAD_TOLERANCES])
def test_bad_tolerance_names_the_argument(solve, name):
    # the first-stage tolerance is relative to ||b||, so it lies below 1 too
    rule = r"lie in \(0, 1\)" if name == "eps_cta" else "be finite and positive"
    with pytest.raises(ValueError, match=f"^{name} must {rule}, got "):
        solve()


# --- a success is claimed only on b' measured from the returned x ------------

def _claim_draw(seed):
    """One draw of the seeded fuzz that found false claims: a random-rank
    system, columns graded with probability 0.3, scaled by a power of two,
    ``b`` consistent or random, CSR with probability 0.3, and
    ``eps = 10^-U(3, 9) ||b||``.  Returns the generator too, for the draws
    that follow."""
    rng = np.random.default_rng(5000 + seed)
    m, n = rng.integers(1, 25, 2)
    k = rng.integers(1, min(m, n) + 1)
    a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
    if rng.random() < 0.3:
        a = a * np.logspace(0, -rng.uniform(0, 8), n)
    a = a * 2.0 ** rng.integers(-30, 30)
    if rng.random() < 0.5:
        b = a @ rng.standard_normal(n)
    else:
        b = rng.standard_normal(m) * 2.0 ** rng.integers(-30, 30)
    if rng.random() < 0.3:
        a = sparse.csr_array(a)
    return rng, a, b, 10 ** -rng.uniform(3, 9) * norm2(b)


def _claim_draw_adaptive(seed):
    _, a, b, eps = _claim_draw(seed)
    return solve_adaptive(a, b, eps=eps, max_iters=3000)


class TestClaimRule:
    """Every success status of the pivot loop holds of the returned x."""

    @pytest.mark.parametrize("seed", [16, 31, 104, 253])
    def test_adaptive_normal_equation(self, seed):
        # draws whose carried b' passed the normal-equation clause while the
        # returned x missed it by 1.02x to 4.34x
        _, a, b, eps = _claim_draw(seed)
        res = solve_adaptive(a, b, eps=eps, max_iters=3000)
        assert res.status == "normal_eq_solution"
        assert status_holds(res, a, b, eps / norm2(b))

    def test_fixed_radius_claim_becomes_a_witness(self):
        # a 2 x 6 CSR system that claimed a normal-equation solution after
        # one pivot; measured from x the clause fails, and the next step is
        # a witness
        rng, a, b, eps = _claim_draw(133)
        rho = rng.uniform(0.1, 10) * norm2(b) / np.linalg.norm(a.toarray())
        assert (a.shape, rho, eps) == ((2, 6), 0.00793903889910772, 0.0029140939562707323)
        res = solve_in_ball(a, b, rho=rho, eps=eps)
        assert res.status == "witness" and res.iterations == 2
        check_witness(a, b, res)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(m=st.integers(1, 8), n=st.integers(1, 8), rank=st.integers(1, 8),
           csr=st.booleans(), consistent=st.booleans(), grade=st.floats(0, 8),
           scale=st.integers(-30, 30), digits=st.floats(3, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_every_status_holds(self, m, n, rank, csr, consistent, grade, scale, digits,
                                seed):
        # dense and CSR systems of every shape and rank, columns graded down
        # to 1e-8, scaled by 2^scale, eps from 1e-3 to 1e-9 of ||b||; the
        # four drivers of the loop, min_norm_solve from the adaptive x
        rng = np.random.default_rng(seed)
        k = min(rank, m, n)
        a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
        a = a * np.logspace(0, -grade, n) * 2.0 ** scale
        b = a @ rng.standard_normal(n) if consistent else rng.standard_normal(m) * 2.0 ** scale
        eps = 10.0 ** -digits * norm2(b)
        rho = rng.uniform(0.1, 10) * norm2(b) / np.linalg.norm(a)
        if csr:
            a = sparse.csr_array(a)
        adaptive = solve_adaptive(a, b, eps=eps, max_iters=300)
        runs = [adaptive, solve_in_ball(a, b, rho=rho, eps=eps, max_iters=300),
                nonnegative_feasibility(a, b, eps=eps, max_iters=300)]
        if adaptive.residual_norm <= eps:
            runs.append(min_norm_solve(a, b, eps, adaptive.x, inner_cap=300, max_iters=1500))
        for res in runs:
            assert status_holds(res, a, b, eps / norm2(b)), res

    @pytest.mark.parametrize("scale_a, scale_b", [(540, -100), (558, -155)])
    def test_underflowing_pivot_step_keeps_its_direction(self, scale_a, scale_b):
        # ||A^T b|| near 1e134 against a first radius near 1e-192: the step
        # rho / ||d|| underflows to 0, which once put v on b' = 0 and raised
        # "degenerate pivot"
        rng = np.random.default_rng(1)
        a = rng.standard_normal((9, 10))
        b = a @ rng.standard_normal(10)
        a, b = np.ldexp(a, scale_a), np.ldexp(b, scale_b)
        eps = 1e-6 * norm2(b)
        res = solve_adaptive(a, b, eps=eps)
        assert res.status == "approx_solution" and status_holds(res, a, b, 1e-6)
        res = nonnegative_feasibility(a, b, eps)
        # Farkas: A^T y <= 0 and y^T b > eps ||y||, so no x >= 0 is within eps
        assert res.status == "witness" and res.y is not None
        assert (a.T @ res.y).max() <= 0.0 < float(res.y @ b) - eps * norm2(res.y)


# --- the lean iteration gives the bits of the plain one ----------------------

def _reference_loop(system, x0, rho, eps, eps_prime, max_iters, rho_cap=None, cone=False,
                    first_radius_factor=4.0):
    """The pivot loop written out plainly: the pivot point and
    ``move_to_pivot`` as their formulas state them, recomputing ``||d||`` and
    ``b - b'``, every product through ``np.dot``.  Like the lean loop it
    pivots when ``rho >= (b - b')^T b / ||d||``, sends a ball run's first
    expand from ``rho = 0`` to ``first_radius_factor`` times that bound
    (clipped at the cap), starts from ``x0`` whenever one is given, moves a
    cone run after its first pivot to the nearest point of the triangle of
    ``b'`` and the last two pivots (the apex pivot keeps the segment and
    leaves the last pivot as it was), measures ``b' = Ax`` again after every
    512 pivots and before it claims a success on a carried ``b'``, checks
    the iteration budget only after measuring the gap and the direction and
    testing for a witness, which stands at the budget without a row,
    recomputes a budget exit's bound ``(y^T b - eps ||y||) / ||d||`` from
    ``y = b - b'`` alone, names a cone run's ends ``feasible`` and
    ``inconclusive``, and returns through ``system.finish``."""
    op, b, trace = system.op, system.b, system.trace
    m, n = op.shape
    if x0 is None:
        x, b_prime = np.zeros(n), np.zeros(m)
    else:
        x = np.asarray(x0, dtype=np.float64).copy()
        b_prime = op.matvec(x)

    def move(v, preimage):
        d = np.asarray(v) - np.asarray(b_prime)
        alpha = float(np.dot(np.asarray(b) - b_prime, d)) / float(np.dot(d, d))
        alpha = min(1.0, max(0.0, alpha))
        return b_prime + alpha * d, (1.0 - alpha) * x + alpha * preimage

    def move_in_triangle(v, preimage, v_prev, preimage_prev):
        # the point of conv{b', v, v_prev} nearest b: the 2x2 normal
        # equations by Cramer's rule when their solution lies in the simplex,
        # else the best nearest point of the three edges, the segment first
        clamp = lambda t: min(1.0, max(0.0, t))
        gap = np.asarray(b) - b_prime
        d1, d2 = v - b_prime, v_prev - b_prime
        a11, a12, a22 = (float(np.dot(d1, d1)), float(np.dot(d1, d2)),
                         float(np.dot(d2, d2)))
        g1, g2 = float(np.dot(gap, d1)), float(np.dot(gap, d2))
        det = a11 * a22 - a12 * a12
        s = u = -1.0
        if det > 1e-12 * a11 * a22:
            s, u = (g1 * a22 - g2 * a12) / det, (g2 * a11 - g1 * a12) / det
        if not (s >= 0.0 and u >= 0.0 and s + u <= 1.0):
            edges = [(clamp(g1 / a11), 0.0)]
            if a22 > 0.0:
                edges.append((0.0, clamp(g2 / a22)))
            e = a11 - 2.0 * a12 + a22
            if e > 0.0:
                t = clamp((g1 - g2 - a12 + a22) / e)
                edges.append((t, 1.0 - t))
            s, u = min(edges, key=lambda su: su[0] * (su[0] * a11 - 2.0 * g1)
                       + su[1] * (su[1] * a22 - 2.0 * g2) + 2.0 * su[0] * su[1] * a12)
        w = max(0.0, 1.0 - s - u)
        return (b_prime + s * d1 + u * d2,
                w * x + s * preimage + u * preimage_prev)

    solved, capped = ("feasible", "inconclusive") if cone else ("approx_solution",
                                                                 "iteration_cap")

    def done(status, detail="", bound=None):
        # a witness or a budget exit hands back the gap its bound came from
        y = np.asarray(b) - b_prime if status in ("witness", capped) else None
        return system.finish(status, x, iterations, rho=rho, lower_bound=bound,
                             detail=detail, y=y)

    def cap_bound():
        y = np.asarray(b) - b_prime
        d = op.rmatvec(y)
        d_norm = norm2(np.maximum(d, 0.0)) if cone else norm2(d)
        excess = float(np.dot(y, b)) - eps * norm2(y)
        return excess / d_norm if excess > 0.0 and d_norm > 0.0 else None

    bound = last_pivot = None
    iterations = since_revalidate = 0
    while True:
        gap = b - b_prime
        gap_norm = norm2(gap)
        if not math.isfinite(gap_norm):
            return done("numerical_failure", "non-finite iterate")
        if gap_norm <= eps:
            if since_revalidate:   # carried b': measure it from x, test again
                b_prime, since_revalidate = op.matvec(x), 0
                continue
            return done(solved)
        c = op.rmatvec(gap)
        c_norm = norm2(c)
        if not math.isfinite(c_norm):
            return done("numerical_failure", "non-finite pivot direction")
        if c_norm <= eps_prime:
            if since_revalidate:
                b_prime, since_revalidate = op.matvec(x), 0
                continue
            return done("normal_eq_solution", "pivot direction vanished" if c_norm == 0.0
                        else f"certified ||A^T(b - Ax)|| <= {eps_prime:.3e}")
        d = np.maximum(c, 0.0) if cone else c
        d_norm = norm2(d) if cone else c_norm
        gap_dot_b = float(np.dot(gap, b))
        if iterations >= max_iters:
            if d_norm == 0.0 and gap_dot_b > 0.0:
                return done("witness", "no ascent direction in the nonnegative cone section",
                            gap_dot_b / c_norm if c_norm > 0.0 else math.inf)
            if rho_cap is None and d_norm > 0.0 and not (rho > 0.0
                                                         and rho >= gap_dot_b / norm2(d)):
                return done("witness", "", gap_dot_b / c_norm)
            return done(capped, "iteration budget exhausted", cap_bound())
        stop = None
        if d_norm == 0.0 and gap_dot_b > 0.0:
            event, stop = "witness", "witness"
            detail = "no ascent direction in the nonnegative cone section"
            bound = gap_dot_b / c_norm if c_norm > 0.0 else math.inf
        elif d_norm == 0.0:
            b_prime, x = move(0.0, 0.0)
            event = "pivot"
        elif rho > 0.0 and rho >= gap_dot_b / norm2(d):
            preimage = (rho / norm2(d)) * np.asarray(d, dtype=np.float64)
            v = op.matvec(preimage)
            if last_pivot is None:
                b_prime, x = move(v, preimage)
            else:
                b_prime, x = move_in_triangle(v, preimage, *last_pivot)
            if cone:   # ball runs keep the segment step
                last_pivot = (v, preimage)
            event = "pivot"
        elif rho_cap is None:
            event, stop, detail = "witness", "witness", ""
            bound = gap_dot_b / c_norm
        else:
            if rho == 0.0 and not cone:
                rho = min(first_radius_factor * (gap_dot_b / norm2(d)), rho_cap)
            else:
                rho = max(2.0 * rho, gap_dot_b / norm2(d))
            event = "expand"
            if rho > rho_cap:
                stop, detail = capped, f"radius budget {rho_cap:.3e} exhausted"
        if cone:
            x_min = float(x.min()) if n else 0.0
            if x_min < 0.0:
                return done("numerical_failure", "iterate left the nonnegative cone")
            trace.append(rho, gap_norm, c_norm, event, x_min)
        else:
            trace.append(rho, gap_norm, c_norm, event)
        iterations += 1
        if stop is not None:
            return done(stop, detail, bound if stop == "witness" else cap_bound())
        if event == "pivot":
            since_revalidate += 1
            if since_revalidate >= 512:
                b_prime = op.matvec(x)
                since_revalidate = 0


@pytest.mark.parametrize("solve", [
    lambda a, b: solve_adaptive(a, b, eps=1.0, max_iters=0),
    lambda a, b: solve_in_ball(a, b, rho=1.0, eps=1.0, max_iters=0),
    lambda a, b: nonnegative_feasibility(a, b, eps=1.0, max_iters=0),
], ids=["solve_adaptive", "solve_in_ball", "nonnegative_feasibility"])
def test_budget_is_checked_after_measuring(solve):
    # ||b|| <= eps: the one measurement the budget allows meets the residual
    # clause, so x = 0 is claimed rather than capped
    res = solve(np.eye(2), np.array([0.6, 0.0]))
    assert res.success and res.iterations == 0
    assert np.array_equal(res.x, np.zeros(2))


def _witness_draw(kind):
    """Two draws whose witness falls at a small budget: a consistent
    Gaussian system whose cone search ends in a Farkas witness at its
    seventh measurement, and a 20 x 30 one whose ball, of half the
    minimum-norm solution's radius, rules ``b`` out at its second."""
    if kind == "cone":
        rng = np.random.default_rng(5000)
        m = int(rng.integers(2, 9))
        n = int(rng.integers(m + 1, 3 * m + 4))
        a = rng.standard_normal((m, n))
        b = a @ rng.standard_normal(n)
        return a, b, 6, lambda cap: nonnegative_feasibility(a, b, 1e-6 * norm2(b),
                                                            max_iters=cap)
    rng = np.random.default_rng(1)
    a = rng.standard_normal((20, 30))
    b = a @ rng.standard_normal(30)
    rho = 0.5 * norm2(np.linalg.pinv(a) @ b)
    return a, b, 0, lambda cap: solve_in_ball(a, b, rho, 1e-6, max_iters=cap)


@pytest.mark.parametrize("kind", ["cone", "ball"])
def test_a_witness_at_the_budget_stands(kind):
    # the witness is decided before the budget: at the budget it is claimed
    # as it stands, on the same y and bound, without a row or an iteration
    a, b, budget, solve = _witness_draw(kind)
    free, capped = solve(100_000), solve(budget)
    assert free.status == capped.status == "witness"
    assert free.iterations == budget + 1
    assert capped.iterations == len(capped.trace) == budget
    assert capped.y.tobytes() == free.y.tobytes()
    assert capped.lower_bound == free.lower_bound
    assert capped.detail == free.detail
    if kind == "ball":
        check_witness(a, b, capped)
    else:   # Farkas: A^T y <= 0 < y^T b
        assert matvec_transpose(a, capped.y).max() <= 0.0 < float(capped.y @ b)


def _graded_draw(seed):
    """A graded consistent system, columns scaled by ``exp(-g j / n)`` with
    ``g`` in ``[0, 6)``, dense at even ``seed`` and CSR at odd: ``b = A x``
    for a planted ``x >= 0``, a small cap and a radius above ``||x*||``."""
    rng = np.random.default_rng(12000 + seed)
    m, n = int(rng.integers(2, 25)), int(rng.integers(2, 25))
    a = rng.standard_normal((m, n)) * np.exp(-rng.uniform(0, 6) * np.arange(n) / n)
    x = rng.uniform(0.0, 1.0, n)
    cap, rho_factor = int(rng.integers(1, 200)), rng.uniform(1.0, 3.0)
    return a, a @ x, x, cap, rho_factor


def test_capped_runs_carry_a_certified_bound():
    # each budget exit's bound is recomputed from its y alone; none passes
    # the norm of a solution it bounds: ||pinv(A) b|| for the ball runs, the
    # planted ||x|| for the cone
    carried = {False: 0, True: 0}
    for seed in range(40):
        a, b, x, cap, rho_factor = _graded_draw(seed)
        eps = 1e-6 * norm2(b)
        x_star = norm2(np.linalg.pinv(a) @ b)
        op = sparse.csr_array(a) if seed % 2 else a
        for res, known in ((solve_adaptive(op, b, eps, max_iters=cap), x_star),
                           (solve_in_ball(op, b, rho_factor * x_star, eps, max_iters=cap),
                            x_star),
                           (nonnegative_feasibility(op, b, eps, max_iters=cap), norm2(x))):
            if res.status in ("iteration_cap", "inconclusive"):
                check_cap_bound(a, b, res, eps)
                if res.lower_bound is not None:
                    carried[res.status == "inconclusive"] += 1
                    assert res.lower_bound <= known * (1.0 + 1e-9)
    # 49 of 53 capped ball runs and 25 of 31 cone runs carry one
    assert carried[False] >= 40 and carried[True] >= 20


def _consistent_draw(seed):
    """A wide consistent system of ``tools/radius_sweep.py``'s three
    consistent kinds, by ``seed % 3``: Gaussian, CSR with 5 Gaussian entries
    per row, or Gaussian with column ``j`` scaled by ``exp(-2j/n)``;
    ``20 <= m < 60``, ``n = m U(1.2, 2)``, ``b = A z``."""
    rng = np.random.default_rng(9300 + seed)
    m = int(rng.integers(20, 60))
    n = int(m * rng.uniform(1.2, 2.0))
    if seed % 3 == 1:
        cols = np.concatenate([rng.choice(n, 5, replace=False) for _ in range(m)])
        a = sparse.csr_array((rng.standard_normal(5 * m), (np.repeat(np.arange(m), 5), cols)),
                             shape=(m, n))
    else:
        a = rng.standard_normal((m, n))
        if seed % 3 == 2:
            a *= np.exp(-2.0 * np.arange(n) / n)
    return a, np.asarray(a @ rng.standard_normal(n))


@pytest.mark.parametrize("seed", range(24))
def test_first_radius_saves_pivots(seed):
    # b starts inside E_rho: no more iterations than a first expand to the
    # bound itself, and every status holds of the returned x
    a, b = _consistent_draw(seed)
    eps = 1e-6 * norm2(b)
    res = solve_adaptive(a, b, eps=eps, max_iters=20_000)
    at_bound = _reference_loop(System(a, b, TRIANGLE_TRACE_COLUMNS), None, 0.0, eps, eps,
                               20_000, rho_cap=4.0 * norm2(b) ** 2 / eps,
                               first_radius_factor=1.0)
    assert res.trace.column("rho")[0] == 4.0 * at_bound.trace.column("rho")[0]
    assert status_holds(res, a, b, 1e-6)
    assert res.iterations <= at_bound.iterations


def _system(seed, m, n, cols=None):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    return a, rng.standard_normal(m) if cols is None else a[:, :cols].sum(axis=1)


def _lp(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((3, 4)), rng.standard_normal(3)


_A, _Bc = _system(21, 12, 18, cols=5)
_ILL = np.diag(np.geomspace(1.0, 1e-3, 10)) @ np.random.default_rng(5).standard_normal((10, 14))
# name: (driver call, the statuses its pivot runs must produce)
_LOOP_CASES = {
    "fixed-radius-witness": (lambda: solve_in_ball(_A, _Bc, rho=0.5, eps=1e-9), ["witness"]),
    "adaptive-warm-start": (lambda: solve_adaptive(sparse.csr_array(_A), _Bc, eps=1e-9,
                                                   x0=np.full(18, 0.1)), ["approx_solution"]),
    "adaptive-gram": (lambda: solve_adaptive(GramProduct(_A), _A.T @ _Bc, eps=1e-9),
                      ["approx_solution"]),
    # x_eps = (1, 1, 1, 1, 1, 0, ...) solves the system but is not its
    # minimum-norm solution, so the bisection both shrinks and expands
    "min-norm-bisection": (lambda: min_norm_solve(_A, _Bc, eps=1e-4, x_eps=np.repeat(
        [1.0, 0.0], [5, 13])), None),
    "cone-feasible": (lambda: nonnegative_feasibility(*_system(2, 6, 9, cols=4), eps=1e-4),
                      ["feasible"]),
    "farkas-witness": (lambda: nonnegative_feasibility(*_lp(2), eps=1e-6, max_iters=300),
                       ["witness"]),
    "apex-pivot": (lambda: nonnegative_feasibility(*_lp(3), eps=1e-6, max_iters=300),
                   ["feasible"]),
    "radius-budget": (lambda: nonnegative_feasibility(*_system(2, 6, 9, cols=4), eps=1e-4,
                                                      rho_max=0.5), ["inconclusive"]),
    # a witness in hand at the last measurement the budget allows
    "ball-witness-at-budget": (lambda: _witness_draw("ball")[3](0), ["witness"]),
    "farkas-witness-at-budget": (lambda: _witness_draw("cone")[3](6), ["witness"]),
    "revalidate": (lambda: solve_in_ball(_ILL, _ILL.sum(axis=1), rho=1e3, eps=1e-12,
                                         max_iters=700), ["iteration_cap"]),
    # the normal-equation clause passes on the carried b' but fails on the
    # measured one: the run pivots on and certifies later
    "carried-claim-refused": (lambda: _claim_draw_adaptive(31), ["normal_eq_solution"]),
}

# one solve per driver; the min-norm case both shrinks and expands, so its
# trace interleaves inner pivot rows with bisection rows
_STAMPED = {
    "centering_solve": lambda: centering_solve(_A, _Bc, CenteringOptions(epsilon=1e-9)),
    "solve_in_ball": _LOOP_CASES["revalidate"][0],
    "solve_adaptive": _LOOP_CASES["adaptive-warm-start"][0],
    "min_norm_solve": _LOOP_CASES["min-norm-bisection"][0],
    "nonnegative_feasibility": _LOOP_CASES["cone-feasible"][0],
    "hybrid_solve": lambda: hybrid_solve(_A, _Bc, HybridOptions(eps_cta=1e-8, eps_ta=1e-10,
                                                                want_min_norm=True)),
}


@pytest.mark.parametrize("name", sorted(_STAMPED))
def test_trace_rows_are_numbered_and_timed_in_order(name):
    trace = _STAMPED[name]().trace
    assert len(trace) > 1
    assert trace.column("iter") == list(range(len(trace)))
    wall = trace.column("wall_ns")
    assert all(later >= earlier for earlier, later in zip(wall, wall[1:]))


def _record(loop, runs):
    def recording(*args, **kwargs):
        run = loop(*args, **kwargs)
        runs.append((run.status, run.iterations, run.x.tobytes(),
                     None if run.y is None else run.y.tobytes(), run.rho, run.lower_bound,
                     run.detail, run.residual_norm, run.normal_residual_norm))
        return run
    return recording


def _trace_rows(trace):
    keep = [c for c in trace.columns if c != "wall_ns"]
    return list(zip(*[trace.column(c) for c in keep]))


@pytest.mark.parametrize("name", sorted(_LOOP_CASES))
def test_lean_loop_matches_the_plain_loop(name, monkeypatch):
    solve, statuses = _LOOP_CASES[name]
    # the reference inlines its moves, so only the lean loop's land here:
    # one flag per pivot, True for a move to the cone's apex
    apex = []
    move = triangle.move_to_pivot

    def spying_move(b_prime, x, v, *rest):
        apex.append(isinstance(v, float))
        return move(b_prime, x, v, *rest)

    monkeypatch.setattr(triangle, "move_to_pivot", spying_move)
    outcomes = []
    for loop in (triangle._pivot_loop, _reference_loop):
        runs = []
        recording = _record(loop, runs)
        monkeypatch.setattr(triangle, "_pivot_loop", recording)
        monkeypatch.setattr(feasibility, "_pivot_loop", recording)
        outcomes.append((runs, _trace_rows(solve().trace)))
    assert outcomes[0] == outcomes[1]
    statuses_seen = [run[0] for run in outcomes[0][0]]
    if statuses is None:
        assert len(statuses_seen) > 3
        assert {"approx_solution", "witness"} <= set(statuses_seen)
        # each bisection row reports its run's norms, measured from its x
        bisection = [row for row in outcomes[0][1] if row[4] in ("shrink", "expand")]
        assert {row[4] for row in bisection} == {"shrink", "expand"}
        assert all(row[2] > 0.0 and row[3] > 0.0 for row in bisection)
    else:
        assert statuses_seen == statuses
    assert any(apex) == (name == "apex-pivot")
    if name == "revalidate":
        assert len(apex) > 512
