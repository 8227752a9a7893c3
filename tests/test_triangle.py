import numpy as np
import pytest

from conftest import check_witness
from trisolve.feasibility import nonnegative_feasibility
from trisolve.linalg import GramProduct, norm2
from trisolve.triangle import (
    min_norm_solve,
    move_to_pivot,
    pivot_point,
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


class TestPivotPoint:
    def test_normalization(self):
        v, pre = pivot_point(np.eye(2), np.array([3.0, 4.0]), 1.0)
        assert np.allclose(v, [0.6, 0.8])
        assert np.allclose(pre, [0.6, 0.8])

    def test_diagonal_scaling(self):
        v, pre = pivot_point(np.diag([2.0, 1.0]), np.array([1.0, 0.0]), 2.0)
        assert np.allclose(v, [4.0, 0.0])
        assert np.allclose(pre, [2.0, 0.0])

    def test_attains_the_linear_maximum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal((4, 6))
            c = rng.standard_normal(6)
            rho = float(rng.uniform(0.1, 5.0))
            _, pre = pivot_point(a, c, rho)
            assert np.isclose(float(np.dot(c, pre)), rho * norm2(c), rtol=1e-12)
            assert norm2(pre) <= rho * (1 + 1e-12)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            pivot_point(np.eye(2), np.zeros(2), 1.0)


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
        b2, x2, alpha = move_to_pivot(b_prime, np.zeros(2), v, v.copy(), b)
        assert np.allclose(b2, b) and alpha == 0.5

    def test_pivot_equals_target(self):
        b = np.array([1.0, 1.0])
        b2, _, alpha = move_to_pivot(np.zeros(2), np.zeros(2), b.copy(), b.copy(), b)
        assert alpha == 1.0 and np.array_equal(b2, b)

    def test_identity_one_step(self):
        b = np.array([1.0, 0.0])
        v, pre = pivot_point(np.eye(2), b.copy(), 1.0)
        b2, x2, alpha = move_to_pivot(np.zeros(2), np.zeros(2), v, pre, b)
        assert alpha == 1.0
        assert np.allclose(x2, [1.0, 0.0])

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
            v, pre = pivot_point(a, c, rho)
            b2, _, _ = move_to_pivot(b_prime, x_prime, v, pre, b)
            assert norm2(b - b2) <= norm2(b - b_prime) + 1e-12

    def test_degenerate_pivot_rejected(self):
        with pytest.raises(ValueError):
            move_to_pivot(np.ones(2), np.ones(2), np.ones(2), np.ones(2), np.zeros(2))


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


class TestSolveAdaptive:
    def test_first_pass_radius_jump(self):
        a = np.diag([1.0, 2.0])
        b = np.array([1.0, 2.0])
        res = solve_adaptive(a, b, eps=1e-10)
        first = res.trace.rows[0]
        assert first[4] == "expand"
        expected = float(np.dot(b, b)) / norm2(a.T @ b)
        assert np.isclose(first[1], expected, rtol=1e-12)

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


class TestAdaptiveRestarts:
    def test_halved_tolerance_restarts_continue_progress(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 9))
        b = a @ rng.standard_normal(9)
        # a loose eps_prime makes the normal-equation clause fire early on a
        # consistent system; restarts tighten it until the residual target wins
        loose = solve_adaptive(a, b, eps=1e-10, eps_prime=1e-2)
        assert loose.status == "normal_eq_solution"
        restarted = solve_adaptive(a, b, eps=1e-10, eps_prime=1e-2,
                                   restart_halvings=60)
        assert restarted.status == "approx_solution"
        assert restarted.residual_norm <= 1e-10


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


@pytest.mark.parametrize("solve, name", [
    (lambda: solve_adaptive(np.eye(2), np.array([1.0, 2.0]), eps=0.0), "eps"),
    (lambda: solve_adaptive(np.eye(2), np.array([1.0, 2.0]), eps=-1.0), "eps"),
    (lambda: solve_adaptive(np.eye(2), np.array([1.0, 2.0]), eps=1e-8,
                            eps_prime=np.nan), "eps_prime"),
    (lambda: solve_in_ball(np.eye(2), np.array([1.0, 0.0]), rho=1.0, eps=-1.0), "eps"),
    (lambda: min_norm_solve(np.eye(2), np.array([1.0, 0.0]), eps=np.inf,
                            x_eps=np.array([1.0, 0.0])), "eps"),
    (lambda: nonnegative_feasibility(np.eye(2), np.array([1.0, 2.0]), eps=np.nan), "eps"),
], ids=["adaptive-zero", "adaptive-negative", "adaptive-eps-prime-nan", "ball-negative",
        "min-norm-inf", "feasibility-nan"])
def test_bad_tolerance_names_the_argument(solve, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
        solve()
