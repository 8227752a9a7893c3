import numpy as np
from scipy.optimize import linprog

from trisolve.feasibility import default_rho_max, nonnegative_feasibility
from trisolve.linalg import GramProduct, norm2
from trisolve.triangle import solve_adaptive


def lp_oracle_feasible(a, b):
    """Exact phase-one feasibility via the HiGHS LP solver."""
    res = linprog(np.zeros(a.shape[1]), A_eq=a, b_eq=b, bounds=(0, None),
                  method="highs")
    return res.status == 0


class TestNonnegativePart:
    """The cone direction ``c+ = max(c, 0)``, seen through the search on the
    identity, where ``c = b - b'``."""

    def test_mixed(self):
        # c = (1, -2, 0): one pivot along c+ = (1, 0, 0), then c+ = 0 with
        # (b - b')^T b = 4 > 0 certifies infeasibility
        res = nonnegative_feasibility(np.eye(3), np.array([1.0, -2.0, 0.0]), eps=1e-8)
        assert res.status == "witness"
        assert np.array_equal(res.x, [1.0, 0.0, 0.0])

    def test_all_negative(self):
        res = nonnegative_feasibility(np.eye(2), np.array([-1.0, -2.0]), eps=1e-8)
        assert res.status == "witness" and res.iterations == 1
        assert np.array_equal(res.x, np.zeros(2))

    def test_all_nonnegative_unchanged(self):
        # c >= 0 all along: the cone search repeats the unconstrained one
        a, b = np.eye(3), np.array([0.5, 0.0, 3.0])
        cone = nonnegative_feasibility(a, b, eps=1e-8)
        free = solve_adaptive(a, b, eps=1e-8)
        assert cone.status == "feasible"
        assert np.array_equal(cone.x, free.x)
        cols = ("rho", "residual_norm", "normal_residual_norm", "event")
        assert [cone.trace.column(k) for k in cols] == [free.trace.column(k) for k in cols]


class TestFeasibilitySolver:
    def test_zero_rhs_is_feasible_at_origin(self):
        res = nonnegative_feasibility(np.eye(3), np.zeros(3), eps=1e-10)
        assert res.status == "feasible" and res.iterations == 0
        assert np.array_equal(res.x, np.zeros(3))

    def test_identity_positive_target(self):
        res = nonnegative_feasibility(np.eye(2), np.array([1.0, 1.0]), eps=1e-8)
        assert res.status == "feasible"
        assert np.abs(res.x - 1.0).max() <= 1e-7
        assert res.x.min() >= -1e-12

    def test_sign_obstructed_never_feasible(self):
        # x >= 0 forces Ax >= 0, but b < 0
        a = np.array([[1.0, 1.0]])
        b = np.array([-1.0])
        res = nonnegative_feasibility(a, b, eps=1e-8, max_iters=10_000)
        assert res.status in ("witness", "inconclusive")
        assert res.status != "feasible"

    def test_positive_matrix_planted_lp_is_feasible(self):
        # with A > 0, c+ = 0 can occur while (b - b')^T b < 0: no certificate,
        # and the pivot toward the apex x = 0 carries the search on
        rng = np.random.default_rng(0)
        a = rng.random((30, 60))
        b = a @ rng.random(60)
        res = nonnegative_feasibility(a, b, eps=1e-6 * norm2(b), max_iters=20_000)
        assert res.status == "feasible"
        assert res.x.min() >= 0.0
        assert norm2(a @ res.x - b) <= 1e-6 * norm2(b)

    def test_random_feasible_vs_lp_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(m + 3, 31))
            a = rng.standard_normal((m, n))
            x0 = rng.uniform(0.2, 1.0, n)
            b = a @ x0
            res = nonnegative_feasibility(a, b, eps=1e-8, max_iters=400_000)
            assert res.status == "feasible"
            assert lp_oracle_feasible(a, b)
            assert res.x.min() >= -1e-12
            assert norm2(a @ res.x - b) <= 1e-8

    def test_oracle_infeasible_instances_never_feasible(self):
        rng = np.random.default_rng(2)
        count = 0
        for _ in range(25):
            m = int(rng.integers(2, 10))
            n = int(rng.integers(2, 10))
            a = rng.standard_normal((m, n))
            row = int(rng.integers(m))
            a[row] = -np.abs(a[row])  # sign obstruction in one equation
            b = rng.standard_normal(m)
            b[row] = abs(b[row]) + 0.5
            if lp_oracle_feasible(a, b):
                continue
            count += 1
            res = nonnegative_feasibility(a, b, eps=1e-8, max_iters=20_000)
            assert res.status != "feasible"
        assert count >= 20

    def test_iterates_stay_nonnegative(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 12))
        b = a @ rng.uniform(0.2, 1.0, 12)
        res = nonnegative_feasibility(a, b, eps=1e-8, max_iters=100_000)
        assert res.status == "feasible"
        min_entries = res.trace.column("min_x_entry")
        assert all(v >= -1e-12 for v in min_entries)
        assert res.min_x_entry >= -1e-12

    def test_normal_equation_variant(self):
        # a feasible system solved through the implicit (A^T A, A^T b) pair:
        # a converged nonnegative solution of the pair also solves Ax = b
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 10))
        x0 = rng.uniform(0.3, 1.0, 10)
        b = a @ x0
        g = a.T @ b
        res = nonnegative_feasibility(GramProduct(a), g, eps=1e-9 * norm2(g),
                                      max_iters=400_000)
        if res.status == "feasible":
            sigma_min = np.linalg.svd(a, compute_uv=False).min()
            assert norm2(a @ res.x - b) <= 1e-9 * norm2(g) / sigma_min * 10
            assert res.x.min() >= -1e-12

    def test_rho_cap_reports_inconclusive(self):
        a = np.array([[1.0, 1.0]])
        res = nonnegative_feasibility(a, np.array([5.0]), eps=1e-12, rho_max=1e-6,
                                      max_iters=1000)
        assert res.status == "inconclusive"
        assert "radius" in res.detail

    def test_default_rho_max_positive(self):
        assert default_rho_max(np.eye(3), np.ones(3)) > 0

    def test_zero_columns_certify_infeasibility(self):
        # no column: Ax = 0 for every x, so b = 1 is out of reach, and
        # y = b has A^T y = 0 <= 0 < y^T b, a Farkas certificate
        b = np.ones(3)
        assert default_rho_max(np.zeros((3, 0)), b) > 0
        res = nonnegative_feasibility(np.zeros((3, 0)), b, 1e-6)
        assert res.status == "witness"
        assert res.lower_bound == np.inf
        assert res.x.shape == (0,) and res.residual_norm == norm2(b)

    def test_farkas_witness_is_checked_from_the_result_alone(self):
        # y = b - b' must satisfy A^T y <= 0 < y^T b, with the reported
        # bound y^T b / ||A^T y||
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        res = nonnegative_feasibility(a, b, eps=1e-6, max_iters=300)
        assert res.status == "witness"
        y = b - res.b_prime
        assert (a.T @ y).max() <= 0.0
        assert y @ b > 0.0
        assert np.isclose(res.lower_bound, (y @ b) / norm2(a.T @ y), rtol=1e-9)
