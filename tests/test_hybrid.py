import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse

from trisolve import gallery
from trisolve.hybrid import HybridOptions, hybrid_solve
from trisolve.linalg import GramProduct, norm2, prepare
from trisolve.triangle import solve_adaptive


class TestHybrid:
    def test_underdetermined_min_norm(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 5))
        b = a @ rng.standard_normal(5)
        opts = HybridOptions(eps_cta=1e-8, eps_ta=1e-8, want_min_norm=True)
        res = hybrid_solve(a, b, opts)
        stage1 = res.stage_results[0]
        assert stage1.status == "approx_solution"
        assert stage1.residual_norm <= 1e-8 * norm2(b)
        assert res.status == "min_norm_solution"
        x_star = np.linalg.pinv(a) @ b
        eps2 = max(1e-8 * norm2(b), 1.01 * stage1.residual_norm)
        assert abs(norm2(res.x) - norm2(x_star)) <= eps2 * (1 + 1e-6)

    def test_overdetermined_inconsistent(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 2))
        b = rng.standard_normal(5)  # generically inconsistent
        res = hybrid_solve(a, b, HybridOptions(eps_cta=1e-8, eps_ta=1e-9))
        assert res.status == "normal_eq_solution"
        scale = norm2(a.T @ b)
        assert res.normal_residual_norm <= 1e-9 * scale * (1 + 1e-9)
        x_star = np.linalg.lstsq(a, b, rcond=None)[0]
        assert norm2(res.x - x_star) <= 1e-6 * (1 + norm2(x_star))

    def test_zero_rhs(self):
        res = hybrid_solve(np.eye(3), np.zeros(3))
        assert res.status == "approx_solution"
        assert res.iterations == 0
        assert np.array_equal(res.x, np.zeros(3))

    def test_consistent_refinement_without_min_norm(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 6))
        b = a @ rng.standard_normal(6)
        res = hybrid_solve(a, b, HybridOptions(eps_cta=1e-6, eps_ta=1e-12))
        assert res.status == "approx_solution"
        assert res.residual_norm <= 1e-12 * norm2(b) * (1 + 1e-9)

    def test_warm_start_never_regresses(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 8))
        b = a @ rng.standard_normal(8)
        res = hybrid_solve(a, b, HybridOptions(eps_cta=1e-6, eps_ta=1e-10))
        stage1, stage2 = res.stage_results
        gaps = stage2.trace.column("residual_norm")
        if gaps:
            assert gaps[0] <= stage1.residual_norm * (1 + 1e-9)

    def test_quality_at_least_best_stage(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal(6)
        res = hybrid_solve(a, b, HybridOptions(eps_cta=1e-7, eps_ta=1e-9))
        stage1, stage2 = res.stage_results
        best = min(stage1.normal_residual_norm, stage2.normal_residual_norm)
        assert res.normal_residual_norm <= best * (1 + 1e-9)

    def test_normal_equation_branch_keeps_the_better_iterate(self):
        # stage two solves (A^T A) x = A^T b: its residual_norm, not its
        # normal_residual_norm, measures what stage one's ||A^T r|| does
        rng = np.random.default_rng(0)
        a = rng.standard_normal((60, 40))
        b = rng.standard_normal(60)
        res = hybrid_solve(a, b, HybridOptions(eps_cta=1e-8, eps_ta=1e-10))
        stage1, stage2 = res.stage_results
        assert res.status == "normal_eq_solution"
        assert stage2.residual_norm < stage1.normal_residual_norm
        assert res.x.tobytes() == stage2.x.tobytes()
        assert res.normal_residual_norm <= 1e-10 * norm2(a.T @ b)

    def test_underflowing_normal_rhs_returns_stage_one(self):
        # ||b|| is fine, but ||A^T b|| = 1.7e-170 underflows in norm2: stage
        # two could not measure its tolerance, and its entry would raise
        a = 1e-170 * np.eye(3)
        res = hybrid_solve(a, np.ones(3))
        stage1 = res.stage_results[0]
        assert len(res.stage_results) == 1
        assert res.status == stage1.status == "normal_eq_solution"
        assert res.iterations == stage1.iterations
        assert np.array_equal(res.x, stage1.x)
        assert "||A^T b|| underflows" in res.detail
        assert set(res.trace.column("stage")) <= {"stage1"}

    def test_stage_two_normal_equation_of_the_pair_is_not_claimed(self):
        # stage two's normal-equation clause on (A^T A, A^T b) bounds
        # ||A^T A A^T(b - Ax)||: here it certifies after 103 pivots while
        # ||A^T(b - Ax)|| stays 424 times above eps_ta ||A^T b||
        rng = np.random.default_rng(11004)
        m, n = int(rng.integers(2, 30)), int(rng.integers(2, 30))
        a = rng.standard_normal((m, n)) * np.exp(-rng.uniform(0, 8) * np.arange(n) / n)
        b = rng.standard_normal(m)
        a = a * 2.0 ** int(rng.integers(-40, 40))
        eps_cta, eps_ta = 10.0 ** -rng.uniform(4, 10), 10.0 ** -rng.uniform(3, 12)
        res = hybrid_solve(a, b, HybridOptions(eps_cta=eps_cta, eps_ta=eps_ta,
                                               max_iters_stage1=3000, max_iters_stage2=3000))
        stage1, stage2 = res.stage_results
        assert (stage1.status, stage2.status) == ("iteration_cap", "normal_eq_solution")
        assert res.normal_residual_norm > eps_ta * norm2(a.T @ b)
        assert res.status == "iteration_cap"
        assert "stage two stalled" in res.detail

    def test_min_norm_runs_on_a_measured_residual_under_eps_ta(self):
        # on the ill-conditioned Lotkin matrix stage one stops on its
        # normal-equation clause, with ||b - A x|| = 8.6e-8 under
        # eps_ta ||b||: stage two brackets the minimum norm on (A, b), whose
        # exact solution is x = ones, of norm sqrt(8)
        a = gallery.make("lotkin", 8)
        b = gallery.row_sum_rhs(a)
        res = hybrid_solve(a, b, HybridOptions(eps_cta=1e-8, eps_ta=1e-4, want_min_norm=True))
        stage1 = res.stage_results[0]
        assert stage1.status == "normal_eq_solution"
        assert stage1.residual_norm <= 1e-4 * norm2(b)
        assert res.status == "min_norm_solution" and res.detail == ""
        low, high = res.rho_interval
        # rho_hi is the norm of an approximate solution, so it may lie below
        # ||x*||, here by 3.9e-10: within the bracket's own width of 3.0e-8
        assert low <= math.sqrt(8) <= high + (high - low)
        assert res.residual_norm <= 1e-4 * norm2(b)

    def test_min_norm_not_run_is_named_with_both_numbers(self):
        # inconsistent: stage one's residual stays far above eps_ta ||b||, so
        # stage two runs on the pair and the result says why it is not min-norm
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 2))
        b = rng.standard_normal(5)
        res = hybrid_solve(a, b, HybridOptions(eps_cta=1e-8, want_min_norm=True,
                                               max_iters_stage2=50))
        stage1 = res.stage_results[0]
        assert res.status == "normal_eq_solution"
        assert res.detail == (f"min-norm not run: stage one's ||b - A x|| = "
                              f"{stage1.residual_norm:.3e} > eps_ta ||b|| = "
                              f"{1e-15 * norm2(b):.3e}")

    def test_least_squares_second_stage_is_unchanged(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((9, 4))
        b = rng.standard_normal(9)
        opts = HybridOptions(eps_cta=1e-8, eps_ta=1e-10)
        res = hybrid_solve(a, b, opts)
        stage1, stage2 = res.stage_results
        assert stage1.status != "approx_solution"
        g = a.T @ b
        direct = solve_adaptive(GramProduct(a), g, eps=opts.eps_ta * norm2(g),
                                max_iters=opts.max_iters_stage2, x0=stage1.x)
        assert stage2.status == direct.status and stage2.iterations == direct.iterations
        assert stage2.x.tobytes() == direct.x.tobytes()
        assert res.status == "normal_eq_solution"

    def test_merged_trace_carries_stage_markers(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal(6)  # inconsistent
        # starve stage 1 so the second stage has real work to record
        res = hybrid_solve(a, b, HybridOptions(eps_cta=1e-12, eps_ta=1e-8,
                                               max_iters_stage1=2))
        stage1, stage2 = res.stage_results
        assert stage1.status == "iteration_cap"
        assert stage2.iterations > 0
        stages = set(res.trace.column("stage"))
        assert "stage1" in stages and "stage2" in stages
        assert res.status == "normal_eq_solution"


@pytest.mark.parametrize("shape, want_min_norm, branch", [
    ((40, 60), True, "min_norm_solution"),
    ((40, 60), False, "approx_solution"),
    ((60, 40), False, "normal_eq_solution"),
], ids=["min-norm", "adaptive", "normal-equation"])
def test_merged_wall_clock_never_goes_back(shape, want_min_norm, branch):
    # each stage times its rows from its own start; the merged trace puts
    # stage two's after stage one's on one clock
    rng = np.random.default_rng(0)
    a = rng.standard_normal(shape)
    b = rng.standard_normal(shape[0])
    res = hybrid_solve(a, b, HybridOptions(eps_cta=1e-8, eps_ta=1e-10,
                                           want_min_norm=want_min_norm))
    assert res.status == branch
    assert set(res.trace.column("stage")) == {"stage1", "stage2"}
    wall = res.trace.column("wall_ns")
    assert all(later >= earlier for earlier, later in zip(wall, wall[1:]))


@pytest.mark.parametrize("want_min_norm", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("shape", [(6, 6), (4, 7), (7, 4)])
def test_non_finite_matrix_stops_after_stage_one(shape, bad, want_min_norm, capfd):
    rng = np.random.default_rng(8)
    a = rng.standard_normal(shape)
    a[1, 2] = bad
    res = hybrid_solve(a, rng.standard_normal(shape[0]),
                       HybridOptions(want_min_norm=want_min_norm))
    assert res.status == "numerical_failure"
    assert [s.status for s in res.stage_results] == ["numerical_failure"]
    assert capfd.readouterr().err == ""


def _bench_min_norm(seed):
    """The benchmark's ``hybrid-min-norm/dense-200x300`` problem at ``seed``,
    solved by the benchmark's own call: ``(A, b, result)``."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    problem, = [p for p in sys.modules[name].workload("triangle-rect", lambda: "")
                if p.label == "hybrid-min-norm/dense-200x300"]
    inst = problem.build(seed)
    return inst.a, inst.b, problem.solve(inst)


def _wide_draw(kind, seed):
    """A consistent wide dense system: 30 x 50 with singular values
    ``geomspace(1, 0.3)``, or 40 x 60 Gaussian."""
    rng = np.random.default_rng(seed)
    if kind == "graded":
        u, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        v, _ = np.linalg.qr(rng.standard_normal((50, 30)))
        a = (u * np.geomspace(1.0, 0.3, 30)) @ v.T
    else:
        a = rng.standard_normal((40, 60))
    return a, a @ rng.standard_normal(a.shape[1])


def _dual_lower_end(a, b, x_eps, y):
    """``rho_interval``'s lower end as ``min_norm_solve`` starts it from
    ``y``, computed again from ``(A, b, x_eps, y)`` alone."""
    op = prepare(a)
    delta = norm2(b - op.matvec(x_eps))
    bound = (float(y.dot(b)) - delta * norm2(y)) / norm2(op.rmatvec(y))
    return min(max(0.0, bound), norm2(x_eps))


@pytest.mark.parametrize("case", [
    ("bench", 7, None), ("bench", 31, None),
    ("graded", 1, 1e-6), ("graded", 1, 1e-8), ("gaussian", 1, 1e-10),
], ids=["bench-seed-7", "bench-seed-31", "graded-1e-6", "graded-1e-8", "gaussian-1e-10"])
def test_min_norm_bracket_starts_from_stage_one_y(case):
    # stage one ends on y with x = A^T y; stage two's lower end is the dual
    # bound of that y, which already meets the target: no bisection step
    kind, seed, eps_ta = case
    if kind == "bench":
        a, b, res = _bench_min_norm(seed)
    else:
        a, b = _wide_draw(kind, seed)
        res = hybrid_solve(a, b, HybridOptions(eps_cta=1e-8, eps_ta=eps_ta, want_min_norm=True))
    stage1, stage2 = res.stage_results
    assert np.array_equal(stage1.x, prepare(a).rmatvec(stage1.y))
    assert res.status == stage2.status == "min_norm_solution"
    assert stage2.iterations == 0 and res.iterations == stage1.iterations
    lo, hi = res.rho_interval
    assert lo == _dual_lower_end(a, b, stage1.x, stage1.y)
    assert lo <= norm2(np.linalg.pinv(a) @ b) * (1.0 + 1e-9)
    assert hi == norm2(stage1.x) and np.array_equal(res.x, stage1.x)
    assert res.y is stage2.y is not None and np.array_equal(stage2.y, stage1.y)
    assert stage2.trace.column("event") == ["expand"]


def test_dual_bracket_keeps_its_bits_under_power_of_two_scaling():
    # A and b scaled by 2^40: y scales by 2^-40, and L keeps its bits
    a, b = _wide_draw("gaussian", 1)
    opts = HybridOptions(eps_cta=1e-8, eps_ta=1e-10, want_min_norm=True)
    plain, scaled = hybrid_solve(a, b, opts), hybrid_solve(2.0 ** 40 * a, 2.0 ** 40 * b, opts)
    assert scaled.status == plain.status == "min_norm_solution"
    assert scaled.rho_interval == plain.rho_interval
    assert scaled.x.tobytes() == plain.x.tobytes()
    assert scaled.stage_results[1].iterations == 0


def test_min_norm_without_y_bisects_from_zero():
    # sparse input carries no y: stage two bisects from the bracket (0, ||x||)
    a, b = _wide_draw("gaussian", 1)
    res = hybrid_solve(sparse.csr_array(a), b, HybridOptions(
        eps_cta=1e-8, eps_ta=1e-6, want_min_norm=True))
    stage1, stage2 = res.stage_results
    assert stage1.y is None and stage2.y is None and res.y is None
    assert res.status == "min_norm_solution" and stage2.iterations > 0
