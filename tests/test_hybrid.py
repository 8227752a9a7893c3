import numpy as np
import pytest

from trisolve.hybrid import HybridOptions, hybrid_solve
from trisolve.linalg import GramProduct, norm2
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
