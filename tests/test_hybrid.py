import numpy as np

from trisolve.hybrid import HybridOptions, hybrid_solve
from trisolve.linalg import norm2


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
