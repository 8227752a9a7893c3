#!/usr/bin/env python3
"""Minimum-norm solutions of underdetermined systems with certificates.

The bisection returns a bracket [rho_lo, rho_hi] of two quantities: rho_lo
comes from witnesses and is certified (no exact solution lives strictly
inside that radius), rho_hi is the norm of the returned approximate solution
from a successful membership test, and may lie slightly below the
minimum norm.  The pseudo-inverse provides the reference value.

In the two-stage pipeline the centering stage ends on a dual vector y with
x = A^T y, and rho_lo starts at that y's bound (y^T b - delta ||y||) / ||A^T y||,
delta = ||b - A x|| the stage-one residual: the bracket is then often met
before any bisection step.
"""

import numpy as np

import trisolve.linalg
from trisolve import HybridOptions, hybrid_solve, min_norm_solve

rng = np.random.default_rng(7)

print("=== min_norm_solve on random underdetermined systems ===\n")
for trial in range(5):
    m, n = 4, 12
    a = rng.standard_normal((m, n))
    x_start = rng.standard_normal(n)       # any particular solution works
    b = a @ x_start
    res = min_norm_solve(a, b, eps=1e-8, x_eps=x_start)
    x_pinv = np.linalg.pinv(a) @ b
    lo, hi = res.rho_interval
    print(f"trial {trial}: ||x||={np.linalg.norm(res.x):.10f} "
          f"pinv={np.linalg.norm(x_pinv):.10f} bracket=[{lo:.10f}, {hi:.10f}] "
          f"iters={res.iterations}")

print("\n=== the two-stage pipeline on a rectangular system ===\n")
# Stage 1 drives the residual down cheaply; stage 2 certifies the bracket.
a = rng.standard_normal((3, 40))
b = a @ rng.standard_normal(40)
res = hybrid_solve(a, b, HybridOptions(eps_cta=1e-8, eps_ta=1e-8,
                                       want_min_norm=True))
stage1, stage2 = res.stage_results
print(f"stage 1: {stage1.status}, {stage1.iterations} iterations, "
      f"residual {stage1.residual_norm:.2e}")
lo, hi = stage2.rho_interval
print(f"stage 2: {stage2.status}, {stage2.iterations} pivots, "
      f"bracket width {hi - lo:.2e}")
op = trisolve.linalg.prepare(a)
delta = np.linalg.norm(b - op.matvec(stage1.x))
dual = (stage1.y @ b - delta * np.linalg.norm(stage1.y)) / np.linalg.norm(op.rmatvec(stage1.y))
print(f"lower end {lo:.10f} from stage one's y: recomputed {dual:.10f}, "
      f"x == A^T y: {np.array_equal(stage1.x, op.rmatvec(stage1.y))}")
print(f"returned ||x|| = {np.linalg.norm(res.x):.8f}  "
      f"(pinv reference {np.linalg.norm(np.linalg.pinv(a) @ b):.8f})")

print("\n=== inconsistent data falls back to the normal equation ===\n")
a = rng.standard_normal((8, 3))
b = rng.standard_normal(8)
res = hybrid_solve(a, b, HybridOptions(eps_cta=1e-8, eps_ta=1e-10))
x_lsq = np.linalg.lstsq(a, b, rcond=None)[0]
print(f"outcome: {res.status}; ||A^T(b - Ax)|| = {res.normal_residual_norm:.2e}")
print(f"distance to the least-squares oracle: {np.linalg.norm(res.x - x_lsq):.2e}")
