#!/usr/bin/env python3
"""Testing feasibility of {x : Ax = b, x >= 0} with nonnegative-cone pivots.

The iterates are convex combinations of nonnegative pivot preimages, so they
stay nonnegative to the last bit; a returned point is a feasibility
certificate on its own.  A "witness" is a Farkas certificate of
infeasibility: the gap y = b - Ax has A^T y <= 0 and y^T b > 0.  Runs that
exhaust the radius budget report "inconclusive".
"""

import numpy as np

from trisolve import nonnegative_feasibility

rng = np.random.default_rng(11)

print("=== feasible instances (b constructed from x0 >= 0) ===\n")
for trial in range(5):
    m, n = 5, 20
    a = rng.standard_normal((m, n))
    x0 = rng.uniform(0.2, 1.0, n)
    b = a @ x0
    res = nonnegative_feasibility(a, b, eps=1e-8)
    print(f"trial {trial}: {res.status:10s} iters={res.iterations:<5d} "
          f"||Ax-b||={res.residual_norm:.2e} min(x)={res.x.min():+.2e}")

print("\n=== a sign-obstructed infeasible instance ===\n")
# one all-nonpositive row with a positive target: no nonnegative x can work
a = rng.standard_normal((4, 8))
a[2] = -np.abs(a[2])
b = rng.standard_normal(4)
b[2] = 2.0
res = nonnegative_feasibility(a, b, eps=1e-8, max_iters=20_000)
print(f"outcome: {res.status} ({res.detail})")
print(f"closest gap reached: {res.residual_norm:.3e} at radius {res.rho:.3e}")

print("\n=== the normal-equation variant ===\n")
# the same machinery runs on the implicit pair (A^T A, A^T b); a converged
# nonnegative solution of the pair also solves the original system
from trisolve import GramProduct

a = rng.standard_normal((3, 12))
x0 = rng.uniform(0.3, 1.0, 12)
b = a @ x0
g = a.T @ b
res = nonnegative_feasibility(GramProduct(a), g, eps=1e-9 * np.linalg.norm(g))
print(f"pair outcome: {res.status}; original ||Ax-b|| = "
      f"{np.linalg.norm(a @ res.x - b):.2e}, min(x) = {res.x.min():+.2e}")
