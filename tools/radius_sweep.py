#!/usr/bin/env python3
"""Sweep ``solve_adaptive`` over 200 seeded draws: pivots, statuses and
false claims per kind.

    python3 tools/radius_sweep.py

Draw ``s`` (0 to 199) uses ``numpy.random.default_rng(9100 + s)`` and kind
``s // 50``.  Each draw takes ``m`` from 50 to 399 and ``n = m U(1.2, 2)``:

- ``dense``: a wide Gaussian ``m x n`` matrix, ``b = A z``;
- ``sparse``: a wide CSR ``m x n`` matrix with 10 Gaussian entries per row,
  ``b = A z``;
- ``graded``: the dense draw with column ``j`` scaled by ``exp(-2j/n)``,
  ``b = A z``;
- ``tall``: a Gaussian ``n x m`` matrix and a Gaussian ``b``, which it
  cannot reach.

Every solve runs from the origin at ``eps = eps_prime = 1e-6 ||b||`` with a
cap of 20000 iterations.  A status is checked on the returned ``x`` with the
package's own kernels: ``||b - Ax|| <= eps`` for an approximate solution,
``||A^T (b - Ax)|| <= eps`` for a normal-equation one; a claim that fails
this is false.  The table reads one line per kind: the draws, their total
iterations, the count of each status and of false claims.

Run from anywhere; the package is imported from this checkout.  BLAS is
pinned to one thread, as in the benchmark.  Not part of tier-1; it exits
with status 1 when a claim is false.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import collections
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy.sparse as sparse  # noqa: E402

from trisolve import solve_adaptive  # noqa: E402
from trisolve.linalg import matvec, matvec_transpose, norm2  # noqa: E402

KINDS = ("dense", "sparse", "graded", "tall")
DRAWS_PER_KIND = 50
CAP = 20_000


def draw(s: int):
    """Draw ``s``: ``(kind, A, b, eps)``."""
    kind = KINDS[s // DRAWS_PER_KIND]
    rng = np.random.default_rng(9100 + s)
    m = int(rng.integers(50, 400))
    n = int(m * rng.uniform(1.2, 2.0))
    if kind == "tall":
        a = rng.standard_normal((n, m))
        b = rng.standard_normal(n)
    else:
        if kind == "sparse":
            cols = np.concatenate([rng.choice(n, 10, replace=False) for _ in range(m)])
            rows = np.repeat(np.arange(m), 10)
            a = sparse.csr_array((rng.standard_normal(10 * m), (rows, cols)), shape=(m, n))
        else:
            a = rng.standard_normal((m, n))
            if kind == "graded":
                a *= np.exp(-2.0 * np.arange(n) / n)
        b = np.asarray(a @ rng.standard_normal(n))
    return kind, a, b, 1e-6 * norm2(b)


def false_claim(res, a, b, eps) -> bool:
    r = b - matvec(a, res.x)
    if res.status == "approx_solution":
        return not norm2(r) <= eps
    if res.status == "normal_eq_solution":
        return not norm2(matvec_transpose(a, r)) <= eps
    return False


def main() -> int:
    rows = {kind: {"draws": 0, "iterations": 0, "false": 0,
                   "statuses": collections.Counter()} for kind in KINDS}
    for s in range(len(KINDS) * DRAWS_PER_KIND):
        kind, a, b, eps = draw(s)
        res = solve_adaptive(a, b, eps=eps, max_iters=CAP)
        row = rows[kind]
        row["draws"] += 1
        row["iterations"] += res.iterations
        row["statuses"][res.status] += 1
        row["false"] += false_claim(res, a, b, eps)
    print(f"{'kind':8s} {'draws':>5s} {'iterations':>10s} {'false':>5s}  statuses")
    for kind, row in rows.items():
        statuses = ", ".join(f"{k} {v}" for k, v in sorted(row["statuses"].items()))
        print(f"{kind:8s} {row['draws']:5d} {row['iterations']:10d} {row['false']:5d}  {statuses}")
    return 1 if any(row["false"] for row in rows.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
