"""Acceptance suite: one test per primary criterion, each printing a
PASS/FAIL verdict line.  Tolerances are pinned here, not configurable.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import csv
import json
import time

import numpy as np
from scipy.optimize import linprog

from conftest import check_witness, spd_with_spectrum
from trisolve import gallery, mmio
from trisolve.centering import (
    CenteringOptions,
    NormalEquationReached,
    centering_solve,
    min_norm_coefficients,
    moments,
    _step_arrays,
)
from trisolve.cli import main as cli_main
from trisolve.dynamics import accelerate, critical_pair, eigenbasis_equivalence, first_order_image, first_order_orbit
from trisolve.feasibility import nonnegative_feasibility
from trisolve.linalg import HOperator, norm2
from trisolve.triangle import min_norm_solve, solve_in_ball


def verdict(name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {name}: {status}")
    assert not failures, f"{name}: {failures[:5]}"


def test_residual_monotonicity():
    """Every centering step is monotone; strict when H r is not negligible."""
    rng = np.random.default_rng(101)
    failures = []
    t0 = time.perf_counter()
    for k in range(500):
        mode = "aat" if k % 2 == 0 else "a"
        if mode == "a":
            m = int(rng.integers(2, 41))
            a, _, _ = spd_with_spectrum(rng, m, 0.5, 10.0)
        else:
            m = int(rng.integers(2, 41))
            n = int(rng.integers(2, 41))
            a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        t = int(rng.integers(1, min(5, m) + 1))
        h = HOperator(a, mode)
        try:
            _, r1, _, _ = _step_arrays(np.zeros(a.shape[1]), b, t, h)
        except NormalEquationReached:
            continue
        r0_norm, r1_norm = norm2(b), norm2(r1)
        if r1_norm > r0_norm + 1e-12 * r0_norm:
            failures.append((k, r0_norm, r1_norm))
        if norm2(h.apply(b)) > 1e-10 and not r1_norm < r0_norm:
            failures.append((k, "no strict decrease"))
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(("runtime", elapsed))
    verdict("residual-monotonicity", failures)


def test_closed_form_agreement():
    """Moment-system solutions match the order-1 and order-2 closed forms."""
    rng = np.random.default_rng(102)
    failures = []
    for k in range(200):
        m = int(rng.integers(3, 12))
        h_mat, _, _ = spd_with_spectrum(rng, m, 1.0, 6.0)
        h = HOperator(h_mat, "a")
        r = rng.standard_normal(m)
        mom = moments(h, r, 2)
        p1, p2, p3, p4 = mom.phi
        a1 = min_norm_coefficients(mom, 1)
        if abs(a1[0] - p1 / p2) > 1e-12 * abs(p1 / p2):
            failures.append((k, "order 1"))
        det = p2 * p4 - p3 * p3
        expected = np.array([(p1 * p4 - p2 * p3) / det, (p2 * p2 - p1 * p3) / det])
        a2 = min_norm_coefficients(mom, 2)
        if np.abs(a2 - expected).max() > 1e-12 * np.abs(expected).max():
            failures.append((k, "order 2"))
    verdict("closed-form-agreement", failures)


def test_one_step_eigenvector_convergence():
    rng = np.random.default_rng(103)
    failures = []
    for k in range(50):
        m = int(rng.integers(2, 31))
        h_mat, lam, q = spd_with_spectrum(rng, m, 1.0, 5.0)
        for j in range(m):
            r0 = q[:, j]
            r1 = first_order_image(h_mat, r0)
            if norm2(r1) > 1e-12 * norm2(r0):
                failures.append((k, j, norm2(r1)))
    verdict("one-step-eigenvector", failures)


def test_critical_line_contraction_and_acceleration():
    h = np.diag([1.0, 3.0])
    pair = critical_pair(1.0, 3.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    failures = []
    orbit = first_order_orbit(h, pair.r_plus, steps=20)
    ratio = orbit.norms[20] / orbit.norms[0]
    if abs(ratio - 2.0 ** -20) > 1e-10 * 2.0 ** -20:
        failures.append(("contraction", ratio))
    for k in range(20):
        r_bar = accelerate(h, orbit.points[k], orbit.points[k + 1])
        if norm2(first_order_image(h, r_bar)) > 1e-12:
            failures.append(("acceleration", k))
    verdict("critical-line-contraction", failures)


def test_eigenbasis_equivalence():
    rng = np.random.default_rng(104)
    failures = []
    for k in range(20):
        m = int(rng.integers(2, 21))
        h_mat, _, _ = spd_with_spectrum(rng, m, 1.0, 6.0)
        r0 = rng.standard_normal(m)
        report = eigenbasis_equivalence(h_mat, r0, steps=30)
        if report["max_norm_deviation"] > 1e-10 * norm2(r0):
            failures.append((k, report["max_norm_deviation"]))
    verdict("eigenbasis-equivalence", failures)


def test_desk_scale_solve_quality():
    """Positive definite diagonal at n = 1000, solved as the symmetric PSD
    specialization, to relative residual 1e-13 in under five seconds."""
    a = gallery.gen_diag("pd", 1000, seed=2026)
    b = gallery.row_sum_rhs(a)
    failures = []
    t0 = time.perf_counter()
    res = centering_solve(a, b, CenteringOptions(epsilon=1e-13, h_mode="a",
                                                 max_iters=200_000))
    elapsed = time.perf_counter() - t0
    if res.status != "approx_solution":
        failures.append(("status", res.status))
    if res.residual_norm > 1e-13 * norm2(b):
        failures.append(("relative residual", res.residual_norm / norm2(b)))
    if np.abs(res.x - 1.0).max() > 1e-8:
        failures.append(("solution error", np.abs(res.x - 1.0).max()))
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    verdict("desk-scale-solve", failures)


def test_singular_system_handling():
    """Clement n = 51 is singular; consistent data converges, data perturbed
    out of range certifies a normal-equation solution matching the dense
    least-squares oracle."""
    failures = []
    a = gallery.gen_clement(51)
    dense = a.toarray()
    b = gallery.row_sum_rhs(a)
    res = centering_solve(a, b, CenteringOptions(
        epsilon=1e-10 / (3.0 * norm2(b)), max_iters=400_000))
    if res.status != "approx_solution" or res.residual_norm > 1e-10:
        failures.append(("consistent", res.status, res.residual_norm))

    # push b out of range along a nullspace direction (symmetric: null = range^perp)
    _, _, vt = np.linalg.svd(dense)
    null_vec = vt[-1]
    b_pert = b + 0.1 * null_vec
    res2 = centering_solve(a, b_pert, CenteringOptions(
        epsilon=1e-9 / norm2(b_pert), max_iters=400_000))
    if res2.status != "normal_eq_solution":
        failures.append(("perturbed status", res2.status))
    normal_res = norm2(dense.T @ (dense @ res2.x) - dense.T @ b_pert)
    if normal_res > 1e-8:
        failures.append(("normal residual", normal_res))
    x_oracle, *_ = np.linalg.lstsq(dense, b_pert, rcond=None)
    if abs(norm2(b_pert - dense @ res2.x) - norm2(b_pert - dense @ x_oracle)) > 1e-6:
        failures.append(("oracle residual mismatch",))
    verdict("singular-system-handling", failures)


def test_min_norm_correctness():
    rng = np.random.default_rng(105)
    failures = []
    eps = 1e-6
    for k in range(100):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(m + 1, 31))
        a = rng.standard_normal((m, n))
        x0 = rng.standard_normal(n)
        b = a @ x0
        x_pinv = np.linalg.pinv(a) @ b
        res = min_norm_solve(a, b, eps=eps, x_eps=x0)
        if res.status != "min_norm_solution":
            failures.append((k, res.status))
            continue
        if abs(norm2(res.x) - norm2(x_pinv)) > eps + 1e-8 * norm2(x_pinv):
            failures.append((k, "norm gap", norm2(res.x), norm2(x_pinv)))
        lo, hi = res.rho_interval
        # the three conditions of an approximate minimum-norm solution
        if norm2(a @ res.x - b) > eps:
            failures.append((k, "condition 1"))
        if not (lo <= norm2(res.x) + 1e-12 and lo <= norm2(x_pinv) + 1e-9):
            failures.append((k, "condition 2"))
        if norm2(res.x) - lo > eps * (1 + 1e-9):
            failures.append((k, "condition 3"))
    verdict("min-norm-correctness", failures)


def test_witness_soundness():
    rng = np.random.default_rng(106)
    failures = []
    witnesses = 0
    for k in range(60):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(m, 16))
        a = rng.standard_normal((m, n))
        b = a @ rng.standard_normal(n)
        x_pinv = np.linalg.pinv(a) @ b
        res = solve_in_ball(a, b, rho=0.5 * norm2(x_pinv), eps=1e-10,
                            max_iters=50_000)
        if res.status != "witness":
            continue
        witnesses += 1
        try:
            check_witness(a, b, res)
        except AssertionError as exc:
            failures.append((k, str(exc)))
        if res.lower_bound > norm2(x_pinv) * (1 + 1e-9):
            failures.append((k, "bound exceeds oracle"))
    if witnesses < 30:
        failures.append(("too few witnesses", witnesses))
    verdict("witness-soundness", failures)


def test_lp_feasibility_soundness():
    rng = np.random.default_rng(107)
    failures = []
    for k in range(200):
        m = int(rng.integers(2, 13))
        n = int(rng.integers(m + 4, 31))
        a = rng.standard_normal((m, n))
        x0 = rng.uniform(0.2, 1.0, n)
        b = a @ x0
        res = nonnegative_feasibility(a, b, eps=1e-8, max_iters=400_000)
        ok = (res.status == "feasible" and res.x.min() >= -1e-12
              and norm2(a @ res.x - b) <= 1e-8)
        if not ok:
            failures.append((k, res.status, res.residual_norm))
    infeasible_checked = 0
    for k in range(50):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(2, 11))
        a = rng.standard_normal((m, n))
        row = int(rng.integers(m))
        a[row] = -np.abs(a[row])
        b = rng.standard_normal(m)
        b[row] = abs(b[row]) + 0.5
        # cross-check against the exact phase-one oracle at this scale
        oracle = linprog(np.zeros(n), A_eq=a, b_eq=b, bounds=(0, None),
                         method="highs")
        if oracle.status == 0:
            continue
        infeasible_checked += 1
        res = nonnegative_feasibility(a, b, eps=1e-8, max_iters=30_000)
        if res.status == "feasible":
            failures.append((k, "false feasible"))
    if infeasible_checked < 40:
        failures.append(("too few infeasible instances", infeasible_checked))
    verdict("lp-feasibility-soundness", failures)


def test_matrix_market_round_trip(tmp_path):
    from conftest import random_sparse

    rng = np.random.default_rng(108)
    failures = []
    for k in range(200):
        a = random_sparse(rng, max_mn=50, density=0.3)
        path = tmp_path / "rt.mtx"
        mmio.write_matrix_market(a, path)
        back = mmio.read_matrix_market(path)
        if back.shape != a.shape or (back != a).nnz != 0:
            failures.append((k, "round trip"))
    import glob
    import os

    fixture_paths = sorted(
        glob.glob(os.path.join(os.path.dirname(__file__), "fixtures", "*.mtx"))
    )
    if len(fixture_paths) < 5:
        failures.append(("fixtures", len(fixture_paths)))
    for path in fixture_paths:
        try:
            mmio.read_matrix_market(path)
        except Exception as exc:
            failures.append((path, str(exc)))
    verdict("matrix-market-round-trip", failures)


def test_cli_determinism(tmp_path):
    failures = []
    runs = []
    for tag in ("first", "second"):
        trace = tmp_path / f"{tag}.csv"
        summary = tmp_path / f"{tag}.json"
        rc = cli_main([
            "solve", "--gen", "diag-psd:80", "--algo", "cta", "--eps", "1e-9",
            "--seed", "11", "--trace", str(trace), "--summary", str(summary),
        ])
        if rc != 0:
            failures.append((tag, rc))
            continue
        data = json.loads(summary.read_text())
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        wall_cols = [i for i, name in enumerate(rows[0]) if name == "wall_ns"]
        rows = [[v for i, v in enumerate(row) if i not in wall_cols] for row in rows]
        runs.append((data["outcome"], data["iterations"],
                     data["final_residual_norm"], rows))
    if len(runs) == 2 and runs[0] != runs[1]:
        failures.append(("runs differ",))
    verdict("cli-determinism", failures)
