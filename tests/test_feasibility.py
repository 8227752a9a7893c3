import math

import numpy as np
import pytest
import scipy.sparse as sparse
from conftest import check_cap_bound
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from trisolve import triangle
from trisolve.feasibility import default_rho_max, nonnegative_feasibility
from trisolve.linalg import GramProduct, matvec, matvec_transpose, norm2
from trisolve.results import FEASIBILITY_TRACE_COLUMNS, System
from trisolve.triangle import _pivot_loop, solve_adaptive, solve_in_ball


def lp_oracle_feasible(a, b):
    """Exact phase-one feasibility via the HiGHS LP solver."""
    res = linprog(np.zeros(a.shape[1]), A_eq=a, b_eq=b, bounds=(0, None),
                  method="highs")
    return res.status == 0


def assert_farkas_witness(a, b, res):
    """Check a witness from the result alone: its ``y`` has
    ``A^T y <= 0 < y^T b``, and the bound is ``y^T b / ||A^T y||``."""
    assert res.status == "witness"
    y = res.y
    c = matvec_transpose(a, y)
    assert c.max(initial=0.0) <= 0.0 < float(y @ b)
    c_norm = norm2(c)
    assert np.isclose(res.lower_bound, float(y @ b) / c_norm if c_norm else math.inf,
                      rtol=1e-9)


def cone_loop(a, b, eps, max_iters=100_000):
    """The cone search from ``x = 0`` as :func:`nonnegative_feasibility`
    runs it, without the sign-row check before it."""
    system = System(a, b, FEASIBILITY_TRACE_COLUMNS)
    return _pivot_loop(system, None, 0.0, eps, -math.inf, max_iters,
                       rho_cap=default_rho_max(a, b), cone=True)


class TestNonnegativePart:
    """The cone direction ``c+ = max(c, 0)``, seen through the search on the
    identity, where ``c = b - b'``.  A negative ``b_i`` on the identity is a
    sign row, which ends the solve before the search; the search itself is
    run through the pivot loop."""

    def test_mixed(self):
        # c = (1, -2, 0): one pivot along c+ = (1, 0, 0), then c+ = 0 with
        # (b - b')^T b = 4 > 0 certifies infeasibility
        a, b = np.eye(3), np.array([1.0, -2.0, 0.0])
        run = cone_loop(a, b, eps=1e-8)
        assert run.status == "witness"
        assert np.array_equal(run.x, [1.0, 0.0, 0.0])
        res = nonnegative_feasibility(a, b, eps=1e-8)
        assert res.iterations == 0 and np.array_equal(res.x, np.zeros(3))
        assert res.detail == "row 1 of A has no entry of the sign of b[1]"
        assert_farkas_witness(a, b, res)

    def test_all_negative(self):
        a, b = np.eye(2), np.array([-1.0, -2.0])
        run = cone_loop(a, b, eps=1e-8)
        assert run.status == "witness" and run.iterations == 1
        assert np.array_equal(run.x, np.zeros(2))
        res = nonnegative_feasibility(a, b, eps=1e-8)
        assert res.iterations == 0 and np.array_equal(res.x, np.zeros(2))
        assert res.detail == "row 0 of A has no entry of the sign of b[0]"
        assert_farkas_witness(a, b, res)

    def test_all_nonnegative_unchanged(self):
        # c >= 0 all along: from the cone's first radius, the certified
        # bound, the cone search takes the ball loop's steps; the adaptive
        # ball run starts at 4x that bound instead
        a, b = np.eye(3), np.array([0.5, 0.0, 3.0])
        cone = nonnegative_feasibility(a, b, eps=1e-8)
        assert cone.status == "feasible" and cone.trace.column("event")[0] == "expand"
        rho = cone.trace.column("rho")[0]
        assert rho == float(b @ b) / norm2(b)
        ball = solve_in_ball(a, b, rho=rho, eps=1e-8)
        assert np.array_equal(cone.x, ball.x)
        cols = ("rho", "residual_norm", "normal_residual_norm", "event")
        assert [cone.trace.column(k)[1:] for k in cols] == [ball.trace.column(k) for k in cols]
        assert solve_adaptive(a, b, eps=1e-8).trace.column("rho")[0] == 4.0 * rho


class TestFeasibilitySolver:
    def test_zero_rhs_is_feasible_at_origin(self):
        res = nonnegative_feasibility(np.eye(3), np.zeros(3), eps=1e-10)
        assert res.status == "feasible" and res.iterations == 0
        assert np.array_equal(res.x, np.zeros(3))

    def test_identity_positive_target(self):
        res = nonnegative_feasibility(np.eye(2), np.array([1.0, 1.0]), eps=1e-8)
        assert res.status == "feasible"
        assert np.abs(res.x - 1.0).max() <= 1e-7
        assert res.x.min() >= 0.0

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
            assert res.x.min() >= 0.0
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
        assert all(v >= 0.0 for v in min_entries)
        assert res.x.min(initial=0.0) >= 0.0

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
            assert res.x.min() >= 0.0

    def test_rho_cap_reports_inconclusive(self):
        a = np.array([[1.0, 1.0]])
        res = nonnegative_feasibility(a, np.array([5.0]), eps=1e-12, rho_max=1e-6,
                                      max_iters=1000)
        assert res.status == "inconclusive"
        assert "radius" in res.detail
        # the first expand leaves b' = 0, whose gap y = b bounds ||x|| by
        # 25 / ||(5, 5)||, the norm of the nearest solution (2.5, 2.5)
        assert np.isclose(res.lower_bound, 5.0 / np.sqrt(2.0), rtol=1e-9)

    @pytest.mark.parametrize("a, b", [
        (np.eye(3), np.ones(3)),
        (np.zeros((0, 3)), np.zeros(0)),        # no row: no RMS row norm to divide by
        (1e300 * np.eye(2), 1e300 * np.ones(2)),  # both norms overflow, silently
    ], ids=["identity", "no-rows", "overflow"])
    def test_default_rho_max_positive(self, a, b):
        assert default_rho_max(a, b) > 0

    @pytest.mark.parametrize("storage", [np.asarray, sparse.csr_array])
    def test_default_rho_max_does_not_depend_on_the_scale(self, storage):
        # the budget reads ||b|| / sigma, which scaling A and b by one power
        # of two leaves as it is, also where the plain norms overflow or
        # underflow to zero
        rng = np.random.default_rng(12)
        a = storage(rng.uniform(0.5, 2.0, (4, 6)))
        b = 10.0 * rng.uniform(1.0, 3.0, 4)
        budget = default_rho_max(a, b)
        assert budget > 10.0 * 6  # ||b|| / sigma > 1: the ratio shows
        for k in (-1000, -800, -600, -400, -1, 1, 400, 600, 800, 1000):
            assert default_rho_max(2.0**k * a, 2.0**k * b) == budget, k

    def test_overflowing_norms_keep_the_ratio(self):
        big = default_rho_max(1e300 * np.eye(2), 1e300 * np.ones(2))
        assert big == default_rho_max(np.eye(2), np.ones(2)) == 20.0 * np.sqrt(2.0)
        res = nonnegative_feasibility(1e300 * np.eye(2), 1e300 * np.ones(2), 1e-6)
        assert res.status == "numerical_failure"

    def test_default_rho_max_keeps_its_bits_where_squares_are_subnormal(self):
        # columns graded by exp(-U(0, 30)): around 2^-520 some squares in the
        # plain norms are subnormal while the norms stay finite and nonzero
        rng = np.random.default_rng(20)
        draws = [(np.array([[1.0, 2.0**-20], [3.0, 0.5]]), np.array([40.0, 7.0]))]
        for storage in (np.asarray, sparse.csr_array) * 6:
            m, n = rng.integers(1, 13, 2)
            grade = np.exp(-rng.uniform(0.0, 30.0, n))
            draws.append((storage(rng.standard_normal((m, n)) * grade),
                          10.0 * rng.standard_normal(m)))
        for a, b in draws:
            budget = default_rho_max(a, b)
            for k in range(-900, 901, 5):
                assert default_rho_max(2.0**k * a, 2.0**k * b) == budget, (k, a, b)
        assert default_rho_max(*draws[0]) == 358.75122163468495

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
        # bound y^T b / ||A^T y||; no row of A has a single sign, so the
        # certificate comes from the search
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        res = nonnegative_feasibility(a, b, eps=1e-6, max_iters=300)
        assert res.iterations > 0
        assert_farkas_witness(a, b, res)


def _sign_rows(storage):
    """A 3 x 4 system whose rows 1 and 2 carry sign certificates: row 1 is
    nonnegative with ``b_1 < 0``, row 2 nonpositive with ``b_2 > 0``."""
    a = np.array([[1.0, -2.0, 0.5, 3.0],
                  [0.0, 2.0, 0.0, 1.5],
                  [-1.0, 0.0, -0.25, 0.0]])
    return storage(a), np.array([1.0, -3.0, 2.0])


class TestSignRowWitness:
    """A row whose signs alone rule out ``x >= 0`` ends the solve in a Farkas
    witness at ``x = 0``, before the first pivot."""

    @pytest.mark.parametrize("storage", [np.asarray, sparse.csr_array], ids=["dense", "csr"])
    @pytest.mark.parametrize("row", [1, 2], ids=["nonnegative-row", "nonpositive-row"])
    def test_each_sign_pattern_ends_at_iteration_zero(self, storage, row):
        a, b = _sign_rows(storage)
        # both rows certify and the lowest is taken, unless b_1 lies inside
        # the tolerance
        if row == 2:
            b[1] = -0.5e-3
        res = nonnegative_feasibility(a, b, eps=1e-3)
        assert res.iterations == 0 and len(res.trace) == 0
        assert np.array_equal(res.x, np.zeros(4))
        assert res.rho == 0.0 and res.x.min(initial=0.0) == 0.0
        assert res.detail == f"row {row} of A has no entry of the sign of b[{row}]"
        assert res.residual_norm == norm2(b)
        assert_farkas_witness(a, b, res)
        # the certificate is the one row: y = b_i e_i, to the bit
        assert np.array_equal(res.y, np.where(np.arange(3) == row, b, 0.0))

    @pytest.mark.parametrize("storage", [np.asarray, sparse.csr_array], ids=["dense", "csr"])
    def test_empty_row(self, storage):
        # an all-zero row, with no stored entry in CSR: A^T y = 0, so the
        # bound is infinite
        a = storage(np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]]))
        b = np.array([1.0, 0.5, 1.0])
        res = nonnegative_feasibility(a, b, eps=1e-6)
        assert res.iterations == 0 and res.lower_bound == math.inf
        assert res.detail.startswith("row 1 ")
        assert_farkas_witness(a, b, res)

    @pytest.mark.parametrize("storage", [np.asarray, sparse.csr_array], ids=["dense", "csr"])
    def test_rows_within_the_tolerance_are_left_to_the_search(self, storage):
        # row 0 is nonpositive but b_0 = eps / 2: x = (0, 1) is eps-feasible
        a = storage(np.array([[-1.0, 0.0], [0.0, 1.0]]))
        b = np.array([0.5e-3, 1.0])
        res = nonnegative_feasibility(a, b, eps=1e-3)
        assert res.status == "feasible" and res.iterations > 0

    @pytest.mark.parametrize("storage", [np.asarray, sparse.csr_array], ids=["dense", "csr"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_ends_as_before(self, storage, bad):
        # row 0 is nonpositive with b_0 > 0, but a non-finite entry in
        # row 1 turns the check off: the search fails on it
        a = storage(np.array([[-1.0, -2.0], [bad, 1.0]]))
        res = nonnegative_feasibility(a, np.array([1.0, 1.0]), eps=1e-3)
        assert res.status == "numerical_failure"

    def test_overflowing_rhs_norm_ends_as_before(self):
        # finite b whose norm overflows: the check is off, as for NaN in A
        res = nonnegative_feasibility(np.eye(2), np.array([-1e300, 1e300]), eps=1e-6)
        assert res.status == "numerical_failure"

    def test_caller_operator_skips_the_check(self):
        # the identity's Gram pair has the sign row 0, out of reach through
        # GramProduct: the search finds the certificate after its first pivot
        a, b = np.eye(2), np.array([-1.0, 1.0])
        assert nonnegative_feasibility(a, b, eps=1e-8).iterations == 0
        res = nonnegative_feasibility(GramProduct(a), b, eps=1e-8)
        assert res.status == "witness" and res.iterations > 0
        assert_farkas_witness(a, b, res)


class TestInconclusiveBound:
    """An inconclusive result carries ``(y^T b - eps ||y||) / ||max(A^T y, 0)||``
    for ``y = b - b'``: no ``x >= 0`` within ``eps`` of ``b`` is shorter."""

    def test_planted_boundary_bound(self):
        # the planted x = (1, 1, 1, 1, 0, ...) has norm 2, so the bound may
        # not exceed it; it is recomputed from the result alone
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 9))
        b = a[:, :4].sum(axis=1)
        eps = 1e-3
        res = nonnegative_feasibility(a, b, eps=eps, max_iters=200)
        assert res.status == "inconclusive" and res.iterations == 200
        assert res.detail == "iteration budget exhausted"
        assert 0.0 < res.lower_bound <= 2.0
        check_cap_bound(a, b, res, eps)

    def test_boundary_bound_is_pinned(self):
        # the loop measures the last gap before the budget ends it; the
        # bound keeps the bits it had when the driver recomputed it after
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 9))
        res = nonnegative_feasibility(a, a[:, :4].sum(axis=1), eps=1e-3, max_iters=2000)
        assert res.status == "inconclusive" and res.iterations == 2000
        assert res.lower_bound == 1.478113952121359

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(m=st.integers(1, 6), n=st.integers(1, 10), iters=st.integers(1, 40),
           csr=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_no_planted_point_is_shorter(self, m, n, iters, csr, seed):
        # x >= 0 solves Ax = b exactly, so no certified bound exceeds ||x||
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        x = rng.uniform(0.0, 1.0, n)
        b = a @ x
        res = nonnegative_feasibility(sparse.csr_array(a) if csr else a, b,
                                      eps=1e-6 * norm2(b), max_iters=iters)
        if res.status == "inconclusive" and res.lower_bound is not None:
            assert res.lower_bound <= norm2(x) * (1.0 + 1e-9)


# --- the cone pivot moves over a triangle ------------------------------------

_LP_KINDS = ("interior", "boundary", "infeasible", "positive")


def _lp_system(kind, rng, m, n):
    """A random ``m x n`` LP of one kind: ``b`` from a positive ``x``
    (interior), from an ``x`` supported on fewer than ``m`` columns, so the
    solutions lie on a face (boundary), with one row made nonpositive and
    its right-hand side positive (infeasible, a one-row Farkas certificate),
    or a uniform ``A > 0``, whose searches take apex pivots (positive)."""
    a = rng.random((m, n)) if kind == "positive" else rng.standard_normal((m, n))
    x = rng.uniform(0.2, 1.0, n)
    if kind == "boundary":
        x[int(rng.integers(1, m)) if m > 1 else 1:] = 0.0
    b = a @ x
    if kind == "infeasible":
        row = int(rng.integers(m))
        a[row] = -np.abs(a[row])
        b[row] = abs(b[row]) + 0.5
    return a, b


def _lp_draw(kind, seed):
    """Draw ``seed`` of a kind: ``2 <= m <= 8``, ``m < n <= 3m + 3``, CSR
    for odd seeds, ``eps = 1e-6 ||b||``."""
    rng = np.random.default_rng(9000 + seed)
    m = int(rng.integers(2, 9))
    n = int(rng.integers(m + 1, 3 * m + 4))
    a, b = _lp_system(kind, rng, m, n)
    return (sparse.csr_array(a) if seed % 2 else a), b, 1e-6 * norm2(b)


def _checked_pivots(a, b, eps, max_iters):
    """Run the cone search, checking every pivot against the segment step
    from the same state; returns the result and the counts of triangle and
    apex pivots.  The gaps are compared within 1e-12 of the largest point
    the step combines: near convergence both gaps sit at the rounding of
    ``b' + s d1 + u d2`` (a sweep of 1500 draws at eps down to 1e-12 ||b||
    saw the triangle's gap above the segment's by at most 5.1e-17 of that
    scale, and by up to 8.6e-5 of the segment's own gap)."""
    b = np.asarray(b, dtype=np.float64)
    move = triangle.move_to_pivot
    counts = {"triangle": 0, "apex": 0}

    def checked(b_prime, x, v, preimage, gap, prev=None):
        b_new, x_new, alpha = move(b_prime, x, v, preimage, gap, prev)
        if prev is not None:
            counts["triangle"] += 1
            b_seg = move(b_prime, x, v, preimage, gap)[0]
            scale = max(norm2(b), norm2(b_prime), norm2(v), norm2(prev[0]))
            assert norm2(b - b_new) <= norm2(b - b_seg) + 1e-12 * scale
        counts["apex"] += isinstance(v, float)
        assert x_new.size == 0 or x_new.min() >= 0.0
        return b_new, x_new, alpha

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triangle, "move_to_pivot", checked)
        res = nonnegative_feasibility(a, b, eps=eps, max_iters=max_iters)
    return res, counts


class TestTriangleStep:
    """After its first pivot a cone run moves to the point of
    ``conv{b', v, v_prev}`` nearest ``b``: never farther than the segment
    step, and exactly nonnegative."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(_LP_KINDS), m=st.integers(1, 6), n=st.integers(1, 10),
           csr=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_no_pivot_ends_farther_than_the_segment(self, kind, m, n, csr, seed):
        a, b = _lp_system(kind, np.random.default_rng(seed), m, n)
        res, _ = _checked_pivots(sparse.csr_array(a) if csr else a, b, 1e-6 * norm2(b),
                                 max_iters=300)
        assert res.x.min(initial=0.0) >= 0.0

    def test_apex_pivots_are_checked(self):
        # a positive A: c+ = 0 with (b - b')^T b <= 0 sends the search to the
        # apex, and the triangle steps around it keep both properties
        a, b, eps = _lp_draw("positive", 0)
        res, counts = _checked_pivots(a, b, eps, max_iters=20_000)
        assert res.status == "feasible"
        assert counts["apex"] > 0 and counts["triangle"] > counts["apex"]

    def test_any_negative_entry_is_corruption(self, monkeypatch):
        # simplex weights keep x >= 0 exactly, so even -1e-13 means a
        # corrupt state, never a feasible x
        move = triangle.move_to_pivot

        def drifting(*args):
            b_new, x_new, alpha = move(*args)
            x_new[0] = -1e-13
            return b_new, x_new, alpha

        monkeypatch.setattr(triangle, "move_to_pivot", drifting)
        res = nonnegative_feasibility(np.eye(2), np.array([1.0, 1.0]), eps=1e-8)
        # the radius jump from 0, then the first pivot breaks the run
        assert res.status == "numerical_failure" and res.iterations == 1
        assert res.detail == "iterate left the nonnegative cone"

    def test_statuses_against_the_segment_step(self):
        # 15 draws of each kind, cap 20000.  Feasible draws end no worse than
        # under the segment step; a feasible result is nonnegative within eps.
        # A witness needs c+ = 0 at the iterate the path reaches before the
        # radius budget runs out, so single infeasible draws can gain or lose
        # one either way; in total they may not end in fewer witnesses.  Each
        # infeasible draw has a sign row, which ends the solve before its
        # first pivot, so their searches run through the pivot loop alone.
        rank = {"feasible": 0, "witness": 0, "inconclusive": 1}
        witnesses = {"segment": 0, "triangle": 0}
        move = triangle.move_to_pivot
        for kind in _LP_KINDS:
            solve = cone_loop if kind == "infeasible" else nonnegative_feasibility
            for seed in range(15):
                a, b, eps = _lp_draw(kind, seed)
                res = solve(a, b, eps=eps, max_iters=20_000)
                with pytest.MonkeyPatch.context() as mp:
                    # every pivot a segment step, as cone runs took before
                    mp.setattr(triangle, "move_to_pivot", lambda *args: move(*args[:5]))
                    seg = solve(a, b, eps=eps, max_iters=20_000)
                if res.status == "feasible":
                    assert res.x.min() >= 0.0
                    assert norm2(matvec(a, res.x) - b) <= eps
                if res.status == "witness":
                    assert_farkas_witness(a, b, res)
                if kind == "infeasible":
                    assert res.status != "approx_solution"
                    assert nonnegative_feasibility(a, b, eps=eps).iterations == 0
                    witnesses["segment"] += seg.status == "witness"
                    witnesses["triangle"] += res.status == "witness"
                else:
                    assert rank[res.status] <= rank[seg.status], (kind, seed)
        assert witnesses["triangle"] >= witnesses["segment"]


def test_no_expand_repeats_at_one_iterate():
    # an expand sets rho to the quotient (b - b')^T b / ||c+|| that the pivot
    # test compares it with, so the next test at the same iterate passes:
    # no second expand doubles the radius without a pivot between (this draw
    # repeated one at residual 3.1267, rho 16.78 -> 33.56)
    a, b, eps = _lp_draw("infeasible", 7)
    trace = cone_loop(a, b, eps, max_iters=20_000).trace
    rows = list(zip(trace.column("event"), trace.column("residual_norm")))
    assert sum(event == "expand" for event, _ in rows) > 2
    assert not any(e1 == e2 == "expand" and r1 == r2
                   for (e1, r1), (e2, r2) in zip(rows, rows[1:]))
