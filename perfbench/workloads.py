"""The benchmark's four workloads: which problems each runs, how each problem
is built from the seed, and how it is solved.

Every problem has an explicit iteration cap (``max_iters``): a solve that
ends at its cap counts against ``solved_frac``, and the oracle checks that the
cap was really reached.  Why each workload and problem is here is recorded in
``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np
import scipy.sparse as sparse

import trisolve
import trisolve.cli
from trisolve import gallery, mmio


@dataclass
class Instance:
    """Inputs of one problem plus what the oracle needs to judge its result."""

    a: object
    b: np.ndarray
    # absolute tolerances the solver was asked for
    tol_residual: float
    tol_normal: float
    cap: int
    rho_cap: float | None = None   # radius budget, for capped-radius drivers
    args: dict = field(default_factory=dict)


@dataclass
class Problem:
    label: str
    layer: str                      # the driver family that serves it
    build: Callable[[int], Instance]
    solve: Callable[[Instance], object]
    # turns what ``solve`` returned into a SolveResult-like record; runs
    # outside the timed region
    collect: Callable[[Instance, object], object] = lambda inst, out: out
    # the reference work its times are scaled by (see calibrate.py)
    reference: str = "interpreter"


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, tag)), len(tag)])


def row_regular(rng, m: int, n: int, per_row: int):
    """Sparse ``m x n`` CSR matrix with exactly ``per_row`` standard-normal
    entries per row in distinct random columns."""
    cols = np.concatenate([rng.choice(n, per_row, replace=False) for _ in range(m)])
    rows = np.repeat(np.arange(m), per_row)
    return sparse.csr_array((rng.standard_normal(m * per_row), (rows, cols)), shape=(m, n))


# --- centering problems ----------------------------------------------------

def _gallery_centering(spec: str, h_mode: str, eps: float, cap: int,
                       reference: str = "interpreter") -> Problem:
    family, n = spec.split(":")

    def build(seed: int) -> Instance:
        a = gallery.make(family, int(n), [], seed)
        b = gallery.row_sum_rhs(a)
        tol = eps * float(np.linalg.norm(b))
        return Instance(a, b, tol, tol, cap)

    def solve(inst: Instance):
        return trisolve.centering_solve(inst.a, inst.b, trisolve.CenteringOptions(
            epsilon=eps, h_mode=h_mode, max_iters=inst.cap))

    return Problem(f"{spec}/cta-{h_mode}/{eps:g}", "centering", build, solve,
                   reference=reference)


# --- triangle-family problems on generated rectangular systems ---------------
#
# Each problem draws its base system from a stream of its own that does not
# depend on the seed; the seed then relabels rows and columns with random
# permutations.  Relabelling leaves the work of a solve unchanged in exact
# arithmetic, so iteration counts and outcomes stay put across seeds, while
# the bits and the memory layout the solver sees change.  Independent draws
# per seed moved pass-level iterations by about 8 % and the pooled tail by
# about 47 % (IQR over median, five seeds), more than any bound can absorb.

def _relabel(seed: int, name: str, a, b):
    rng = _rng(seed, name)
    p, q = rng.permutation(a.shape[0]), rng.permutation(a.shape[1])
    if sparse.issparse(a):
        a = sparse.csr_array(a[p][:, q])
        a.sort_indices()
    else:
        a = np.ascontiguousarray(a[p][:, q])
    return a, b[p]


def _planted(rng, a):
    """Right-hand side of a nonnegative planted solution, so ``b`` is
    consistent and the LP ``Ax = b, x >= 0`` is feasible."""
    return np.asarray(a @ rng.uniform(0.2, 1.0, a.shape[1]))


def _consistent(make):
    def system(rng):
        a = make(rng)
        return a, _planted(rng, a)
    return system


def _least_squares(make):
    """A random ``b``, which a tall ``A`` cannot reach."""
    def system(rng):
        a = make(rng)
        return a, rng.standard_normal(a.shape[0])
    return system


def _infeasible(make):
    """Row 0 becomes nonpositive with a positive right-hand side, so no
    ``x >= 0`` satisfies it."""
    def system(rng):
        a = make(rng).tolil()
        a[0, :] = -abs(a[0, :].toarray())
        a = sparse.csr_array(a)
        b = _planted(rng, a)
        b[0] = abs(b[0]) + 1.0
        return a, b
    return system


def _generated(name: str, layer: str, system, tolerances, cap: int, solve,
               args: dict | None = None) -> Problem:
    """``tolerances(a, b)`` gives ``(tol_residual, tol_normal, rho_cap)``."""
    def build(seed: int) -> Instance:
        a, b = _relabel(seed, name, *system(_rng(0, name)))
        tol_residual, tol_normal, rho_cap = tolerances(a, b)
        return Instance(a, b, tol_residual, tol_normal, cap, rho_cap, dict(args or {}))

    return Problem(name, layer, build, solve)


def _relative(eps: float):
    def tolerances(a, b):
        tol = eps * float(np.linalg.norm(b))
        return tol, tol, None
    return tolerances


def _adaptive(name, system, eps, cap):
    return _generated(
        name, "triangle", system, _relative(eps), cap,
        lambda inst: trisolve.solve_adaptive(inst.a, inst.b, eps=inst.tol_residual,
                                             max_iters=inst.cap))


def _in_ball(name, system, eps, cap):
    """Fixed radius at half the minimum norm (``rho`` is set once the
    reference solution is known): the answer must be a witness."""
    return _generated(
        name, "triangle", system, _relative(eps), cap,
        lambda inst: trisolve.solve_in_ball(inst.a, inst.b, inst.args["rho"],
                                            eps=inst.tol_residual, max_iters=inst.cap),
        args={"rho_of_ref": 0.5})


def _hybrid(name, system, eps_cta, eps_ta, min_norm, cap):
    def tolerances(a, b):
        b_norm = float(np.linalg.norm(b))
        if min_norm:
            # the bracket target; stage one reaches eps_cta < eps_ta
            return eps_ta * b_norm, eps_cta * b_norm, None
        # a normal-equation claim comes from stage one (relative to ||b||)
        # or from stage two on (A^T A, A^T b) (relative to ||A^T b||)
        g_norm = float(np.linalg.norm(a.T @ b))
        return eps_cta * b_norm, max(eps_cta * b_norm, eps_ta * g_norm), None

    def solve(inst: Instance):
        return trisolve.hybrid_solve(inst.a, inst.b, trisolve.HybridOptions(
            eps_cta=eps_cta, eps_ta=eps_ta, want_min_norm=min_norm,
            max_iters_stage1=inst.cap, max_iters_stage2=inst.cap,
            min_norm_inner_cap=inst.cap))

    return _generated(name, "hybrid", system, tolerances, cap, solve)


def _feasibility(name, system, eps, cap):
    def tolerances(a, b):
        tol = eps * float(np.linalg.norm(b))
        return tol, tol, trisolve.feasibility.default_rho_max(a, b)

    return _generated(
        name, "feasibility", system, tolerances, cap,
        lambda inst: trisolve.nonnegative_feasibility(
            inst.a, inst.b, eps=inst.tol_residual, rho_max=inst.rho_cap,
            max_iters=inst.cap))


def _dense(m, n):
    return lambda rng: rng.standard_normal((m, n))


def _sparse(m, n, per_row):
    return lambda rng: row_regular(rng, m, n, per_row)


# --- cli problems on Matrix Market files -------------------------------------

def _cli_mtx(spec: str, eps: float, cap: int, workdir: Callable[[], str]) -> Problem:
    family, n = spec.split(":")
    stem = spec.replace(":", "-")

    def build(seed: int) -> Instance:
        a = gallery.make(family, int(n), [], seed)
        base = os.path.join(workdir(), stem)
        mmio.write_matrix_market(a, base + ".mtx")
        b = np.asarray(a @ np.ones(a.shape[1]))
        tol = eps * float(np.linalg.norm(b))
        argv = ["solve", "--mtx", base + ".mtx", "--algo", "cta", "--h-mode", "a",
                "--eps", repr(eps), "--max-iters", str(cap),
                "--summary", base + ".summary.json", "--trace", base + ".trace.csv",
                "--dump-x", base + ".x.mtx"]
        return Instance(a, b, tol, tol, cap, args={"argv": argv, "base": base})

    def solve(inst: Instance):
        with contextlib.redirect_stdout(io.StringIO()):
            return trisolve.cli.main(inst.args["argv"])

    def collect(inst: Instance, _exit_code):
        base = inst.args["base"]
        with open(base + ".summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        x = np.loadtxt(base + ".x.mtx", skiprows=2, ndmin=1)
        return SimpleNamespace(
            status=summary["outcome"], x=x, iterations=summary["iterations"],
            residual_norm=summary["final_residual_norm"],
            normal_residual_norm=summary["final_normal_residual_norm"],
            rho=summary.get("rho_final"), lower_bound=None, rho_interval=None,
            stage_results=[], trace=None)

    return Problem(f"{spec}.mtx/cli-cta-a/{eps:g}", "cli", build, solve, collect)


def workload(name: str, workdir: Callable[[], str]) -> list[Problem]:
    """The fixed problem list of a workload, in round-robin order."""
    if name == "centering-small":
        return [
            _gallery_centering("convdiff:12", "aat", 1e-8, 5_000),
            _gallery_centering("clement:301", "aat", 1e-9, 5_000),
            _gallery_centering("clement:101", "aat", 1e-9, 2_000),
        ]
    if name == "centering-large":
        return [
            _gallery_centering("gram-psd:1200", "a", 1e-9, 1_000, "dense"),
            _gallery_centering("poisson-d:300", "a", 1e-4, 2_000, "sparse"),
            _gallery_centering("ode:1000", "aat", 1e-8, 2_000, "dense"),
        ]
    if name == "triangle-rect":
        # aspect ratio 1.5 keeps each solve at hundreds of cheap iterations,
        # so driver overhead stays large and a run holds few enough samples
        # for its tail percentile to be steady
        return [
            _adaptive("adaptive/sparse-1000x1500", _consistent(_sparse(1000, 1500, 20)),
                      1e-6, 2_000),
            _adaptive("adaptive/dense-200x300", _consistent(_dense(200, 300)), 1e-6, 2_000),
            _hybrid("hybrid-min-norm/dense-200x300", _consistent(_dense(200, 300)),
                    1e-8, 1e-4, True, 2_000),
            _hybrid("hybrid-lsq/dense-300x200", _least_squares(_dense(300, 200)),
                    1e-8, 1e-10, False, 2_000),
            _in_ball("in-ball-witness/dense-200x300", _consistent(_dense(200, 300)),
                     1e-6, 2_000),
            _feasibility("lpfeas/sparse-300x500", _consistent(_sparse(300, 500, 30)),
                         1e-6, 2_000),
            # ends inconclusive when its radius budget runs out, well before
            # the cap
            _feasibility("lpfeas-infeasible/sparse-300x500",
                         _infeasible(_sparse(300, 500, 30)), 1e-6, 2_000),
        ]
    if name == "cli-mtx":
        return [
            _cli_mtx("poisson-d:100", 1e-6, 5_000, workdir),
            _cli_mtx("poisson-d:60", 1e-6, 5_000, workdir),
            _cli_mtx("gram-psd:150", 1e-6, 5_000, workdir),
        ]
    raise ValueError(f"unknown workload {name!r}")
