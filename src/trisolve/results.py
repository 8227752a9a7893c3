"""Result and trace containers shared by all solver drivers, and the one
entry and exit of a solve: :class:`System`, the system as prepared at entry,
whose trace takes the solve's rows and whose exits build its result."""

from __future__ import annotations

import csv
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_vector, norm2, prepare

# Terminal statuses.  Drivers return exactly one of these.
APPROX_SOLUTION = "approx_solution"       # ||Ax - b|| within tolerance
NORMAL_EQ_SOLUTION = "normal_eq_solution"  # ||A^T A x - A^T b|| within tolerance
MIN_NORM_SOLUTION = "min_norm_solution"   # approximate solution + certified norm bracket
WITNESS = "witness"                       # proof that b lies outside the search ellipsoid
FEASIBLE = "feasible"                     # nonnegative x with ||Ax - b|| within tolerance
INCONCLUSIVE = "inconclusive"             # feasibility search exhausted a budget
ITERATION_CAP = "iteration_cap"           # a budget ran out or a stage stalled; best x attached
NUMERICAL_FAILURE = "numerical_failure"   # non-finite values appeared during the solve

_SUCCESS = frozenset({APPROX_SOLUTION, NORMAL_EQ_SOLUTION, MIN_NORM_SOLUTION, FEASIBLE})


class Trace:
    """Per-iteration records, writable as CSV: one column per name in
    ``fields``, framed by two that the trace stamps itself, so ``columns`` is
    ``("iter", *fields, "wall_ns")``.  ``iter`` is the row's number, from 0,
    and ``wall_ns`` the nanoseconds since the trace was created
    (``start_ns``), so it never decreases down a trace.  A field named
    ``iter`` or ``wall_ns`` raises ``ValueError``.
    """

    def __init__(self, fields: tuple[str, ...]):
        fields = tuple(fields)
        if "iter" in fields or "wall_ns" in fields:
            raise ValueError(f"trace fields must not name the stamped columns 'iter' or "
                             f"'wall_ns', got {fields!r}")
        self.columns = ("iter", *fields, "wall_ns")
        self.rows: list[tuple] = []
        self.start_ns = time.perf_counter_ns()

    def append(self, *fields) -> None:
        """Add a row from the fields between ``iter`` and ``wall_ns``."""
        if len(fields) != len(self.columns) - 2:
            raise ValueError(f"trace row has {len(fields)} fields between iter and wall_ns, "
                             f"schema has {len(self.columns) - 2}")
        rows = self.rows
        rows.append((len(rows), *fields, time.perf_counter_ns() - self.start_ns))

    def extend(self, other: Trace, **constants) -> None:
        """Add ``other``'s rows, numbered on from this trace's last row and
        moved onto this trace's clock.  Each field between ``iter`` and
        ``wall_ns`` is the value in ``constants`` under its column's name, or
        else ``other``'s column of that name."""
        shift = other.start_ns - self.start_ns
        fields = [[constants[name]] * len(other) if name in constants else other.column(name)
                  for name in self.columns[1:-1]]
        rows = self.rows
        for *values, wall in zip(*fields, other.column("wall_ns")):
            rows.append((len(rows), *values, shift + wall))

    def __len__(self) -> int:
        return len(self.rows)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            writer.writerows(self.rows)

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


@dataclass
class SolveResult:
    """Outcome of a solver driver.

    ``x`` is the best iterate available, even for non-success statuses.
    ``residual_norm`` is ``||b - Ax||`` and ``normal_residual_norm``
    ``||A^T(b - Ax)||``, both for the returned ``x``.  Triangle-family extras:
    ``rho`` is the final search radius; ``lower_bound`` a certified lower
    bound on the norm of every exact solution (witnesses), or of every ``x``
    within ``eps`` of ``b``, nonnegative in the cone (a pivot run's budget
    exits, when positive); ``rho_interval`` the minimum-norm bracket: a
    certified lower end, and ``||x||`` of the returned ``x`` as the upper;
    and ``b_prime`` the final ellipsoid iterate, which re-verifies a witness
    or a budget exit's bound: ``Ax`` as ``op.matvec`` computes it after a
    success, possibly carried otherwise.  For a cone witness ``b_prime`` is
    ``b - y``, ``y`` the Farkas certificate; when the certificate is a sign
    row of ``A``, found before the first pivot, that is not an iterate.
    ``y`` is a dual vector of length ``m``, exact or ``None``: from
    :func:`~trisolve.centering.centering_solve`, the iterate with
    ``x = op.rmatvec(y)`` bit for bit, when the solve ended on it; from
    :func:`~trisolve.triangle.min_norm_solve` (and ``hybrid_solve``, which
    passes stage two's on), the ``y`` whose bound started ``rho_interval``'s
    lower end, so that end can be computed again from ``A``, ``b``, ``x_eps``
    and ``y``.
    """

    status: str
    x: np.ndarray
    residual_norm: float
    normal_residual_norm: float
    iterations: int
    trace: Trace
    rho: float | None = None
    lower_bound: float | None = None
    rho_interval: tuple[float, float] | None = None
    b_prime: np.ndarray | None = None
    y: np.ndarray | None = None
    min_x_entry: float | None = None
    detail: str = ""
    stage_results: list = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.status in _SUCCESS

    def __repr__(self) -> str:  # compact; arrays elided
        return (
            f"SolveResult(status={self.status!r}, iterations={self.iterations}, "
            f"residual_norm={self.residual_norm:.3e}, "
            f"normal_residual_norm={self.normal_residual_norm:.3e})"
        )


class System:
    """The system of one solve, prepared once at entry: the operator ``op``
    (:func:`linalg.prepare`), ``b`` as a float64 vector of its row count,
    ``b_norm`` and the solve's ``trace``, with the given fields.  Raises
    ``ValueError`` for a wrong shape, and for a nonzero ``b`` whose norm
    underflows to 0, which the drivers would read as ``b = 0``.  NaN, Inf or
    an overflowing norm pass; the drivers end in ``numerical_failure``."""

    def __init__(self, a, b, fields):
        self.op = prepare(a)
        self.b = as_vector("b", b, self.op.shape[0])
        self.b_norm = norm2(self.b)
        if self.b_norm == 0.0 and self.b.any():
            raise ValueError("b is nonzero but its norm underflows to 0; scale b up")
        self.trace = Trace(fields)

    @functools.cached_property
    def a_fro(self) -> float:
        """``||A||_F``, on first use: a pass over ``A`` that only the
        solves with a floating-point floor need."""
        return self.op.frobenius_norm()

    def finish(self, status, x, iterations, **extra) -> SolveResult:
        """The exit of every driver: both residual norms measured from ``x``."""
        final = self.b - self.op.matvec(x)
        return SolveResult(status, x, norm2(final), norm2(self.op.rmatvec(final)),
                           iterations, self.trace, **extra)

    def zero_rhs(self, status, **extra) -> SolveResult:
        """The answer to ``b = 0``: ``x = 0`` at iteration 0, both residuals 0."""
        return SolveResult(status, np.zeros(self.op.shape[1]), 0.0, 0.0, 0, self.trace,
                           **extra)


CENTERING_TRACE_COLUMNS = ("t", "residual_norm", "normal_residual_norm")
TRIANGLE_TRACE_COLUMNS = ("rho", "residual_norm", "normal_residual_norm", "event")
FEASIBILITY_TRACE_COLUMNS = (*TRIANGLE_TRACE_COLUMNS, "min_x_entry")
