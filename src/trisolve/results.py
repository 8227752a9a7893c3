"""Result and trace containers shared by all solver drivers."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

# Terminal statuses.  Drivers return exactly one of these.
APPROX_SOLUTION = "approx_solution"       # ||Ax - b|| within tolerance
NORMAL_EQ_SOLUTION = "normal_eq_solution"  # ||A^T A x - A^T b|| within tolerance
MIN_NORM_SOLUTION = "min_norm_solution"   # approximate solution + certified norm bracket
WITNESS = "witness"                       # proof that b lies outside the search ellipsoid
FEASIBLE = "feasible"                     # nonnegative x with ||Ax - b|| within tolerance
INCONCLUSIVE = "inconclusive"             # feasibility search exhausted its radius budget
ITERATION_CAP = "iteration_cap"           # iteration budget exhausted, best iterate attached
NUMERICAL_FAILURE = "numerical_failure"   # non-finite values appeared during the solve

_SUCCESS = frozenset({APPROX_SOLUTION, NORMAL_EQ_SOLUTION, MIN_NORM_SOLUTION, FEASIBLE})


class Trace:
    """Per-iteration records with a fixed column schema, writable as CSV."""

    def __init__(self, columns: tuple[str, ...]):
        self.columns = tuple(columns)
        self.rows: list[tuple] = []

    def append(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"trace row has {len(values)} fields, schema has {len(self.columns)}"
            )
        self.rows.append(values)

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

    ``x`` is always the best iterate available, even for non-success
    statuses.  ``residual_norm`` is ``||b - Ax||`` and
    ``normal_residual_norm`` is ``||A^T(b - Ax)||``, both for the returned
    ``x``.  Triangle-family extras: ``rho`` is the final search radius,
    ``lower_bound`` a certified lower bound on the minimum-norm solution
    (witness outcomes), ``rho_interval`` the certified ``(lower, upper)``
    bracket of the minimum-norm radius (min-norm outcomes), and ``b_prime``
    the final ellipsoid iterate ``Ax`` needed to re-verify a witness.
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


CENTERING_TRACE_COLUMNS = ("iter", "t", "residual_norm", "normal_residual_norm", "wall_ns")
TRIANGLE_TRACE_COLUMNS = (
    "iter", "rho", "residual_norm", "normal_residual_norm", "event", "wall_ns",
)
FEASIBILITY_TRACE_COLUMNS = (
    "iter", "rho", "residual_norm", "normal_residual_norm", "event", "min_x_entry", "wall_ns",
)
