"""The outside-in tracer must not change what the solvers compute, must see
every name it wraps on the workload that claims it, and must put the
original objects back.

Run with ``PYTHONPATH=src python -m pytest perfbench/test_tracer.py``.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import trisolve  # noqa: E402
import trisolve.cli  # noqa: E402,F401
from oracle import reference  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402
from workloads import workload  # noqa: E402

# The workload whose solves (or, for gallery, whose input builds) exercise
# each wrapped name.  centering-large runs the same names as centering-small.
CLAIMS = {
    "centering-small": {
        "linalg.matvec", "linalg.matvec_transpose", "linalg.HOperator.apply_with_transpose",
        "centering.centering_solve", "centering.moments", "centering.min_norm_coefficients",
        "results.Trace.append",
    },
    "triangle-rect": {
        "linalg.GramProduct.matvec", "triangle.solve_in_ball", "triangle.solve_adaptive",
        "triangle.min_norm_solve", "triangle.move_to_pivot",
        "feasibility.nonnegative_feasibility", "hybrid.hybrid_solve",
    },
    "cli-mtx": {
        "cli.main", "mmio.read_matrix_market", "mmio.write_matrix_market",
        "results.Trace.write_csv", "gallery.row_sum_rhs",
    },
}
BUILD_CLAIMS = {"centering-small": {"gallery.make", "gallery.row_sum_rhs"}}
SEED = 3


def _bindings():
    """Every attribute of every trisolve module and of the traced classes."""
    holders = [m for n, m in sys.modules.items()
               if m is not None and (n == "trisolve" or n.startswith("trisolve."))]
    holders += [trisolve.HOperator, trisolve.GramProduct, trisolve.Trace]
    return {(id(h), key): value for h in holders for key, value in list(vars(h).items())}


def _fingerprint(problem, inst, raw):
    res = problem.collect(inst, raw)
    return res.status, res.iterations, np.asarray(res.x).tobytes()


def test_claims_cover_every_wrapped_name():
    claimed = set().union(*CLAIMS.values(), *BUILD_CLAIMS.values())
    assert claimed == set(SPAN_NAMES)


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_traced_solves_are_bit_identical_and_claimed_names_are_called(name, tmp_path):
    problems = workload(name, lambda: str(tmp_path))
    before = _bindings()
    tracer = Tracer()
    with tracer:
        instances = [p.build(SEED) for p in problems]
    seen_in_build = {s[3] for s in tracer.spans}
    tracer.clear()
    for inst in instances:
        if "rho_of_ref" in inst.args:
            inst.args["rho"] = inst.args["rho_of_ref"] * reference(inst.a, inst.b).norm

    plain = [_fingerprint(p, inst, p.solve(inst)) for p, inst in zip(problems, instances)]
    with tracer:
        traced = [_fingerprint(p, inst, p.solve(inst)) for p, inst in zip(problems, instances)]
    after = _bindings()

    assert traced == plain
    seen = {s[3] for s in tracer.spans}
    assert CLAIMS[name] <= seen, CLAIMS[name] - seen
    assert BUILD_CLAIMS.get(name, set()) <= seen_in_build
    for span in tracer.spans:
        duration, self_ns = span[5] - span[4], span[6]
        assert 0 <= self_ns <= duration
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_install_is_refused_twice_and_leaves_no_wrapper_behind():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert trisolve.linalg.matvec is not before[(id(trisolve.linalg), "matvec")]
        assert trisolve.centering.matvec is trisolve.linalg.matvec
        with pytest.raises(RuntimeError):
            Tracer().install()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
