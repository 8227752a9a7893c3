"""Start-up cost: ``import trisolve`` and work on dense input load no part of
scipy, which only the first sparse input imports.  Each check runs in a
fresh interpreter, where no earlier import can hide a load."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

# Prints one line per step: "step", then a JSON list of the step's name and
# the scipy modules it loaded.  argv[1] is a scratch directory.
_DENSE_STEPS = """
import json
import os
import sys


def scipy_modules():
    return {name for name in sys.modules if name == "scipy" or name.startswith("scipy.")}


def step(name, run):
    before = scipy_modules()
    run()
    print("step", json.dumps([name, sorted(scipy_modules() - before)]))


step("import trisolve", lambda: __import__("trisolve"))
import numpy as np
from trisolve import (CenteringOptions, centering_solve, hybrid_solve, min_norm_solve,
                      nonnegative_feasibility, solve_adaptive, solve_in_ball)

a, b = np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([2.0, 1.0])
step("centering_solve", lambda: centering_solve(a, b, CenteringOptions(epsilon=1e-10)))
step("solve_in_ball", lambda: solve_in_ball(a, b, rho=10.0, eps=1e-10))
step("solve_adaptive", lambda: solve_adaptive(a, b, eps=1e-10))
step("min_norm_solve", lambda: min_norm_solve(a, b, eps=1e-6, x_eps=[1.0, 1.0]))
step("nonnegative_feasibility", lambda: nonnegative_feasibility(a, b, eps=1e-10))
step("hybrid_solve", lambda: hybrid_solve(a, b))


def cli_solve():
    from trisolve import cli
    x = os.path.join(sys.argv[1], "x.mtx")
    assert cli.main(["solve", "--gen", "gram-psd:40", "--eps", "1e-8", "--dump-x", x]) == 0


def mtx_round_trip():
    from trisolve import mmio
    path = os.path.join(sys.argv[1], "a.mtx")
    mmio.write_matrix_market(np.arange(6.0).reshape(2, 3), path)
    a = mmio.read_matrix_market(path)
    assert isinstance(a, np.ndarray) and a.shape == (2, 3)
    mmio.write_matrix_market(a, path)


step("cli solve --gen gram-psd:40 --dump-x", cli_solve)
step("array .mtx read and write", mtx_round_trip)
"""

# Six sparse solves, one per driver, on a matrix that scipy builds after
# trisolve is imported; prints the bytes of each x.
_SPARSE_SOLVES = """
import trisolve
import numpy as np
import scipy.sparse as sparse
from trisolve import (CenteringOptions, centering_solve, hybrid_solve, min_norm_solve,
                      nonnegative_feasibility, solve_adaptive, solve_in_ball)

rng = np.random.default_rng(5)
a = sparse.csr_array(rng.standard_normal((12, 8)) * (rng.random((12, 8)) < 0.4))
ones = np.ones(8)
b = a @ ones
solves = {
    "centering_solve": lambda: centering_solve(a, b, CenteringOptions(epsilon=1e-10)),
    "solve_in_ball": lambda: solve_in_ball(a, b, rho=10.0, eps=1e-8),
    "solve_adaptive": lambda: solve_adaptive(a, b, eps=1e-8),
    "min_norm_solve": lambda: min_norm_solve(a, b, eps=1e-4, x_eps=ones),
    "nonnegative_feasibility": lambda: nonnegative_feasibility(a, b, eps=1e-8),
    "hybrid_solve": lambda: hybrid_solve(a, b),
}
for name, solve in solves.items():
    res = solve()
    print(name, res.status, res.iterations, res.x.tobytes().hex())
"""

_STEPS = [
    "import trisolve", "centering_solve", "solve_in_ball", "solve_adaptive",
    "min_norm_solve", "nonnegative_feasibility", "hybrid_solve",
    "cli solve --gen gram-psd:40 --dump-x", "array .mtx read and write",
]


def _fresh_python(script, *args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def dense_steps(tmp_path_factory):
    out = _fresh_python(_DENSE_STEPS, str(tmp_path_factory.mktemp("startup")))
    return dict(json.loads(line[5:]) for line in out.splitlines() if line.startswith("step "))


def test_every_dense_step_ran(dense_steps):
    assert list(dense_steps) == _STEPS


@pytest.mark.parametrize("step", _STEPS)
def test_dense_step_loads_no_scipy(dense_steps, step):
    assert dense_steps[step] == []


def test_sparse_solve_after_a_late_scipy_import_keeps_its_bits(capsys):
    fresh = _fresh_python(_SPARSE_SOLVES)
    exec(_SPARSE_SOLVES, {})
    assert fresh == capsys.readouterr().out
    assert len(fresh.splitlines()) == 6
