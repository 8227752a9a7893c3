import csv
import json

import jsonschema
import numpy as np
import pytest

import trisolve
from trisolve import cli, mmio
from trisolve.centering import CenteringOptions
from trisolve.cli import SUMMARY_SCHEMA, main
from trisolve.hybrid import HybridOptions
from trisolve.results import SolveResult, Trace


def run(args):
    return main(args)


def read_trace_without_wall(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    drop = [i for i, name in enumerate(header) if name == "wall_ns"]
    return [
        [v for i, v in enumerate(row) if i not in drop]
        for row in rows
    ]


class TestSolve:
    def test_generated_pd_solve_summary(self, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        rc = run([
            "solve", "--gen", "diag-pd:1000", "--algo", "cta", "--eps", "1e-10",
            "--h-mode", "a", "--summary", str(summary_path),
        ])
        assert rc == 0
        summary = json.loads(summary_path.read_text())
        jsonschema.validate(summary, SUMMARY_SCHEMA)
        assert summary["outcome"] == "approx_solution"
        assert summary["final_relative_residual"] <= 1e-10
        assert summary["matrix"] == {"m": 1000, "n": 1000, "nnz": 1000,
                                     "family": "diag-pd"}

    def test_dumped_solution_reverifies(self, tmp_path):
        x_path = tmp_path / "x.mtx"
        summary_path = tmp_path / "s.json"
        rc = run([
            "solve", "--gen", "clement:40", "--eps", "1e-9",
            "--summary", str(summary_path), "--dump-x", str(x_path),
        ])
        assert rc == 0
        from trisolve import gallery
        a = gallery.gen_clement(40)
        b = gallery.row_sum_rhs(a)
        x = mmio.read_matrix_market(x_path).ravel()
        summary = json.loads(summary_path.read_text())
        recomputed = float(np.linalg.norm(b - a @ x))
        assert np.isclose(recomputed, summary["final_residual_norm"], rtol=1e-9)
        assert recomputed <= 1e-9 * np.linalg.norm(b) * (1 + 1e-9)

    def test_missing_matrix_file(self, capsys):
        assert run(["solve", "--mtx", "does-not-exist.mtx"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_matrix_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 oops\n")
        assert run(["solve", "--mtx", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err and "'oops'" in err

    def test_mtx_source(self, tmp_path):
        from trisolve import gallery
        path = tmp_path / "m.mtx"
        mmio.write_matrix_market(gallery.gen_poisson2d(4), path)
        assert run(["solve", "--mtx", str(path), "--eps", "1e-8"]) == 0

    def test_cone_stall_maps_to_exit_two(self, tmp_path):
        # all-negative matrix with its row-sum b: x = (1, 1) >= 0 solves it.
        # Once the iterate overshoots, c+ = 0 while (b - b')^T b < 0, which
        # certifies nothing; the apex pivot carries the search on.  A radius
        # budget below the first jump ends inconclusive instead.
        import scipy.sparse as sp
        a = np.array([[-1.0, -2.0], [-3.0, -0.5]])
        path = tmp_path / "neg.mtx"
        mmio.write_matrix_market(sp.csr_array(a), path)
        args = ["solve", "--mtx", str(path), "--algo", "lpfeas", "--eps", "1e-6"]
        assert run(args) == 0
        assert run(args + ["--rho-max", "1e-6"]) == 2

    def test_sign_row_witness_exits_two(self, tmp_path, monkeypatch):
        # row sums never give a sign row (a nonpositive row sums to at most
        # 0), so b is replaced by their absolute values: row 0 is then
        # nonpositive with b_0 = 3 > 0, and the solve ends before any pivot
        import scipy.sparse as sp
        from trisolve import gallery
        path, summary, trace = (tmp_path / name for name in ("neg.mtx", "s.json", "t.csv"))
        mmio.write_matrix_market(sp.csr_array(np.array([[-1.0, -2.0], [3.0, 0.5]])), path)
        row_sums = gallery.row_sum_rhs
        monkeypatch.setattr(gallery, "row_sum_rhs", lambda a: np.abs(row_sums(a)))
        rc = run(["solve", "--mtx", str(path), "--algo", "lpfeas", "--summary", str(summary),
                  "--trace", str(trace)])
        assert rc == 2
        data = json.loads(summary.read_text())
        jsonschema.validate(data, SUMMARY_SCHEMA)
        assert data["outcome"] == "witness" and data["iterations"] == 0
        assert read_trace_without_wall(trace) == [["iter", "rho", "residual_norm",
                                                   "normal_residual_norm", "event",
                                                   "min_x_entry"]]

    def test_iteration_cap_exit_code(self):
        rc = run(["solve", "--gen", "dorr:120:0.001", "--algo", "cta",
                  "--eps", "1e-14", "--max-iters", "5"])
        assert rc == 3

    def test_usage_error_exit_code(self, capsys):
        assert run(["solve"]) == 1
        assert run(["bench", "--gen", "diag-pd:5"]) == 1
        assert run(["solve", "--gen", "nosuch:5"]) == 1
        assert run(["solve", "--gen", "diag-pd"]) == 1
        assert run(["solve", "--gen", "diag-pd:5", "--algo", "ta", "--eps", "0"]) == 1
        assert "eps must be finite and positive" in capsys.readouterr().err
        for argv, message in [
            (["solve", "--gen", "clement:x"], "'clement:x': N must be an integer"),
            (["solve", "--gen", "dorr:10:a"], "'dorr:10:a': bad parameter list"),
            (["solve", "--gen", "diag-pd:5", "--gen", "diag-pd:6"],
             "solve takes exactly one --gen spec"),
            (["solve", "--gen", "clement:5:3,4"], "clement takes at most 0 parameters, got 2"),
            (["solve", "--gen", "dorr:10:0.1:5"], "must look like FAMILY:N[:PARAMS]"),
            (["solve", "--gen", "dorr:10:nan"], "theta must be finite and positive"),
        ]:
            assert run(argv) == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("status, code", [
        (trisolve.APPROX_SOLUTION, 0), (trisolve.NORMAL_EQ_SOLUTION, 0),
        (trisolve.MIN_NORM_SOLUTION, 0), (trisolve.FEASIBLE, 0), (trisolve.WITNESS, 2),
        (trisolve.INCONCLUSIVE, 2), (trisolve.ITERATION_CAP, 3),
        (trisolve.NUMERICAL_FAILURE, 3)])
    def test_exit_code_by_status(self, status, code, monkeypatch):
        result = SolveResult(status, np.zeros(3), 0.0, 0.0, 0, Trace(()))
        monkeypatch.setattr(cli, "_run_algorithm", lambda matrix, b, args: result)
        assert run(["solve", "--gen", "diag-pd:3"]) == code

    def test_centering_defaults_come_from_centering_options(self):
        args = cli._build_parser().parse_args(["solve", "--gen", "diag-pd:3"])
        hybrid = HybridOptions()
        owner = CenteringOptions()
        assert (args.t_max, args.h_mode, args.max_iters) == (
            owner.t_max, owner.h_mode, owner.max_iters)
        assert (hybrid.t_max, hybrid.h_mode, hybrid.max_iters_stage1) == (
            owner.t_max, owner.h_mode, owner.max_iters)

    @pytest.mark.parametrize("algo", ["cta", "ta", "hybrid", "lpfeas"])
    def test_zero_rhs_writes_every_artifact(self, tmp_path, algo):
        # the Neumann Laplacian has zero row sums, so b = 0
        paths = {flag: tmp_path / name for flag, name in
                 [("--summary", "s.json"), ("--trace", "t.csv"), ("--dump-x", "x.mtx")]}
        args = ["solve", "--gen", "poisson-n:10", "--algo", algo]
        for flag, path in paths.items():
            args += [flag, str(path)]
        assert run(args) == 0
        summary = json.loads(paths["--summary"].read_text())
        jsonschema.validate(summary, SUMMARY_SCHEMA)
        assert summary["iterations"] == 0
        assert paths["--trace"].exists()
        assert not mmio.read_matrix_market(paths["--dump-x"]).any()

    @pytest.mark.parametrize("algo", ["cta", "hybrid"])
    def test_symmetric_mode_needs_square_input(self, tmp_path, capsys, algo):
        path = tmp_path / "rect.mtx"
        mmio.write_matrix_market(np.arange(1.0, 7.0).reshape(3, 2), path)
        assert run(["solve", "--mtx", str(path), "--algo", algo, "--h-mode", "a"]) == 1
        assert "h_mode 'a' needs a square matrix, got 3 x 2" in capsys.readouterr().err

    def test_min_norm_flag(self, tmp_path):
        summary = tmp_path / "s.json"
        rc = run(["solve", "--gen", "diag-pd:30", "--algo", "hybrid",
                  "--eps", "1e-6", "--min-norm", "--summary", str(summary)])
        assert rc == 0
        data = json.loads(summary.read_text())
        assert data["outcome"] == "min_norm_solution"

    @pytest.mark.parametrize("flag, algo, needed", [
        ("--min-norm", "cta", "hybrid"), ("--known-solvable", "hybrid", "cta"),
        ("--rho-max 5", "cta", "lpfeas"), ("--rho-max 5", "ta", "lpfeas"),
        ("--rho-max 5", "hybrid", "lpfeas"), ("--eps-prime 1e-3", "cta", "ta or hybrid"),
        ("--eps-prime 1e-3", "lpfeas", "ta or hybrid")])
    def test_flags_the_algorithm_would_drop_are_refused(self, flag, algo, needed, capsys):
        assert run(["solve", "--gen", "diag-pd:30", "--algo", algo, *flag.split()]) == 1
        name = flag.split()[0]
        assert f"error: {name} needs --algo {needed}, got --algo {algo}" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["ta", "hybrid"])
    def test_eps_prime_is_taken_where_it_is_read(self, algo):
        assert run(["solve", "--gen", "diag-pd:30", "--algo", algo, "--eps-prime", "1e-3"]) == 0


class TestDeterminism:
    def test_identical_runs_identical_artifacts(self, tmp_path):
        results = []
        for tag in ("one", "two"):
            trace = tmp_path / f"{tag}.csv"
            summary = tmp_path / f"{tag}.json"
            rc = run([
                "solve", "--gen", "diag-psd:60", "--algo", "cta", "--eps", "1e-9",
                "--seed", "7", "--trace", str(trace), "--summary", str(summary),
            ])
            assert rc == 0
            data = json.loads(summary.read_text())
            results.append({
                "outcome": data["outcome"],
                "iterations": data["iterations"],
                "residual": data["final_residual_norm"],
                "trace": read_trace_without_wall(trace),
            })
        assert results[0] == results[1]

    def test_successive_calls_do_not_share_arguments(self, tmp_path):
        # the parser is built once per process; --gen is an "append" action,
        # so a list carried over from one call would make the next one fail
        def solve(tag, spec, algo):
            summary = tmp_path / f"{tag}.json"
            rc = run(["solve", "--gen", spec, "--algo", algo, "--eps", "1e-8",
                      "--summary", str(summary)])
            data = json.loads(summary.read_text())
            del data["wall_ms"]
            return rc, data

        first = solve("first", "clement:31", "ta")
        other = solve("other", "diag-pd:40", "cta")
        again = solve("again", "clement:31", "ta")
        assert first == again
        assert first[1]["matrix"] == {"m": 31, "n": 31, "nnz": 60, "family": "clement"}
        assert other[1]["matrix"] == {"m": 40, "n": 40, "nnz": 40, "family": "diag-pd"}


class TestGenerate:
    def test_roundtrip(self, tmp_path):
        out = tmp_path / "dorr.mtx"
        assert run(["generate", "--gen", "dorr:12:0.1", "--out", str(out)]) == 0
        a = mmio.read_matrix_market(out)
        assert a.shape == (12, 12)

    def test_bad_spec(self, capsys):
        assert run(["generate", "--gen", "diag-pd", "--out", "x.mtx"]) == 1
        capsys.readouterr()
        for argv, message in [
            (["--gen", "diag-pd:5", "--gen", "diag-pd:6"], "generate takes exactly one --gen spec"),
            (["--gen", "dorr:10:nan"], "theta must be finite and positive, got nan"),
            (["--gen", "ode:6:0.5,inf"], "h must be finite and positive, got inf"),
            (["--gen", "ode:3:0.5,1e308"], "h = 1e+308 overflows or underflows the matrix"),
            (["--gen", "ode:3:0.5,1e154"], "h = 1e+154 overflows or underflows the matrix"),
            (["--gen", "diag-pd:5", "--seed", "-1"],
             "seed must be an integer of at least 0, got -1"),
            (["--gen", "clement:5", "--seed", "-1"],
             "seed must be an integer of at least 0, got -1"),
            (["--gen", "clement:1"], "n must be an integer of at least 2, got 1"),
            (["--gen", "ode:6:1.5"], "gamma must lie in (0, 1), got 1.5"),
        ]:
            assert run(["generate", *argv, "--out", "x.mtx"]) == 1
            assert message in capsys.readouterr().err


class TestDynamicsCommand:
    def test_emits_svg_and_csv(self, tmp_path):
        svg = tmp_path / "p.svg"
        trace = tmp_path / "p.csv"
        rc = run(["dynamics", "--lambda", "1,3", "--steps", "30",
                  "--svg", str(svg), "--trace", str(trace)])
        assert rc == 0
        assert svg.read_text().startswith("<svg")
        assert trace.read_text().splitlines()[0] == "start_id,step,x,y,norm"

    def test_bad_lambda(self, capsys):
        assert run(["dynamics", "--lambda", "1"]) == 1
        for eigs in ("0,3", "nan,3", "3,inf"):
            assert run(["dynamics", "--lambda", eigs]) == 1
            assert "needs two positive eigenvalues" in capsys.readouterr().err
        assert run(["dynamics", "--lambda", "a,b"]) == 1
        assert "bad eigenvalue list 'a,b'" in capsys.readouterr().err

    def test_bad_counts(self, tmp_path, capsys):
        for argv, message in [
            (["--steps", "-1"], "steps must be an integer of at least 0, got -1"),
            (["--starts", "0"], "num_starts must be an integer of at least 1, got 0"),
        ]:
            svg = tmp_path / "p.svg"
            assert run(["dynamics", *argv, "--svg", str(svg),
                        "--trace", str(tmp_path / "p.csv")]) == 1
            assert message in capsys.readouterr().err
            assert not svg.exists()

    def test_deterministic_output(self, tmp_path):
        texts = []
        for tag in ("a", "b"):
            svg = tmp_path / f"{tag}.svg"
            trace = tmp_path / f"{tag}.csv"
            assert run(["dynamics", "--lambda", "2,5", "--steps", "8",
                        "--svg", str(svg), "--trace", str(trace)]) == 0
            texts.append((svg.read_text(), trace.read_text()))
        assert texts[0] == texts[1]


@pytest.mark.parametrize("command", ["solve", "generate"])
def test_memory_error_is_a_usage_error(command, monkeypatch, capsys):
    message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"

    def make(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli.gallery, "make", make)
    out = ["--out", "x.mtx"] if command == "generate" else []
    assert run([command, "--gen", "lotkin:100000", *out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
