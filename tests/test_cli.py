import csv
import json

import jsonschema
import numpy as np

from trisolve import mmio
from trisolve.cli import SUMMARY_SCHEMA, main


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

    def test_iteration_cap_exit_code(self):
        rc = run(["solve", "--gen", "dorr:120:0.001", "--algo", "cta",
                  "--eps", "1e-14", "--max-iters", "5"])
        assert rc == 3

    def test_usage_error_exit_code(self, capsys):
        assert run(["solve"]) == 1
        assert run(["solve", "--gen", "nosuch:5"]) == 1
        assert run(["solve", "--gen", "diag-pd"]) == 1
        assert run(["solve", "--gen", "diag-pd:5", "--algo", "ta", "--eps", "0"]) == 1
        assert "eps must be finite and positive" in capsys.readouterr().err

    def test_min_norm_flag(self, tmp_path):
        summary = tmp_path / "s.json"
        rc = run(["solve", "--gen", "diag-pd:30", "--algo", "hybrid",
                  "--eps", "1e-6", "--min-norm", "--summary", str(summary)])
        assert rc == 0
        data = json.loads(summary.read_text())
        assert data["outcome"] in ("min_norm_solution", "approx_solution")


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


class TestGenerate:
    def test_roundtrip(self, tmp_path):
        out = tmp_path / "dorr.mtx"
        assert run(["generate", "--gen", "dorr:12:0.1", "--out", str(out)]) == 0
        a = mmio.read_matrix_market(out)
        assert a.shape == (12, 12)

    def test_bad_spec(self, capsys):
        assert run(["generate", "--gen", "diag-pd", "--out", "x.mtx"]) == 1


class TestBench:
    def test_rows_and_monotone_iterations(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = run([
            "bench", "--gen", "diag-pd:100", "--gen", "diag-pd:500",
            "--gen", "diag-pd:1000", "--algo", "cta", "--eps", "1e-8",
            "--h-mode", "a", "--trials", "1", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        iters = [int(r["iterations"]) for r in rows]
        sizes = [int(r["n"]) for r in rows]
        assert sizes == [100, 500, 1000]
        assert iters[0] <= iters[1] <= iters[2]
        assert all(r["outcome"] == "approx_solution" for r in rows)

    def test_empty_config_rejected(self):
        assert run(["bench"]) == 1

    def test_same_seed_identical_iteration_counts(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            rc = run(["bench", "--gen", "clement:64", "--algo", "cta",
                      "--eps", "1e-8", "--trials", "1", "--seed", "5",
                      "--out", str(out)])
            assert rc == 0
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            outs.append([(r["family"], r["iterations"], r["outcome"]) for r in rows])
        assert outs[0] == outs[1]

    def test_individual_failure_recorded_not_fatal(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = run(["bench", "--gen", "diag-indef:2", "--gen", "diag-pd:20",
                  "--algo", "cta", "--eps", "1e-6", "--trials", "1",
                  "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["outcome"].startswith("error:")
        assert rows[1]["outcome"] == "approx_solution"


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
        assert run(["dynamics", "--lambda", "0,3"]) == 1

    def test_deterministic_output(self, tmp_path):
        texts = []
        for tag in ("a", "b"):
            svg = tmp_path / f"{tag}.svg"
            trace = tmp_path / f"{tag}.csv"
            assert run(["dynamics", "--lambda", "2,5", "--steps", "8",
                        "--svg", str(svg), "--trace", str(trace)]) == 0
            texts.append((svg.read_text(), trace.read_text()))
        assert texts[0] == texts[1]


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
