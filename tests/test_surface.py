"""The stable surfaces, pinned: the public names, the ``solve`` flags, the
option and result fields, the driver parameters and the centering step's
holders.  A new knob or a removed name shows up here as a one-line diff.
Three rules of the layout are pinned too: which modules read the clock,
that no module edits a finished result, and that one function names scipy's
private sparse kernels."""

import argparse
import ast
import dataclasses
import inspect
from pathlib import Path

import trisolve
from trisolve import centering, cli


def test_public_names():
    assert trisolve.__all__ == [
        "APPROX_SOLUTION", "FEASIBLE", "INCONCLUSIVE", "ITERATION_CAP",
        "MIN_NORM_SOLUTION", "NORMAL_EQ_SOLUTION", "NUMERICAL_FAILURE", "WITNESS",
        "SolveResult", "Trace", "HOperator", "GramProduct", "matvec",
        "matvec_transpose", "norm2", "CenteringOptions", "centering_solve",
        "solve_in_ball", "solve_adaptive", "min_norm_solve",
        "nonnegative_feasibility", "HybridOptions", "hybrid_solve", "dynamics",
        "gallery", "mmio",
    ]


def test_solve_flags():
    parser = cli._build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert list(commands) == ["solve", "generate", "dynamics"]
    flags = [flag for action in commands["solve"]._actions for flag in action.option_strings]
    assert flags == [
        "-h", "--help", "--mtx", "--gen", "--algo", "--eps", "--eps-prime",
        "--t-max", "--max-iters", "--h-mode", "--seed", "--rho-max", "--min-norm",
        "--known-solvable", "--trace", "--summary", "--dump-x",
    ]


def test_option_fields():
    def names(options):
        return [field.name for field in dataclasses.fields(options)]

    assert names(trisolve.CenteringOptions) == [
        "epsilon", "t_max", "max_iters", "h_mode", "known_solvable"]
    assert names(trisolve.HybridOptions) == [
        "eps_cta", "eps_ta", "want_min_norm", "t_max", "h_mode",
        "max_iters_stage1", "max_iters_stage2", "min_norm_inner_cap"]


def test_result_fields():
    assert [field.name for field in dataclasses.fields(trisolve.SolveResult)] == [
        "status", "x", "residual_norm", "normal_residual_norm", "iterations", "trace",
        "rho", "lower_bound", "rho_interval", "y", "detail", "stage_results"]


def test_driver_parameters():
    parameters = {name: list(inspect.signature(getattr(trisolve, name)).parameters)
                  for name in ("centering_solve", "solve_in_ball", "solve_adaptive",
                               "min_norm_solve", "nonnegative_feasibility", "hybrid_solve")}
    assert parameters == {
        "centering_solve": ["a", "b", "options"],
        "solve_in_ball": ["a", "b", "rho", "eps", "max_iters"],
        "solve_adaptive": ["a", "b", "eps", "eps_prime", "max_iters", "x0"],
        "min_norm_solve": ["a", "b", "eps", "x_eps", "inner_cap", "max_iters", "y"],
        "nonnegative_feasibility": ["a", "b", "eps", "rho_max", "max_iters"],
        "hybrid_solve": ["a", "b", "options"],
    }


def test_module_products_take_no_buffer():
    # HOperator.apply_with_transpose is the one product that writes into a
    # caller's buffer
    for name in ("matvec", "matvec_transpose"):
        assert list(inspect.signature(getattr(trisolve, name)).parameters) == ["a", "v"]


def test_centering_step_holders():
    # a step's vectors live in Moments.block alone, and the step on separate
    # x and r measures ||r|| itself
    assert [field.name for field in dataclasses.fields(centering.Moments)] == [
        "t", "phi", "block"]
    assert list(inspect.signature(centering._step_arrays).parameters) == ["x", "r", "t", "h"]


def test_only_the_trace_and_the_cli_read_the_clock():
    # results.Trace stamps every trace row; the CLI times the whole solve
    importers = set()
    for path in sorted(Path(trisolve.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "time" in modules:
                importers.add(path.name)
    assert importers == {"results.py", "cli.py"}


def test_no_module_edits_a_finished_result():
    # every result is built once, by System.finish or System.zero_rhs, and
    # returned as built: no driver rewrites one with dataclasses.replace
    editors = set()
    for path in sorted(Path(trisolve.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                if any(alias.name == "replace" for alias in node.names):
                    editors.add(path.name)
            elif (isinstance(node, ast.Attribute) and node.attr == "replace"
                  and isinstance(node.value, ast.Name) and node.value.id == "dataclasses"):
                editors.add(path.name)
    assert editors == set()


def _names_sparsetools(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return "_sparsetools" in (node.module or "")
    if isinstance(node, ast.Import):
        return any("_sparsetools" in alias.name for alias in node.names)
    if isinstance(node, ast.Attribute):
        return node.attr == "_sparsetools"
    if isinstance(node, ast.Name):
        return node.id == "_sparsetools"
    return isinstance(node, ast.Constant) and "_sparsetools" in str(node.value)


def test_only_scipy_sparse_names_the_private_kernels():
    # scipy's private _sparsetools is reached through linalg.scipy_sparse
    # alone, so every product that binds its kernels, a Gram-mode H's
    # included, gets scipy_sparse's fallback on a scipy without that module
    named = inside = 0
    for path in sorted(Path(trisolve.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named += sum(map(_names_sparsetools, ast.walk(tree)))
        for node in ast.walk(tree):
            if (path.name == "linalg.py" and isinstance(node, ast.FunctionDef)
                    and node.name == "scipy_sparse"):
                inside += sum(map(_names_sparsetools, ast.walk(node)))
    assert named == inside > 0
