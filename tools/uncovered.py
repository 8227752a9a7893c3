#!/usr/bin/env python3
"""List every statement of ``src/trisolve`` that the tier-1 tests never run.

    python3 tools/uncovered.py [pytest arguments]

Runs pytest in this process (by default on ``tests`` and ``perfbench``, the
tier-1 suite) under ``sys.settrace`` and prints one ``path:line: statement``
per statement that no test executed, then a count.  Extra arguments go to
pytest in place of the default paths.  It exits with pytest's status.

A statement counts as run when the interpreter reported any of the lines
that compile to its own code (a compound statement's header, not its body).
Code that runs only in a subprocess, such as the scripts that
``conftest.fresh_python`` starts or a ``python -m trisolve.cli`` call, is not
seen: a statement reached only there is listed as never run.  Tracing makes
the suite several times slower than without it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "trisolve")


def _statement_lines(path: str) -> dict[int, int]:
    """Map each line that compiles to code to the first line of the
    innermost statement it belongs to.  A ``def`` or ``class`` header is not
    a statement here: its body's statements say whether it ran."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    owner: dict[int, int | None] = {}

    def claim(node):
        # outer statements first, so an inner one overrides the lines it spans
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                definition = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                ast.ClassDef))
                first = min([child.lineno] + [d.lineno for d in
                                              getattr(child, "decorator_list", [])])
                for line in range(first, child.end_lineno + 1):
                    owner[line] = None if definition else first
            claim(child)

    claim(ast.parse(source, path))
    code_lines = set()
    pending = [compile(source, path, "exec")]
    while pending:
        code = pending.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return {line: owner[line] for line in code_lines if owner.get(line) is not None}


def main(argv: list[str]) -> int:
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PACKAGE):
            return None
        hits.setdefault(filename, set())
        return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    import pytest  # noqa: E402  before tracing: only the package is traced

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or ["tests", "perfbench"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        run = hits.get(path, set())
        statements: dict[int, bool] = {}
        for line, first in _statement_lines(path).items():
            statements[first] = statements.get(first, False) or line in run
        for first in sorted(line for line, seen in statements.items() if not seen):
            print(f"{os.path.relpath(path, ROOT)}:{first}: {text[first - 1].strip()}")
            missed += 1
    print(f"{missed} statements never run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
