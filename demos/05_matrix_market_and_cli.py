#!/usr/bin/env python3
"""Matrix Market files and the command-line surface.

Everything the library does is reachable from the `trisolve` command; this
script drives it in-process.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from trisolve import gallery, mmio
from trisolve.cli import main

with tempfile.TemporaryDirectory(prefix="trisolve-demo-") as tmp:
    workdir = Path(tmp)
    print(f"working in {workdir}\n")

    print("=== write a generated family to Matrix Market, read it back ===")
    a = gallery.gen_dorr(20, 0.05)
    path = workdir / "dorr20.mtx"
    mmio.write_matrix_market(a, path)
    back = mmio.read_matrix_market(path)
    print(f"{path.name}: {back.shape[0]} x {back.shape[1]}, {back.nnz} entries, "
          f"bit-identical round trip: {(back != a).nnz == 0}\n")

    print("=== the same via the CLI, plus a solve with a saved summary ===")
    main(["generate", "--gen", "poisson-d:6", "--out", str(workdir / "poisson36.mtx")])
    rc = main([
        "solve", "--mtx", str(workdir / "poisson36.mtx"), "--algo", "cta",
        "--eps", "1e-11", "--h-mode", "a",
        "--summary", str(workdir / "summary.json"),
        "--trace", str(workdir / "trace.csv"),
        "--dump-x", str(workdir / "x.mtx"),
    ])
    summary = json.loads((workdir / "summary.json").read_text())
    print(f"exit code {rc}; outcome {summary['outcome']} in "
          f"{summary['iterations']} iterations\n")

    print("=== re-verify the saved solution against the saved matrix ===")
    a = mmio.read_matrix_market(workdir / "poisson36.mtx")
    x = mmio.read_matrix_market(workdir / "x.mtx").ravel()
    b = gallery.row_sum_rhs(a)
    print(f"recomputed ||b - Ax|| = {np.linalg.norm(b - a @ x):.3e} "
          f"(summary said {summary['final_residual_norm']:.3e})\n")
