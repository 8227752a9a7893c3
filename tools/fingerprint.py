#!/usr/bin/env python3
"""Fingerprint the benchmark's solves: "same bits" as one command.

    python3 tools/fingerprint.py --seeds 7 31 --out FINGERPRINT.json
    python3 tools/fingerprint.py --check FINGERPRINT.json

The first form solves every problem of every ``perfbench`` workload once per
seed, untimed, and writes one row per solve: its status, iterations, trace
length, a SHA-1 of ``x`` and of the dual vector ``y``, both residual norms,
``rho_interval`` and ``lower_bound``.  The file also records what the bits
depend on (numpy, scipy, the BLAS build and thread count, the CPU), and
holds one row per line, so a diff of two fingerprints shows which solves
moved.

The second form solves the same problems at the file's seeds and prints every
row that differs.  Statuses, iterations and trace lengths are always
compared; hashes and norms only when the recorded provenance matches this
host's, since the bits of dense products change with the BLAS build.  It
exits with status 1 when a compared field differs.

Run from anywhere; the package and the benchmark's problem list are imported
from this checkout.  BLAS is pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

# compared on every host; the rest of a row only where provenance matches
_ALWAYS = ("status", "iterations", "trace_rows")
_KEYS = ("seed", "workload", "problem")


def host() -> dict:
    import scipy
    from provenance import blas, cpu_model

    version, threads = blas()
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": version,
            "blas_threads": threads, "cpu": cpu_model()}


def _sha1(v) -> str | None:
    if v is None:
        return None
    return hashlib.sha1(np.ascontiguousarray(v, dtype=np.float64).tobytes()).hexdigest()


def _float(v):
    return None if v is None else float(v)


def fingerprint(seeds) -> list[dict]:
    from oracle import reference
    from run import WORKLOAD_NAMES
    from workloads import workload

    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            for name in WORKLOAD_NAMES:
                for problem in workload(name, lambda: workdir):
                    inst = problem.build(seed)
                    if "rho_of_ref" in inst.args:
                        inst.args["rho"] = (inst.args["rho_of_ref"]
                                            * reference(inst.a, inst.b).norm)
                    res = problem.collect(inst, problem.solve(inst))
                    interval = getattr(res, "rho_interval", None)
                    rows.append({
                        "seed": seed, "workload": name, "problem": problem.label,
                        "status": res.status, "iterations": int(res.iterations),
                        "trace_rows": None if res.trace is None else len(res.trace),
                        "x_sha1": _sha1(res.x),
                        "y_sha1": _sha1(getattr(res, "y", None)),
                        "residual_norm": _float(res.residual_norm),
                        "normal_residual_norm": _float(res.normal_residual_norm),
                        "rho_interval": None if interval is None else list(map(float, interval)),
                        "lower_bound": _float(res.lower_bound),
                    })
    return rows


def write(path: str, seeds, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"provenance": %s,\n "seeds": %s,\n "rows": [\n'
                 % (json.dumps(host()), json.dumps(list(seeds))))
        fh.write(",\n".join("  " + json.dumps(row) for row in rows))
        fh.write("\n ]}\n")


def check(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        recorded = json.load(fh)
    here = host()
    same_host = recorded["provenance"] == here
    if not same_host:
        print(f"provenance differs, comparing {', '.join(_ALWAYS)} only:\n"
              f"  recorded {recorded['provenance']}\n  here     {here}")
    old = {tuple(row[k] for k in _KEYS): row for row in recorded["rows"]}
    new = {tuple(row[k] for k in _KEYS): row for row in fingerprint(recorded["seeds"])}
    differing = 0
    for key in sorted(old.keys() | new.keys(), key=str):
        if key not in old or key not in new:
            print(f"{key}: only in the {'recorded' if key in old else 'new'} fingerprint")
            differing += 1
            continue
        fields = [f for f in old[key] if f not in _KEYS and (same_host or f in _ALWAYS)]
        moved = [f"{f} {old[key][f]!r} -> {new[key][f]!r}"
                 for f in fields if old[key][f] != new[key][f]]
        if moved:
            print(f"{key}: " + "; ".join(moved))
            differing += 1
    print(f"{differing} of {len(old)} rows differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write a fingerprint to this file")
    mode.add_argument("--check", metavar="FILE", help="compare this checkout with FILE")
    p.add_argument("--seeds", type=int, nargs="+", default=[7, 31])
    args = p.parse_args(argv)
    if args.check:
        return check(args.check)
    write(args.out, args.seeds, fingerprint(args.seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
