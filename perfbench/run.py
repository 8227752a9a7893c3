#!/usr/bin/env python3
"""trisolve benchmark: one closed-loop client per workload, end-to-end
metrics from an untraced run, per-layer metrics from a traced one.

    python3 perfbench/run.py --workload centering-small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root; the package is imported from ``src/``.  Each
workload runs in a process of its own (``all`` starts one process per
workload, one after another).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  Everything else printed is context: provenance, one row per
problem, the metric table and the raw wall-clock values.  A full record, and
the spans of a traced run, go to ``perfbench/out/``.

End-to-end times are scaled to a reference machine speed measured next to
every solve (see ``calibrate.py``); per-layer times are raw.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the benchmark is a plain
# single-threaded baseline, and one thread per process never exceeds nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("centering-small", "centering-large", "triangle-rect", "cli-mtx")

# Set-up is measured as the sum of two medians: fresh-interpreter imports
# and in-process rebuilds of the workload's inputs.
IMPORT_PROBES = 7
BUILD_REPEATS = 5

# The reference work runs after a solve once this much time has passed since
# it last ran, so short solves share one measurement and long ones get two.
CALIBRATE_EVERY_S = 0.02

# Shares of --seconds spent by a traced run on its untraced baseline and on
# its traced loop; the rest goes to the allocation pass.
TRACE_BASELINE_SHARE = 0.45
TRACE_TRACED_SHARE = 0.45

Sample = namedtuple("Sample", "problem start end iterations ok success")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --- set-up ---------------------------------------------------------------

def _scaled(cal, fn, repeats):
    """Run ``fn`` ``repeats`` times between reference measurements; return
    the raw and the scaled seconds of each run and the last result."""
    import gc

    raw, scaled, out = [], [], None
    cal.measure()
    for _ in range(repeats):
        out = None   # one set of inputs alive at a time keeps the peak RSS steady
        gc.collect()
        start = time.perf_counter()
        out = fn()
        end = time.perf_counter()
        cal.measure()
        raw.append(end - start)
        scaled.append((end - start) * cal.scale("interpreter", start, end))
    return raw, scaled, out


def _import_trisolve():
    """``import trisolve`` in a fresh interpreter (interpreter start-up
    included: a user pays it too)."""
    subprocess.run([sys.executable, "-c", "import trisolve"], env=dict(os.environ, PYTHONPATH=SRC),
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)


def build_all(problems, seed):
    return [p.build(seed) for p in problems]


# --- measuring ------------------------------------------------------------

class Loop:
    """Closed loop over the problem list: each solve starts when the previous
    one returns; only whole passes are run, so every problem has the same
    weight in every statistic."""

    def __init__(self, problems, instances, refs, expected, cal, tracer=None):
        self.problems, self.instances, self.refs = problems, instances, refs
        self.expected = expected          # (status, iterations) per problem
        self.cal, self.tracer = cal, tracer
        self.samples: list[Sample] = []
        self.results = []                 # (layer, result) of every solve
        self.passes = 0
        self.errors = []

    def one(self, k, keep_result=False):
        import gc

        from oracle import SUCCESS, verify

        problem, inst = self.problems[k], self.instances[k]
        gc.collect()
        if self.tracer is not None:
            self.tracer.request = len(self.samples)
        start = time.perf_counter()
        try:
            raw = problem.solve(inst)
        except Exception as exc:  # an exception counts as a failed solve
            self.samples.append(Sample(k, start, time.perf_counter(), 0, False, False))
            self.errors.append(f"{problem.label}: {type(exc).__name__}: {exc}")
            return None
        end = time.perf_counter()
        if end - self.cal.last() >= CALIBRATE_EVERY_S:
            self.cal.measure()
        res = problem.collect(inst, raw)
        ok, why = verify(inst, res, self.refs[k])
        if not ok:
            self.errors.append(f"{problem.label}: {why}")
        signature = (res.status, res.iterations)
        if self.expected is not None and signature != self.expected[k]:
            ok = False
            self.errors.append(f"{problem.label}: {signature} differs from {self.expected[k]}")
        self.samples.append(Sample(k, start, end, res.iterations, ok, res.status in SUCCESS))
        if keep_result:
            self.results.append((problem.layer, res))
        return res

    def run(self, seconds, keep_results=False):
        self.cal.measure()
        deadline = time.perf_counter() + seconds
        while True:
            for k in range(len(self.problems)):
                self.one(k, keep_results)
            self.passes += 1
            if time.perf_counter() >= deadline:
                break
        self.cal.measure()

    def raw_times(self):
        return [s.end - s.start for s in self.samples]

    def scaled_times(self):
        return [(s.end - s.start) * self.cal.scale(self.problems[s.problem].reference,
                                                   s.start, s.end)
                for s in self.samples]


def tail(values):
    """The highest percentile with at least 10 samples beyond it:
    ``(value, percentile)``; the maximum when there are 10 or fewer."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def timing(times, iterations):
    """The timing metrics of one list of per-solve seconds."""
    tail_ms, tail_pct = tail([1000.0 * t for t in times])
    return {
        "solve_ms_p50": 1000.0 * statistics.median(times),
        "solve_ms_tail": tail_ms,
        "solves_per_s": len(times) / sum(times),
        "us_per_iter": 1e6 * sum(times) / max(1, iterations),
    }, tail_pct


def end_to_end(loop, setup_s):
    import resource

    n = len(loop.samples)
    iterations = sum(s.iterations for s in loop.samples)
    metrics, tail_pct = timing(loop.scaled_times(), iterations)
    metrics.update({
        "iterations": iterations / loop.passes,
        "ok_frac": sum(s.ok for s in loop.samples) / n,
        "solved_frac": sum(s.success for s in loop.samples) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    })
    raw, _ = timing(loop.raw_times(), iterations)
    context = {"samples": n, "passes": loop.passes, "tail_percentile": round(tail_pct, 1),
               "raw wall-clock (unscaled)": {k: round(v, 6) for k, v in raw.items()}}
    return metrics, context


def peak_alloc_mb(problems, instances):
    """Largest allocation peak of one solve above its starting point, from
    tracemalloc, in a pass of its own."""
    import gc
    import tracemalloc

    peak = 0
    tracemalloc.start()
    try:
        for problem, inst in zip(problems, instances):
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            problem.solve(inst)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2**20


# --- reporting ------------------------------------------------------------

def problem_rows(problems, loop, refs):
    scaled = loop.scaled_times()
    rows = []
    for k, problem in enumerate(problems):
        mine = [i for i, s in enumerate(loop.samples) if s.problem == k]
        rows.append({
            "problem": problem.label,
            "status": loop.expected[k][0],
            "iterations": loop.expected[k][1],
            "median_ms": 1000.0 * statistics.median(scaled[i] for i in mine),
            "raw_median_ms": 1000.0 * statistics.median(
                loop.samples[i].end - loop.samples[i].start for i in mine),
            "samples": len(mine),
            "ref.lsqr.ms": refs[k].ms,
            "ref.lsqr.iterations": refs[k].iterations,
        })
    return rows


def print_report(workload, args, prov, rows, metrics, units, context, checks):
    print(f"# trisolve benchmark: workload={workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key, value in prov.items():
        print(f"#   {key}: {value}")
    print(f"# {'problem':36s} {'status':20s} {'iters':>6s} {'ms':>9s} {'raw ms':>9s} "
          f"{'n':>5s} {'lsqr ms':>8s} {'lsqr it':>7s}")
    for r in rows:
        print(f"  {r['problem']:36s} {r['status']:20s} {r['iterations']:6d} "
              f"{r['median_ms']:9.3f} {r['raw_median_ms']:9.3f} {r['samples']:5d} "
              f"{r['ref.lsqr.ms']:8.2f} {r['ref.lsqr.iterations']:7d}")
    for key, value in context.items():
        print(f"# {key}: {value}")
    for name, value in metrics.items():
        print(f"  {name:46s} {value:14.6g} {units[name]}")
    for text, passed in checks:
        print(f"# layer-share expectation {'holds' if passed else 'FAILS'}: {text}")


def run_workload(args) -> int:
    import gzip

    import provenance
    from calibrate import Calibrator
    from layers import expectations, per_layer
    from oracle import reference
    from tracer import Tracer
    from workloads import workload

    name = args.workload
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    load_before = os.getloadavg()
    try:
        problems = workload(name, lambda: scratch)
        # set-up (interpreter start, imports, generators) is scaled by the
        # interpreter reference work on every workload
        cal = Calibrator({"interpreter"} | {p.reference for p in problems})
        for _ in range(20):   # warm the reference work's own caches
            cal.measure()

        import_raw, import_scaled, _ = _scaled(cal, _import_trisolve, IMPORT_PROBES)
        build_raw, build_scaled, instances = _scaled(
            cal, lambda: build_all(problems, args.seed), BUILD_REPEATS)
        setup_import = statistics.median(import_scaled)
        setup_build = statistics.median(build_scaled)

        refs = [reference(inst.a, inst.b) for inst in instances]
        for inst, ref in zip(instances, refs):
            if "rho_of_ref" in inst.args:
                inst.args["rho"] = inst.args["rho_of_ref"] * ref.norm

        # untimed warm-up pass: fills caches, finishes lazy set-up, and fixes
        # the (status, iterations) every later solve must repeat
        warm = Loop(problems, instances, refs, None, cal)
        warm_results = [warm.one(k) for k in range(len(problems))]
        expected = [(r.status, r.iterations) if r is not None else ("exception", 0)
                    for r in warm_results]
        errors = list(warm.errors)

        checks = []
        if args.trace == 0:
            loop = Loop(problems, instances, refs, expected, cal)
            loop.run(args.seconds)
            metrics, context = end_to_end(loop, setup_import + setup_build)
            samples = loop.samples
            errors += loop.errors
            rows = problem_rows(problems, loop, refs)
        else:
            base = Loop(problems, instances, refs, expected, cal)
            base.run(TRACE_BASELINE_SHARE * args.seconds)

            tracer = Tracer()
            with tracer:
                build_all(problems, args.seed)
            make = [s[5] - s[4] for s in tracer.spans if s[3] == "gallery.make"]
            tracer.clear()

            traced = Loop(problems, instances, refs, expected, cal, tracer)
            with tracer:
                traced.run(TRACE_TRACED_SHARE * args.seconds, keep_results=True)
            solve_ns = int(1e9 * sum(traced.raw_times()))
            metrics = per_layer(tracer.spans, traced.passes, solve_ns, traced.results)
            metrics["setup.import_s"] = setup_import
            metrics["setup.build_s"] = setup_build
            metrics["gallery.make.ms_per_call"] = sum(make) / 1e6 / len(make) if make else 0.0
            metrics["solve.peak_alloc_mb"] = peak_alloc_mb(problems, instances)
            metrics["trace.overhead"] = (statistics.median(traced.scaled_times())
                                         / statistics.median(base.scaled_times()) - 1.0)
            checks = expectations(name, metrics)
            samples = base.samples + traced.samples
            errors += base.errors + traced.errors
            rows = problem_rows(problems, traced, refs)
            context = {"untraced_samples": len(base.samples),
                       "traced_samples": len(traced.samples), "traced_passes": traced.passes,
                       "spans": len(tracer.spans)}
            with gzip.open(os.path.join(OUT, f"spans-{name}.csv.gz"), "wt", newline="") as fh:
                tracer.write_csv(fh)

        prov = provenance.collect(ROOT, args.seed)
        prov["loadavg_before"] = load_before
        prov["loadavg_after"] = os.getloadavg()
        prov["reference_work_ms"] = ", ".join(
            f"{kind} median {1000 * statistics.median(t):.3f} (min {1000 * min(t):.3f}, "
            f"max {1000 * max(t):.3f})" for kind, t in cal.samples.items()) + \
            f" over {len(cal.samples['interpreter'])} points"
        prov["setup"] = (f"{IMPORT_PROBES} import probes, median {setup_import:.4f} s "
                         f"(raw {statistics.median(import_raw):.4f} s); "
                         f"{BUILD_REPEATS} input builds, median {setup_build:.4f} s "
                         f"(raw {statistics.median(build_raw):.4f} s)")
        metrics = {key: metrics[key] for key in units}
        print_report(name, args, prov, rows, metrics, units, context, checks)
        for err in errors[:20]:
            print(f"# NOT OK: {err}")

        result = {
            "correct": not errors,
            "attempted": len(samples),
            "failed": sum(not s.ok for s in samples),
            "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        }
        record = dict(result, workload=name, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, provenance=prov, problems=rows, context=context,
                      errors=errors)
        with open(os.path.join(OUT, f"{name}-trace{args.trace}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, default=str)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh process, one after another; the last line
    holds every metric as ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "trisolve", "__init__.py")):
        print(f"error: no trisolve package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
