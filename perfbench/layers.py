"""Per-layer metrics from the spans of a traced run.

Times are self times (a span's duration minus its traced children) unless a
name says otherwise, so the shares of different layers do not overlap.  A
share is a fraction of the summed wall time of the traced solves.  Counts
are per pass over the workload's problem list, which is exact because every
pass solves the same problems.
"""

from __future__ import annotations

from collections import defaultdict

TRIANGLE_DRIVERS = ("triangle.solve_in_ball", "triangle.solve_adaptive", "triangle.min_norm_solve")
FEAS_DRIVER = "feasibility.nonnegative_feasibility"
CENTERING_DRIVER = "centering.centering_solve"
HYBRID = "hybrid.hybrid_solve"


class _Agg:
    __slots__ = ("calls", "dur_ns", "self_ns", "note")

    def __init__(self):
        self.calls = 0
        self.dur_ns = 0
        self.self_ns = 0
        self.note = 0


def _per(num, den):
    return num / den if den else 0.0


def aggregate(spans):
    """Sum calls, durations, self times and notes per span name, and per
    (name, parent name) pair."""
    by_name = defaultdict(_Agg)
    by_parent = defaultdict(_Agg)
    names = [s[3] for s in spans]
    for s in spans:
        _, parent, _, name, start, end, self_ns, note = s
        for agg in (by_name[name], by_parent[(name, names[parent] if parent >= 0 else None)]):
            agg.calls += 1
            agg.dur_ns += end - start
            agg.self_ns += self_ns
            agg.note += note
    return by_name, by_parent


def event_counts(results):
    """Counts of trace events by driver family, read from returned traces."""
    counts = defaultdict(int)
    for layer, res in results:
        if layer in ("triangle", "feasibility"):
            family, trace = layer, res.trace
        elif layer == "hybrid":
            family, trace = "triangle", res.stage_results[1].trace
        else:
            continue
        if "event" in trace.columns:
            for event in trace.column("event"):
                counts[(family, event)] += 1
    return counts


def per_layer(spans, passes: int, solve_ns: int, results) -> dict:
    """Per-layer metrics of a traced run, each 0 where its layer is unused
    (the set-up, memory and overhead entries are measured by the runner)."""
    by_name, by_parent = aggregate(spans)
    out = {}

    def get(name):
        return by_name.get(name, _Agg())

    def share(ns):
        return _per(ns, solve_ns)

    for kernel in ("matvec", "matvec_transpose"):
        agg = get(f"linalg.{kernel}")
        out[f"linalg.{kernel}.calls"] = _per(agg.calls, passes)
        out[f"linalg.{kernel}.us_per_call"] = _per(agg.self_ns / 1e3, agg.calls)
        out[f"linalg.{kernel}.share"] = share(agg.self_ns)
        out[f"linalg.{kernel}.gbps_computed"] = _per(agg.note, agg.dur_ns)  # bytes/ns = GB/s
    out["linalg.h_applies"] = _per(get("linalg.HOperator.apply_with_transpose").calls, passes)

    for fn in ("moments", "min_norm_coefficients"):
        agg = get(f"centering.{fn}")
        out[f"centering.{fn}.calls"] = _per(agg.calls, passes)
        out[f"centering.{fn}.us_per_call"] = _per(agg.self_ns / 1e3, agg.calls)
        out[f"centering.{fn}.share"] = share(agg.self_ns)
    out["centering.order_retries"] = _per(
        get("centering.min_norm_coefficients").calls - get("centering.moments").calls, passes)
    drv = get(CENTERING_DRIVER)
    out["centering.driver.us_per_iter"] = _per(drv.self_ns / 1e3, drv.note)
    out["centering.driver.share"] = share(drv.self_ns)

    events = event_counts(results)
    tri_self = sum(get(n).self_ns for n in TRIANGLE_DRIVERS)
    tri_iters = sum(get(n).note for n in TRIANGLE_DRIVERS)
    feas_pivots = by_parent.get(("triangle.move_to_pivot", FEAS_DRIVER), _Agg()).calls
    out["triangle.pivots"] = _per(get("triangle.move_to_pivot").calls - feas_pivots, passes)
    out["triangle.expands"] = _per(events[("triangle", "expand")], passes)
    out["triangle.witnesses"] = _per(events[("triangle", "witness")], passes)
    mtp = get("triangle.move_to_pivot")
    out["triangle.move_to_pivot.us_per_call"] = _per(mtp.self_ns / 1e3, mtp.calls)
    out["triangle.move_to_pivot.share"] = share(mtp.self_ns)
    out["triangle.driver.us_per_iter"] = _per(tri_self / 1e3, tri_iters)
    out["triangle.driver.share"] = share(tri_self)

    feas = get(FEAS_DRIVER)
    out["feasibility.pivots"] = _per(feas_pivots, passes)
    out["feasibility.expands"] = _per(events[("feasibility", "expand")], passes)
    out["feasibility.driver.us_per_iter"] = _per(feas.self_ns / 1e3, feas.note)
    out["feasibility.driver.share"] = share(feas.self_ns)

    stage1 = by_parent.get((CENTERING_DRIVER, HYBRID), _Agg())
    stage2_ns = sum(by_parent.get((n, HYBRID), _Agg()).dur_ns for n in TRIANGLE_DRIVERS)
    out["hybrid.stage1.share"] = share(stage1.dur_ns)
    out["hybrid.stage2.share"] = share(stage2_ns)
    hybrid_results = [res for layer, res in results if layer == "hybrid"]
    for k in (1, 2):
        out[f"hybrid.stage{k}.iterations"] = _per(
            sum(res.stage_results[k - 1].iterations for res in hybrid_results), passes)

    app = get("results.Trace.append")
    out["results.trace_rows"] = _per(app.calls, passes)
    out["results.Trace.append.us_per_call"] = _per(app.self_ns / 1e3, app.calls)
    out["results.Trace.append.share"] = share(app.self_ns)
    wcsv = get("results.Trace.write_csv")
    out["results.Trace.write_csv.ms_per_call"] = _per(wcsv.dur_ns / 1e6, wcsv.calls)

    rd, wr = get("mmio.read_matrix_market"), get("mmio.write_matrix_market")
    out["mmio.read.calls"] = _per(rd.calls, passes)
    out["mmio.read.ms_per_call"] = _per(rd.dur_ns / 1e6, rd.calls)
    out["mmio.read.mb_per_s"] = _per(rd.note / 1e6, rd.dur_ns / 1e9)
    out["mmio.read.share"] = share(rd.self_ns)
    out["mmio.write.ms_per_call"] = _per(wr.dur_ns / 1e6, wr.calls)
    out["mmio.write.share"] = share(wr.self_ns)

    main = get("cli.main")
    out["cli.main.ms_per_call"] = _per(main.dur_ns / 1e6, main.calls)
    out["cli.self.share"] = share(main.self_ns)
    return out


def expectations(workload: str, m: dict) -> list[tuple[str, bool]]:
    """The layer-share facts the workload descriptions rest on."""
    checks = {
        "centering-small": [
            ("linalg.matvec_transpose.share >= 0.35", m["linalg.matvec_transpose.share"] >= 0.35),
            ("centering.moments.share + centering.min_norm_coefficients.share >= 0.2",
             m["centering.moments.share"] + m["centering.min_norm_coefficients.share"] >= 0.2),
        ],
        "centering-large": [
            ("linalg.matvec.share + linalg.matvec_transpose.share >= 0.6",
             m["linalg.matvec.share"] + m["linalg.matvec_transpose.share"] >= 0.6),
        ],
        "triangle-rect": [
            ("triangle.driver.share + feasibility.driver.share "
             "+ triangle.move_to_pivot.share >= 0.25",
             m["triangle.driver.share"] + m["feasibility.driver.share"]
             + m["triangle.move_to_pivot.share"] >= 0.25),
        ],
        "cli-mtx": [("mmio.read.share >= 0.3", m["mmio.read.share"] >= 0.3)],
    }
    return checks[workload]
