"""Outside-in span tracer for trisolve.

The tracer replaces public functions and methods of the package with thin
wrappers that record one span per call: name, parent span, request id,
start and end in ``perf_counter_ns``, self time (duration minus the time its
child spans cover) and one number taken from the call (bytes moved by a
kernel, iterations of a driver, bytes of a file).  Nothing inside the
package changes: modules bind kernel names at import
(``from .linalg import matvec``), so every module attribute that holds the
original object is swapped, and :meth:`Tracer.uninstall` puts the original
objects back.

Spans stay in memory until :meth:`Tracer.write_csv` writes them out.
"""

from __future__ import annotations

import csv
import functools
import importlib
import os
import sys
import time

import numpy as np
import scipy.sparse as sparse


def _is_storage(a) -> bool:
    return isinstance(a, np.ndarray) or sparse.issparse(a)


def _storage_bytes(a) -> int:
    if sparse.issparse(a):
        return a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    return a.nbytes


def _kernel_bytes(args, kwargs, out) -> int:
    """Computed bytes of one matrix-vector product: matrix storage read once,
    input vector read once, output written once (cache misses ignored)."""
    a, v = args[0], args[1]
    return _storage_bytes(a) + np.asarray(v).nbytes + out.nbytes


def _iterations(args, kwargs, out) -> int:
    return out.iterations


def _file_bytes(args, kwargs, out) -> int:
    source = args[0]
    return os.path.getsize(source) if isinstance(source, (str, os.PathLike)) else 0


def _kernel_only(args, kwargs) -> bool:
    # matvec(GramProduct, v) dispatches to GramProduct.matvec, which has a
    # span of its own; only products on stored matrices are kernel spans.
    return _is_storage(args[0])


# (module, attribute or Class.method, span name, note(args, kwargs, out) or
# None, record(args, kwargs) -> bool or None).  ``dynamics`` is an analysis
# tool that no solve path calls, so it is not traced.
TARGETS = (
    ("trisolve.linalg", "matvec", "linalg.matvec", _kernel_bytes, _kernel_only),
    ("trisolve.linalg", "matvec_transpose", "linalg.matvec_transpose", _kernel_bytes,
     _kernel_only),
    ("trisolve.linalg", "HOperator.apply_with_transpose", "linalg.HOperator.apply_with_transpose",
     None, None),
    ("trisolve.linalg", "GramProduct.matvec", "linalg.GramProduct.matvec", None, None),
    ("trisolve.centering", "centering_solve", "centering.centering_solve", _iterations, None),
    ("trisolve.centering", "moments", "centering.moments", None, None),
    ("trisolve.centering", "min_norm_coefficients", "centering.min_norm_coefficients", None, None),
    ("trisolve.triangle", "solve_in_ball", "triangle.solve_in_ball", _iterations, None),
    ("trisolve.triangle", "solve_adaptive", "triangle.solve_adaptive", _iterations, None),
    ("trisolve.triangle", "min_norm_solve", "triangle.min_norm_solve", _iterations, None),
    ("trisolve.triangle", "move_to_pivot", "triangle.move_to_pivot", None, None),
    ("trisolve.feasibility", "nonnegative_feasibility", "feasibility.nonnegative_feasibility",
     _iterations, None),
    ("trisolve.hybrid", "hybrid_solve", "hybrid.hybrid_solve", _iterations, None),
    ("trisolve.results", "Trace.append", "results.Trace.append", None, None),
    ("trisolve.results", "Trace.write_csv", "results.Trace.write_csv", None, None),
    ("trisolve.mmio", "read_matrix_market", "mmio.read_matrix_market", _file_bytes, None),
    ("trisolve.mmio", "write_matrix_market", "mmio.write_matrix_market", None, None),
    ("trisolve.cli", "main", "cli.main", None, None),
    ("trisolve.gallery", "make", "gallery.make", None, None),
    ("trisolve.gallery", "row_sum_rhs", "gallery.row_sum_rhs", None, None),
)

SPAN_NAMES = tuple(t[2] for t in TARGETS)

# Fields of one span record, in order.
SPAN_FIELDS = ("id", "parent", "request", "name", "start_ns", "end_ns", "self_ns", "note")


class Tracer:
    """Records spans of the wrapped calls while installed.

    ``request`` is the identifier shared by the spans of one solve; the
    benchmark sets it before each call.  ``spans`` holds one list per span
    in :data:`SPAN_FIELDS` order; ``parent`` is -1 for a span with no traced
    caller.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[list] = []   # the open spans, innermost last
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, note, record):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if record is not None and not record(args, kwargs):
                return fn(*args, **kwargs)
            # span[6] sums the children's durations until the span ends,
            # then becomes the self time
            span = [len(spans), stack[-1][0] if stack else -1, self.request, name, 0, 0, 0, 0]
            spans.append(span)
            stack.append(span)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                span[4], span[5], span[6] = start, end, dur - span[6]
                if stack:
                    stack[-1][6] += dur
            if note is not None:
                span[7] = note(args, kwargs, out)
            return out

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self) -> None:
        """Swap every binding of every target for its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "trisolve" or n.startswith("trisolve."))]
        try:
            for modname, attr, name, note, record in TARGETS:
                owner = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[meth]
                    # the class itself, including aliases such as
                    # GramProduct.rmatvec = matvec
                    holders = [owner]
                else:
                    original = getattr(owner, attr)
                    holders = modules
                if getattr(original, "__wrapped_by_tracer__", False):
                    raise RuntimeError(f"{modname}.{attr} is already wrapped")
                wrapper = self._wrap(name, original, note, record)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, key, original))
                            setattr(holder, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put back every original object, last patch first."""
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def clear(self) -> None:
        self.spans.clear()

    def write_csv(self, fh) -> None:
        """Write the spans as CSV to the text file ``fh``."""
        writer = csv.writer(fh)
        writer.writerow(SPAN_FIELDS)
        writer.writerows(self.spans)
