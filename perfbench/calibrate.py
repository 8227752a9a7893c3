"""Machine-speed calibration.

The benchmark host shares its cores with other machines, and its speed
drifts: one fixed solve, repeated for five minutes, had window medians that
spread by 0.32 (IQR over median) even over 60-second windows, with CPU time
tracking wall time and steal time under 1 %.  No run length within a
benchmark's budget averages that out.  So the benchmark times a fixed unit of
reference work, which uses only Python, numpy and scipy and never the package
under test, next to the solves, and reports each solve time scaled by
``reference_s / (time of the nearby reference work)``: the time the solve
would take on a machine that does the reference work in ``reference_s``.  A
change to trisolve moves the solve times and not the reference work; a change
in the host's speed moves both.  Raw wall times are reported next to the
scaled ones.

The host's contention slows code by different amounts depending on the
resource it leans on, so there are three kinds of reference work, and each
problem is scaled by the kind that uses the same resource as its dominant
cost.  Measured over 100-200 s runs, as the spread of 20-25 s window medians
of the scaled solve time (raw in brackets):

- ``interpreter``: a Python loop of small numpy products plus small sparse
  transposed products.  centering-small 0.02 (0.28), triangle-rect 0.06
  (0.31), cli-mtx 0.03 (0.26).
- ``dense``: dense products on an 8 MB array, above the L2 cache.
  ``gram-psd`` 0.03 (0.16) and ``ode`` 0.02 (0.13) on centering-large, where
  the interpreter kind gave 0.27 and 0.33.
- ``sparse``: CSR products on a 6 MB matrix with 800 KB vectors.
  ``poisson-d:300`` 0.03 (0.25), where the dense kind gave 0.11.
"""

from __future__ import annotations

import bisect
import time

import numpy as np
import scipy.sparse as sparse

# Median time of each reference work on the machine the benchmark was tuned
# on (2-core Xeon VM, Python 3.11, numpy 2.4, one BLAS thread), in seconds.
REFERENCE_S = {"interpreter": 0.004, "dense": 0.004, "sparse": 0.004}


def _interpreter(rng):
    small, vec = rng.standard_normal((64, 64)), rng.standard_normal(64)
    mat = sparse.random_array((3000, 3000), density=1e-3, rng=rng, format="csr")
    svec = rng.standard_normal(3000)

    def work():
        x, acc = vec, 0.0
        for _ in range(450):
            y = small @ x
            acc += float(np.dot(y, x))
            x = y / np.linalg.norm(y)
        for _ in range(30):
            acc += float(np.linalg.norm(svec @ mat))
        return acc
    return work


def _dense(rng):
    mat, vec = rng.standard_normal((1000, 1000)), rng.standard_normal(1000)

    def work():
        return sum(float(np.linalg.norm(mat @ vec)) for _ in range(12))
    return work


def _sparse(rng):
    mat = sparse.random_array((100_000, 100_000), density=5e-5, rng=rng, format="csr")
    vec = rng.standard_normal(100_000)

    def work():
        return sum(float(np.linalg.norm(mat @ vec)) for _ in range(3))
    return work


_WORK = {"interpreter": _interpreter, "dense": _dense, "sparse": _sparse}


class Calibrator:
    """Times the reference work of the given kinds, all at each measuring
    point, and keeps every sample."""

    def __init__(self, kinds):
        self._work = {kind: _WORK[kind](np.random.default_rng(0)) for kind in sorted(kinds)}
        self._ends: list[float] = []
        self.samples: dict[str, list[float]] = {kind: [] for kind in self._work}

    def measure(self) -> None:
        for kind, work in self._work.items():
            start = time.perf_counter()
            work()
            self.samples[kind].append(time.perf_counter() - start)
        self._ends.append(time.perf_counter())

    def scale(self, kind: str, start: float, end: float) -> float:
        """Factor that converts a wall time measured over ``[start, end]`` to
        reference speed: the reference time over the mean of the reference
        work measured last before ``start`` and first after ``end``."""
        times = self.samples[kind]
        near = []
        before = bisect.bisect_right(self._ends, start) - 1
        after = bisect.bisect_left(self._ends, end)
        if before >= 0:
            near.append(times[before])
        if after < len(times):
            near.append(times[after])
        if not near:
            raise RuntimeError("no reference measurement near the interval")
        return REFERENCE_S[kind] / (sum(near) / len(near))

    def last(self) -> float:
        """End time of the latest measuring point."""
        return self._ends[-1]
