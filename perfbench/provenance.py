"""Read-only description of the machine and the code a result came from."""

from __future__ import annotations

import ctypes
import glob
import os
import platform


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def caches() -> str:
    out = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(index, f)) for f in ("level", "type", "size"))
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out.append(f"L{level} {size}")
    return ", ".join(out) or "unknown"


def blas() -> tuple[str, str]:
    """OpenBLAS version from numpy's build record, and the thread count the
    loaded library reports."""
    import numpy as np

    version = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        pass
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset") + " (env)"
    libs = sorted({line.split()[-1] for line in _read("/proc/self/maps").splitlines()
                   if "openblas" in line and ".so" in line})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return version, str(fn())
    return version, threads


def git_commit(root: str) -> str:
    head = _read(os.path.join(root, ".git", "HEAD"))
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    commit = _read(os.path.join(root, ".git", ref))
    if commit:
        return commit
    for line in _read(os.path.join(root, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def collect(root: str, seed: int) -> dict:
    import numpy as np
    import scipy

    version, threads = blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "caches": caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": version,
        "blas_threads": threads,
        "commit": git_commit(root),
        "seed": seed,
    }
