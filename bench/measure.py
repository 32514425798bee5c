"""Summary statistics, memory and the environment record of a benchmark run."""

from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
import resource

# A named percentile is reported only when at least this many samples lie
# beyond it; below that, one outlier decides the value.
MIN_BEYOND = 10


def percentile(samples, q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or None when fewer than
    ``MIN_BEYOND`` samples lie beyond it."""
    n = len(samples)
    rank = math.ceil(q / 100.0 * n)
    if rank < 1 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads(np) -> int | None:
    """Threads the bundled OpenBLAS will use, read from the library itself."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout at ``root``, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str) -> dict:
    """What makes numbers comparable across runs: versions, BLAS, cores, commit."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": _blas_threads(np),
        },
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
    }
