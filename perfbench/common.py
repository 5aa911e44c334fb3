"""Helpers shared by the perfbench driver and its workload processes.

Nothing here imports ``repro``: the driver (``run.py``) uses this module
before it knows whether the checkout holds the program at all.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from pathlib import Path

#: repository root of the checkout the benchmark runs in
ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("rollout-r2", "train-r2", "serve-mixed")

#: thread-count variables an unconfigured user does not have set; the
#: workload processes run without them so BLAS picks its own default
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: prefix of the one JSON line a workload process prints as its result
RESULT_PREFIX = "PERFBENCH_RESULT "

#: the consistency tolerance of the repo's distributed-vs-single tests
RTOL, ATOL = 1e-10, 1e-12

#: percentile of each operation class that is gated: the time of an
#: operation that other load on a shared host did not slow down (see
#: README.md for the spreads that led to it)
GATED_Q = 10.0


def workload_env() -> dict:
    """Environment for workload processes: ``src/`` importable, inherited
    BLAS thread pins removed (the benchmark never pins them itself)."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV_VARS}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is VmHWM, in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        return float("nan")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def bitwise_equal(a, b) -> bool:
    """Same dtype, shape and bits for every array of two sequences."""
    import numpy as np

    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        x, y = np.asarray(x), np.asarray(y)
        if x.dtype != y.dtype or x.shape != y.shape:
            return False
        if x.tobytes() != y.tobytes():
            return False
    return True


def environment_record(seed: int) -> dict:
    """What a reader needs to compare numbers across hosts."""
    import numpy as np

    record = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV_VARS},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        record["blas"] = "unknown"
    record["blas_threads"] = _openblas_threads()
    return record


def _openblas_threads():
    """The OpenBLAS pool size numpy loaded, or None when not found."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def emit_result(result: dict) -> None:
    """Print a workload process's result line (read by the driver)."""
    sys.stdout.write(RESULT_PREFIX + json.dumps(result) + "\n")
    sys.stdout.flush()


def parse_result(stdout: str) -> dict:
    for line in reversed(stdout.splitlines()):
        if line.startswith(RESULT_PREFIX):
            return json.loads(line[len(RESULT_PREFIX):])
    raise ValueError("workload process printed no result line")
