"""A process-wide OpenBLAS thread budget shared by live rank threads.

Every rank thread of a :class:`~repro.comm.threaded.ThreadWorld` calls
BLAS, and OpenBLAS runs each call on its own pool (by default one
thread per core). R ranks on C cores would then put R x C BLAS threads
on C cores while the other ranks' numpy work waits. While rank threads
run, the pool is therefore capped at ``cpus // active`` threads, where
``active`` counts the rank threads of every live world in the process.

The cap never exceeds the default seen when the first world started
(which already reflects a user's ``OPENBLAS_NUM_THREADS`` pin), so the
pool never grows while another thread may be inside a GEMM, and the
last world to finish restores that default. Without a numpy-bundled
OpenBLAS (MKL, Accelerate, unknown builds) this module does nothing.

The forward products reduce over the short feature axis and come out
bitwise equal at any thread count, so rollouts are unchanged. A weight
gradient summed over a rank's edges is a long reduction, which
OpenBLAS's single-threaded and threaded drivers block differently: it
may differ in its last bits between 1 and >= 2 threads, so training is
reproducible for a given budget but not bitwise equal across budgets.

``openblas_set_num_threads_local`` is process-global in the bundled
builds, not per thread, so the budget is one shared count.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple

import numpy


class BlasHandle(NamedTuple):
    """The thread-count entry points of one loaded BLAS library."""

    name: str
    set_threads: Callable[[int], None]
    get_threads: Callable[[], int]


#: (setter, getter) symbol pairs, the numpy-wheel build first
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def find_openblas() -> BlasHandle | None:
    """The OpenBLAS numpy loaded, or ``None`` when there is none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)  # already loaded by numpy: same handle
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return BlasHandle(os.path.basename(path), setter, getter)
    return None


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _share(default: int, cpus: int, active: int) -> int:
    """BLAS threads per rank thread: a fair share, never above the default."""
    return max(1, min(default, cpus // active))


class ThreadBudget:
    """Count live rank threads and size the BLAS pool to match."""

    def __init__(self, handle: BlasHandle | None, cpus: int):
        self.handle = handle
        self.cpus = max(1, cpus)
        self._lock = threading.Lock()
        self._active = 0
        self._default = 0

    @contextmanager
    def rank_threads(self, n: int) -> Iterator[None]:
        """Hold ``n`` rank threads in the budget for the ``with`` body."""
        if self.handle is None:
            yield
            return
        with self._lock:
            if self._active == 0:
                self._default = self.handle.get_threads()
            self._active += n
            self.handle.set_threads(_share(self._default, self.cpus, self._active))
        try:
            yield
        finally:
            with self._lock:
                self._active -= n
                self.handle.set_threads(
                    _share(self._default, self.cpus, self._active) if self._active
                    else self._default
                )

    def describe(self, ranks: int) -> dict:
        """The BLAS environment of this process, and the per-rank budget a
        lone world of ``ranks`` threads runs under."""
        doc = {"cpus": self.cpus, "blas": None, "blas_default_threads": None,
               "blas_budget_ranks": ranks, "blas_threads_per_rank": None}
        if self.handle is not None:
            with self._lock:
                default = self._default if self._active else self.handle.get_threads()
            doc.update(blas=self.handle.name, blas_default_threads=default,
                       blas_threads_per_rank=_share(default, self.cpus, ranks))
        return doc


_process_budget: ThreadBudget | None = None
_process_budget_lock = threading.Lock()


def process_budget() -> ThreadBudget:
    """The one budget of this process, found on first use."""
    global _process_budget
    with _process_budget_lock:
        if _process_budget is None:
            _process_budget = ThreadBudget(find_openblas(), available_cpus())
        return _process_budget


def rank_threads(n: int):
    """Context manager holding ``n`` rank threads in the process budget."""
    return process_budget().rank_threads(n)
