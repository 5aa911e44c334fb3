"""Thread-based multi-rank world with barrier-synchronized collectives.

Each rank of the world is a Python thread executing the same rank
program (SPMD). Collectives use a shared slot table plus a reusable
:class:`threading.Barrier`:

1. every rank deposits its contribution into ``slots[rank]``;
2. barrier — all deposits visible;
3. every rank reads what it needs (copying, so slot reuse is safe);
4. barrier — all reads done, slots may be overwritten.

numpy releases the GIL inside array kernels, so ranks overlap compute
and R ranks on R cores run a partitioned graph faster than one rank
runs the whole. For that, the ranks share the cores for BLAS: while a
world runs, :mod:`repro.comm.blas` caps OpenBLAS's per-call pool at the
world's share of the CPUs instead of letting every rank's GEMM claim
all of them. Collectives keep *semantic* fidelity (matching, ordering,
determinism); the performance model in :mod:`repro.perf` extrapolates
to Frontier-scale machines.

Deadlock safety: real collective libraries hang when rank programs
disagree on the collective sequence. Here, a barrier timeout turns that
into a raised :class:`CollectiveTimeout`, and any rank raising an
exception aborts the barrier for everyone so ``ThreadWorld.run`` can
re-raise the original error.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Sequence

import numpy as np

from repro.comm.backend import Communicator
from repro.comm.blas import rank_threads


class CollectiveTimeout(RuntimeError):
    """A rank waited too long at a collective (mismatched program?)."""


class _WorldState:
    """State shared by all ranks of one ThreadWorld."""

    def __init__(self, size: int, timeout: float):
        self.size = size
        self.timeout = timeout
        self.barrier = threading.Barrier(size)
        self.slots: list = [None] * size
        self.p2p: dict[tuple[int, int, int], queue.Queue] = {}
        self.p2p_lock = threading.Lock()
        self.failure: BaseException | None = None

    def p2p_queue(self, src: int, dst: int, tag: int) -> queue.Queue:
        key = (src, dst, tag)
        with self.p2p_lock:
            q = self.p2p.get(key)
            if q is None:
                q = self.p2p[key] = queue.Queue()
            return q

    def wait(self) -> None:
        try:
            self.barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError:
            raise CollectiveTimeout(
                "collective barrier broken — a rank raised or the collective "
                "sequence diverged across ranks"
            ) from None


class ThreadComm(Communicator):
    """Communicator handle for one rank of a :class:`ThreadWorld`."""

    def __init__(self, rank: int, state: _WorldState):
        super().__init__()
        self._rank = rank
        self._state = state

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._state.size

    def barrier(self) -> None:
        self._state.wait()

    def all_reduce_sum(self, array: np.ndarray) -> np.ndarray:
        st = self._state
        st.slots[self._rank] = array
        st.wait()
        # reduce in rank order: deterministic, identical on every rank
        out = np.array(st.slots[0], copy=True)
        for r in range(1, st.size):
            out += st.slots[r]
        st.wait()
        self.stats.record("all_reduce", array.nbytes, st.size - 1)
        return out

    def all_to_all(self, send: Sequence[np.ndarray | None]) -> list[np.ndarray]:
        st = self._state
        if len(send) != st.size:
            raise ValueError(
                f"all_to_all send list must have length {st.size}, got {len(send)}"
            )
        st.slots[self._rank] = list(send)
        st.wait()
        recv = []
        for src in range(st.size):
            buf = st.slots[src][self._rank]
            recv.append(np.array(buf, copy=True) if buf is not None else np.empty(0))
        st.wait()
        nbytes, nmsg = self._payload_bytes(send)
        self.stats.record("all_to_all", nbytes, nmsg)
        return recv

    def all_gather(self, array: np.ndarray) -> list[np.ndarray]:
        st = self._state
        st.slots[self._rank] = array
        st.wait()
        out = [np.array(st.slots[r], copy=True) for r in range(st.size)]
        st.wait()
        self.stats.record("all_gather", array.nbytes * (st.size - 1), st.size - 1)
        return out

    def send(self, array: np.ndarray, dest: int, tag: int = 0) -> None:
        if not 0 <= dest < self.size or dest == self._rank:
            raise ValueError(f"invalid destination rank {dest}")
        q = self._state.p2p_queue(self._rank, dest, tag)
        q.put(np.array(array, copy=True))
        self.stats.record("send", array.nbytes, 1)

    def recv(self, source: int, tag: int = 0) -> np.ndarray:
        if not 0 <= source < self.size or source == self._rank:
            raise ValueError(f"invalid source rank {source}")
        q = self._state.p2p_queue(source, self._rank, tag)
        try:
            return q.get(timeout=self._state.timeout)
        except queue.Empty:
            raise CollectiveTimeout(
                f"recv from rank {source} (tag {tag}) timed out"
            ) from None


class ThreadWorld:
    """Spawn ``size`` rank threads running the same SPMD program.

    >>> world = ThreadWorld(4)
    >>> results = world.run(lambda comm: comm.all_reduce_sum(
    ...     np.array([float(comm.rank)])))
    >>> [float(r[0]) for r in results]
    [6.0, 6.0, 6.0, 6.0]
    """

    def __init__(self, size: int, timeout: float = 120.0):
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = size
        self.timeout = timeout

    def run(self, fn: Callable[..., object], *args, **kwargs) -> list:
        """Execute ``fn(comm, *args, **kwargs)`` on every rank.

        Returns the per-rank results in rank order. If any rank raises,
        the barrier is aborted (unblocking the others) and the first
        failure is re-raised in the caller.
        """
        state = _WorldState(self.size, self.timeout)
        results: list = [None] * self.size
        errors: list[BaseException | None] = [None] * self.size

        def worker(rank: int) -> None:
            comm = ThreadComm(rank, state)
            try:
                results[rank] = fn(comm, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - report any failure
                errors[rank] = exc
                state.barrier.abort()

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"rank{r}", daemon=True)
            for r in range(self.size)
        ]
        with rank_threads(self.size):
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=self.timeout * 4)
                if t.is_alive():
                    state.barrier.abort()
                    raise CollectiveTimeout(f"rank thread {t.name} failed to finish")

        # prefer reporting a real error over the induced barrier breaks
        real = [e for e in errors if e is not None and not isinstance(e, CollectiveTimeout)]
        if real:
            raise real[0]
        broken = [e for e in errors if e is not None]
        if broken:
            raise broken[0]
        return results
