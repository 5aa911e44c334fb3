"""Request queue with dynamic batching and admission control.

Concurrent rollout requests against the same ``(model, graph,
halo_mode, residual)`` key are coalesced into one batch and executed as
a single tiled forward pass per step (:mod:`repro.serve.tiling`). The
queue applies the classic dynamic-batching policy: the first request
opens a batch, the collector then waits up to ``max_wait_s`` for more
same-key requests (leaving other keys queued in arrival order) and
closes the batch early once ``max_batch_size`` is reached.

The request type itself is the runtime layer's shared
:class:`~repro.runtime.api.RolloutRequest` — the same dataclass a
client hands to any :class:`~repro.runtime.api.Engine` is what the
queue batches and the executor runs, with no per-layer re-plumbing
(``InferenceRequest`` remains as a backwards-compatible alias).

Admission control (:mod:`repro.serve.admission`) layers on top: a
queue constructed with an :class:`~repro.serve.admission.AdmissionController`
sheds submissions beyond the configured depth cap
(:class:`~repro.serve.admission.QueueFull` at ``submit()``) and expires
requests whose deadline passed while queued
(:class:`~repro.serve.admission.DeadlineExpired` delivered through the
handle — checked at dequeue and re-checked at batch close, so expiry
during the collection window also sheds).

Results stream back through :class:`RolloutHandle`: frames are pushed
as each rollout step completes, so a client can consume a trajectory
incrementally while later steps are still being computed.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time

import numpy as np

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceBuffer, wall_from_perf
from repro.runtime.api import BatchKey, RolloutRequest
from repro.serve.admission import AdmissionController, DeadlineExpired
from repro.serve.metrics import serve_registry

#: Backwards-compatible name for the shared request dataclass.
InferenceRequest = RolloutRequest


def shed_expired(
    req: RolloutRequest,
    handle: "RolloutHandle",
    now: float,
    admission: AdmissionController | None,
    trace: TraceBuffer | None,
    at_close: bool = False,
) -> None:
    """Finish ``handle`` with :class:`DeadlineExpired` and account it.

    Shared terminal path of both queue implementations
    (:class:`RequestQueue` here,
    :class:`~repro.serve.scheduler.ScheduledQueue`): records the
    admission counter (``at_close=True`` for requests that expired
    *during* a batch's collection window rather than while pending),
    emits the terminal queue span, and delivers the typed rejection
    through the handle.
    """
    if admission is not None:
        if at_close:
            admission.note_expired_at_close(req.waited_s(now))
        else:
            admission.note_expired(req.waited_s(now))
    if trace is not None:
        trace.record_span(
            req.trace_id, "queue", "server",
            wall_from_perf(req.submitted_at), req.waited_s(now),
            status="failed", model=req.model, graph=req.graph,
            reason="deadline_expired",
        )
    handle._finish(
        DeadlineExpired(
            f"request {req.request_id} waited {req.waited_s(now) * 1e3:.1f}ms, "
            f"deadline was {req.deadline_s * 1e3:.1f}ms"
        )
    )


class RolloutHandle:
    """Client-side view of an in-flight request (stream or await).

    Frames arrive in step order, frame 0 being ``x0`` itself (matching
    :func:`repro.gnn.rollout.rollout`, which returns ``n_steps + 1``
    states). ``frames()`` yields them as they are produced; ``result()``
    blocks for the complete trajectory. A failure in the worker —
    including a typed admission rejection — is re-raised in the
    consumer.

    Thread safety: one producer (the worker) and one consumer (the
    client thread) are the supported topology; ``frames()``/``result()``
    must not be iterated from two threads at once. ``done`` may be
    polled from anywhere. Determinism: frames are deep-copied on push,
    so a trajectory read from the handle is bitwise identical to the
    worker's computation regardless of consumer timing.
    """

    _DONE = object()

    def __init__(self, request: InferenceRequest):
        self.request = request
        self.metrics = None  # RequestMetrics, attached on completion
        self._frames: queue_mod.Queue = queue_mod.Queue()
        self._done = threading.Event()
        self._error: BaseException | None = None
        self._collected: list[np.ndarray] = []

    # -- producer side (service internals) -----------------------------------

    def _push_frame(self, state: np.ndarray) -> None:
        self._frames.put(np.array(state, copy=True))

    def _finish(self, error: BaseException | None = None) -> None:
        self._error = error
        self._frames.put(self._DONE)
        self._done.set()

    # -- consumer side -------------------------------------------------------

    def frames(self, timeout: float | None = 60.0):
        """Yield frames incrementally (``n_steps + 1`` of them).

        ``timeout`` is a per-frame inactivity bound: it caps how long
        to wait for the *next* frame, not the whole trajectory. Raises
        :class:`TimeoutError` when the producer goes quiet.
        """
        while True:
            try:
                item = self._frames.get(timeout=timeout)
            except queue_mod.Empty:
                raise TimeoutError(
                    f"request {self.request.request_id}: no frame within "
                    f"{timeout}s"
                ) from None
            if item is self._DONE:
                if self._error is not None:
                    raise self._error
                return
            self._collected.append(item)
            yield item

    def result(self, timeout: float | None = 60.0) -> list[np.ndarray]:
        """Block until done; return the full trajectory (incl. frame 0).

        ``timeout`` bounds each frame's arrival (see :meth:`frames`).
        """
        for _ in self.frames(timeout=timeout):
            pass
        return self._collected

    @property
    def done(self) -> bool:
        """Whether the request finished (successfully or not)."""
        return self._done.is_set()


class RequestQueue:
    """FIFO of pending requests with same-key batch collection.

    Thread safety: fully thread-safe — any number of submitting threads
    and any number of worker threads calling :meth:`next_batch` may run
    concurrently; one condition variable guards all state, so the depth
    an :class:`~repro.serve.admission.AdmissionController` decides on is
    exact. Determinism: batch composition is a pure function of arrival
    order, keys, deadlines and the collector's timing parameters; it
    never depends on request payloads. The depth gauges are written to
    ``metrics`` (a private registry when ``None``).
    """

    def __init__(
        self,
        admission: AdmissionController | None = None,
        trace: TraceBuffer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._pending: list[tuple[InferenceRequest, RolloutHandle]] = []
        self._cond = threading.Condition()
        self._closed = False
        self._admission = admission
        #: optional span sink: expired-shed requests never reach the
        #: worker, so their terminal queue span is recorded here
        self._trace = trace
        self._metrics = serve_registry(metrics)
        self._depth_gauge = self._metrics.get("repro_queue_depth")
        self._depth_high_water = self._metrics.get("repro_queue_depth_high_water")

    def _publish_depth(self) -> None:
        # caller holds the lock
        with self._metrics.atomic():
            self._depth_gauge.set(len(self._pending))
            self._depth_high_water.set_max(len(self._pending))

    def submit(self, request: InferenceRequest) -> RolloutHandle:
        """Enqueue one request (applying admission control) → handle.

        Raises :class:`~repro.serve.admission.QueueFull` when an
        admission controller is attached and the pending depth is at its
        cap; the rejected request never enters the queue.
        """
        handle = RolloutHandle(request)
        with self._cond:
            if self._closed:
                raise RuntimeError("queue is closed")
            if self._admission is not None:
                self._admission.admit(len(self._pending))
            self._pending.append((request, handle))
            self._publish_depth()
            self._cond.notify_all()
        return handle

    def submit_many(
        self, requests: "list[InferenceRequest]"
    ) -> "list[RolloutHandle]":
        """Enqueue several requests atomically → their handles.

        One admission decision covers the whole group (``slots=len``):
        either every request enters the queue under the depth cap or
        none does (:class:`~repro.serve.admission.QueueFull`). This is
        how an M-member ensemble counts as M queue slots without racing
        other submitters between members.
        """
        if not requests:
            raise ValueError("submit_many needs at least one request")
        handles = [RolloutHandle(r) for r in requests]
        with self._cond:
            if self._closed:
                raise RuntimeError("queue is closed")
            if self._admission is not None:
                self._admission.admit(len(self._pending), slots=len(requests))
            self._pending.extend(zip(requests, handles))
            self._publish_depth()
            self._cond.notify_all()
        return handles

    def next_batch(
        self,
        max_batch_size: int,
        max_wait_s: float,
        poll_s: float = 1.0,
        worker_id: int = 0,
    ) -> list[tuple[InferenceRequest, RolloutHandle]] | None:
        """Collect the next batch, or ``None`` once closed and drained.

        ``worker_id`` is accepted for interface parity with
        :class:`~repro.serve.scheduler.ScheduledQueue` and ignored —
        the FIFO has no affinity.

        The head-of-line request determines the batch key; same-key
        requests (in arrival order) join until ``max_batch_size`` or
        until ``max_wait_s`` has elapsed since collection began.
        Other-key requests stay queued and are served by subsequent
        calls in arrival order.

        Requests whose deadline expired while queued are shed: their
        handles finish with
        :class:`~repro.serve.admission.DeadlineExpired` and they never
        join a batch. Expiry is enforced both at dequeue and again at
        batch close, so a request that expires *during* the
        ``max_wait_s`` collection window is shed rather than executed;
        if that empties the batch, collection restarts.
        """
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        with self._cond:
            while True:
                while True:
                    head = self._pop_live_head()
                    if head is not None:
                        break
                    if not self._pending:
                        if self._closed:
                            return None
                        self._cond.wait(timeout=poll_s)
                batch = [head]
                key = head[0].key
                deadline = time.perf_counter() + max_wait_s
                while len(batch) < max_batch_size:
                    self._take_matching(key, batch, max_batch_size)
                    if len(batch) >= max_batch_size or self._closed:
                        break
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
                self._take_matching(key, batch, max_batch_size)
                now = time.perf_counter()
                live = []
                for req, handle in batch:
                    if req.expired(now):
                        shed_expired(
                            req, handle, now, self._admission, self._trace,
                            at_close=True,
                        )
                    else:
                        live.append((req, handle))
                if not live:
                    continue  # everything expired mid-window; collect again
                if self._admission is not None:
                    for req, _ in live:
                        self._admission.note_dequeued(req.waited_s(now))
                return live

    def _pop_live_head(self) -> tuple[InferenceRequest, RolloutHandle] | None:
        """Pop the first non-expired request, shedding expired ones.

        Caller holds the lock. Returns ``None`` when the queue is empty
        after shedding.
        """
        now = time.perf_counter()
        popped = bool(self._pending)
        head = None
        while self._pending and head is None:
            req, handle = self._pending.pop(0)
            if req.expired(now):
                self._shed_expired(req, handle, now)
            else:
                head = (req, handle)
        if popped:
            self._publish_depth()
        return head

    def _shed_expired(
        self, req: InferenceRequest, handle: RolloutHandle, now: float
    ) -> None:
        # caller holds the lock
        shed_expired(req, handle, now, self._admission, self._trace)

    def _take_matching(
        self,
        key: BatchKey,
        batch: list,
        max_batch_size: int,
    ) -> None:
        # caller holds the lock
        now = time.perf_counter()
        kept = []
        for item in self._pending:
            if item[0].expired(now):
                self._shed_expired(item[0], item[1], now)
            elif len(batch) < max_batch_size and item[0].key == key:
                batch.append(item)
            else:
                kept.append(item)
        if len(kept) < len(self._pending):
            self._pending[:] = kept
            self._publish_depth()

    def depth(self) -> int:
        """Current number of pending (not yet collected) requests."""
        with self._cond:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        with self._cond:
            return self._closed

    @property
    def depth_high_water(self) -> int:
        """Peak pending depth recorded in the queue's registry."""
        return int(self._depth_high_water.value())

    def close(self) -> None:
        """Stop accepting requests; pending ones are still served."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
