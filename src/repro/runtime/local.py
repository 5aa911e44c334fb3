"""LocalEngine: inline execution with zero serving overhead.

The thinnest :class:`~repro.runtime.api.Engine`: no queue, no worker
threads, no sockets — a request executes inline on the calling thread
through the same batch executor the serving layers use (which, for a
single request, is exactly the direct
:func:`repro.gnn.rollout.workspace_steps` loop on the un-tiled graph).
Because all engines share that executor, a ``LocalEngine`` trajectory
is bitwise identical to a pooled or remote one *by construction*.

Use it for scripts, tests, and notebooks where batching across clients
has nothing to batch; swap the URL to ``pool://`` or ``tcp://…`` when
concurrency arrives — the calling code does not change.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterator, Sequence

from repro.comm.modes import HaloMode
from repro.ensemble.api import EnsembleFuture
from repro.gnn.architecture import MeshGNN
from repro.gnn.config import GNNConfig
from repro.graph.distributed import LocalGraph
from repro.graph.io import load_rank_graphs
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span, TraceBuffer, wall_from_perf
from repro.runtime.api import (
    Engine,
    EngineCapabilities,
    RolloutFuture,
    RolloutRequest,
    StepFrame,
    TrainFuture,
    TrainRequest,
    TrainResult,
)
from repro.serve.cache import GraphAsset
from repro.serve.executor import execute_batch, execute_train_job
from repro.serve.metrics import MetricsAggregator, RequestMetrics
from repro.serve.registry import ModelRegistry

_CAPABILITIES = EngineCapabilities(
    transport="local",
    training=True,
    streaming=False,  # frames are computed before the first yield
    in_memory_assets=True,
    float32=True,
    ensemble=True,
)


class _CompletedRolloutFuture(RolloutFuture):
    """A rollout that already ran: frames replay from memory.

    ``frames()`` yields the finished trajectory (the local engine
    computes inline, so "streaming" is replay — capability
    ``streaming`` is reported false). Single-consumer like every
    future; ``result()`` may be called any number of times.
    """

    def __init__(self, request: RolloutRequest, states: list, metrics):
        super().__init__(request)
        self._collected = list(states)
        self.metrics = metrics

    def _frames(self, timeout: float | None) -> Iterator[StepFrame]:
        for step, state in enumerate(self._collected):
            yield StepFrame(step, state)

    @property
    def done(self) -> bool:
        return True


class _CompletedEnsembleFuture(EnsembleFuture):
    """An ensemble that already ran: reduction replays from memory.

    The member trajectories were computed inline (one tiled batch);
    ``_frames`` replays them through the shared lockstep driver, so
    the reduction/stability path is byte-for-byte the one every other
    engine runs.
    """

    def __init__(
        self, request, trajectories, metrics, on_outcome=None, trace=None
    ):
        super().__init__(request)
        self._trajectories = trajectories  # per member: list of states
        self.metrics = metrics
        self._on_outcome = on_outcome
        self._trace = trace

    def _frames(self, timeout):
        from repro.ensemble.driver import SummaryStream, member_stream

        streams = [
            member_stream(m, iter(self._trajectories[i]))
            for i, m in enumerate(self.request.members)
        ]
        stream = SummaryStream(
            self.request, streams, trace=self._trace,
            on_outcome=self._on_outcome,
        )
        for frame in stream.frames():
            self._collected.append(frame)
            yield frame
        self.stability = stream.report

    @property
    def done(self) -> bool:
        return True


class _CompletedTrainFuture(TrainFuture):
    """A training job that already ran inline."""

    def __init__(self, request: TrainRequest, result: TrainResult):
        super().__init__(request)
        self._result = result

    def result(self, timeout: float | None = None) -> TrainResult:
        return self._result

    @property
    def done(self) -> bool:
        return True


class LocalEngine(Engine):
    """Inline engine over in-process assets (see module docstring).

    Thread safety: asset registration and submission may be called from
    any thread (the registry and metrics are lock-guarded; the asset
    table is replace-on-write); a submitted request executes on the
    *calling* thread, so concurrent submissions simply run
    concurrently — multi-rank assets each spin up their own short-lived
    rank world. Determinism: execution is the shared batch executor
    with a batch of one, so results are bitwise equal to every other
    engine and to a hand-wired ``rollout()``.
    """

    def __init__(
        self,
        request_timeout_s: float = 120.0,
        trace_capacity: int = 2048,
        fast_math: bool = True,
    ):
        self.request_timeout_s = request_timeout_s
        #: route execution through the fused inference kernels (bitwise
        #: identical to the reference op chain; False pins the unfused
        #: workspace loop)
        self.fast_math = fast_math
        self._metrics = MetricsAggregator()
        self._registry = ModelRegistry(metrics=self._metrics.registry)
        self._assets: dict[str, GraphAsset] = {}
        #: span ring: inline execution records one ``execute`` span per
        #: request (there is no queue, so that is the whole lifecycle)
        self.trace = TraceBuffer(trace_capacity)

    # -- lifecycle -----------------------------------------------------------

    def capabilities(self) -> EngineCapabilities:
        return _CAPABILITIES

    def close(self) -> None:
        """Nothing to release (no threads, no sockets); idempotent."""

    # -- assets --------------------------------------------------------------

    def register_model(self, name: str, model: MeshGNN) -> None:
        self._registry.register_model(name, model)

    def register_checkpoint(
        self,
        name: str,
        path: str | Path,
        expect_config: GNNConfig | None = None,
        eager: bool = False,
    ) -> None:
        self._registry.register_checkpoint(name, path, expect_config, eager)

    def register_graph(self, key: str, graphs: Sequence[LocalGraph]) -> None:
        """Pin an in-memory partitioned graph (plans precompiled once)."""
        if not graphs:
            raise ValueError("graphs must be non-empty")
        for g in graphs:
            _ = g.plans  # lazy compile; cached on the graph instance
        self._assets[key] = GraphAsset(key=key, graphs=tuple(graphs))
        self._publish_assets()

    def register_graph_dir(self, key: str, directory: str | Path) -> None:
        """Load a rank-payload directory eagerly and pin it."""
        self.register_graph(key, load_rank_graphs(directory))

    def model_names(self) -> list:
        return self._registry.names()

    def graph_keys(self) -> list:
        return sorted(self._assets)

    def _publish_assets(self) -> None:
        """Re-measure the pinned-asset levels (entries / resident bytes)."""
        resident = sum(a.nbytes for a in self._assets.values())
        reg = self._metrics.registry
        with reg.atomic():
            reg.get("repro_graph_cache_entries").set(len(self._assets))
            reg.get("repro_graph_cache_resident_bytes").set(resident)

    def _record(self, per_request: list, execution) -> None:
        self._metrics.record_batch(per_request, execution)
        if execution.tile_misses:  # tiling grew the asset's resident bytes
            self._publish_assets()

    def _asset(self, key: str) -> GraphAsset:
        try:
            return self._assets[key]
        except KeyError:
            raise KeyError(
                f"no graph registered under {key!r}; known: {self.graph_keys()}"
            ) from None

    # -- submission ----------------------------------------------------------

    def _submit_rollout(self, request: RolloutRequest) -> RolloutFuture:
        model = self._registry.get(request.model)
        asset = self._asset(request.graph)
        request = request.resolved(HaloMode.NEIGHBOR_A2A)
        submitted = time.perf_counter()
        states: list = []
        execution = execute_batch(
            model,
            asset,
            [request],
            lambda i, step, state: states.append(state),
            timeout=self.request_timeout_s,
            fast_math=self.fast_math,
        )
        finished = time.perf_counter()
        if self.trace.enabled:
            self.trace.record_span(
                request.trace_id,
                "execute",
                "server",
                wall_from_perf(submitted),
                finished - submitted,
                model=request.model,
                graph=request.graph,
                batch_size=execution.batch_size,
                world_size=execution.world_size,
                n_steps=request.n_steps,
            )
        metrics = RequestMetrics(
            request_id=request.request_id,
            model=request.model,
            graph=request.graph,
            world_size=execution.world_size,
            batch_size=execution.batch_size,
            n_steps=request.n_steps,
            queue_wait_s=0.0,  # no queue to wait in
            exec_s=execution.exec_s,
            latency_s=finished - submitted,
            batch_comm_bytes=execution.comm.bytes_sent,
            batch_comm_messages=execution.comm.messages,
        )
        self._record([metrics], execution)
        return _CompletedRolloutFuture(request, states, metrics)

    def _submit_ensemble(self, request):
        """Execute all members inline as ONE tiled batch, reduce on replay.

        The members share a batch key by construction, so the whole
        ensemble rides a single block-diagonal pass — the tiling
        contract makes each member's trajectory bitwise-identical to
        submitting its perturbed state alone.
        """
        model = self._registry.get(request.model)
        asset = self._asset(request.graph)
        request = request.resolved(HaloMode.NEIGHBOR_A2A)
        perturb_at = time.perf_counter()
        members = request.member_requests()
        if self.trace.enabled:
            self.trace.record_span(
                request.trace_id, "perturb", "ensemble",
                wall_from_perf(perturb_at), time.perf_counter() - perturb_at,
                members=len(members), seed=request.perturbation.seed,
            )
        submitted = time.perf_counter()
        trajectories: list = [[] for _ in members]
        execution = execute_batch(
            model,
            asset,
            members,
            lambda i, step, state: trajectories[i].append(state),
            timeout=self.request_timeout_s,
            fast_math=self.fast_math,
        )
        finished = time.perf_counter()
        if self.trace.enabled:
            self.trace.record_span(
                request.trace_id, "execute", "server",
                wall_from_perf(submitted), finished - submitted,
                model=request.model, graph=request.graph,
                batch_size=execution.batch_size,
                world_size=execution.world_size,
                n_steps=request.n_steps,
            )
        per_request = [
            RequestMetrics(
                request_id=member.request_id,
                model=member.model,
                graph=member.graph,
                world_size=execution.world_size,
                batch_size=execution.batch_size,
                n_steps=member.n_steps,
                queue_wait_s=0.0,
                exec_s=execution.exec_s,
                latency_s=finished - submitted,
                batch_comm_bytes=execution.comm.bytes_sent,
                batch_comm_messages=execution.comm.messages,
            )
            for member in members
        ]
        self._record(per_request, execution)
        self._metrics.add(
            ensemble_requests=1, ensemble_members=len(members),
            ensemble_chunks=1,
        )
        return _CompletedEnsembleFuture(
            request, trajectories,
            metrics={"members": len(members), "exec_s": execution.exec_s},
            on_outcome=lambda blew_up, stopped: self._metrics.add(
                ensemble_blow_ups=blew_up, ensemble_early_stops=stopped
            ),
            trace=self.trace if self.trace.enabled else None,
        )

    def _submit_train(self, request: TrainRequest) -> TrainFuture:
        model = self._registry.get(request.model)
        asset = self._asset(request.graph)
        request = request.resolved(HaloMode.NEIGHBOR_A2A)
        result = execute_train_job(
            model, asset, request, timeout=self.request_timeout_s
        )
        self._metrics.add(train_jobs=1, train_s=result.train_s)
        return _CompletedTrainFuture(request, result)

    # -- observability -------------------------------------------------------

    def metrics_registry(self) -> MetricsRegistry:
        """The engine's metrics store (same series as the serving engines;
        there is no queue, so its gauges stay at zero)."""
        return self._metrics.registry

    def get_trace(self, trace_id: str) -> list[Span]:
        return self.trace.trace(trace_id)
