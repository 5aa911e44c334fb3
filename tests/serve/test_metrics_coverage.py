"""Every ServeStats field is backed by exactly one declared metric.

The metrics registry is the only store of serving counters and
``ServeStats.from_registry`` the only way stats are derived, so a
stats field without a backing metric would silently read as zero, and
a metric declared twice would double-book. These tests walk the stats
dataclasses and the declarations (field metadata) against each other
and against a live service's registry.
"""

import dataclasses
import sys
import threading

import numpy as np

from repro.comm.backend import TrafficStats
from repro.serve import (
    BatchExecution,
    InferenceService,
    RequestMetrics,
    ServeConfig,
    ServeStats,
    WaitHistogram,
)
from repro.serve.metrics import MetricsAggregator, metric_fields

KINDS = {"counter": "Counter", "gauge": "Gauge", "histogram": "Histogram"}


def leaf_paths(cls, prefix=""):
    """Every leaf of a stats view: nested views are walked; histograms
    and per-label dicts are leaves."""
    for f in dataclasses.fields(cls):
        factory = f.default_factory
        if dataclasses.is_dataclass(factory) and factory is not WaitHistogram:
            yield from leaf_paths(factory, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def test_every_leaf_field_names_one_metric():
    backed = dict(metric_fields())
    assert sorted(backed) == sorted(leaf_paths(ServeStats))
    for path, f in backed.items():
        assert f.metadata["metric"].startswith("repro_"), path


def test_each_metric_is_declared_exactly_once():
    declared: dict = {}
    for path, f in metric_fields():
        if "kind" in f.metadata:
            declared.setdefault(f.metadata["metric"], []).append(path)
    assert {name: paths for name, paths in declared.items()
            if len(paths) != 1} == {}
    for path, f in metric_fields():  # second readings name a declared metric
        assert f.metadata["metric"] in declared, path


def test_a_live_service_registry_holds_every_backing_metric():
    registry = InferenceService().metrics_registry()
    for path, f in metric_fields():
        metric = registry.get(f.metadata["metric"])
        assert metric is not None, path
        if "kind" in f.metadata:
            assert type(metric).__name__ == KINDS[f.metadata["kind"]], path
            if f.metadata["kind"] == "gauge":
                assert metric.merge == f.metadata["merge"], path
            assert metric.help == f.metadata["help"], path


def test_components_write_into_the_one_service_registry(serve_model, full_graph,
                                                        x0):
    with InferenceService(ServeConfig(max_batch_size=2, max_wait_s=0.0)) as svc:
        svc.register_model("m", serve_model)
        svc.register_graph("g", [full_graph])
        svc.rollout("m", "g", x0, 2)
        registry = svc.metrics_registry()
        stats = svc.stats()
    assert stats == ServeStats.from_registry(registry)
    assert (stats.requests, stats.batches, stats.steps) == (1, 1, 2)
    assert stats.admission.accepted == 1          # admission controller
    assert stats.scheduler.dispatches == 1        # scheduler queue
    assert stats.queue_depth_high_water == 1
    assert stats.cache.misses == 1                # graph cache
    assert stats.cache.entries == 1
    assert stats.registry.per_model_loads == {"m": 1}  # model registry
    assert stats.mean_latency_s > 0.0             # the batch recorder


def test_resident_bytes_follow_tiling(serve_model, dist_graph, x0):
    """A tiled batch grows its asset after admission; the cache level is
    re-measured then, so the stats report what is actually resident."""
    svc = InferenceService(ServeConfig(max_batch_size=4, max_wait_s=0.05))
    svc.register_model("m", serve_model)
    svc.register_graph("g", dist_graph.locals)
    with svc:
        handles = [svc.submit("m", "g", x0, 1) for _ in range(4)]
        for h in handles:
            h.result(timeout=30.0)
    stats = svc.stats()  # workers joined: every batch fully accounted
    assert stats.tile_misses > 0
    assert stats.cache.resident_bytes == svc.asset("g").nbytes


def test_restarted_queue_keeps_counting(serve_model, full_graph, x0):
    """stop() + start() rebuilds the queue; it writes into the same
    registry, so counters and high waters span the service lifetime."""
    svc = InferenceService(ServeConfig(max_batch_size=4, max_wait_s=0.0))
    svc.register_model("m", serve_model)
    svc.register_graph("g", [full_graph])
    with svc:
        handles = [svc.submit("m", "g", x0, 1) for _ in range(3)]
        for h in handles:
            h.result(timeout=30.0)
    first = svc.stats()
    with svc:
        svc.rollout("m", "g", np.array(x0), 1)
    second = svc.stats()
    assert second.scheduler.dispatches == first.scheduler.dispatches + 1
    assert second.queue_depth_high_water == first.queue_depth_high_water >= 1
    assert second.admission.accepted == 4
    assert second.queue_depth == 0


def test_concurrent_recording_loses_no_update_and_reads_whole_batches():
    """Workers record batches concurrently while a reader takes views:
    no increment is lost, and every view sees whole batches (a batch's
    updates land under one registry lock, a view is one snapshot)."""
    n_threads, n_batches = 8, 200
    metrics = MetricsAggregator()
    per_request = [
        RequestMetrics(request_id=i, model="m", graph="g", world_size=1,
                       batch_size=2, n_steps=3, queue_wait_s=0.001,
                       exec_s=0.01, latency_s=0.01, batch_comm_bytes=5,
                       batch_comm_messages=1)
        for i in range(2)
    ]
    execution = BatchExecution(batch_size=2, world_size=1, n_steps=3,
                               exec_s=0.01,
                               comm=TrafficStats(bytes_sent=5, messages=1))
    torn: list = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            view = ServeStats.from_registry(metrics.registry)
            if (view.requests, view.steps) != (2 * view.batches,
                                               3 * view.batches):
                torn.append(view)

    def writer():
        for _ in range(n_batches):
            metrics.record_batch(per_request, execution)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    watcher = threading.Thread(target=reader)
    writers = [threading.Thread(target=writer) for _ in range(n_threads)]
    try:
        watcher.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join(timeout=60.0)
            assert not t.is_alive()
    finally:
        stop.set()
        watcher.join(timeout=60.0)
        sys.setswitchinterval(interval)
    assert not watcher.is_alive()
    view = ServeStats.from_registry(metrics.registry)
    batches = n_threads * n_batches
    assert (view.batches, view.requests) == (batches, 2 * batches)
    assert view.comm_bytes == 5 * batches
    assert view.mean_batch_size == 2.0
    assert torn == []
