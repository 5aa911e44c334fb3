"""Mergeable serve registries: the arithmetic behind cluster stats().

A cluster's ``stats()`` is :meth:`ServeStats.from_registry` of its
shards' registries, each relabeled ``shard=<id>`` and merged. These
tests pin that arithmetic on hand-built shard registries: counters
sum, means re-weight by request count, peaks take the max, histograms
merge bucket-wise.
"""

import json

import pytest

from repro.obs.registry import MetricsRegistry
from repro.serve.metrics import ServeStats, serve_registry, stats_markdown


def shard(requests, mean_latency_s):
    """One shard's registry, holding what its service would record."""
    reg = serve_registry()
    for name, value in (
        ("repro_requests_total", requests),
        ("repro_batches_total", requests),
        ("repro_steps_total", requests * 2),
        ("repro_request_batch_size_total", 1.0 * requests),
        ("repro_request_queue_wait_seconds_total", 0.001 * requests),
        ("repro_latency_seconds_total", mean_latency_s * requests),
        ("repro_comm_bytes_total", 100 * requests),
        ("repro_comm_messages_total", requests),
        ("repro_tile_cache_hits_total", requests),
        ("repro_tile_cache_misses_total", 1),
        ("repro_train_jobs_total", 1),
        ("repro_train_seconds_total", 0.5),
        ("repro_arena_reallocations_total", 3),
    ):
        reg.counter(name).inc(value)
    for name, value in (
        ("repro_max_batch_size", 1),
        ("repro_max_latency_seconds", mean_latency_s * 2),
        ("repro_queue_depth", 1),
        ("repro_queue_depth_high_water", requests),
    ):
        reg.get(name).set(value)
    return reg


def merged(*shards):
    """The cluster view: shard-relabelled registries, merged."""
    reg = MetricsRegistry()
    for i, s in enumerate(shards):
        reg.merge(s.relabel(shard=f"s{i}"))
    return ServeStats.from_registry(reg)


class TestMergeStats:
    def test_empty_merges_to_zero_snapshot(self):
        assert merged() == ServeStats()
        assert ServeStats.from_registry(serve_registry()) == ServeStats()

    def test_single_snapshot_is_identity_on_counters(self):
        s = shard(4, 0.010)
        assert merged(s) == ServeStats.from_registry(s)
        view = merged(s)
        assert view.requests == 4
        assert view.mean_latency_s == pytest.approx(0.010)
        assert view.comm_bytes == 400

    def test_counters_sum_and_means_reweight(self):
        view = merged(shard(1, 0.010), shard(3, 0.002))
        assert view.requests == 4
        assert view.batches == 4
        assert view.steps == 8
        assert view.comm_bytes == 400
        assert view.queue_depth == 2            # pending work sums
        assert view.queue_depth_high_water == 3  # peaks take the max
        assert view.max_latency_s == pytest.approx(0.020)
        # weighted mean: (1*10ms + 3*2ms) / 4 = 4ms
        assert view.mean_latency_s == pytest.approx(0.004)
        assert view.train_jobs == 2
        assert view.arena_reallocations == 6

    def test_zero_request_shards_do_not_skew_means(self):
        view = merged(shard(10, 0.005), shard(0, 0.0))
        assert view.mean_latency_s == pytest.approx(0.005)

    def test_nested_stats_merge(self):
        a, b = serve_registry(), serve_registry()
        for reg, cache, registry, admission in (
            (a,
             dict(entries=1, resident_bytes=100, hits=2, misses=1,
                  evictions=1, plan_build_s=0.1, evicted_reload_s=0.2),
             dict(registered=1, resident=1, loads={"m": 1}),
             dict(accepted=2, shed=1)),
            (b,
             dict(entries=2, resident_bytes=50, hits=1, misses=3,
                  evictions=0, plan_build_s=0.05, evicted_reload_s=0.0),
             dict(registered=1, resident=0, loads={"m": 1, "n": 1}),
             dict(accepted=3, expired=2)),
        ):
            reg.counter("repro_requests_total").inc()
            reg.get("repro_graph_cache_entries").set(cache["entries"])
            reg.get("repro_graph_cache_resident_bytes").set(
                cache["resident_bytes"])
            for field in ("hits", "misses", "evictions"):
                reg.counter(f"repro_graph_cache_{field}_total").inc(
                    cache[field])
            reg.counter("repro_graph_cache_plan_build_seconds_total").inc(
                cache["plan_build_s"])
            reg.counter("repro_graph_cache_evicted_reload_seconds_total").inc(
                cache["evicted_reload_s"])
            reg.get("repro_models_registered").set(registry["registered"])
            reg.get("repro_models_resident").set(registry["resident"])
            for model, loads in registry["loads"].items():
                reg.counter("repro_model_loads_total").inc(loads, model=model)
            for field, value in admission.items():
                reg.counter(f"repro_admission_{field}_total").inc(value)
        view = merged(a, b)
        assert view.cache.entries == 3
        assert view.cache.resident_bytes == 150
        assert view.cache.hit_rate == pytest.approx(3 / 7)
        assert view.cache.evicted_reload_s == pytest.approx(0.2)
        assert view.registry.registered == 2
        assert view.registry.per_model_loads == {"m": 2, "n": 1}
        assert view.admission.accepted == 5
        assert view.admission.shed == 1
        assert view.admission.expired == 2

    def test_merged_snapshot_renders(self):
        table = stats_markdown(merged(shard(2, 0.01), shard(3, 0.02)))
        assert "| requests served | 5 |" in table
        assert "evicted reload cost (ms)" in table
        assert "worker-arena reallocations" in table


class TestWaitHistogramMerge:
    def test_bucketwise_sum(self):
        a, b = serve_registry(), serve_registry()
        a.get("repro_queue_wait_seconds").load([2] + [0] * 10, 0.001)
        b.get("repro_queue_wait_seconds").load(
            [1, 0, 0, 1] + [0] * 7, 0.05)
        wait = merged(a, b).admission.queue_wait
        assert wait.counts[0] == 3
        assert wait.counts[3] == 1
        assert wait.total == 4
        assert wait.sum_s == pytest.approx(0.051)

    def test_bound_mismatch_rejected(self):
        a = serve_registry()
        b = MetricsRegistry()
        b.histogram("repro_queue_wait_seconds", bounds=(1.0, 2.0)).load(
            [0, 0, 0], 0.0)
        with pytest.raises(ValueError, match="bounds"):
            a.merge(b)
        with pytest.raises(ValueError, match="bounds"):
            ServeStats.from_registry(b)

    def test_roundtrip_through_wire_dict_then_merge(self):
        """The cluster merges registries reconstructed from the wire."""
        a, b = shard(2, 0.01), shard(1, 0.02)
        rehydrated = [
            MetricsRegistry.from_snapshot(json.loads(json.dumps(r.snapshot())))
            for r in (a, b)
        ]
        assert merged(*rehydrated) == merged(a, b)
        view = merged(a, b)
        assert ServeStats.from_dict(json.loads(json.dumps(view.to_dict()))) \
            == view
