"""ServeStats is a view of the metrics registry, and the view commutes
with merging.

Every serving counter is stored once, in a
:class:`~repro.obs.registry.MetricsRegistry`;
:meth:`ServeStats.from_registry` reads it back. The cluster layer leans
on the view being merge-compatible: its ``metrics_registry()`` merges
shard registries (relabeled ``shard=<id>``) and its ``stats()`` is the
view of that merge, which must equal combining the shards' own views
field by field — counters sum, means re-weight by request count,
gauges follow their declared sum/max policy, per-label dicts and
histograms merge key-wise and bucket-wise.
"""

import math

import pytest

from repro.comm.backend import TrafficStats
from repro.obs.registry import MetricsRegistry
from repro.serve.executor import BatchExecution
from repro.serve.metrics import (
    MetricsAggregator,
    RequestMetrics,
    ServeStats,
    metric_fields,
    serve_registry,
    stats_markdown,
)

LANES = ("m1/g/None/direct/float64", "m2/g/None/direct/float32")


def make_registry(seed: int) -> MetricsRegistry:
    """A deterministic registry with every declared metric populated."""
    reg = serve_registry()
    for i, (path, f) in enumerate(metric_fields()):
        meta = f.metadata
        if "kind" not in meta:
            continue  # a second reading of a metric declared elsewhere
        metric = reg.get(meta["metric"])
        value = (seed + 1) * (i + 1)
        if meta["kind"] == "histogram":
            counts = [(seed + i + b) % 3 for b in range(len(metric.bounds) + 1)]
            labelsets = [{"lane": LANES[0]}] if meta["by"] else [{}]
            for labels in labelsets:
                metric.load(counts, 0.1 * value, **labels)
        elif meta.get("by"):
            for j, lane in enumerate(LANES):
                metric.set(value + j, lane=lane)
        elif path == "requests":
            metric.inc(value, model="m1", graph="g")
            metric.inc(seed + 1, model="m2", graph="g")
        elif path == "registry.loads":
            metric.inc(value, model="m1")
            metric.inc(1, model="m2")
        elif meta["kind"] == "counter":
            metric.inc(value * (1.25 if isinstance(f.default, float) else 1))
        else:
            metric.set(value)
    return reg


def cluster_view(*registries) -> ServeStats:
    merged = MetricsRegistry()
    for i, reg in enumerate(registries):
        merged.merge(reg.relabel(shard=f"s{i}"))
    return ServeStats.from_registry(merged)


def leaf(stats: ServeStats, path: str):
    for part in path.split("."):
        stats = getattr(stats, part)
    return stats


class TestMergeCommutes:
    def test_view_of_merge_equals_merge_of_views(self):
        regs = [make_registry(0), make_registry(1)]
        views = [ServeStats.from_registry(r) for r in regs]
        merged = cluster_view(*regs)
        requests = sum(v.requests for v in views)
        for path, f in metric_fields():
            meta = f.metadata
            got = leaf(merged, path)
            parts = [leaf(v, path) for v in views]
            if meta.get("read") == "mean":
                want = sum(p * v.requests for p, v in zip(parts, views)) / requests
                # the view divides the summed sums; the old re-weighted
                # mean multiplied back first — equal up to rounding
                assert got == pytest.approx(want, rel=1e-12), path
            elif isinstance(got, dict):
                assert set(got) == set().union(*parts), path
                for key, value in got.items():
                    shares = [p[key] for p in parts if key in p]
                    if isinstance(value, int):
                        assert value == sum(shares), path
                    else:
                        assert value.counts == [sum(c) for c in zip(
                            *(h.counts for h in shares))], path
            elif hasattr(got, "counts"):
                assert got.counts == [
                    a + b for a, b in zip(*(p.counts for p in parts))], path
                assert got.sum_s == pytest.approx(sum(p.sum_s for p in parts))
            elif meta.get("merge") == "max":
                assert got == max(parts), path
            else:
                assert got == pytest.approx(sum(parts), rel=1e-12), path

    def test_view_is_independent_of_shard_merge_order(self):
        # relabelled shards never share a sample, so a merge is a
        # disjoint union and the view sums in one canonical order
        a, b, c = (make_registry(i).relabel(shard=f"s{i}") for i in range(3))
        left = MetricsRegistry().merge(a).merge(b).merge(c)
        right = MetricsRegistry().merge(c).merge(MetricsRegistry().merge(b).merge(a))
        assert ServeStats.from_registry(left) == ServeStats.from_registry(right)
        assert left.prometheus_text() == right.prometheus_text()

    def test_shard_labels_keep_series_apart(self):
        a, b = make_registry(0), make_registry(1)
        merged = MetricsRegistry()
        merged.merge(a.relabel(shard="s0"))
        merged.merge(b.relabel(shard="s1"))
        req = merged.counter("repro_requests_total")
        assert req.value(shard="s0", model="m1", graph="g") \
            == a.counter("repro_requests_total").value(model="m1", graph="g")
        assert req.total() == float(
            ServeStats.from_registry(a).requests
            + ServeStats.from_registry(b).requests
        )


class TestRegistryContent:
    def test_means_are_stored_as_sums(self):
        reg = make_registry(2)
        view = ServeStats.from_registry(reg)
        latency = reg.counter("repro_latency_seconds_total").total()
        assert view.mean_latency_s * view.requests == pytest.approx(latency)
        assert (reg.gauge("repro_queue_depth_high_water", merge="max").value()
                == float(view.queue_depth_high_water))

    def test_per_request_metrics_label_the_request_counter(self):
        metrics = MetricsAggregator()
        per_request = [
            RequestMetrics(request_id=i, model="m1" if i % 2 else "m2",
                           graph="g", world_size=1, batch_size=4, n_steps=3,
                           queue_wait_s=0.0, exec_s=0.01, latency_s=0.01,
                           batch_comm_bytes=0, batch_comm_messages=0)
            for i in range(4)
        ]
        metrics.record_batch(per_request, BatchExecution(
            batch_size=4, world_size=1, n_steps=3, exec_s=0.01,
            comm=TrafficStats()))
        req = metrics.registry.counter("repro_requests_total")
        assert req.value(model="m1", graph="g") == 2.0
        assert req.value(model="m2", graph="g") == 2.0
        view = ServeStats.from_registry(metrics.registry)
        assert (view.requests, view.batches, view.steps) == (4, 1, 3)
        assert view.mean_batch_size == 4.0

    def test_fast_math_counters_merge(self):
        """The fused / f32 batch counters ride the same sum policy as
        every other counter, and the markdown table shows the split."""
        a, b = make_registry(0), make_registry(2)
        va, vb = ServeStats.from_registry(a), ServeStats.from_registry(b)
        merged = cluster_view(a, b)
        assert merged.fused_batches == va.fused_batches + vb.fused_batches
        assert merged.f32_batches == va.f32_batches + vb.f32_batches
        text = stats_markdown(merged)
        assert (f"| fused / f32 batches | {merged.fused_batches} / "
                f"{merged.f32_batches} |" in text)

    def test_scheduler_counters_merge(self):
        """The scheduler series follow the same sum/max policies; the
        markdown table renders the policy counters."""
        a, b = make_registry(0), make_registry(1)
        va, vb = ServeStats.from_registry(a), ServeStats.from_registry(b)
        sched = cluster_view(a, b).scheduler
        assert sched.dispatches == (va.scheduler.dispatches
                                    + vb.scheduler.dispatches)
        assert sched.lane_depth_high_water == max(
            va.scheduler.lane_depth_high_water,
            vb.scheduler.lane_depth_high_water,
        )
        assert sched.lanes == va.scheduler.lanes + vb.scheduler.lanes == 4
        label = LANES[0]
        assert sched.lane_depth[label] == (va.scheduler.lane_depth[label]
                                           + vb.scheduler.lane_depth[label])
        hist = a.get("repro_lane_wait_seconds")
        ((_, (counts, sum_s)),) = hist.samples().items()
        assert counts == list(va.scheduler.lane_wait[label].counts)
        assert sum_s == va.scheduler.lane_wait[label].sum_s
        text = stats_markdown(cluster_view(a, b))
        assert (f"| scheduler dispatches / lanes pending | "
                f"{sched.dispatches} / {sched.lanes} |" in text)
        assert (f"| affinity hits / steals | {sched.affinity_hits} / "
                f"{sched.affinity_steals} |" in text)

    def test_queue_wait_histogram_maps_bucket_for_bucket(self):
        reg = make_registry(1)
        view = ServeStats.from_registry(reg)
        hist = reg.get("repro_queue_wait_seconds")
        ((_, (counts, sum_s)),) = hist.samples().items()
        assert counts == list(view.admission.queue_wait.counts)
        assert sum(counts) == view.admission.queue_wait.total
        assert sum_s == view.admission.queue_wait.sum_s


class TestZeroRequestSnapshots:
    """Satellite: a fresh service's stats table must render cleanly."""

    def test_markdown_has_no_nan_and_no_fake_zeros(self):
        text = stats_markdown(ServeStats())
        assert "nan" not in text.lower()
        assert "| mean latency (ms) | - |" in text
        assert "| mean batch size | - |" in text
        assert "| max batch size | - |" in text
        assert "| batching factor | - |" in text
        assert "| graph-cache hit rate | - |" in text

    def test_nan_means_from_foreign_snapshots_render_as_dash(self):
        s = ServeStats(requests=3, mean_latency_s=math.nan)
        text = stats_markdown(s)
        assert "nan" not in text.lower()
        assert "| mean latency (ms) | - |" in text

    def test_zero_request_merge_still_renders(self):
        text = stats_markdown(cluster_view())
        assert "nan" not in text.lower()
        assert "| requests served | 0 |" in text
        assert "| mean latency (ms) | - |" in text
