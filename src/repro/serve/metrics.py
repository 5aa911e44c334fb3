"""Serving metrics: the registry is the store, ``ServeStats`` its view.

Every serving counter lives in one
:class:`~repro.obs.registry.MetricsRegistry` per engine (a service, a
``local://`` engine; a cluster router merges its shards'). Each metric
is declared **once**, on the stats field it backs (dataclass field
metadata): its name, kind, help text and — for gauges — the ``sum`` /
``max`` policy that rolls samples up across labels and shards. The
components increment the registry directly: the admission controller,
the scheduler queue, the graph cache, the model registry, and the
:class:`MetricsAggregator` the worker pool reports batches into.

:meth:`ServeStats.from_registry` is the one function that reads it
back. Means are ``sum / requests``; label-blind rollups follow each
gauge's declared policy; per-lane and per-model dicts group by their
label. The same function therefore reads a shard's registry and the
cluster's shard-relabelled merge (:meth:`~repro.obs.registry.
MetricsRegistry.relabel` + :meth:`~repro.obs.registry.MetricsRegistry.
merge`), so the cluster's view equals the sum of its shards' by
construction. Rendering reuses the markdown-table idiom of
:mod:`repro.perf.report`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.obs.registry import MetricsRegistry
from repro.perf.report import markdown_table

if TYPE_CHECKING:
    from repro.serve.executor import BatchExecution

#: Upper bucket bounds (seconds) of the queue-wait histograms; the
#: implicit final bucket is +inf. Log-spaced 1 ms .. 30 s.
WAIT_BUCKETS_S = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)


# -- declarations (stats-field metadata) -------------------------------------


def _counter(name: str, help: str, default=0):
    return field(default=default, metadata={
        "metric": name, "kind": "counter", "help": help,
    })


def _gauge(name: str, help: str, merge: str, default=0, by: str | None = None):
    kwargs = {"default_factory": dict} if by else {"default": default}
    return field(**kwargs, metadata={
        "metric": name, "kind": "gauge", "help": help, "merge": merge,
        "by": by,
    })


def _mean(name: str, help: str):
    """A per-request mean, stored as the counter of its sum."""
    return field(default=0.0, metadata={
        "metric": name, "kind": "counter", "help": help, "read": "mean",
    })


def _histogram(name: str, help: str, by: str | None = None):
    return field(default_factory=dict if by else WaitHistogram, metadata={
        "metric": name, "kind": "histogram", "help": help, "by": by,
    })


def _view(name: str, read: str = "value", by: str | None = None):
    """A second reading of a metric another field declares."""
    kwargs = {"default_factory": dict} if by else {"default": 0}
    return field(**kwargs, metadata={"metric": name, "read": read, "by": by})


# -- per-request record --------------------------------------------------------


@dataclass(frozen=True)
class RequestMetrics:
    """Latency decomposition and context of one served request.

    ``batch_comm_*`` describe the whole batch this request rode in
    (the tiled pass is shared, so per-request attribution would be
    arbitrary); aggregate traffic totals are summed per *batch* in
    :class:`MetricsAggregator`, not per request.
    """

    request_id: int
    model: str
    graph: str
    world_size: int
    batch_size: int
    n_steps: int
    queue_wait_s: float
    exec_s: float
    latency_s: float
    batch_comm_bytes: int
    batch_comm_messages: int


# -- the views ---------------------------------------------------------------


@dataclass
class WaitHistogram:
    """Bucketed histogram of queue-wait seconds (snapshot).

    Counts are *per bucket*, not cumulative: ``counts[i]`` is the
    number of observations in ``(bounds_s[i-1], bounds_s[i]]``, with
    ``counts[-1]`` the overflow bucket above ``bounds_s[-1]``.
    Snapshots are plain data: safe to share across threads once
    returned.
    """

    bounds_s: tuple = WAIT_BUCKETS_S
    counts: list = field(default_factory=lambda: [0] * (len(WAIT_BUCKETS_S) + 1))
    total: int = 0
    sum_s: float = 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (0 < q <= 1).

        Returns the upper bound of the first bucket whose cumulative
        count reaches ``q * total`` (``inf`` when it falls in the
        overflow bucket, ``0.0`` when the histogram is empty).
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.total == 0:
            return 0.0
        target = q * self.total
        seen = 0
        for bound, count in zip(self.bounds_s, self.counts):
            seen += count
            if seen >= target:
                return bound
        return math.inf

    def to_dict(self) -> dict:
        """JSON-able form (used by the stats wire message)."""
        return {
            "bounds_s": list(self.bounds_s),
            "counts": list(self.counts),
            "total": self.total,
            "sum_s": self.sum_s,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WaitHistogram":
        return cls(
            bounds_s=tuple(d["bounds_s"]),
            counts=list(d["counts"]),
            total=int(d["total"]),
            sum_s=float(d["sum_s"]),
        )


@dataclass
class AdmissionStats:
    """Admission counters + queue-wait histogram (view).

    ``accepted`` counts submissions that entered the queue, ``shed``
    counts :class:`~repro.serve.admission.QueueFull` rejections,
    ``expired`` counts requests dropped because their deadline had
    passed — whether while still pending or during a batch's
    collection window; the latter are also counted in
    ``expired_at_close`` (a subset of ``expired``). The histogram
    observes the queue wait of every request *leaving* the queue —
    both those handed to a batch and those shed as expired (whose wait
    is by definition at least their deadline), so under deadline
    pressure the upper buckets reflect shed traffic, not served
    latency.
    """

    accepted: int = _counter("repro_admission_accepted_total", "requests admitted to the queue")
    shed: int = _counter("repro_admission_shed_total", "requests shed at admission")
    expired: int = _counter("repro_admission_expired_total", "requests expired in the queue")
    expired_at_close: int = _counter("repro_admission_expired_at_close_total",
                                     "requests expired during batch collection (subset of expired)")
    queue_wait: WaitHistogram = _histogram("repro_queue_wait_seconds",
                                           "queue wait of admitted requests (served and expired)")

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "shed": self.shed,
            "expired": self.expired,
            "expired_at_close": self.expired_at_close,
            "queue_wait": self.queue_wait.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AdmissionStats":
        return cls(
            accepted=int(d["accepted"]),
            shed=int(d["shed"]),
            expired=int(d["expired"]),
            # absent in snapshots from pre-scheduler peers
            expired_at_close=int(d.get("expired_at_close", 0)),
            queue_wait=WaitHistogram.from_dict(d["queue_wait"]),
        )


@dataclass
class SchedulerStats:
    """Scheduler counters + per-lane gauges/histograms (view).

    ``lanes`` counts lanes with pending requests now, ``lane_depth``
    maps lane label → pending now, ``lane_wait`` maps lane label →
    queue-wait histogram of requests dispatched through that lane.
    ``warm_key_batches`` counts executed batches whose worker had
    served the same key before (the affinity payoff measured at the
    arenas, not at dispatch); the batch recorder increments it.
    """

    dispatches: int = _counter("repro_sched_dispatches_total",
                               "batches dispatched by the scheduler")
    affinity_hits: int = _counter("repro_sched_affinity_hits_total",
                                  "lane grants landing on the lane's warm worker")
    affinity_steals: int = _counter("repro_sched_affinity_steals_total",
                                    "lane grants stealing a lane pinned to a busy worker")
    edf_preemptions: int = _counter("repro_sched_edf_preemptions_total",
                                    "grants where an earlier deadline beat arrival order")
    starvation_overrides: int = _counter("repro_sched_starvation_overrides_total",
                                         "grants forced by the per-lane skip bound")
    warm_key_batches: int = _counter("repro_sched_warm_key_batches_total",
                                     "batches executed by a worker that had served the key before")
    lanes: int = _view("repro_sched_lane_depth", read="count")
    lane_depth_high_water: int = _gauge("repro_sched_lane_depth_high_water",
                                        "peak single-lane depth", "max")
    lane_depth: dict = _gauge("repro_sched_lane_depth",
                              "requests pending per lane now", "sum", by="lane")
    lane_wait: dict = _histogram("repro_lane_wait_seconds",
                                 "queue wait of dispatched requests, labeled per lane", by="lane")

    def to_dict(self) -> dict:
        return {
            "dispatches": self.dispatches,
            "affinity_hits": self.affinity_hits,
            "affinity_steals": self.affinity_steals,
            "edf_preemptions": self.edf_preemptions,
            "starvation_overrides": self.starvation_overrides,
            "warm_key_batches": self.warm_key_batches,
            "lanes": self.lanes,
            "lane_depth_high_water": self.lane_depth_high_water,
            "lane_depth": dict(sorted(self.lane_depth.items())),
            "lane_wait": {
                label: h.to_dict()
                for label, h in sorted(self.lane_wait.items())
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SchedulerStats":
        return cls(
            dispatches=int(d.get("dispatches", 0)),
            affinity_hits=int(d.get("affinity_hits", 0)),
            affinity_steals=int(d.get("affinity_steals", 0)),
            edf_preemptions=int(d.get("edf_preemptions", 0)),
            starvation_overrides=int(d.get("starvation_overrides", 0)),
            warm_key_batches=int(d.get("warm_key_batches", 0)),
            lanes=int(d.get("lanes", 0)),
            lane_depth_high_water=int(d.get("lane_depth_high_water", 0)),
            lane_depth={
                str(k): int(v) for k, v in d.get("lane_depth", {}).items()
            },
            lane_wait={
                str(k): (
                    v if isinstance(v, WaitHistogram)
                    else WaitHistogram.from_dict(v)
                )
                for k, v in d.get("lane_wait", {}).items()
            },
        )


@dataclass
class CacheStats:
    """Graph-cache hit/miss/eviction accounting (view).

    ``plan_build_s`` totals the aggregation-plan compile seconds spent
    by admissions over the cache lifetime; ``evicted_reload_s`` totals
    the reload cost (loader + plan build wall seconds) of every asset
    evicted so far — the price a churning cache has put back on future
    requests, surfaced in the stats table to explain churn.
    ``entries`` / ``resident_bytes`` are levels measured at admission,
    eviction and bound enforcement.
    """

    entries: int = _gauge("repro_graph_cache_entries", "resident graph-cache entries", "sum")
    resident_bytes: int = _gauge("repro_graph_cache_resident_bytes",
                                 "resident graph-cache bytes", "sum")
    hits: int = _counter("repro_graph_cache_hits_total", "graph-cache hits")
    misses: int = _counter("repro_graph_cache_misses_total", "graph-cache misses")
    evictions: int = _counter("repro_graph_cache_evictions_total", "graph-cache evictions")
    plan_build_s: float = _counter("repro_graph_cache_plan_build_seconds_total",
                                   "aggregation-plan compile seconds", 0.0)
    evicted_reload_s: float = _counter("repro_graph_cache_evicted_reload_seconds_total",
                                       "reload cost of evicted graph assets", 0.0)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never consulted)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class RegistryStats:
    """Model-registry counters (view). Each shard owns a distinct
    server-side registry, so a model registered on every shard counts
    once per shard in a cluster view."""

    registered: int = _gauge("repro_models_registered", "registered model names", "sum")
    resident: int = _gauge("repro_models_resident", "models resident in memory", "sum")
    loads: int = _counter("repro_model_loads_total", "model loads, labeled model")
    evictions: int = _counter("repro_model_evictions_total", "model evictions")
    per_model_loads: dict = _view("repro_model_loads_total", by="model")


@dataclass
class ServeStats:
    """Aggregate serving snapshot: the view of one metrics registry."""

    requests: int = _counter("repro_requests_total",
                             "completed rollout requests, labeled model and graph")
    batches: int = _counter("repro_batches_total", "executed batches")
    steps: int = _counter("repro_steps_total", "rollout steps computed")
    mean_batch_size: float = _mean("repro_request_batch_size_total",
                                   "summed per-request batch sizes")
    max_batch_size: int = _gauge("repro_max_batch_size", "largest executed batch", "max")
    mean_queue_wait_s: float = _mean("repro_request_queue_wait_seconds_total",
                                     "summed queue wait of served requests")
    mean_latency_s: float = _mean("repro_latency_seconds_total", "summed request latency")
    max_latency_s: float = _gauge("repro_max_latency_seconds", "worst request latency", "max", 0.0)
    comm_bytes: int = _counter("repro_comm_bytes_total", "halo-exchange bytes")
    comm_messages: int = _counter("repro_comm_messages_total", "halo-exchange messages")
    queue_depth: int = _gauge("repro_queue_depth", "requests pending now", "sum")
    queue_depth_high_water: int = _gauge("repro_queue_depth_high_water", "peak queue depth", "max")
    tile_hits: int = _counter("repro_tile_cache_hits_total", "tiled-graph cache hits")
    tile_misses: int = _counter("repro_tile_cache_misses_total", "tiled-graph cache misses")
    train_jobs: int = _counter("repro_train_jobs_total", "completed training jobs")
    train_s: float = _counter("repro_train_seconds_total", "training wall seconds", 0.0)
    arena_reallocations: int = _counter("repro_arena_reallocations_total",
                                        "worker-arena reallocations")
    # summed across shards, unlike queue_depth_high_water: arenas are
    # persistent pools that grow to a bound and stay resident, so every
    # shard sits at its high water at once — the sum IS the cluster's
    # steady resident arena cost
    arena_bytes_high_water: int = _gauge("repro_arena_pooled_bytes_high_water",
                                         "resident worker-arena bytes at high water", "sum")
    fused_batches: int = _counter("repro_fused_batches_total", "batches run through fused kernels")
    f32_batches: int = _counter("repro_f32_batches_total", "batches served on the float32 tier")
    ensemble_requests: int = _counter("repro_ensemble_requests_total", "admitted ensemble requests")
    ensemble_members: int = _counter("repro_ensemble_members_total", "ensemble members executed")
    ensemble_chunks: int = _counter("repro_ensemble_chunks_total", "ensemble chunks dispatched")
    ensemble_blow_ups: int = _counter("repro_ensemble_blow_ups_total",
                                      "ensembles that tripped blow-up")
    ensemble_early_stops: int = _counter("repro_ensemble_early_stops_total",
                                         "ensembles early-stopped at the blow-up step")
    cache: CacheStats = field(default_factory=CacheStats)
    registry: RegistryStats = field(default_factory=RegistryStats)
    admission: AdmissionStats = field(default_factory=AdmissionStats)
    scheduler: SchedulerStats = field(default_factory=SchedulerStats)

    @property
    def batching_factor(self) -> float:
        """Mean requests served per executed batch (1.0 = no batching)."""
        return self.requests / self.batches if self.batches else 0.0

    def to_dict(self) -> dict:
        """JSON-able form (the ``stats`` wire message payload)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ServeStats":
        """Invert :meth:`to_dict` (reconstructing the nested stats)."""
        d = dict(d)
        d["cache"] = CacheStats(**d["cache"])
        d["registry"] = RegistryStats(**d["registry"])
        d["admission"] = AdmissionStats.from_dict(d["admission"])
        # absent in snapshots from pre-scheduler peers
        d["scheduler"] = SchedulerStats.from_dict(d.get("scheduler", {}))
        return cls(**d)

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "ServeStats":
        """The stats view of ``registry`` (one consistent snapshot).

        Works on a single engine's registry and on a cluster's merge of
        shard-relabelled registries alike: counters sum over every
        labelset, means are ``sum / requests`` (``0.0`` with no
        requests), gauges roll up by their declared ``sum``/``max``
        policy, and the per-lane / per-model dicts group by their
        label. Metrics the registry lacks read as zero.
        """
        doc = registry.snapshot()
        requests = sum(
            s["value"] for s in doc.get("repro_requests_total", {}).get(
                "samples", ())
        )
        return _read(cls, doc, requests)


# -- declaration and reading ---------------------------------------------------


def metric_fields(cls: type = ServeStats, prefix: str = ""):
    """``(path, field)`` for every metric-backed leaf of a stats view,
    nested views flattened (``"cache.hits"``)."""
    for f in dataclasses.fields(cls):
        if "metric" in f.metadata:
            yield prefix + f.name, f
        else:
            yield from metric_fields(f.default_factory, f"{prefix}{f.name}.")


def serve_registry(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Declare every serving metric in ``registry`` (a fresh one when
    ``None``) and return it. Idempotent, so each component may call it
    on the registry it was handed."""
    reg = MetricsRegistry() if registry is None else registry
    for _, f in metric_fields():
        meta = f.metadata
        kind = meta.get("kind")
        if kind == "counter":
            reg.counter(meta["metric"], meta["help"])
        elif kind == "gauge":
            reg.gauge(meta["metric"], meta["help"], merge=meta["merge"])
        elif kind == "histogram":
            reg.histogram(meta["metric"], meta["help"], bounds=WAIT_BUCKETS_S)
    return reg


def _histogram_view(entry: dict, samples: list) -> WaitHistogram:
    bounds = tuple(entry.get("bounds", WAIT_BUCKETS_S))
    if bounds != WAIT_BUCKETS_S:
        raise ValueError(
            f"histogram bounds {bounds} differ from the declared "
            f"{WAIT_BUCKETS_S}"
        )
    counts = [0] * (len(bounds) + 1)
    total_s = 0.0
    for s in samples:
        counts = [a + int(b) for a, b in zip(counts, s["counts"])]
        total_s += s["sum"]
    return WaitHistogram(counts=counts, total=sum(counts), sum_s=total_s)


def _read(cls: type, doc: dict, requests: float):
    """Build the stats view ``cls`` from a registry snapshot ``doc``."""
    values = {}
    for f in dataclasses.fields(cls):
        meta = f.metadata
        if "metric" not in meta:  # a nested view
            values[f.name] = _read(f.default_factory, doc, requests)
            continue
        entry = doc.get(meta["metric"], {})
        samples = entry.get("samples", [])
        kind = entry.get("kind", meta.get("kind"))
        by = meta.get("by")
        if by:
            groups: dict = {}
            for s in samples:
                if by in s["labels"]:
                    groups.setdefault(s["labels"][by], []).append(s)
            if kind == "histogram":
                values[f.name] = {
                    k: _histogram_view(entry, v) for k, v in sorted(groups.items())
                }
            else:
                sums = {k: sum(s["value"] for s in v) for k, v in groups.items()}
                values[f.name] = {k: int(v) for k, v in sorted(sums.items()) if v}
        elif kind == "histogram":
            values[f.name] = _histogram_view(entry, samples)
        else:
            observed = [s["value"] for s in samples]
            if meta.get("read") == "count":
                value = sum(1 for v in observed if v > 0)
            elif meta.get("read") == "mean":
                value = sum(observed) / requests if requests else 0.0
            elif entry.get("merge", meta.get("merge")) == "max":
                value = max(observed, default=0)
            else:
                value = sum(observed)
            values[f.name] = type(f.default)(value)
    return cls(**values)


# -- recording -----------------------------------------------------------------


class MetricsAggregator:
    """What the worker pool reports executed work into.

    A thin writer over one declared registry (see :func:`serve_registry`);
    the registry, not this object, holds the numbers. Thread-safe: every
    method applies its updates under a single registry lock.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = serve_registry(registry)
        #: top-level ServeStats field name -> the metric backing it
        self._metric = {
            f.name: self.registry.get(f.metadata["metric"])
            for f in dataclasses.fields(ServeStats)
            if "kind" in f.metadata
        }
        self._warm_key = self.registry.get("repro_sched_warm_key_batches_total")

    def add(self, **amounts: float) -> None:
        """Increment top-level counters by ``ServeStats`` field name."""
        with self.registry.atomic():
            for name, amount in amounts.items():
                self._metric[name].inc(float(amount))

    def record_batch(
        self, per_request: Sequence[RequestMetrics], execution: "BatchExecution"
    ) -> None:
        """Account one executed batch and its requests (one lock)."""
        m = self._metric
        with self.registry.atomic():
            for r in per_request:
                m["requests"].inc(1.0, model=r.model, graph=r.graph)
                m["mean_batch_size"].inc(r.batch_size)
                m["mean_queue_wait_s"].inc(r.queue_wait_s)
                m["mean_latency_s"].inc(r.latency_s)
                m["max_latency_s"].set_max(r.latency_s)
            m["max_batch_size"].set_max(execution.batch_size)
            m["arena_bytes_high_water"].set_max(execution.arena_nbytes)
            self._warm_key.inc(float(execution.warm_key))
            self.add(
                batches=1,
                steps=execution.n_steps,
                comm_bytes=execution.comm.bytes_sent,
                comm_messages=execution.comm.messages,
                tile_hits=execution.tile_hits,
                tile_misses=execution.tile_misses,
                arena_reallocations=execution.arena_reallocations,
                fused_batches=execution.fused,
                f32_batches=execution.f32,
            )


# -- rendering -----------------------------------------------------------------


def _wait_quantiles(admission: AdmissionStats) -> str:
    """Render bucket-upper-bound quantiles of the queue-wait histogram."""
    hist = admission.queue_wait
    if hist.total == 0:
        return "- / - / -"

    def fmt(q: float) -> str:
        bound = hist.quantile(q)
        return "inf" if bound == float("inf") else f"<={bound * 1e3:.0f}"

    return f"{fmt(0.5)} / {fmt(0.9)} / {fmt(0.99)}"


def _per_request(value: float, requests: int, scale: float = 1.0) -> str:
    """Format a per-request statistic, or ``-`` when nothing was served.

    A zero-request snapshot has no meaningful mean/max — rendering
    ``0.00`` would read as "requests were instant". The guard also
    swallows ``nan`` from foreign/deserialized snapshots whose means
    were computed by a buggy producer: a dashboard row must never show
    ``nan``.
    """
    if requests == 0 or math.isnan(value):
        return "-"
    return f"{value * scale:.2f}"


def stats_markdown(stats: ServeStats) -> str:
    """Render a serving-stats snapshot as a markdown table.

    Zero-request snapshots render per-request statistics (mean batch
    size, batching factor, waits, latencies) as ``-`` placeholders —
    see :func:`_per_request`.
    """
    n = stats.requests
    rows = [
        ["requests served", stats.requests],
        ["batches executed", stats.batches],
        ["rollout steps computed", stats.steps],
        ["mean batch size", _per_request(stats.mean_batch_size, n)],
        ["max batch size", stats.max_batch_size if n else "-"],
        ["batching factor", _per_request(stats.batching_factor, stats.batches)],
        ["mean queue wait (ms)",
         _per_request(stats.mean_queue_wait_s, n, 1e3)],
        ["mean latency (ms)", _per_request(stats.mean_latency_s, n, 1e3)],
        ["max latency (ms)", _per_request(stats.max_latency_s, n, 1e3)],
        ["comm bytes", stats.comm_bytes],
        ["comm messages", stats.comm_messages],
        ["queue depth (now / high water)",
         f"{stats.queue_depth} / {stats.queue_depth_high_water}"],
        ["admission accepted / shed / expired",
         f"{stats.admission.accepted} / {stats.admission.shed} / "
         f"{stats.admission.expired}"],
        ["expired at batch close", stats.admission.expired_at_close],
        ["queue wait p50 / p90 / p99 (ms)", _wait_quantiles(stats.admission)],
        ["scheduler dispatches / lanes pending",
         f"{stats.scheduler.dispatches} / {stats.scheduler.lanes}"],
        ["affinity hits / steals",
         f"{stats.scheduler.affinity_hits} / "
         f"{stats.scheduler.affinity_steals}"],
        ["EDF preemptions / starvation overrides",
         f"{stats.scheduler.edf_preemptions} / "
         f"{stats.scheduler.starvation_overrides}"],
        ["warm-key batches", stats.scheduler.warm_key_batches],
        ["lane depth high water", stats.scheduler.lane_depth_high_water],
        ["tiled-graph cache hits / misses",
         f"{stats.tile_hits} / {stats.tile_misses}"],
        ["train jobs / wall (ms)",
         f"{stats.train_jobs} / {stats.train_s * 1e3:.2f}"],
        ["worker-arena reallocations", stats.arena_reallocations],
        ["worker-arena bytes pooled (high water)",
         stats.arena_bytes_high_water],
        ["fused / f32 batches",
         f"{stats.fused_batches} / {stats.f32_batches}"],
        ["ensembles (requests / members / chunks)",
         f"{stats.ensemble_requests} / {stats.ensemble_members} / "
         f"{stats.ensemble_chunks}"],
        ["ensemble blow-ups / early stops",
         f"{stats.ensemble_blow_ups} / {stats.ensemble_early_stops}"],
        ["graph-cache hit rate",
         _per_request(stats.cache.hit_rate,
                      stats.cache.hits + stats.cache.misses)],
        ["graph-cache entries / bytes",
         f"{stats.cache.entries} / {stats.cache.resident_bytes}"],
        ["graph-cache evictions", stats.cache.evictions],
        ["evicted reload cost (ms)",
         f"{stats.cache.evicted_reload_s * 1e3:.2f}"],
        ["plan_build_s (ms total)", f"{stats.cache.plan_build_s * 1e3:.2f}"],
        ["models registered / resident",
         f"{stats.registry.registered} / {stats.registry.resident}"],
        ["model loads / evictions",
         f"{stats.registry.loads} / {stats.registry.evictions}"],
    ]
    return markdown_table(["metric", "value"], rows)
