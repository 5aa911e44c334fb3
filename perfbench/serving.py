"""The ``serve-mixed`` workload: an open loop over ``tcp://``.

The server is a child process (``python3 perfbench/serving.py``) running
a :class:`repro.serve.ServeServer` over an in-process service with
``ServeConfig`` defaults and two workers. This process is the client: it
registers both models by checkpoint, uploads both graphs, then sends a
seeded Poisson schedule of ``small`` (single-rank, cheap) and ``mid``
(two-rank, compute-bound) requests through
``repro.runtime.connect("tcp://...")`` from two sender threads. Each
request is timed from when it was due to when its last frame arrived,
and every served trajectory must be bitwise equal to an in-process
:func:`repro.gnn.rollout.rollout` of the same request.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.gnn import GNNConfig, MeshGNN, save_checkpoint
from repro.mesh import BoxMesh, taylor_green_velocity
from repro.obs.profile import install_profiler, uninstall_profiler
from repro.runtime import RolloutRequest, connect
from repro.serve import ServeConfig, ServeServer

from common import GATED_Q, ROOT, bitwise_equal, mean, peak_rss_mb, percentile, workload_env
from sim import build_graphs, distributed_rollout, layer_metrics
from tracing import merge_rank_timers, new_timers

SPECS = {
    "full": {
        "rate": 4.0, "mid_frac": 0.2, "variants": 3, "senders": 2, "pool_size": 2,
        "n_workers": 2,
        "small": {"mesh": (4, 4, 2), "p": 1, "ranks": 1, "hidden": 6, "nmp": 2, "steps": 2},
        "mid": {"mesh": (5, 5, 5), "p": 2, "ranks": 2, "hidden": 16, "nmp": 2, "steps": 8},
    },
    "tiny": {
        "rate": 8.0, "mid_frac": 0.2, "variants": 2, "senders": 2, "pool_size": 2,
        "n_workers": 2,
        "small": {"mesh": (2, 2, 2), "p": 1, "ranks": 1, "hidden": 4, "nmp": 1, "steps": 2},
        "mid": {"mesh": (2, 2, 2), "p": 1, "ranks": 2, "hidden": 4, "nmp": 1, "steps": 2},
    },
}

#: percentile printed as each class's tail
TAIL_Q = {"small": 90.0, "mid": 75.0}
CLASSES = ("small", "mid")
#: per-frame wait bound, and the latency a failed request counts as
REQUEST_TIMEOUT_S = 60.0
#: backlog flag: last-quarter median latency over first-quarter median
BACKLOG_RATIO = 1.5


class ClassAssets:
    """One request class: graph, model, checkpoint, inputs, references."""

    def __init__(self, name: str, spec: dict, seed: int, n_variants: int, tmp: Path,
                 layers: dict | None):
        self.name, self.spec = name, spec
        self.model_key, self.graph_key = f"{name}-model", f"{name}-graph"
        mesh = BoxMesh(*spec["mesh"], p=spec["p"])
        # the mid graph is the one with a halo: its build is the one timed
        self.dg = build_graphs(mesh, spec["ranks"], layers if spec["ranks"] > 1 else None)
        self.config = GNNConfig(hidden=spec["hidden"], n_message_passing=spec["nmp"],
                                seed=(seed + len(name)) % (2**31))
        self.model = MeshGNN(self.config)
        self.checkpoint = tmp / f"{name}.npz"
        save_checkpoint(self.model, self.checkpoint)
        rng = np.random.default_rng([seed, len(name)])
        base = taylor_green_velocity(mesh.all_positions())
        self.x0 = [base * rng.uniform(0.5, 1.5) + 0.05 * rng.standard_normal(base.shape)
                   for _ in range(n_variants)]
        self.refs = [self.reference(x0) for x0 in self.x0]

    def reference(self, x0, traced_timers: list | None = None) -> list:
        """The in-process rollout of one request, as global states."""
        return distributed_rollout(self.dg, [self.model] * self.dg.size, x0, self.spec["steps"],
                                   traced_timers)

    def register(self, engine) -> None:
        engine.register_checkpoint(self.model_key, self.checkpoint, expect_config=self.config)
        engine.register_graph(self.graph_key, self.dg.locals)


def make_schedule(spec: dict, seed: int, seconds: float) -> list:
    """``(class, variant, due_s)`` sorted by due time.

    A Poisson process conditioned on its count: ``rate * seconds``
    arrival times drawn uniformly, with exactly ``mid_frac`` of them
    ``mid``, so every run holds the same number of each class.
    """
    rng = np.random.default_rng([seed, 7])
    n = max(2, round(spec["rate"] * seconds))
    due = np.sort(rng.uniform(0.0, seconds, n))
    n_mid = max(1, round(spec["mid_frac"] * n))
    classes = ["mid"] * n_mid + ["small"] * (n - n_mid)
    rng.shuffle(classes)
    variants = rng.integers(0, spec["variants"], n)
    return [(c, int(v), float(t)) for c, v, t in zip(classes, variants, due)]


def replay(engine, assets: dict, schedule: list, senders: int) -> list:
    """Send ``schedule`` open-loop from ``senders`` threads; one record
    per request (latency from its due time to its last frame)."""
    records: list = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def sender():
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(schedule):
                return
            cls, variant, due = schedule[i]
            a = assets[cls]
            due_at = start + due
            delay = due_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            rec = {"cls": cls, "variant": variant, "late_s": sent - due_at, "ok": False}
            try:
                req = RolloutRequest(model=a.model_key, graph=a.graph_key, x0=a.x0[variant],
                                     n_steps=a.spec["steps"])
                rec["trace_id"] = req.trace_id
                future = engine.submit(req)
                submitted = time.perf_counter()
                states, first = [], None
                for frame in future.frames(timeout=REQUEST_TIMEOUT_S):
                    if first is None:
                        first = time.perf_counter()
                    states.append(frame.state)
                last = time.perf_counter()
                rec["ok"] = bitwise_equal(states, a.refs[variant])
                rec["states"] = states
                rec.update(submit_s=submitted - sent, first_frame_s=first - submitted,
                           stream_s=last - first, service_s=last - sent,
                           latency_s=last - due_at)
            except Exception as exc:  # noqa: BLE001 - a failed request is counted
                print(f"{cls} request {i} failed: {exc!r}")
            if not rec["ok"]:
                rec["latency_s"] = REQUEST_TIMEOUT_S
            records[i] = rec

    threads = [threading.Thread(target=sender, name=f"sender{k}") for k in range(senders)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records


def summarize(records: list) -> dict:
    """Per-class latency percentiles, counts, lateness and backlog."""
    out = {"classes": {}}
    for cls in CLASSES:
        recs = [r for r in records if r["cls"] == cls]
        lat = [r["latency_s"] for r in recs]
        quarter = max(1, len(lat) // 4)
        first_q, last_q = percentile(lat[:quarter], 50), percentile(lat[-quarter:], 50)
        out["classes"][cls] = {
            "sent": len(recs),
            "succeeded": sum(r["ok"] for r in recs),
            "failed": sum(not r["ok"] for r in recs),
            "p10_s": percentile(lat, GATED_Q),
            "p50_s": percentile(lat, 50),
            "tail_s": percentile(lat, TAIL_Q[cls]),
            "tail_q": TAIL_Q[cls],
            "backlog_ratio": last_q / first_q if first_q > 0 else 0.0,
        }
    out["late_p90_s"] = percentile([r["late_s"] for r in records], 90)
    out["backlog"] = any(c["backlog_ratio"] > BACKLOG_RATIO for c in out["classes"].values())
    return out


class ServerProcess:
    """The ``tcp://`` server child; ``stop()`` ends it and waits."""

    def __init__(self, n_workers: int, timeout_s: float = 120.0):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--n-workers", str(n_workers)],
            cwd=ROOT, env=workload_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        self._timeout_s = timeout_s
        self.endpoint = None

    def wait_ready(self) -> str:
        line = self._readline()
        if not line.startswith("ready "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.endpoint = line.split()[1]
        return self.endpoint

    def _readline(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], self._timeout_s)
        if not ready:
            raise TimeoutError("server did not answer")
        return self.proc.stdout.readline().strip()

    def peak_rss_mb(self) -> float:
        self.proc.stdin.write("rss\n")
        self.proc.stdin.flush()
        return float(json.loads(self._readline())["peak_rss_mb"])

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=15)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Setup:
    """Server started, assets registered and warmed, references built."""

    def __init__(self, spec: dict, seed: int, layers: dict | None = None):
        self.spec = spec
        self.tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.server = ServerProcess(spec["n_workers"])
        self.engine = None
        try:
            self.assets = {cls: ClassAssets(cls, spec[cls], seed, spec["variants"], self.tmp, layers)
                           for cls in CLASSES}
            self.endpoint = self.server.wait_ready()
            self.engine = connect(f"tcp://{self.endpoint}", pool_size=spec["pool_size"],
                                  request_timeout_s=REQUEST_TIMEOUT_S)
            for a in self.assets.values():
                a.register(self.engine)
            # first requests load the checkpoint and build server-side
            # plans and arenas: a cost paid once per server, so set-up
            replay(self.engine, self.assets, [(c, 0, 0.0) for c in CLASSES], 1)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
        self.server.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()  # last user of the scratch directory
        except OSError:
            pass


def _e2e(summary: dict, server_rss: float) -> dict:
    return {
        "r2_p10_s": summary["classes"]["mid"]["p10_s"],
        "r1_p10_s": summary["classes"]["small"]["p10_s"],
        "peak_rss_mb": server_rss,
    }


def _info(summary: dict, failed_frac: float) -> dict:
    mid, small = summary["classes"]["mid"], summary["classes"]["small"]
    return {
        "named": {
            "small_p50_s": (small["p50_s"], "s"), "small_p90_s": (small["tail_s"], "s"),
            "mid_p50_s": (mid["p50_s"], "s"), "mid_p75_s": (mid["tail_s"], "s"),
            "failed_frac": (failed_frac, "ratio"),
            "gen.late_p90_s": (summary["late_p90_s"], "s"),
        },
        "classes": summary["classes"],
        "backlog": summary["backlog"],
    }


def run(size: str, seed: int, seconds: float, trace: bool, t_spawn: float) -> dict:
    """One workload process: set up, measure, report (see run.py)."""
    spec = SPECS[size]
    layers: dict = {}
    setup = Setup(spec, seed, layers if trace else None)
    try:
        setup_s = time.perf_counter() - t_spawn
        phase_s = seconds / 2 if trace else seconds
        schedule = make_schedule(spec, seed, phase_s)
        a = replay(setup.engine, setup.assets, schedule, spec["senders"])
        a_failed = sum(not r["ok"] for r in a)
        sa = summarize(a)
        e2e = _e2e(sa, setup.server.peak_rss_mb())
        result = {"setup_s": setup_s, "e2e": e2e, "attempted": len(a), "failed": a_failed,
                  "info": _info(sa, a_failed / len(a))}
        if trace:
            b = replay(setup.engine, setup.assets, schedule, spec["senders"])
            traced = _e2e(summarize(b), setup.server.peak_rss_mb())
            traced_layers, same = _traced_layers(setup, b, sa)
            layers.update(traced_layers)
            same = same and all(ra["ok"] and rb["ok"] and bitwise_equal(ra["states"], rb["states"])
                                for ra, rb in zip(a, b))
            for name, value in traced.items():
                layers[f"overhead.{name}"] = value - e2e[name]
            pool = _pool_replay(setup.assets, schedule, spec)
            layers["transport.small_p50_over_pool_s"] = (
                sa["classes"]["small"]["p50_s"] - pool["classes"]["small"]["p50_s"])
            pool_failed = sum(c["failed"] for c in pool["classes"].values())
            result["attempted"] += len(b) + 1 + sum(c["sent"] for c in pool["classes"].values())
            result["failed"] += sum(not r["ok"] for r in b) + (0 if same else 1) + pool_failed
            result["info"]["traced_bitwise_equal"] = same
            layers["mem.peak_rss_mb"] = e2e["peak_rss_mb"]
            result["layers"] = layers
    finally:
        setup.close()
    return result


def _traced_layers(setup: Setup, records: list, summary: dict) -> tuple:
    """Client timings, server spans and engine stats of one replay, plus
    the per-layer split of the ``mid`` model from an in-process traced
    rollout of each ``mid`` input. Also returns whether those traced
    rollouts are bitwise equal to their untraced references."""
    engine = setup.engine
    layers: dict = {"gen.late_p90_s": summary["late_p90_s"]}
    disjoint = ("admission", "queue", "execute")
    for cls in CLASSES:
        recs = [r for r in records if r["cls"] == cls and r["ok"]]
        for key in ("submit_s", "first_frame_s", "stream_s"):
            layers[f"runtime.{cls}.{key}"] = mean(r[key] for r in recs)
        spans = {name: [] for name in ("admission", "queue", "tile", "execute", "serialize")}
        unattributed = []
        for r in recs:
            got = {name: 0.0 for name in spans}
            for span in engine.get_trace(r["trace_id"]):
                if span.component == "server" and span.name in got:
                    got[span.name] += span.duration_s
            for name, v in got.items():
                spans[name].append(v)
            unattributed.append(r["service_s"] - sum(got[n] for n in disjoint))
        for name, values in spans.items():
            layers[f"serve.{cls}.{name}_s"] = mean(values)
        layers[f"serve.{cls}.unattributed_s"] = mean(unattributed)
    stats = engine.stats()
    tiles = stats.tile_hits + stats.tile_misses
    pool = engine.pool_stats()
    layers.update({
        "serve.mean_batch_size": stats.mean_batch_size,
        "serve.tile_hit_ratio": stats.tile_hits / tiles if tiles else 0.0,
        "serve.queue_depth_high_water": stats.queue_depth_high_water,
        "serve.shed": stats.admission.shed,
        "sched.affinity_hits": stats.scheduler.affinity_hits,
        "sched.steals": stats.scheduler.affinity_steals,
        "runtime.conn_reuse_ratio": pool.reuses / max(pool.reuses + pool.dials, 1),
    })
    mid = setup.assets["mid"]
    rank_timers = [new_timers() for _ in range(mid.spec["ranks"])]
    profiler = install_profiler()
    try:
        same = all(bitwise_equal(mid.reference(x0, rank_timers), ref)
                   for x0, ref in zip(mid.x0, mid.refs))
    finally:
        uninstall_profiler()
    layers.update(layer_metrics(merge_rank_timers(rank_timers), profiler.snapshot()))
    return layers, same


def _pool_replay(assets: dict, schedule: list, spec: dict) -> dict:
    """The same schedule through ``pool://`` in this process: the
    latencies without the wire (summary as :func:`summarize`)."""
    with connect("pool://", config=ServeConfig(n_workers=spec["n_workers"])) as pool:
        for a in assets.values():
            a.register(pool)
        replay(pool, assets, [(c, 0, 0.0) for c in CLASSES], 1)
        return summarize(replay(pool, assets, schedule, spec["senders"]))


def setup_only(size: str, seed: int, t_spawn: float) -> float:
    setup = Setup(SPECS[size], seed)
    elapsed = time.perf_counter() - t_spawn
    setup.close()
    return elapsed


def server_main(argv: list) -> int:
    """The server child: serve until stdin closes; ``rss`` answers the
    process's peak resident set."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--n-workers", type=int, required=True)
    args = parser.parse_args(argv)
    with connect("pool://", config=ServeConfig(n_workers=args.n_workers)) as pool, \
            ServeServer(pool.service) as server:
        print(f"ready {server.endpoint}", flush=True)
        for line in sys.stdin:
            if line.strip() == "rss":
                print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(server_main(sys.argv[1:]))
