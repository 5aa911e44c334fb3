"""The in-process workloads: ``rollout-r2`` and ``train-r2``.

Both run the paper's problem through the public API the way a user
does: build the mesh, partition it, build the distributed graph, then
call :func:`repro.gnn.rollout.rollout` or
:func:`repro.gnn.trainer.train_distributed` under a two-rank
:class:`repro.comm.ThreadWorld`. Each operation of the 2-rank class
(``r2``) alternates with the same operation on the un-partitioned graph
(``r1``: single-rank ``rollout`` / ``train_single``), which is also the
reference the 2-rank output must match.
"""

from __future__ import annotations

import time

import numpy as np

from repro.comm import ThreadWorld
from repro.comm.single import SingleProcessComm
from repro.gnn import GNNConfig, MeshGNN, rollout, train_distributed, train_single
from repro.graph import build_distributed_graph, build_full_graph
from repro.mesh import BoxMesh, auto_partition, taylor_green_velocity
from repro.obs.profile import install_profiler, uninstall_profiler

from common import ATOL, GATED_Q, RTOL, bitwise_equal, peak_rss_mb, percentile
from tracing import TimingComm, merge_rank_timers, new_timers, traced_rollout, traced_train

HALO_MODE = "n-a2a"

#: problem sizes; ``tiny`` is for the smoke tests only
SPECS = {
    "full": {"mesh": (8, 8, 6), "p": 2, "ranks": 2, "hidden": 32, "nmp": 2,
             "chunk_steps": 2, "train_iters": 2, "lr": 1e-3},
    "tiny": {"mesh": (3, 3, 2), "p": 1, "ranks": 2, "hidden": 4, "nmp": 1,
             "chunk_steps": 2, "train_iters": 2, "lr": 1e-3},
}

#: percentile printed as the per-operation tail; a run holds too few
#: operations for a higher one with ten samples beyond
TAIL_Q = 75.0


class Problem:
    """Everything a workload sets up before its first timed operation."""

    def __init__(self, workload: str, spec: dict, seed: int, layers: dict | None = None):
        nx, ny, nz = spec["mesh"]
        self.spec = spec
        mesh = BoxMesh(nx, ny, nz, p=spec["p"])
        self.dg = build_graphs(mesh, spec["ranks"], layers)
        self.full = build_full_graph(mesh)
        self.full.plans
        self.n_nodes = self.dg.n_global_nodes
        self.config = GNNConfig(hidden=spec["hidden"], n_message_passing=spec["nmp"],
                                seed=seed % (2**31))
        rng = np.random.default_rng(seed)
        base = taylor_green_velocity(mesh.all_positions())
        self.x0 = base * rng.uniform(0.5, 1.5) + 0.05 * rng.standard_normal(base.shape)
        self.target = base + 0.05 * rng.standard_normal(base.shape)
        if workload == "rollout-r2":
            # one replica per rank, as SPMD ranks each construct their own
            self.rank_models = [MeshGNN(self.config) for _ in range(spec["ranks"])]
            self.model = MeshGNN(self.config)


def _close(a, b) -> bool:
    return len(a) == len(b) and all(
        np.allclose(x, y, rtol=RTOL, atol=ATOL) for x, y in zip(a, b)
    )


def build_graphs(mesh, ranks: int, layers: dict | None = None):
    """Partition ``mesh``, build its distributed graph and compile the
    plans, timing each stage into ``layers`` when given."""
    t0 = time.perf_counter()
    part = auto_partition(mesh, ranks)
    t1 = time.perf_counter()
    dg = build_distributed_graph(mesh, part)
    t2 = time.perf_counter()
    for lg in dg.locals:
        lg.plans  # compiled lazily on first access
    t3 = time.perf_counter()
    if layers is not None:
        layers["mesh.partition_s"] = t1 - t0
        layers["graph.build_s"] = t2 - t1
        layers["graph.plans_s"] = t3 - t2
        layers["graph.halo_nodes"] = sum(lg.n_halo for lg in dg.locals)
        layers["graph.edges"] = sum(lg.n_edges for lg in dg.locals)
    return dg


def distributed_rollout(dg, models: list, x, steps: int, rank_timers: list | None = None) -> list:
    """``rollout`` of the global state ``x`` on every rank of ``dg`` under a
    ``ThreadWorld`` (``traced_rollout`` when ``rank_timers`` is given);
    returns the global states."""

    def prog(comm):
        g = dg.local(comm.rank)
        if rank_timers is not None:
            return traced_rollout(models[comm.rank], g, x[g.global_ids], steps, TimingComm(comm),
                                  HALO_MODE, rank_timers[comm.rank])
        return rollout(models[comm.rank], g, x[g.global_ids], steps, comm, HALO_MODE)

    per_rank = ThreadWorld(dg.size).run(prog)
    return [dg.assemble_global([pr[k] for pr in per_rank]) for k in range(steps + 1)]


def _rollout_r2(prob: Problem, x, traced: bool, rank_timers: list):
    return distributed_rollout(prob.dg, prob.rank_models, x, prob.spec["chunk_steps"],
                               rank_timers if traced else None)


def _rollout_r1(prob: Problem, x, traced: bool, timers: dict):
    steps = prob.spec["chunk_steps"]
    if traced:
        return traced_rollout(prob.model, prob.full, x, steps, None, HALO_MODE, timers)
    return rollout(prob.model, prob.full, x, steps)


def _train_r2(prob: Problem, traced: bool, rank_timers: list):
    spec = prob.spec

    def prog(comm):
        g = prob.dg.local(comm.rank)
        x, y = prob.x0[g.global_ids], prob.target[g.global_ids]
        if traced:
            return traced_train(TimingComm(comm), prob.config, g, x, y, HALO_MODE,
                                spec["train_iters"], spec["lr"], rank_timers[comm.rank])
        res = train_distributed(comm, prob.config, g, x, y, halo_mode=HALO_MODE,
                                iterations=spec["train_iters"], lr=spec["lr"])
        return res.losses, res.state_dict

    return ThreadWorld(spec["ranks"]).run(prog)


def _train_r1(prob: Problem, traced: bool, timers: dict):
    spec = prob.spec
    if traced:
        return traced_train(SingleProcessComm(), prob.config, prob.full, prob.x0, prob.target,
                            "none", spec["train_iters"], spec["lr"], timers)
    res = train_single(prob.config, prob.full, prob.x0, prob.target,
                       iterations=spec["train_iters"], lr=spec["lr"])
    return res.losses, res.state_dict


def measure(workload: str, prob: Problem, seconds: float, traced: bool = False) -> dict:
    """Alternate r2 and r1 operations for ``seconds``; check each pair.

    Returns per-operation unit times (seconds per step or iteration),
    the counts, the per-operation outputs (for the traced run's bitwise
    comparison) and, when ``traced``, the layer timers and the hot-loop
    profile of the r2 operations.
    """
    rollout_wl = workload == "rollout-r2"
    per_op = prob.spec["chunk_steps"] if rollout_wl else prob.spec["train_iters"]
    units = {"r2": [], "r1": []}
    outputs = []
    attempted = failed = 0
    rank_timers = [new_timers() for _ in range(prob.spec["ranks"])]
    r1_timers = new_timers()
    profiler = None
    x = prob.x0
    deadline = time.perf_counter() + seconds
    while True:
        if traced:
            profiler = install_profiler(profiler)
        t0 = time.perf_counter()
        try:
            r2 = (_rollout_r2(prob, x, traced, rank_timers) if rollout_wl
                  else _train_r2(prob, traced, rank_timers))
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            print(f"r2 operation failed: {exc!r}")
            r2 = None
        t1 = time.perf_counter()
        if traced:
            uninstall_profiler()
        r1 = (_rollout_r1(prob, x, traced, r1_timers) if rollout_wl
              else _train_r1(prob, traced, r1_timers))
        t2 = time.perf_counter()
        attempted += 2
        units["r2"].append((t1 - t0) / per_op)
        units["r1"].append((t2 - t1) / per_op)
        if r2 is None or not check(workload, r2, r1):
            failed += 1
        outputs.append((r2, r1))
        if rollout_wl:
            x = r1[-1]  # both classes continue from the reference state
        if time.perf_counter() >= deadline:
            break
    return {
        "units": units, "attempted": attempted, "failed": failed, "outputs": outputs,
        "timers": merge_rank_timers(rank_timers), "profile": profiler.snapshot() if profiler else {},
    }


def check(workload: str, r2, r1) -> bool:
    """The 2-rank output matches the single-rank one within the repo's
    consistency tolerance (training: every rank's loss history)."""
    if workload == "rollout-r2":
        return _close(r2, r1)
    losses_r1 = r1[0]
    return all(_close(losses, losses_r1) for losses, _ in r2) and all(
        losses == r2[0][0] for losses, _ in r2
    )


def outputs_bitwise_equal(workload: str, a: list, b: list) -> bool:
    """Traced vs untraced outputs, over the operations both runs made."""
    for (r2a, r1a), (r2b, r1b) in zip(a, b):
        if r2a is None or r2b is None:
            return False
        if workload == "rollout-r2":  # lists of states
            if not (bitwise_equal(r2a, r2b) and bitwise_equal(r1a, r1b)):
                return False
            continue
        # training: (losses, state_dict) per rank, then the r1 run's
        for (la, sa), (lb, sb) in zip(list(r2a) + [r1a], list(r2b) + [r1b]):
            if la != lb or sa.keys() != sb.keys():
                return False
            if not bitwise_equal([sa[k] for k in sa], [sb[k] for k in sa]):
                return False
    return True


def _e2e(m: dict) -> dict:
    return {
        "r2_p10_s": percentile(m["units"]["r2"], GATED_Q),
        "r1_p10_s": percentile(m["units"]["r1"], GATED_Q),
        "peak_rss_mb": peak_rss_mb(),
    }


def run(workload: str, size: str, seed: int, seconds: float, trace: bool, t_spawn: float) -> dict:
    """One workload process: set up, measure, report (see run.py)."""
    spec = SPECS[size]
    layers: dict = {}
    prob = Problem(workload, spec, seed, layers)
    setup_s = time.perf_counter() - t_spawn
    phase_s = seconds / 2 if trace else seconds
    a = measure(workload, prob, phase_s)
    e2e = _e2e(a)
    result = {
        "setup_s": setup_s, "e2e": e2e, "attempted": a["attempted"], "failed": a["failed"],
        "info": _info(workload, prob, a, e2e),
    }
    if not trace:
        return result
    b = measure(workload, prob, phase_s, traced=True)
    same = outputs_bitwise_equal(workload, a["outputs"], b["outputs"])
    result["attempted"] += b["attempted"] + 1
    result["failed"] += b["failed"] + (0 if same else 1)
    result["info"]["traced_bitwise_equal"] = same
    layers.update(layer_metrics(b["timers"], b["profile"]))
    for name, value in _e2e(b).items():
        layers[f"overhead.{name}"] = value - e2e[name]
    layers["mem.peak_rss_mb"] = e2e["peak_rss_mb"]
    result["layers"] = layers
    return result


def layer_metrics(timers: dict, profile: dict) -> dict:
    """Per-layer metrics per step (or iteration) from merged rank timers
    and a hot-loop profile snapshot."""
    n = max(timers["units"], 1)
    layers = {
        f"gnn.{k}": timers[k] / n
        for k in ("encode_s", "nmp_s", "decode_s", "forward_s", "backward_s")
    }
    layers.update({
        "comm.halo_s": timers["halo_s"] / n,
        "comm.allreduce_s": timers["allreduce_s"] / n,
        "comm.halo_bytes": timers["halo_bytes"] / n,
        "comm.halo_msgs": timers["halo_msgs"] / n,
        "comm.halo_share": timers["halo_s"] / timers["wall_s"] if timers["wall_s"] else 0.0,
        "nn.adam_s": timers["adam_s"] / n,
    })
    for op, name in (("fused_gemm", "tensor.fused_gemm"), ("plan.scatter_add", "tensor.scatter_add")):
        entry = profile.get(op, {"calls": 0, "total_s": 0.0})
        layers[f"{name}_s"] = entry["total_s"] / n
        layers[f"{name}_calls"] = entry["calls"] / n
    return layers


def _info(workload: str, prob: Problem, m: dict, e2e: dict) -> dict:
    """The workload's metrics under the names the README lists for
    it, plus the per-operation tails and counts (printed, not gated)."""
    n = prob.n_nodes
    r2, r1 = m["units"]["r2"], m["units"]["r1"]
    r2_p50, r1_p50, q = percentile(r2, 50.0), percentile(r1, 50.0), TAIL_Q
    if workload == "rollout-r2":
        named = {
            "infer_node_steps_per_s": (n / r2_p50, "node-steps/s"),
            "infer_r1_node_steps_per_s": (n / r1_p50, "node-steps/s"),
            "scaling_efficiency_r2": (r1_p50 / r2_p50 / 2, "ratio"),
            f"step_p{q:.0f}_s": (percentile(r2, q), "s"),
            f"r1_step_p{q:.0f}_s": (percentile(r1, q), "s"),
        }
    else:
        named = {
            "train_node_iters_per_s": (n / r2_p50, "node-iters/s"),
            "train_r1_node_iters_per_s": (n / r1_p50, "node-iters/s"),
            f"iter_p{q:.0f}_s": (percentile(r2, q), "s"),
            f"r1_iter_p{q:.0f}_s": (percentile(r1, q), "s"),
        }
    named["failed_frac"] = (m["failed"] / m["attempted"], "ratio")
    return {"named": named, "nodes": n, "ops": {"r2": len(r2), "r1": len(r1)}}
