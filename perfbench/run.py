#!/usr/bin/env python3
"""End-to-end benchmark of the consistent distributed mesh GNN.

Run from the repository root:

    python3 perfbench/run.py --workload rollout-r2 --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``rollout-r2``  - autoregressive inference, 2 thread ranks vs 1 rank;
* ``train-r2``    - distributed training, 2 thread ranks vs 1 rank;
* ``serve-mixed`` - open-loop ``tcp://`` serving of small and mid requests.

Every metric is measured on every workload. The ``r2`` class is the
two-rank operation (a rollout step, a training iteration, a ``mid``
request) and the ``r1`` class the single-rank one (a baseline rollout
step, a ``train_single`` iteration, a ``small`` request).

With ``--trace 0`` the last output line is a JSON object with the
end-to-end metrics; with ``--trace 1`` a separate traced run reports
the per-layer metrics, checks that its outputs are bitwise equal to an
untraced run's, and reports the tracing overhead (traced minus untraced)
of every end-to-end metric. Workload processes run without inherited
BLAS thread pins, and the benchmark sets none.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import RESULT_PREFIX, ROOT, WORKLOADS, median, parse_result, workload_env  # noqa: E402

#: name -> unit of every end-to-end metric (``--trace 0``)
E2E_METRICS = {
    "setup_s": "s",
    "r2_p10_s": "s",
    "r1_p10_s": "s",
}

#: name -> unit of every per-layer metric (``--trace 1``); a layer the
#: workload bypasses reads 0
LAYER_METRICS = {
    "mesh.partition_s": "s",
    "graph.build_s": "s",
    "graph.plans_s": "s",
    "graph.halo_nodes": "count",
    "graph.edges": "count",
    "gnn.encode_s": "s",
    "gnn.nmp_s": "s",
    "gnn.decode_s": "s",
    "gnn.forward_s": "s",
    "gnn.backward_s": "s",
    "comm.halo_s": "s",
    "comm.allreduce_s": "s",
    "comm.halo_bytes": "bytes",
    "comm.halo_msgs": "count",
    "comm.halo_share": "ratio",
    "nn.adam_s": "s",
    "tensor.fused_gemm_s": "s",
    "tensor.fused_gemm_calls": "count",
    "tensor.scatter_add_s": "s",
    "tensor.scatter_add_calls": "count",
    **{f"runtime.{c}.{k}": "s" for c in ("small", "mid")
       for k in ("submit_s", "first_frame_s", "stream_s")},
    "runtime.conn_reuse_ratio": "ratio",
    **{f"serve.{c}.{k}_s": "s" for c in ("small", "mid")
       for k in ("admission", "queue", "tile", "execute", "serialize", "unattributed")},
    "serve.mean_batch_size": "count",
    "serve.tile_hit_ratio": "ratio",
    "serve.queue_depth_high_water": "count",
    "serve.shed": "count",
    "sched.affinity_hits": "count",
    "sched.steals": "count",
    "transport.small_p50_over_pool_s": "s",
    "gen.late_p90_s": "s",
    "mem.peak_rss_mb": "MB",
    **{f"overhead.{name}": unit for name, unit in E2E_METRICS.items()},
    "overhead.peak_rss_mb": "MB",
}

#: workload processes that only set up; with the main process's own
#: set-up they give the median reported as ``setup_s``
SETUP_REPEATS = 3
#: every run, set-up included, must end well inside three minutes
RUN_LIMIT_S = 170.0


def _spawn(args, setup_only: bool, deadline: float) -> dict:
    t_spawn = time.perf_counter()
    cmd = [
        sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
        "--workload", args.workload, "--size", args.size, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t-spawn", repr(t_spawn),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=workload_env(), stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.perf_counter(), 1.0), check=False)
    for line in proc.stdout.splitlines():
        if not line.startswith(RESULT_PREFIX):
            print(line)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return parse_result(proc.stdout)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="problem size; 'tiny' is for the smoke tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "gnn" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    try:
        setups = [_spawn(args, True, deadline)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
        result = _spawn(args, False, deadline)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("setup_s runs " + json.dumps(setups + [result["setup_s"]]))
    e2e = result["e2e"]
    info = result["info"]
    info["named"]["peak_rss_mb"] = (e2e.pop("peak_rss_mb"), "MB")
    for name, (value, unit) in info.pop("named").items():
        print(f"named {name} {value!r} {unit}")
    for key, value in info.items():
        print(f"info {key} {json.dumps(value, sort_keys=True)}")

    if args.trace:
        values = dict(result["layers"])
        values["overhead.setup_s"] = result["setup_s"] - median(setups)
        names = LAYER_METRICS
    else:
        values = dict(e2e, setup_s=median(setups + [result["setup_s"]]))
        names = E2E_METRICS
    if not set(values) <= set(names) or (not args.trace and set(values) != set(names)):
        print(f"perfbench: measured {sorted(values)}, declared {sorted(names)}", file=sys.stderr)
        return 1
    metrics = {}
    for name, unit in names.items():
        # a layer the workload bypasses did no work: it reads 0
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
