"""Smoke tests of the benchmark at tiny sizes.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import serving  # noqa: E402
import sim  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_declared_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == run.E2E_METRICS
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == run.LAYER_METRICS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_and_emits_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    if trace:
        assert "info traced_bitwise_equal true" in proc.stdout
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_gives_same_inputs():
    a = sim.Problem("rollout-r2", sim.SPECS["tiny"], 5)
    b = sim.Problem("rollout-r2", sim.SPECS["tiny"], 5)
    c = sim.Problem("rollout-r2", sim.SPECS["tiny"], 6)
    assert a.x0.tobytes() == b.x0.tobytes() != c.x0.tobytes()
    spec = serving.SPECS["tiny"]
    assert serving.make_schedule(spec, 5, 4.0) == serving.make_schedule(spec, 5, 4.0)
    assert serving.make_schedule(spec, 5, 4.0) != serving.make_schedule(spec, 6, 4.0)


def _corrupt(states):
    states = [s.copy() for s in states]
    states[-1][0, 0] += 1e-6
    return states


@pytest.mark.parametrize("workload", ["rollout-r2", "train-r2"])
def test_corrupted_reference_counts_as_failed(monkeypatch, workload):
    if workload == "rollout-r2":
        real = sim._rollout_r1
        monkeypatch.setattr(sim, "_rollout_r1", lambda *a: _corrupt(real(*a)))
    else:
        real = sim._train_r1

        def corrupted(*args):
            losses, state = real(*args)
            return [loss + 1e-6 for loss in losses], state

        monkeypatch.setattr(sim, "_train_r1", corrupted)
    result = sim.run(workload, "tiny", 3, 0.5, False, time.perf_counter())
    assert result["failed"] == result["attempted"] // 2 > 0


def test_corrupted_served_reference_counts_as_failed(monkeypatch):
    real = serving.ClassAssets.reference
    monkeypatch.setattr(serving.ClassAssets, "reference",
                        lambda self, *a, **k: _corrupt(real(self, *a, **k)))
    result = serving.run("tiny", 3, 1.0, False, time.perf_counter())
    assert result["failed"] == result["attempted"] > 0


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "rollout-r2", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
