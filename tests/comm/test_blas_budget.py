"""The process-wide BLAS thread budget of rank threads.

While ``ThreadWorld`` ranks run, OpenBLAS's per-call pool is capped at
``max(1, min(default, cpus // active))`` for ``active`` live rank
threads across every world, the last world out restores the default,
and nothing ever exceeds the default (a user's pin included). The
budget must change speed only: trajectories, loss histories and
parameters stay bitwise equal to runs with the setter disabled.
"""

import sys
import threading

import numpy as np
import pytest

from repro.comm import HaloMode, ThreadWorld, blas
from repro.comm.blas import BlasHandle, ThreadBudget
from repro.comm.threaded import CollectiveTimeout
from repro.gnn import GNNConfig, MeshGNN, train_distributed
from repro.gnn.rollout import rollout
from repro.graph import build_distributed_graph
from repro.mesh import BoxMesh, auto_partition, taylor_green_velocity


class FakeBlas:
    """A BLAS thread setting that records every change."""

    def __init__(self, default: int):
        self.threads = default
        self.calls: list[int] = []
        self._lock = threading.Lock()

    def set(self, n: int) -> None:
        with self._lock:
            self.calls.append(n)
            self.threads = n

    def get(self) -> int:
        return self.threads


def install(monkeypatch, default: int, cpus: int) -> FakeBlas:
    fake = FakeBlas(default)
    budget = ThreadBudget(BlasHandle("fake", fake.set, fake.get), cpus)
    monkeypatch.setattr(blas, "_process_budget", budget)
    return fake


def share(default: int, cpus: int, active: int) -> int:
    return max(1, min(default, cpus // active))


def test_two_ranks_on_two_cpus_run_single_threaded(monkeypatch):
    fake = install(monkeypatch, default=2, cpus=2)
    seen = ThreadWorld(2).run(lambda comm: fake.get())
    assert seen == [1, 1]
    assert fake.threads == 2
    assert max(fake.calls) <= 2


@pytest.mark.parametrize("cpus", [2, 6])
def test_concurrent_worlds_share_until_both_exit(monkeypatch, cpus):
    fake = install(monkeypatch, default=cpus, cpus=cpus)
    a_in, b_in = threading.Event(), threading.Event()
    a_go, b_go = threading.Event(), threading.Event()
    out: dict = {}

    def prog(entered, go):
        def run(comm):
            entered.set()
            assert go.wait(10)
            return fake.get()
        return run

    ta = threading.Thread(target=lambda: out.setdefault(
        "a", ThreadWorld(2).run(prog(a_in, a_go))))
    tb = threading.Thread(target=lambda: out.setdefault(
        "b", ThreadWorld(1).run(prog(b_in, b_go))))
    ta.start()
    try:
        assert a_in.wait(10)
        assert fake.threads == share(cpus, cpus, 2)
        tb.start()
        assert b_in.wait(10)
        assert fake.threads == share(cpus, cpus, 3)
        b_go.set()
        tb.join(10)
        assert not tb.is_alive()
        assert out["b"] == [share(cpus, cpus, 3)]
        assert fake.threads == share(cpus, cpus, 2)
    finally:
        a_go.set()
        b_go.set()
        ta.join(10)
    assert not ta.is_alive()
    assert out["a"] == [share(cpus, cpus, 2)] * 2
    assert fake.threads == cpus
    assert max(fake.calls) <= cpus


def _raises(comm):
    if comm.rank == 1:
        raise ValueError("rank 1 failed")
    comm.barrier()


def _skips_barrier(comm):
    if comm.rank == 0:
        comm.barrier()


@pytest.mark.parametrize("program, error", [
    (_raises, ValueError),
    (_skips_barrier, CollectiveTimeout),
])
def test_default_restored_when_a_rank_fails(monkeypatch, program, error):
    fake = install(monkeypatch, default=2, cpus=2)
    with pytest.raises(error):
        ThreadWorld(2, timeout=0.5).run(program)
    assert fake.threads == 2
    assert fake.calls == [1, 2]


def test_pinned_default_is_never_raised(monkeypatch):
    fake = install(monkeypatch, default=1, cpus=8)
    assert ThreadWorld(2).run(lambda comm: fake.get()) == [1, 1]
    assert ThreadWorld(1).run(lambda comm: fake.get()) == [1]
    assert set(fake.calls) == {1}


def test_no_openblas_means_no_calls(monkeypatch):
    class NoThreadSymbols:
        """A BLAS without OpenBLAS's entry points (MKL, Accelerate, ...)."""

    monkeypatch.setattr(blas.glob, "glob", lambda pattern: ["libmkl_rt.so"])
    monkeypatch.setattr(blas.ctypes, "CDLL", lambda path: NoThreadSymbols())
    monkeypatch.setattr(blas, "_process_budget", None)
    assert blas.find_openblas() is None
    assert ThreadWorld(2).run(lambda comm: comm.rank) == [0, 1]
    assert blas.process_budget().handle is None
    assert blas.process_budget().describe(4)["blas"] is None


def test_stress_many_worlds_restore_the_default(monkeypatch):
    fake = install(monkeypatch, default=4, cpus=4)
    errors: list = []

    def prog(comm):
        comm.barrier()
        return fake.get()

    def worker(size):
        try:
            for _ in range(25):
                seen = ThreadWorld(size, timeout=10).run(prog)
                assert all(1 <= s <= share(4, 4, size) for s in seen)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(1 + i % 3,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert errors == []
    assert fake.threads == 4
    assert 1 <= min(fake.calls) and max(fake.calls) <= 4


def test_real_openblas_follows_the_budget():
    handle = blas.process_budget().handle
    if handle is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    default = handle.get_threads()
    seen = ThreadWorld(2).run(lambda comm: handle.get_threads())
    assert seen == [share(default, blas.process_budget().cpus, 2)] * 2
    assert handle.get_threads() == default


# -- the budget changes speed only -------------------------------------------

MESH = BoxMesh(4, 4, 2, p=2)
# wide enough that the edge MLP's GEMMs pass OpenBLAS's threading threshold
CONFIG = GNNConfig(hidden=32, n_message_passing=2, n_mlp_hidden=1, seed=3)


def _two_rank_runs():
    dg = build_distributed_graph(MESH, auto_partition(MESH, 2))
    model = MeshGNN(CONFIG)

    def prog(comm):
        g = dg.local(comm.rank)
        x = taylor_green_velocity(g.pos)
        states = rollout(model, g, x, 4, comm, HaloMode.NEIGHBOR_A2A)
        trained = train_distributed(comm, CONFIG, g, x, x, iterations=3)
        return states, trained

    return ThreadWorld(2).run(prog)


@pytest.fixture(scope="module")
def budget_runs():
    """Two-rank runs with the budget, again with it, and with a no-op setter."""
    budgeted = _two_rank_runs()
    again = _two_rank_runs()
    real = blas.process_budget().handle
    with pytest.MonkeyPatch.context() as mp:
        if real is not None:
            # the parent's behaviour: every rank keeps the default pool
            noop = BlasHandle(real.name, lambda n: None, real.get_threads)
            mp.setattr(blas, "_process_budget", ThreadBudget(noop, blas.process_budget().cpus))
        unbudgeted = _two_rank_runs()
    return budgeted, again, unbudgeted


def test_budget_leaves_rollout_bitwise_unchanged(budget_runs):
    budgeted, _, unbudgeted = budget_runs
    for (states_a, _), (states_b, _) in zip(budgeted, unbudgeted):
        assert len(states_a) == len(states_b)
        for a, b in zip(states_a, states_b):
            np.testing.assert_array_equal(a, b)


def test_budgeted_training_is_reproducible(budget_runs):
    budgeted, again, _ = budget_runs
    for (_, a), (_, b) in zip(budgeted, again):
        assert a.losses == b.losses
        for name in a.state_dict:
            np.testing.assert_array_equal(a.state_dict[name], b.state_dict[name])


def test_budget_moves_training_only_by_rounding(budget_runs):
    # OpenBLAS's single-threaded and threaded GEMM drivers block a long
    # reduction differently, so a weight gradient X^T dY summed over a
    # rank's edges may differ in its last bits between 1 and >= 2
    # threads (the forward products reduce over the short feature axis
    # and do not); the budget therefore moves training by rounding only.
    budgeted, _, unbudgeted = budget_runs
    for (_, a), (_, b) in zip(budgeted, unbudgeted):
        np.testing.assert_allclose(a.losses, b.losses, rtol=1e-12, atol=0)
        assert a.state_dict.keys() == b.state_dict.keys()
        for name in a.state_dict:
            np.testing.assert_allclose(
                a.state_dict[name], b.state_dict[name], rtol=1e-12, atol=1e-15)
