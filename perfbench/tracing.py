"""The benchmark's own tracing: timers around calls into each layer.

The traced run re-drives the program's public pieces from here rather
than timing anything inside ``src/``:

* :class:`TimingComm` wraps a rank's communicator and times the halo
  ``all_to_all`` (peer wait included) and ``all_reduce_sum``;
* :func:`traced_rollout` runs the same steps as
  :func:`repro.gnn.rollout.rollout` (workspace arena, fused kernels,
  hoisted edge encoding) but calls the encoder, each processor layer
  and the decoder one by one;
* :func:`traced_train` runs the loop of
  :func:`repro.gnn.trainer.train_model` with a timer at each stage.

Both must return the bits the untraced public call returns; the
workloads check that.
"""

from __future__ import annotations

import time

import numpy as np

from repro.comm import HaloMode
from repro.comm.backend import Communicator
from repro.gnn import DistributedDataParallel, MeshGNN, consistent_mse_loss
from repro.nn import Adam
from repro.tensor import Tensor, fast_math, inference_mode

#: per-op timer keys a rank accumulates
TIMER_KEYS = (
    "encode_s", "nmp_s", "decode_s", "forward_s", "backward_s", "adam_s",
    "halo_s", "allreduce_s", "halo_bytes", "halo_msgs", "wall_s", "units",
)


class TimingComm(Communicator):
    """Delegating communicator that times the collectives it forwards.

    ``halo_bytes`` / ``halo_msgs`` are read from the wrapped
    communicator's :class:`~repro.comm.backend.TrafficStats` around each
    ``all_to_all``, so they count exactly what the backend records.
    """

    def __init__(self, inner: Communicator):
        super().__init__()
        self.inner = inner
        self.stats = inner.stats
        self.halo_s = 0.0
        self.allreduce_s = 0.0
        self.halo_bytes = 0
        self.halo_msgs = 0

    @property
    def rank(self) -> int:
        return self.inner.rank

    @property
    def size(self) -> int:
        return self.inner.size

    def barrier(self) -> None:
        self.inner.barrier()

    def all_to_all(self, send):
        nbytes, nmsg = self.stats.bytes_sent, self.stats.messages
        start = time.perf_counter()
        out = self.inner.all_to_all(send)
        self.halo_s += time.perf_counter() - start
        self.halo_bytes += self.stats.bytes_sent - nbytes
        self.halo_msgs += self.stats.messages - nmsg
        return out

    def all_reduce_sum(self, array):
        start = time.perf_counter()
        out = self.inner.all_reduce_sum(array)
        self.allreduce_s += time.perf_counter() - start
        return out

    def all_gather(self, array):
        return self.inner.all_gather(array)

    def send(self, array, dest, tag=0):
        self.inner.send(array, dest, tag)

    def recv(self, source, tag=0):
        return self.inner.recv(source, tag)

    def comm_s(self) -> float:
        return self.halo_s + self.allreduce_s


def new_timers() -> dict:
    return {k: 0.0 for k in TIMER_KEYS}


def _comm_snapshot(comm) -> tuple:
    if isinstance(comm, TimingComm):
        return comm.halo_s, comm.allreduce_s, comm.halo_bytes, comm.halo_msgs
    return 0.0, 0.0, 0, 0


def _add_comm(timers: dict, before: tuple, after: tuple) -> float:
    """Add the comm work between two snapshots; returns its seconds."""
    halo, red = after[0] - before[0], after[1] - before[1]
    timers["halo_s"] += halo
    timers["allreduce_s"] += red
    timers["halo_bytes"] += after[2] - before[2]
    timers["halo_msgs"] += after[3] - before[3]
    return halo + red


def traced_rollout(model: MeshGNN, graph, x0, n_steps: int, comm, halo_mode,
                   timers: dict) -> list:
    """``rollout(model, graph, x0, n_steps, comm, halo_mode)`` with a
    timer around each model stage (geometric edge features only)."""
    states = [np.array(x0, dtype=np.float64, copy=True)]
    x = states[0]
    borrowed = None
    static_attr = graph.geometric_edge_attr()
    with inference_mode() as arena, fast_math(True):
        encoded = model.edge_encoder(Tensor(static_attr)).data
        for _ in range(n_steps):
            arena.reset()
            c0 = _comm_snapshot(comm)
            t0 = time.perf_counter()
            h = model.node_encoder(Tensor(x))
            e = Tensor(encoded)
            t1 = time.perf_counter()
            for layer in model.processor:
                h, e = layer(h, e, graph, comm, halo_mode)
            t2 = time.perf_counter()
            c2 = _comm_snapshot(comm)
            y = model.decoder(h).data
            t3 = time.perf_counter()
            comm_s = _add_comm(timers, c0, c2)
            timers["encode_s"] += t1 - t0
            timers["nmp_s"] += t2 - t1 - comm_s
            timers["decode_s"] += t3 - t2
            timers["forward_s"] += t3 - t0 - comm_s
            timers["wall_s"] += t3 - t0
            timers["units"] += 1
            if borrowed is not None:
                arena.recycle(borrowed)
            x = borrowed = y
            states.append(np.array(x, copy=True))
        if borrowed is not None:
            arena.recycle(borrowed)
        arena.recycle(encoded)
    return states


def traced_train(comm, config, graph, x, target, halo_mode, iterations: int, lr: float,
                 timers: dict) -> tuple:
    """``train_distributed(comm, config, graph, x, target, halo_mode,
    iterations, lr)`` with a timer around each stage; returns
    ``(losses, state_dict)``."""
    halo_mode = HaloMode.parse(halo_mode)
    model = MeshGNN(config)
    ddp = DistributedDataParallel(model, comm, reduction="average")
    opt = Adam(model.parameters(), lr=lr)
    edge_attr = graph.edge_attr(node_features=x, kind=config.edge_features)
    xt, yt = Tensor(x), Tensor(target)
    losses = []
    for _ in range(iterations):
        opt.zero_grad()
        c0 = _comm_snapshot(comm)
        t0 = time.perf_counter()
        e = model.edge_encoder(Tensor(edge_attr))
        h = model.node_encoder(xt)
        t1 = time.perf_counter()
        for layer in model.processor:
            h, e = layer(h, e, graph, comm, halo_mode)
        t2 = time.perf_counter()
        c2 = _comm_snapshot(comm)
        pred = model.decoder(h)
        t3 = time.perf_counter()
        loss = consistent_mse_loss(pred, yt, graph, comm, grad_reduction="all_reduce")
        t4 = time.perf_counter()
        c4 = _comm_snapshot(comm)
        loss.backward()
        t5 = time.perf_counter()
        c5 = _comm_snapshot(comm)
        ddp.sync_gradients()
        t6 = time.perf_counter()
        c6 = _comm_snapshot(comm)
        opt.step()
        t7 = time.perf_counter()
        nmp_comm = _add_comm(timers, c0, c2)
        fwd_comm = nmp_comm + _add_comm(timers, c2, c4)
        bwd_comm = _add_comm(timers, c4, c5)
        _add_comm(timers, c5, c6)
        timers["encode_s"] += t1 - t0
        timers["nmp_s"] += t2 - t1 - nmp_comm
        timers["decode_s"] += t3 - t2
        timers["forward_s"] += t4 - t0 - fwd_comm
        timers["backward_s"] += t5 - t4 - bwd_comm
        timers["adam_s"] += t7 - t6
        timers["wall_s"] += t7 - t0
        timers["units"] += 1
        losses.append(loss.item())
    return losses, model.state_dict()


def merge_rank_timers(per_rank: list) -> dict:
    """Mean over ranks of times; sums over ranks of traffic counts."""
    out = new_timers()
    n = len(per_rank)
    for timers in per_rank:
        for k, v in timers.items():
            out[k] += v if k in ("halo_bytes", "halo_msgs") else v / n
    return out
