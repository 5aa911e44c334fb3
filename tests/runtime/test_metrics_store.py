"""The metrics store over the wire: what a server records is what a
``tcp://`` client and a ``cluster://`` router read back.

Per-model load counts survive the ``metrics`` op and the cluster's
shard-relabelled merge, and a peer that resets its socket mid-request
is counted on the server's registry instead of printing a traceback.
"""

import socket
import struct
import time

from repro.runtime import RolloutRequest, connect
from repro.serve import ServeConfig, ServeServer, ServeStats
from tests.runtime.conftest import ENGINE_CONFIG, make_engine


def test_per_model_loads_cross_the_metrics_op(asset_paths, x0):
    with make_engine("tcp", asset_paths) as engine:
        engine.rollout(RolloutRequest(model="m", graph="g1", x0=x0, n_steps=1))
        registry = engine.metrics_registry()
        stats = engine.stats()
    loads = registry.get("repro_model_loads_total")
    assert loads.value(model="m") == 1.0
    assert stats.registry.per_model_loads == {"m": 1}
    assert stats == ServeStats.from_registry(registry)


def test_per_model_loads_survive_the_cluster_merge(asset_paths):
    ckpt, _, _ = asset_paths
    with make_engine("cluster", asset_paths) as engine:
        # an eager registration loads the checkpoint on every shard
        engine.register_checkpoint("m2", ckpt, expect_config=ENGINE_CONFIG,
                                   eager=True)
        registry = engine.metrics_registry()
        stats = engine.stats()
        shard_ids = list(engine.shard_ids)
    loads = registry.get("repro_model_loads_total")
    for sid in shard_ids:
        assert loads.value(model="m2", shard=sid) == 1.0
    assert stats.registry.per_model_loads["m2"] == 2
    assert stats.registry.loads == sum(stats.registry.per_model_loads.values())


def test_reset_mid_request_is_counted_not_printed(capfd):
    config = ServeConfig(max_batch_size=1, max_wait_s=0.0)
    with connect("pool://", config=config) as backend, \
            ServeServer(backend.service) as server, \
            connect(f"tcp://{server.endpoint}") as engine:
        capfd.readouterr()
        sock = socket.create_connection(server.address)
        # a length prefix promising a 64-byte header that never arrives
        sock.sendall(struct.pack("!I", 64) + b'{"op": "pi')
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        sock.close()  # linger 0: the peer sees a reset, not a clean EOF
        deadline = time.monotonic() + 10.0
        errors = 0.0
        while time.monotonic() < deadline:
            counter = engine.metrics_registry().get("repro_server_errors_total")
            errors = counter.total() if counter is not None else 0.0
            if errors:
                break
            time.sleep(0.02)
        assert errors == 1.0
        assert counter.value(error="ConnectionResetError") == 1.0
    assert capfd.readouterr().err == ""
