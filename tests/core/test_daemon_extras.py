"""Tests for daemon extras: LIST op, DRAM fallback, failure handling."""

import pytest

from repro.core.client import PortusClient
from repro.core.daemon import PortusDaemon
from repro.errors import RkeyViolation
from repro.harness.cluster import PaperCluster
from repro.pmem import PmemPool
from repro.units import gbytes, to_seconds


def test_list_reports_inventory_over_the_network():
    cluster = PaperCluster(seed=20)

    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        session.model.update_step(4)
        yield from session.checkpoint(4)
        rows = yield from cluster.portus_client().list_models()
        return rows

    rows = cluster.run(scenario)
    assert len(rows) == 1
    row = rows[0]
    assert row["model"] == "alexnet"
    assert row["layers"] == 16
    assert row["attached"] is True
    assert {"state": "DONE", "step": 4} in row["versions"]


def test_list_empty_daemon():
    cluster = PaperCluster(seed=21)

    def scenario(env):
        rows = yield from cluster.portus_client().list_models()
        return rows

    assert cluster.run(scenario) == []


def test_dram_fallback_mode():
    """Paper §IV-a: upon the absence of PMem, Portus can use DRAM.

    The pool formats on the server's DRAM device; checkpoints and
    restores work identically (durability guarantees are weaker, which
    is the trade the paper accepts for that mode)."""
    cluster = PaperCluster(seed=22, start_daemon=True)
    dram_pool = PmemPool.format(cluster.server.dram)
    dram_daemon = PortusDaemon(cluster.env, cluster.server, dram_pool,
                               cluster.server_tcp, port=9901)
    dram_daemon.start()

    def scenario(env):
        client = PortusClient(env, cluster.volta, cluster.volta_tcp,
                              dram_daemon)
        instance = cluster.materialize("resnet50")
        session = yield from client.register(instance)
        instance.update_step(3)
        start = env.now
        yield from session.checkpoint(3)
        elapsed = env.now - start
        instance.update_step(9)
        step = yield from session.restore()
        contents = {t.name: t.content() for t in instance.tensors}
        return elapsed, step, instance.verify_against(contents, step=3)

    elapsed, step, mismatched = cluster.run(scenario)
    assert step == 3
    assert mismatched == []
    entry = dram_daemon.model_map["resnet50"]
    assert entry.meta.restorable() == (entry.meta.read_flags()
                                       .newest_done(), 3)
    # Same speed as PMem: the network path is the bottleneck either way
    # (the paper's Fig. 10 point).
    rate = entry.meta.mindex.total_bytes / to_seconds(elapsed)
    assert rate == pytest.approx(gbytes(5.8), rel=0.05)


def test_client_vanishing_mid_pull_aborts_cleanly():
    """Deregistering the client's MRs mid-checkpoint (job died) must
    abort the pull: the daemon reports an error, the target slot is
    rolled back, and the previous checkpoint stays restorable."""
    from repro.core import protocol

    cluster = PaperCluster(seed=23)

    def scenario(env):
        session = yield from cluster.portus_register("vgg19_bn")
        session.model.update_step(1)
        yield from session.checkpoint(1)
        session.model.update_step(2)
        message, size = protocol.do_checkpoint("vgg19_bn", 2)
        yield from session.conn.send(message, wire_size=size)
        yield env.timeout(1_000_000)  # 1 ms into a ~100 ms pull
        # The training process dies: every MR is torn down.
        cluster.volta.nic.unpin(tensor.allocation
                                for tensor in session.model.tensors)
        reply = yield from session.conn.recv()
        return session, reply

    session, reply = cluster.run(scenario)
    assert reply["op"] == protocol.OP_ERROR
    assert isinstance(reply["error"], RkeyViolation)
    entry = cluster.daemon.model_map["vgg19_bn"]
    assert not entry.busy  # the CAS guard was released
    assert entry.meta.restorable()[1] == 1  # old version intact


def test_error_does_not_wedge_daemon():
    """After a failed checkpoint the same model checkpoints fine again."""
    from repro.core import protocol

    cluster = PaperCluster(seed=24)

    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        session.model.update_step(1)
        # Fail: restore before any checkpoint.
        message, size = protocol.do_restore("alexnet")
        yield from session.conn.send(message, wire_size=size)
        reply = yield from session.conn.recv()
        assert reply["op"] == protocol.OP_ERROR
        # Then a normal checkpoint succeeds.
        reply = yield from session.checkpoint(1)
        return reply

    reply = cluster.run(scenario)
    assert reply["op"] == "CHECKPOINT_DONE"
    assert reply["step"] == 1
