"""The NIC's pin table: one MR per allocation, retired with the memory."""

import pytest

from repro.errors import QpStateError, RkeyViolation
from repro.hw import ComputeNode, StorageNode
from repro.net import Fabric
from repro.obs import Observability
from repro.rdma import Rnic, connect
from repro.sim import Environment
from repro.units import usecs


def make_nics():
    env = Environment()
    fabric = Fabric(env)
    client = ComputeNode(env, "client", gpu_count=1)
    server = StorageNode(env, "server")
    return env, client, server, Rnic(env, client, fabric), \
        Rnic(env, server, fabric)


def test_pin_registers_once_and_a_hit_costs_nothing():
    env, client, _server, nic, _server_nic = make_nics()

    def proc(env):
        allocation = client.dram.alloc(4096)
        first = yield from nic.pin(allocation)
        pinned_at = env.now
        second = yield from nic.pin(allocation)
        return first, second, pinned_at, env.now

    first, second, pinned_at, now = env.run_process(env.process(proc(env)))
    assert second is first
    assert now == pinned_at == usecs(40) + int(4096 * 0.25)
    assert nic.registered_mrs == 1


def test_pin_traces_a_miss_and_not_a_hit():
    env, client, _server, nic, _server_nic = make_nics()
    obs = Observability(tracing=True)

    def proc(env):
        allocation = client.dram.alloc(4096)
        yield from nic.pin(allocation, obs, trace_id=7, track="daemon")
        yield from nic.pin(allocation, obs, trace_id=8, track="daemon")

    env.run_process(env.process(proc(env)))
    span = obs.tracer.one("mr.register")
    assert (span.cat, span.trace_id, span.track) == ("rdma", 7, "daemon")
    assert span.args == {"bytes": 4096}
    assert span.duration_ns == usecs(40) + int(4096 * 0.25)


def test_freeing_an_allocation_retires_its_pin():
    env, client, server, client_nic, server_nic = make_nics()

    def proc(env):
        src = client.dram.alloc(256)
        dst = server.dram.alloc(256)
        src_mr = yield from client_nic.pin(src)
        dst_mr = yield from server_nic.pin(dst)
        server_qp, _ = yield from connect(env, server_nic, client_nic)
        src.free()
        assert not src_mr.valid and src.mr is None
        with pytest.raises(RkeyViolation):
            yield server_qp.read(dst_mr, 0, src_mr.rkey, src_mr.addr, 256)
        dst.free()
        # A local MR whose memory was freed fails like a deregistered one.
        with pytest.raises(QpStateError):
            yield server_qp.read(dst_mr, 0, src_mr.rkey, src_mr.addr, 256)
        return True

    assert env.run_process(env.process(proc(env)))
    assert client_nic.registered_mrs == server_nic.registered_mrs == 0


def test_unpin_is_idempotent_and_unpin_device_spares_other_devices():
    env, client, _server, nic, _server_nic = make_nics()

    def proc(env):
        dram = client.dram.alloc(256)
        other = client.dram.alloc(512)
        yield from nic.pin(dram)
        yield from nic.pin(other)
        return dram, other

    dram, other = env.run_process(env.process(proc(env)))
    nic.unpin([dram])
    nic.unpin([dram])
    assert nic.registered_mrs == 1
    nic.unpin_device(client.gpus[0])
    assert nic.registered_mrs == 1 and other.mr.valid
    nic.unpin_device(client.dram)
    assert nic.registered_mrs == 0 and other.mr is None
