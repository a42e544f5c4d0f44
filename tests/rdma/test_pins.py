"""The NIC's pin table: one MR per allocation, retired with the memory."""

import pytest

from repro.errors import MemoryRegionError, QpStateError, RkeyViolation
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
        [first] = yield from nic.pin_all([allocation])
        pinned_at = env.now
        [second] = yield from nic.pin_all([allocation])
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
        yield from nic.pin_all([allocation], obs, trace_id=7, track="daemon")
        yield from nic.pin_all([allocation], obs, trace_id=8, track="daemon")

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
        [src_mr] = yield from client_nic.pin_all([src])
        [dst_mr] = yield from server_nic.pin_all([dst])
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
        yield from nic.pin_all([dram, other])
        return dram, other

    dram, other = env.run_process(env.process(proc(env)))
    nic.unpin([dram])
    nic.unpin([dram])
    assert nic.registered_mrs == 1
    nic.unpin_device(client.gpus[0])
    assert nic.registered_mrs == 1 and other.mr.valid
    nic.unpin_device(client.dram)
    assert nic.registered_mrs == 0 and other.mr is None


def registration_ns(size):
    return usecs(40) + int(size * 0.25)


def test_misses_register_at_once_one_per_core():
    """Two misses take one registration's time; ``cores + 1`` take two
    rounds, and the queued one's span times only its own registration."""
    env, client, _server, nic, _server_nic = make_nics()
    obs = Observability(tracing=True)
    cores = client.cpus.cores

    def pin(count):
        allocations = [client.dram.alloc(4096) for _ in range(count)]
        start = env.now
        mrs = yield from nic.pin_all(allocations, obs)
        assert [mr.allocation for mr in mrs] == allocations
        return env.now - start

    assert env.run_process(env.process(pin(2))) == registration_ns(4096)
    assert env.run_process(env.process(pin(cores + 1))) == \
        2 * registration_ns(4096)
    spans = obs.tracer.named("mr.register")
    assert len(spans) == cores + 3
    assert {span.duration_ns for span in spans} == {registration_ns(4096)}
    assert spans[-1].start_ns == spans[2].end_ns
    assert nic.registered_mrs == cores + 3


def test_a_concurrent_pin_joins_the_registration_in_flight(monkeypatch):
    env, client, _server, nic, _server_nic = make_nics()
    calls = []
    raw = nic.register_mr

    def counting(allocation):
        calls.append(allocation)
        return (yield from raw(allocation))

    monkeypatch.setattr(nic, "register_mr", counting)
    allocation = client.dram.alloc(4096)

    def pin(env, delay):
        yield env.timeout(delay)
        [mr] = yield from nic.pin_all([allocation])
        return mr, env.now

    first = env.process(pin(env, 0))
    second = env.process(pin(env, usecs(10)))
    (mr_a, done_a), (mr_b, done_b) = env.run_all([first, second])
    assert calls == [allocation]
    assert mr_a is mr_b and allocation.mr is mr_a
    assert done_a == done_b == registration_ns(4096)
    assert nic.registered_mrs == 1


def _pin_then(env, nic, allocations, cancel):
    """Process: pin *allocations*, calling *cancel* 10 µs into the
    registration; returns the error the pin raised."""
    def cancel_soon(env):
        yield env.timeout(usecs(10))
        cancel()

    env.process(cancel_soon(env))
    with pytest.raises(MemoryRegionError, match="cancelled"):
        yield from nic.pin_all(allocations)
    # Let every registration run to its end.
    yield env.timeout(usecs(100))
    return True


def test_an_allocation_freed_mid_registration_leaves_no_mr():
    env, client, _server, nic, _server_nic = make_nics()
    allocation = client.dram.alloc(4096)
    assert env.run_process(env.process(
        _pin_then(env, nic, [allocation], allocation.free)))
    assert nic.registered_mrs == 0 and allocation.mr is None


def test_unpin_device_cancels_registrations_in_flight_and_queued():
    env, client, _server, nic, _server_nic = make_nics()
    allocations = [client.dram.alloc(4096)
                   for _ in range(client.cpus.cores + 1)]
    assert env.run_process(env.process(_pin_then(
        env, nic, allocations, lambda: nic.unpin_device(client.dram))))
    assert nic.registered_mrs == 0
    assert all(allocation.mr is None for allocation in allocations)
    # A later pin of the same memory registers afresh.
    [mr] = env.run_process(env.process(nic.pin_all(allocations[:1])))
    assert mr.valid and nic.registered_mrs == 1
