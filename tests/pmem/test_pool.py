"""Tests for PmemPool format/open/crash and the persistent allocator."""

import random

import pytest

from repro.errors import (PmemError, PoolCorruption, PoolExhausted,
                          PowerFailure)
from repro.faults.crashpoints import CrashPointRecorder
from repro.hw import ByteContent, PmemDimm
from repro.pmem import PmemPool
from repro.sim import Environment
from repro.units import gib, mib


def make_device(dimms=1, dimm_capacity=gib(1)):
    env = Environment()
    return PmemDimm(env, dimms=dimms, dimm_capacity=dimm_capacity)


def test_format_then_open_roundtrip():
    device = make_device()
    pool = PmemPool.format(device)
    pool.close()
    reopened = PmemPool.open(device)
    assert reopened.allocator.records() == []


def test_format_refuses_dirty_device():
    device = make_device()
    device.alloc(4096)
    with pytest.raises(PmemError, match="non-empty"):
        PmemPool.format(device)


def test_open_unformatted_device_fails():
    device = make_device()
    with pytest.raises(PoolCorruption):
        PmemPool.open(device)


def test_alloc_survives_reopen():
    device = make_device()
    pool = PmemPool.format(device)
    region = pool.alloc(mib(1), tag="model-a/v0")
    region.write(0, ByteContent(b"tensor-bytes"))
    region.persist(0, 12)
    pool.close()

    reopened = PmemPool.open(device)
    records = reopened.allocator.records()
    assert len(records) == 1
    assert records[0].tag == "model-a/v0"
    assert records[0].size == mib(1)
    found = reopened.find_by_tag("model-a/v0")
    assert found[0].read_bytes(0, 12) == b"tensor-bytes"


def test_free_removes_record_and_space():
    device = make_device()
    pool = PmemPool.format(device)
    region = pool.alloc(mib(1), tag="gone")
    used_before = pool.used_bytes
    pool.free(region)
    assert pool.used_bytes == used_before - mib(1)
    assert pool.find_by_tag("gone") == []


def test_crash_after_persist_keeps_data():
    device = make_device()
    pool = PmemPool.format(device)
    region = pool.alloc(4096, tag="ckpt")
    region.write(0, ByteContent(b"persisted-payload"))
    region.persist(0, 17)
    pool.crash(random.Random(1))

    recovered = PmemPool.open(device)
    found = recovered.find_by_tag("ckpt")
    assert len(found) == 1
    assert found[0].read_bytes(0, 17) == b"persisted-payload"


def test_crash_without_persist_may_lose_data():
    device = make_device()
    pool = PmemPool.format(device)
    region = pool.alloc(4096, tag="ckpt")
    region.write(0, ByteContent(b"Y" * 100))
    rng = random.Random(0)
    rng.choice = lambda options: "lost"
    pool.crash(rng)

    recovered = PmemPool.open(device)
    found = recovered.find_by_tag("ckpt")
    # The allocation record was committed, so the extent survives ...
    assert len(found) == 1
    # ... but the unflushed payload is gone.
    assert found[0].read_bytes(0, 100) == bytes(100)


def test_reconcile_reclaims_leaked_extent():
    """Crash between device.alloc and AllocTable commit leaks space; open()
    must reclaim it."""
    device = make_device()
    pool = PmemPool.format(device)
    pool.alloc(mib(1), tag="committed")
    # Simulate the crash window: device space reserved, no table commit.
    device.alloc(mib(2), tag="leaked-by-crash")
    used_with_leak = device.used_bytes
    pool.close()

    recovered = PmemPool.open(device)
    assert device.used_bytes == used_with_leak - mib(2)
    assert [r.tag for r in recovered.allocator.records()] == ["committed"]


def test_alloc_table_capacity_limit():
    device = make_device()
    pool = PmemPool.format(device, max_extents=4)
    for i in range(4):
        pool.alloc(4096, tag=f"r{i}")
    with pytest.raises(PoolExhausted, match="AllocTable full"):
        pool.alloc(4096, tag="overflow")


def test_pool_exhaustion_maps_to_pool_error():
    device = make_device(dimm_capacity=mib(16))
    pool = PmemPool.format(device)
    with pytest.raises(PoolExhausted):
        pool.alloc(mib(64), tag="too-big")


def test_closed_pool_rejects_operations():
    device = make_device()
    pool = PmemPool.format(device)
    pool.close()
    with pytest.raises(PmemError, match="closed"):
        pool.alloc(4096, tag="nope")


def test_many_alloc_free_cycles_stay_consistent():
    device = make_device()
    pool = PmemPool.format(device)
    rng = random.Random(7)
    live = []
    for step in range(200):
        if live and rng.random() < 0.45:
            victim = live.pop(rng.randrange(len(live)))
            pool.free(victim)
        else:
            live.append(pool.alloc(rng.randrange(1, 65536), tag=f"s{step}"))
    # Committed table and live handles must agree exactly.
    committed = {r.addr for r in pool.allocator.records()}
    assert committed == {a.addr for a in live}
    pool.close()
    reopened = PmemPool.open(device)
    assert {r.addr for r in reopened.allocator.records()} == committed


def test_commit_over_a_torn_alloc_table_slot_is_not_hidden():
    """A power cut tears one AllocTable commit; the next, shorter commit
    lands in that slot over the torn tail.  It must be the table the
    next open reads — falling back to the older generation would list
    an extent that was already freed."""
    device = make_device()
    pool = PmemPool.format(device, max_extents=64)
    pool.alloc(4096, tag="a")
    pool.alloc(4096, tag="b")
    rng = random.Random(0)
    rng.choice = lambda outcomes: "torn"
    recorder = CrashPointRecorder(device, crash_at=2,
                                  power_fail=lambda: device.crash(rng))
    with pytest.raises(PowerFailure):
        pool.alloc(4096, tag="c")
    assert recorder.fired == "2:record.persist:pool-meta"

    pool = PmemPool.open(device)
    pool.free(pool.find_by_tag("b")[0])
    reopened = PmemPool.open(device)
    assert [r.tag for r in reopened.allocator.records()] == ["a"]
