"""Unit tests for MemoryDevice allocation and addressing."""

import pytest

from repro.errors import InvalidAddressError, OutOfMemoryError
from repro.hw import ByteContent, DramDevice, GpuMemory, MemoryDevice, PmemDimm
from repro.hw.node import ComputeNode, CpuSet, StorageNode
from repro.sim import Environment
from repro.units import gbytes, gib, mib


@pytest.fixture
def device():
    env = Environment()
    return MemoryDevice(env, "dev", capacity=mib(1),
                        read_bw_bps=gbytes(10), write_bw_bps=gbytes(10))


def test_alloc_and_free_roundtrip(device):
    a = device.alloc(1000, tag="a")
    assert device.used_bytes >= 1000
    a.free()
    assert device.used_bytes == 0
    assert device.free_bytes == device.capacity


def test_alloc_alignment(device):
    a = device.alloc(1)
    b = device.alloc(1)
    assert a.addr % 64 == 0
    assert b.addr % 64 == 0
    assert b.addr - a.addr == 64


def test_out_of_memory(device):
    device.alloc(mib(1) - 64)
    with pytest.raises(OutOfMemoryError):
        device.alloc(mib(1))


def test_free_coalesces_holes(device):
    chunks = [device.alloc(1024) for _ in range(4)]
    for chunk in chunks:
        chunk.free()
    # After freeing everything the free list must be one hole again.
    assert device._free == [(0, device.capacity)]


def test_reuse_freed_space(device):
    a = device.alloc(mib(1) - 64)
    a.free()
    b = device.alloc(mib(1) - 64)
    assert b.addr == a.addr


def test_use_after_free_detected(device):
    a = device.alloc(100)
    a.free()
    with pytest.raises(InvalidAddressError):
        a.write(0, ByteContent(b"x"))
    with pytest.raises(InvalidAddressError):
        a.free()


def test_allocation_at_finds_covering_region(device):
    a = device.alloc(100, tag="target")
    assert device.allocation_at(a.addr + 50) is a


# --- concrete devices ---------------------------------------------------------


def test_pmem_dimm_capacity_and_bandwidth():
    env = Environment()
    pmem = PmemDimm(env, dimms=3, dimm_capacity=gib(256))
    assert pmem.capacity == 3 * gib(256)
    assert pmem.write_channel.capacity_bps == pytest.approx(gbytes(3 * 2.8))
    assert pmem.read_channel.capacity_bps == pytest.approx(gbytes(3 * 6.8))
    # Write bandwidth degrades under many concurrent writers.
    assert pmem.write_channel.capacity_for(2) == pytest.approx(
        gbytes(3 * 2.8))
    assert pmem.write_channel.capacity_for(16) == pytest.approx(
        gbytes(3 * 2.0))


def test_gpu_has_asymmetric_pcie_channels():
    env = Environment()
    gpu = GpuMemory(env)
    assert gpu.pcie_read.capacity_bps == pytest.approx(gbytes(5.8))
    assert gpu.pcie_write.capacity_bps == pytest.approx(gbytes(9.0))


def test_compute_node_wiring():
    env = Environment()
    node = ComputeNode(env, "volta", gpu_count=4, gpu_memory=gib(32))
    assert len(node.gpus) == 4
    assert node.nvme is not None
    assert node.gpus[0].capacity == gib(32)


def test_storage_node_has_both_pmem_modes():
    env = Environment()
    node = StorageNode(env)
    assert node.pmem_devdax.capacity == 3 * gib(256)
    assert node.pmem_fsdax.capacity == 3 * gib(256)


# --- CpuSet --------------------------------------------------------------------


def test_cpuset_serializes_when_saturated():
    env = Environment()
    cpus = CpuSet(env, cores=2)
    done_at = []

    def job(env, tag):
        yield from cpus.execute(100)
        done_at.append((tag, env.now))

    for tag in "abcd":
        env.process(job(env, tag))
    env.run()
    assert [t for _tag, t in done_at] == [100, 100, 200, 200]


def test_dram_device_defaults():
    env = Environment()
    dram = DramDevice(env)
    assert dram.capacity == gib(1024)
