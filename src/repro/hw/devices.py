"""Concrete device types, calibrated to the paper's testbed.

Each rate below is a calibration anchor (DESIGN.md §5) defined once, here;
:mod:`repro.harness.calibration` re-exports the ones its derivations use.
"""

from __future__ import annotations

from repro.hw.device import MemoryDevice
from repro.sim import Environment, SharedChannel
from repro.units import gbytes, gib, usecs

#: Host DRAM: effectively never the bandwidth bottleneck.
DRAM_READ_BPS = gbytes(80.0)
DRAM_WRITE_BPS = gbytes(60.0)
#: GPU HBM itself (both directions).
GPU_HBM_BPS = gbytes(800.0)
#: Fig. 10: BAR-mapped reads of GPU memory cap at 5.8 GB/s ...
GPU_BAR_READ_BPS = gbytes(5.8)
#: ... while writes to it are unaffected (Fig. 10d).
GPU_PCIE_WRITE_BPS = gbytes(9.0)
#: One Optane DIMM: sequential read, sequential write for a few streams,
#: and write once more than PMEM_CONGESTION_THRESHOLD streams interleave.
PMEM_READ_BPS_PER_DIMM = gbytes(6.8)
PMEM_WRITE_BPS_PER_DIMM = gbytes(2.8)
PMEM_CONGESTED_WRITE_BPS_PER_DIMM = gbytes(2.0)
PMEM_CONGESTION_THRESHOLD = 4
#: The datacenter NVMe SSD the paper cites: 2.7 GB/s max sequential write.
NVME_CAPACITY = gib(3840)
NVME_READ_BPS = gbytes(6.5)
NVME_WRITE_BPS = gbytes(2.7)
#: Block-layer + device latency each submitted NVMe I/O pays.
NVME_IO_LATENCY_NS = usecs(80)


class DramDevice(MemoryDevice):
    """Host DRAM.  Effectively never the bandwidth bottleneck."""

    def __init__(self, env: Environment, name: str = "dram",
                 capacity: int = gib(1024)) -> None:
        super().__init__(env, name, capacity, DRAM_READ_BPS, DRAM_WRITE_BPS)


class GpuMemory(MemoryDevice):
    """GPU HBM reached through a PCIe BAR window.

    The device channels model HBM itself (fast).  The PCIe attachment —
    including the paper's key observation that BAR-mapped *reads* of GPU
    memory cap at 5.8 GB/s while writes are unaffected (Fig. 10) — lives in
    the per-GPU ``pcie_read`` / ``pcie_write`` channels, which every DMA
    path through this GPU must traverse.
    """

    def __init__(self, env: Environment, name: str = "gpu0",
                 capacity: int = gib(32)) -> None:
        super().__init__(env, name, capacity, GPU_HBM_BPS, GPU_HBM_BPS)
        self.pcie_read = SharedChannel(env, GPU_BAR_READ_BPS,
                                       f"{name}.pcie.read")
        self.pcie_write = SharedChannel(env, GPU_PCIE_WRITE_BPS,
                                        f"{name}.pcie.write")


class PmemDimm(MemoryDevice):
    """An interleaved Optane DC namespace (n x 256 GB DIMMs).

    The rates model the paper's 3-DIMM interleave set: sequential read
    ~6.8 GB/s per DIMM; writes sustain ~2.8 GB/s per DIMM for a few
    sequential streams but degrade to ~2.0 GB/s per DIMM when many writers
    interleave on the 256 B XPLine (the well-documented Optane contention
    behaviour; Izraelevitz et al. / Wei et al., both cited by the paper).
    A single checkpoint stream therefore sees PMem ≈ DRAM as a target
    (Fig. 10), while sixteen concurrent GPT shards see the ~6 GB/s
    aggregate ingest behind the paper's ~15 s Fig. 14 dump.  The slower
    5.64 GB/s "DAX write" of Table I is a property of the fsdax
    *filesystem* path, modeled in :mod:`repro.fs.dax`.
    """

    durable_tracking = True

    def __init__(self, env: Environment, name: str = "pmem0",
                 dimms: int = 3, dimm_capacity: int = gib(256)) -> None:
        if dimms < 1:
            raise ValueError(f"need at least one DIMM, got {dimms}")
        super().__init__(
            env, name, dimms * dimm_capacity,
            read_bw_bps=dimms * PMEM_READ_BPS_PER_DIMM,
            write_bw_bps=dimms * PMEM_WRITE_BPS_PER_DIMM,
            read_latency_ns=usecs(0.3), write_latency_ns=usecs(0.1))
        self.write_channel = SharedChannel(
            env, dimms * PMEM_WRITE_BPS_PER_DIMM, f"{name}.write",
            congested_capacity_bps=dimms * PMEM_CONGESTED_WRITE_BPS_PER_DIMM,
            congestion_threshold=PMEM_CONGESTION_THRESHOLD)
        self.dimms = dimms


class NvmeDevice(MemoryDevice):
    """A PCIe 4.0 NVMe SSD behind the kernel block layer."""

    def __init__(self, env: Environment, name: str = "nvme0") -> None:
        super().__init__(env, name, NVME_CAPACITY, NVME_READ_BPS,
                         NVME_WRITE_BPS, read_latency_ns=NVME_IO_LATENCY_NS,
                         write_latency_ns=NVME_IO_LATENCY_NS)
