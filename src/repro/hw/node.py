"""Nodes: CPUs + devices wired together, matching the paper's testbed.

A node owns its DRAM, its accelerators/storage, and a :class:`CpuSet` used
to time CPU-bound work (serialization is the big one).  The RNIC is
attached by the network layer (:mod:`repro.rdma.nic`) after construction
because it needs the fabric.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.hw.devices import DramDevice, GpuMemory, NvmeDevice, PmemDimm
from repro.sim import Environment, Resource
from repro.units import gbytes, gib


class CpuSet:
    """A pool of cores; CPU-bound work claims a core for its duration."""

    def __init__(self, env: Environment, cores: int,
                 name: str = "cpu") -> None:
        if cores < 1:
            raise ValueError(f"need at least one core, got {cores}")
        self.env = env
        self.cores = cores
        self.name = name
        self._pool = Resource(env, capacity=cores)

    def execute(self, cpu_time_ns: int) -> Generator:
        """Process: hold one core for *cpu_time_ns* (queueing if saturated)."""
        req = self._pool.request()
        yield req
        try:
            yield self.env.timeout(cpu_time_ns)
        finally:
            self._pool.release(req)


class Node:
    """Common base: name, CPU set, DRAM."""

    def __init__(self, env: Environment, name: str, cores: int,
                 dram_capacity: int) -> None:
        self.env = env
        self.name = name
        self.cpus = CpuSet(env, cores, name=f"{name}.cpu")
        self.dram = DramDevice(env, name=f"{name}.dram",
                               capacity=dram_capacity)
        self.nic = None  # attached by repro.rdma.nic.Rnic

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class ComputeNode(Node):
    """A GPU client node (Client-Volta / Client-Ampere in the paper)."""

    def __init__(self, env: Environment, name: str, cores: int = 128,
                 dram_capacity: int = gib(1024), gpu_count: int = 4,
                 gpu_memory: int = gib(32),
                 gpu_pcie_read_bw_bps: float = gbytes(5.8),
                 gpu_pcie_write_bw_bps: float = gbytes(9.0),
                 nvme: bool = True) -> None:
        super().__init__(env, name, cores, dram_capacity)
        self.gpus: List[GpuMemory] = [
            GpuMemory(env, name=f"{name}.gpu{i}", capacity=gpu_memory,
                      pcie_read_bw_bps=gpu_pcie_read_bw_bps,
                      pcie_write_bw_bps=gpu_pcie_write_bw_bps)
            for i in range(gpu_count)
        ]
        self.nvme: Optional[NvmeDevice] = (
            NvmeDevice(env, name=f"{name}.nvme0") if nvme else None)


class StorageNode(Node):
    """The AEP storage server: PMem namespaces in devdax and fsdax modes."""

    def __init__(self, env: Environment, name: str = "server",
                 cores: int = 72, dram_capacity: int = gib(192),
                 devdax_dimms: int = 3, fsdax_dimms: int = 3,
                 dimm_capacity: int = gib(256)) -> None:
        super().__init__(env, name, cores, dram_capacity)
        self.pmem_devdax = PmemDimm(env, name=f"{name}.pmem.devdax",
                                    dimms=devdax_dimms,
                                    dimm_capacity=dimm_capacity)
        self.pmem_fsdax = PmemDimm(env, name=f"{name}.pmem.fsdax",
                                   dimms=fsdax_dimms,
                                   dimm_capacity=dimm_capacity)
