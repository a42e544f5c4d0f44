"""Nodes: CPUs + devices wired together, matching the paper's testbed.

A node owns its DRAM, its accelerators/storage, and a :class:`CpuSet` used
to time CPU-bound work (serialization is the big one).  The RNIC is
attached by the network layer (:mod:`repro.rdma.nic`) after construction
because it needs the fabric.
"""

from __future__ import annotations

from typing import Generator, List

from repro.hw.devices import DramDevice, GpuMemory, NvmeDevice, PmemDimm
from repro.sim import Environment, Resource
from repro.units import gib


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
                 gpu_memory: int = gib(32)) -> None:
        super().__init__(env, name, cores, dram_capacity)
        self.gpus: List[GpuMemory] = [
            GpuMemory(env, name=f"{name}.gpu{i}", capacity=gpu_memory)
            for i in range(gpu_count)
        ]
        self.nvme = NvmeDevice(env, name=f"{name}.nvme0")


class StorageNode(Node):
    """The AEP storage server: PMem namespaces in devdax and fsdax modes
    (three 256 GB DIMMs each)."""

    def __init__(self, env: Environment, name: str = "server",
                 cores: int = 72, dram_capacity: int = gib(192)) -> None:
        super().__init__(env, name, cores, dram_capacity)
        self.pmem_devdax = PmemDimm(env, name=f"{name}.pmem.devdax")
        self.pmem_fsdax = PmemDimm(env, name=f"{name}.pmem.fsdax")
