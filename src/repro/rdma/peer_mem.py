"""NVIDIA PeerMem equivalent: let an RNIC register GPU memory.

On the real system, loading the ``nv_peer_mem`` kernel module lets
``ibv_reg_mr`` pin CUDA allocations so the HCA can DMA directly over PCIe
peer-to-peer.  Here it is an explicit capability grant: without it, MR
registration of a GPU allocation fails exactly like the real driver does.
"""

from __future__ import annotations

from repro.errors import MemoryRegionError
from repro.hw.devices import GpuMemory
from repro.rdma.nic import Rnic


def enable_peer_memory(nic: Rnic, gpu: GpuMemory) -> None:
    """Grant *nic* peer-to-peer DMA access to *gpu*."""
    if not isinstance(gpu, GpuMemory):
        raise MemoryRegionError(
            f"peer memory applies to GPU devices, got {gpu!r}")
    nic._peer_devices.add(gpu)
