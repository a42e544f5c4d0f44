"""RDMA substrate: verbs (MRs, QPs, one-sided READ/WRITE, SEND/RECV),
the RNIC model with its DMA paths (including the GPU BAR read penalty),
NVIDIA-PeerMem-style GPU registration, and RPC-over-RDMA for the BeeGFS
baseline.
"""

from repro.rdma.nic import MemoryRegion, Rnic
from repro.rdma.peer_mem import enable_peer_memory
from repro.rdma.rpc import RpcClient, RpcServer
from repro.rdma.verbs import QueuePair, connect

__all__ = [
    "MemoryRegion",
    "QueuePair",
    "Rnic",
    "RpcClient",
    "RpcServer",
    "connect",
    "enable_peer_memory",
]
