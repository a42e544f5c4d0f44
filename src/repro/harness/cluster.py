"""The paper's testbed, wired up (§V-A) — now fleet-capable.

* **Client-Volta**: 2x EPYC 7742 (128 cores), 1 TiB DRAM, 4x V100-32GB,
  ConnectX-5 — the single-GPU checkpoint/restore experiments.
* **Client-Ampere** x2: 2x Xeon 5318Y (64 cores), 768 GiB DRAM,
  8x A40-48GB each, ConnectX-6 — the Megatron GPT experiments.
* **Server**: the AEP box — 6x 256 GB Optane DIMMs, half in fsdax mode
  under ext4-DAX + BeeGFS, half in devdax mode owned by Portus; one
  ConnectX-5.  Everything hangs off one 100 Gbps IB switch.

``storage_nodes=N`` scales the storage side out to N independent
*shards* — each a :class:`StorageShard` with its own server node, TCP
stack, PMem pool, and daemon (DESIGN.md §13).  ``storage_nodes=1`` is
the degenerate case and is wired in exactly the seed order, so every
single-daemon experiment stays bit-identical.  ``cluster.daemon`` /
``cluster.portus_pool`` / ``cluster.server`` remain as views of shard
0 for all existing call sites.

The cluster also owns the storage stacks (Portus daemon + pool, BeeGFS
server, local ext4 on each client's NVMe) and exposes process helpers so
experiments read like the paper's method sections.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple, Union

from repro.core.client import PortusClient
from repro.core.daemon import PortusDaemon
from repro.dnn.models import ModelSpec
from repro.dnn.zoo import build_zoo_model as build_model
from repro.dnn.tensor import ModelInstance
from repro.fleet.admission import AdmissionController
from repro.fleet.tenants import TenantRegistry
from repro.fs.beegfs import BeegfsClient, BeegfsServer
from repro.fs.dax import DaxFilesystem
from repro.fs.ext4 import LocalExtFilesystem
from repro.hw.node import ComputeNode, StorageNode
from repro.net.fabric import Fabric
from repro.net.tcp import TcpStack
from repro.obs import Observability
from repro.pmem.pool import PmemPool
from repro.rdma.nic import Rnic
from repro.rdma.peer_mem import enable_peer_memory
from repro.sim import Environment, RandomStreams
from repro.units import gib


class StorageShard:
    """One storage server: node + TCP stack + PMem pool + daemon."""

    def __init__(self, index: int, node: StorageNode, tcp: TcpStack,
                 pool: PmemPool, daemon: PortusDaemon) -> None:
        self.index = index
        self.node = node
        self.tcp = tcp
        self.pool = pool
        self.daemon = daemon

    @property
    def name(self) -> str:
        return self.node.name

    def __repr__(self) -> str:
        return (f"<StorageShard {self.index} {self.name!r} "
                f"daemon={'up' if not self.daemon.stopped else 'down'}>")


class PaperCluster:
    """One fully-wired instance of the evaluation testbed."""

    def __init__(self, seed: int = 0, ampere_nodes: int = 2,
                 start_daemon: bool = True,
                 daemon_kwargs: Optional[Dict] = None,
                 client_retry=None, client_num_qps: int = 1,
                 tracing: bool = False,
                 obs: Optional[Observability] = None,
                 storage_nodes: int = 1,
                 admission: Optional[Dict] = None) -> None:
        if storage_nodes < 1:
            raise ValueError(
                f"storage_nodes must be >= 1, got {storage_nodes}")
        env = Environment()
        self.env = env
        self.rand = RandomStreams(seed)
        self.fabric = Fabric(env)
        #: One observability bundle for the whole deployment — every
        #: daemon (and its successors across restarts), every client,
        #: the baseline filesystems and the fault injector all share it.
        self.obs = obs if obs is not None else Observability(tracing=tracing)
        #: Fleet-wide tenant quotas/budgets, shared by all shards and
        #: surviving daemon restarts.
        self.tenants = TenantRegistry(obs=self.obs)
        self._admission_kwargs = dict(admission) if admission else None

        # Storage server (AEP) — shard 0, wired in the seed order.
        server = StorageNode(env, "server", cores=72,
                             dram_capacity=gib(192))
        Rnic(env, server, self.fabric, name="server")
        server_tcp = TcpStack(env, self.fabric, server.nic.port, "server")

        # Client-Volta.
        self.volta = ComputeNode(env, "volta", cores=128,
                                 dram_capacity=gib(1024), gpu_count=4,
                                 gpu_memory=gib(32))
        Rnic(env, self.volta, self.fabric, name="volta")
        self.volta_tcp = TcpStack(env, self.fabric, self.volta.nic.port,
                                  "volta")

        # Client-Ampere nodes.
        self.amperes: List[ComputeNode] = []
        self._tcp: Dict[str, TcpStack] = {"server": server_tcp,
                                          "volta": self.volta_tcp}
        for i in range(ampere_nodes):
            node = ComputeNode(env, f"ampere{i}", cores=128,
                               dram_capacity=gib(768), gpu_count=8,
                               gpu_memory=gib(48))
            Rnic(env, node, self.fabric, name=f"ampere{i}")
            self._tcp[node.name] = TcpStack(env, self.fabric, node.nic.port,
                                            node.name)
            self.amperes.append(node)

        # PeerMem on every GPU of every client.
        for node in [self.volta] + self.amperes:
            for gpu in node.gpus:
                enable_peer_memory(node.nic, gpu)

        # Storage stacks — shard 0 first, in the seed creation order.
        pool0 = PmemPool.format(server.pmem_devdax, max_extents=65536)
        self._daemon_kwargs = dict(daemon_kwargs or {})
        self.client_retry = client_retry
        self.client_num_qps = client_num_qps
        daemon0 = self._make_daemon(server, pool0, server_tcp)
        if start_daemon:
            daemon0.start()
        self.shards: List[StorageShard] = [
            StorageShard(0, server, server_tcp, pool0, daemon0)]
        self.beegfs_backing = DaxFilesystem(env, server.pmem_fsdax,
                                            obs=self.obs)
        self.beegfs_server = BeegfsServer(env, server, self.beegfs_backing)
        self._beegfs_mounts: Dict[str, BeegfsClient] = {}
        self.volta_ext4 = LocalExtFilesystem(env, self.volta.nvme,
                                             obs=self.obs)

        # Extra shards (server1..serverN-1) come after the seed wiring
        # so the storage_nodes=1 event/RNG order is untouched.
        for i in range(1, storage_nodes):
            node = StorageNode(env, f"server{i}", cores=72,
                               dram_capacity=gib(192))
            Rnic(env, node, self.fabric, name=node.name)
            tcp = TcpStack(env, self.fabric, node.nic.port, node.name)
            self._tcp[node.name] = tcp
            pool = PmemPool.format(node.pmem_devdax, max_extents=65536)
            daemon = self._make_daemon(node, pool, tcp)
            if start_daemon:
                daemon.start()
            self.shards.append(StorageShard(i, node, tcp, pool, daemon))

        self._portus_clients: Dict[Tuple[str, int], PortusClient] = {}
        self._model_counter = 0
        #: The self-healing loop, once :meth:`enable_operator` runs.
        self.operator = None

    def _make_daemon(self, node: StorageNode, pool: PmemPool,
                     tcp: TcpStack, port: Optional[int] = None
                     ) -> PortusDaemon:
        kwargs = dict(self._daemon_kwargs)
        if port is not None:
            kwargs["port"] = port
        if self._admission_kwargs is not None:
            kwargs["admission"] = AdmissionController(
                obs=self.obs, shard=node.name, **self._admission_kwargs)
        return PortusDaemon(self.env, node, pool, tcp, obs=self.obs,
                            tenants=self.tenants, **kwargs)

    # -- shard-0 views (the seed single-daemon API) -----------------------

    @property
    def server(self) -> StorageNode:
        return self.shards[0].node

    @property
    def server_tcp(self) -> TcpStack:
        return self.shards[0].tcp

    @property
    def portus_pool(self) -> PmemPool:
        return self.shards[0].pool

    @property
    def daemon(self) -> PortusDaemon:
        return self.shards[0].daemon

    @property
    def storage_nodes(self) -> int:
        return len(self.shards)

    def shard_named(self, name: str) -> StorageShard:
        for shard in self.shards:
            if shard.name == name:
                return shard
        raise KeyError(f"no storage shard named {name!r}")

    # -- process helpers -------------------------------------------------------------

    def run(self, scenario, until: Optional[int] = None):
        """Run a scenario generator function (taking env) to completion."""
        return self.env.run_process(self.env.process(scenario(self.env)),
                                    until=until)

    def tcp_of(self, node: ComputeNode) -> TcpStack:
        return self._tcp[node.name]

    def beegfs_mount(self, node: Optional[ComputeNode] = None) -> Generator:
        """Process: mount (or reuse) BeeGFS on *node* (default Volta)."""
        node = node or self.volta
        mount = self._beegfs_mounts.get(node.name)
        if mount is None:
            mount = yield from BeegfsClient.mount(self.env, node,
                                                  self.beegfs_server,
                                                  obs=self.obs)
            self._beegfs_mounts[node.name] = mount
        return mount

    def portus_client(self, node: Optional[ComputeNode] = None,
                      shard: int = 0) -> PortusClient:
        """The (cached) client on *node* talking to storage shard *shard*."""
        node = node or self.volta
        key = (node.name, shard)
        client = self._portus_clients.get(key)
        if client is None:
            client = PortusClient(self.env, node, self.tcp_of(node),
                                  self.shards[shard].daemon,
                                  retry=self.client_retry,
                                  num_qps=self.client_num_qps,
                                  obs=self.obs)
            client.shard_index = shard
            self._portus_clients[key] = client
        return client

    def materialize(self, model: Union[str, ModelSpec],
                    node: Optional[ComputeNode] = None, gpu: int = 0,
                    seed: Optional[int] = None,
                    instance_name: Optional[str] = None) -> ModelInstance:
        """Put a model's tensors on a GPU (step-0 weights)."""
        node = node or self.volta
        spec = build_model(model) if isinstance(model, str) else model
        if seed is None:
            self._model_counter += 1
            seed = self._model_counter
        return ModelInstance.materialize(instance_name or spec.name,
                                         spec.tensors, node.gpus[gpu],
                                         model_seed=seed)

    def portus_register(self, model: Union[str, ModelSpec, ModelInstance],
                        node: Optional[ComputeNode] = None,
                        gpu: int = 0, dedup: bool = False,
                        chunk_bytes: Optional[int] = None,
                        shard: int = 0,
                        tenant: Optional[str] = None) -> Generator:
        """Process: materialize (if needed) and register with the daemon.

        ``dedup=True`` opts the model into the deduplicated layout
        (content-hash chunk manifests over the pool-wide refcounted
        chunk store); *chunk_bytes* overrides the default chunk size.
        *shard*/*tenant* route and account the registration in a fleet
        topology (see :class:`repro.fleet.client.FleetClient` for the
        ring-driven version).
        """
        node = node or self.volta
        if isinstance(model, ModelInstance):
            instance = model
        else:
            instance = self.materialize(model, node=node, gpu=gpu)
        client = self.portus_client(node, shard=shard)
        session = yield from client.register(instance, dedup=dedup,
                                             chunk_bytes=chunk_bytes,
                                             tenant=tenant)
        return session

    def enable_operator(self, **kwargs):
        """Start the self-healing remediation operator for this cluster
        (detect → diagnose → remediate → verify; see
        :class:`repro.ops.operator.RemediationOperator`)."""
        from repro.ops.operator import RemediationOperator
        self.operator = RemediationOperator(self.env, self, **kwargs)
        self.operator.start()
        return self.operator

    def restart_daemon(self, port: Optional[int] = None,
                       shard: int = 0) -> None:
        """Kill and restart shard *shard*'s daemon process: the old
        instance's networking tears down, the pool is re-opened, and the
        index recovered from PMem (ModelMap rebuilt).  The successor
        binds the *same* port by default, so clients that survived the
        daemon can reconnect without rediscovery."""
        entry = self.shards[shard]
        old_port = entry.daemon.port
        if not entry.daemon.stopped:
            entry.daemon.crash()
        pool = PmemPool.open(entry.node.pmem_devdax)
        entry.pool = pool
        entry.daemon = self._make_daemon(
            entry.node, pool, entry.tcp,
            port=old_port if port is None else port)
        entry.daemon.start()
        for (_, shard_idx), client in self._portus_clients.items():
            if shard_idx == shard:
                client.daemon = entry.daemon

    def kill_daemon(self, shard: int = 0) -> None:
        """The daemon process dies (SIGKILL): networking gone, QPs
        flushed, pool closed un-synced — but no power loss, so persisted
        bytes survive for :meth:`restart_daemon` to recover."""
        self.shards[shard].daemon.crash()

    def crash_server(self, shard: int = 0) -> None:
        """Power-fail a storage server: the PMem pool loses unflushed
        data (lost or torn) and the daemon process dies with the
        machine."""
        entry = self.shards[shard]
        stream = "crash" if shard == 0 else f"crash.{shard}"
        entry.pool.crash(self.rand.stream(stream))
        entry.daemon.crash()
