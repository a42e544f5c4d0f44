"""The RNIC model: DMA engines, MR table, and datapath composition.

An :class:`Rnic` owns a fabric port and two host-side DMA channels (what
its PCIe slot can sustain when reading/writing host DRAM).  When the DMA
target is GPU memory, the path instead crosses the GPU's own PCIe channels
— including the BAR-read cap the paper measures at 5.8 GB/s (Fig. 10),
because BAR-mapped reads cannot be prefetched.  Writes to GPU memory are
posted writes and are not BAR-limited.

The MR table maps rkeys to registered regions; every one-sided operation
arriving at this NIC is validated against it, exactly like a real HCA's
protection checks.

The pin table keeps the one MR this NIC holds over each allocation its
node's process pinned (:meth:`Rnic.pin_all`).  Pinning costs ~250 ms/GiB,
so an MR lives exactly as long as the memory it covers and the process
that pinned it: :meth:`Rnic.unpin` retires it when the allocation is
freed, when its session unregisters, or when the process dies.  Missing
pins register concurrently, at most one per core of the node, and a pin
of an allocation already registering joins that registration.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator, Iterable, List, Optional

from repro.errors import MemoryRegionError, ReproError, RkeyViolation
from repro.hw.device import Allocation, MemoryDevice
from repro.hw.devices import GpuMemory
from repro.net.fabric import Fabric, Port
from repro.obs import NULL_SPAN, Observability
from repro.sim import Environment, Event, SharedChannel
from repro.units import gbytes, usecs

#: Host-DRAM DMA through the NIC's PCIe slot.  Fig. 10: the DRAM
#: RDMA-read peak sits 30 % above the GPU BAR read (≈ 8.3 GB/s).
NIC_DMA_READ_BPS = gbytes(8.3)
NIC_DMA_WRITE_BPS = gbytes(9.0)
#: One-sided and two-sided operation latencies: RDMA saturates above
#: 512 KiB messages (§V-B), so a few microseconds per operation.
READ_LATENCY_NS = usecs(2.5)
WRITE_LATENCY_NS = usecs(1.9)
SEND_LATENCY_NS = usecs(1.5)
#: MR registration: a fixed cost plus page pinning and IOMMU mapping
#: (~250 ms/GiB).
MR_REGISTER_LATENCY_NS = usecs(40)
MR_PIN_NS_PER_BYTE = 0.25


class MemoryRegion:
    """A registered, pinned region of device memory."""

    def __init__(self, nic: "Rnic", allocation: Allocation, lkey: int,
                 rkey: int) -> None:
        self.nic = nic
        self.allocation = allocation
        self.lkey = lkey
        self.rkey = rkey
        self.valid = True

    @property
    def device(self):
        return self.allocation.device

    @property
    def addr(self) -> int:
        return self.allocation.addr

    @property
    def length(self) -> int:
        return self.allocation.size

    def __repr__(self) -> str:
        return f"<MemoryRegion rkey={self.rkey:#x} " \
               f"{self.device.name}@{self.addr:#x}+{self.length} " \
               f"{'valid' if self.valid else 'invalid'}>"


class _Registration:
    """One :meth:`Rnic.register_mr` that :meth:`Rnic.pin_all` started or
    queued for a core.

    It is driven from its timer's callback rather than run as a process,
    so a registration costs one timer.  Its *outcome* is the MR, or the
    error that ended it; every :class:`_PinWait` in *waits* is told.
    """

    __slots__ = ("nic", "allocation", "obs", "trace_id", "track", "span",
                 "steps", "outcome", "waits")

    def __init__(self, nic: "Rnic", allocation: Allocation,
                 obs: Optional[Observability], trace_id: Optional[int],
                 track: str) -> None:
        self.nic = nic
        self.allocation = allocation
        self.obs = obs
        self.trace_id = trace_id
        self.track = track
        self.span = NULL_SPAN
        self.steps: Optional[Generator] = None
        self.outcome = None
        self.waits: List["_PinWait"] = []

    def start(self) -> None:
        """A core took it: open the ``mr.register`` span and register."""
        if self.obs is not None:
            self.span = self.obs.tracer.span(
                self.nic.env, "mr.register", cat="rdma",
                trace_id=self.trace_id, track=self.track,
                bytes=self.allocation.size)
        self.steps = self.nic.register_mr(self.allocation)
        self._resume(None)

    def _resume(self, event: Optional[Event]) -> None:
        try:
            pending = self.steps.send(None if event is None else event.value)
        except StopIteration as done:
            self.nic._registered(self, done.value)
        except ReproError as exc:
            self.nic._registered(self, exc)
        else:
            pending.callbacks.append(self._resume)

    def settle(self, outcome) -> None:
        """End it with *outcome* (an MR or an error) and tell its waits."""
        self.outcome = outcome
        for wait in self.waits:
            wait.remaining -= 1
            if wait.remaining == 0:
                wait.succeed()


class _PinWait(Event):
    """Fires when the last of *remaining* registrations has settled.

    It never fails, so a waiter that went away (an interrupted pull)
    cannot fail the run; :meth:`Rnic.pin_all` reads the outcomes."""

    __slots__ = ("remaining",)

    def __init__(self, env: Environment) -> None:
        super().__init__(env)
        self.remaining = 0


class Rnic:
    """One RDMA-capable NIC attached to a node and a fabric."""

    def __init__(self, env: Environment, node, fabric: Fabric,
                 name: Optional[str] = None) -> None:
        self.env = env
        self.node = node
        self.fabric = fabric
        self.name = name or f"{node.name}.rnic"
        self.port: Port = fabric.attach(self.name)
        self.dma_read = SharedChannel(env, NIC_DMA_READ_BPS,
                                      f"{self.name}.dma.read")
        self.dma_write = SharedChannel(env, NIC_DMA_WRITE_BPS,
                                       f"{self.name}.dma.write")
        self._mr_table: Dict[int, MemoryRegion] = {}
        #: The pin table: allocation -> the MR :meth:`pin_all` keeps
        #: over it.
        self._pins: Dict[Allocation, MemoryRegion] = {}
        #: Registrations started or queued, by allocation: a pin of one
        #: of these joins it.
        self._registering: Dict[Allocation, _Registration] = {}
        #: Registrations waiting for one of the node's cores.
        self._queued: Deque[_Registration] = deque()
        self._running = 0
        self._peer_devices: set = set()
        self._next_key = 0x1000
        #: Every QueuePair created on this NIC (fault injection surface).
        self.qps: List = []
        #: Optional fault-injection hook consulted at WR post time:
        #: ``hook(kind, label, length)`` returns None (healthy), an
        #: exception instance (the WR completes with that error), or the
        #: string ``"hang"`` (the WR never completes — a wedged QP).
        self.fault_hook = None
        #: Per-WR accounting (one-sided verbs posted through this NIC's
        #: QPs).  The transfer engine's credit flow rides the completion
        #: events; these counters are the observable trace of it, and
        #: ``wrs_inflight`` is what a test asserts against a QP depth.
        self.wrs_posted = 0
        self.wrs_completed = 0
        self.wrs_failed = 0
        #: Optional completion callback ``hook(kind, label, length, ok)``
        #: fired as each one-sided WR retires (CQ polling stand-in).
        self.completion_hook = None
        node.nic = self

    @property
    def wrs_inflight(self) -> int:
        """One-sided WRs posted but not yet retired."""
        return self.wrs_posted - self.wrs_completed - self.wrs_failed

    def _wr_posted(self) -> None:
        self.wrs_posted += 1

    def _wr_retired(self, kind: str, label: str, length: int,
                    ok: bool) -> None:
        if ok:
            self.wrs_completed += 1
        else:
            self.wrs_failed += 1
        if self.completion_hook is not None:
            self.completion_hook(kind, label, length, ok)

    # -- memory registration -----------------------------------------------------

    def register_mr(self, allocation: Allocation) -> Generator:
        """Process: pin *allocation* and install it in the MR table.

        GPU allocations require peer memory to have been enabled for the
        owning device (see :func:`repro.rdma.enable_peer_memory`), exactly
        as ibv_reg_mr on a CUDA pointer requires nv_peer_mem.

        Cost scales with the pinned size (page pinning + IOMMU mapping,
        ~250 ms/GiB) — the reason Portus registers regions once per job
        and never per checkpoint (§III-D2).
        """
        device = allocation.device
        if isinstance(device, GpuMemory) and device not in self._peer_devices:
            raise MemoryRegionError(
                f"{self.name}: peer memory not enabled for {device.name}; "
                "call enable_peer_memory(nic, gpu) first")
        yield self.env.timeout(
            MR_REGISTER_LATENCY_NS
            + int(allocation.size * MR_PIN_NS_PER_BYTE))
        self._next_key += 2
        mr = MemoryRegion(nic=self, allocation=allocation,
                          lkey=self._next_key, rkey=self._next_key + 1)
        self._mr_table[mr.rkey] = mr
        return mr

    def deregister_mr(self, mr: MemoryRegion) -> None:
        """Invalidate *mr*; later one-sided access raises RkeyViolation."""
        if self._mr_table.pop(mr.rkey, None) is None:
            raise MemoryRegionError(
                f"{self.name}: rkey {mr.rkey:#x} is not registered")
        mr.valid = False

    def lookup_mr(self, rkey: int, addr: int, length: int) -> MemoryRegion:
        """Validate a one-sided access against the MR table."""
        mr = self._mr_table.get(rkey)
        if mr is None or not mr.valid:
            raise RkeyViolation(f"{self.name}: stale or unknown rkey "
                                f"{rkey:#x}")
        if addr < mr.addr or addr + length > mr.addr + mr.length:
            raise RkeyViolation(
                f"{self.name}: access [{addr:#x}, {addr + length:#x}) "
                f"outside MR [{mr.addr:#x}, {mr.addr + mr.length:#x})")
        return mr

    @property
    def registered_mrs(self) -> int:
        return len(self._mr_table)

    # -- the pin table -----------------------------------------------------------

    def pin_all(self, allocations: Iterable[Allocation],
                obs: Optional[Observability] = None,
                trace_id: Optional[int] = None,
                track: str = "main") -> Generator:
        """Process: the valid MR this NIC keeps over each of
        *allocations*, in order; each is kept until :meth:`unpin`.

        A pinned allocation costs nothing.  Every other one registers at
        once (:meth:`register_mr`, inside an ``mr.register`` span on
        *trace_id* and *track* that opens when a core takes it): at most
        the node's core count run at a time and the rest queue in order,
        and an allocation already registering joins that registration.
        Raises the error of a registration that failed or that
        :meth:`unpin` cancelled.
        """
        mrs: List = []
        wait: Optional[_PinWait] = None
        for allocation in allocations:
            mr = self._pins.get(allocation)
            if mr is None or not mr.valid:
                mr = self._registering.get(allocation)
                if mr is None:
                    mr = _Registration(self, allocation, obs, trace_id,
                                       track)
                    self._registering[allocation] = mr
                    self._queued.append(mr)
                if wait is None:
                    wait = _PinWait(self.env)
                wait.remaining += 1
                mr.waits.append(wait)
            mrs.append(mr)
        if wait is None:
            return mrs
        # Queue the whole set before any starts, so that whatever a
        # registration's start does (a crash that cancels the rest)
        # applies to all of them.
        self._start_queued()
        yield wait
        for index, mr in enumerate(mrs):
            if isinstance(mr, _Registration):
                if isinstance(mr.outcome, Exception):
                    raise mr.outcome
                mrs[index] = mr.outcome
        return mrs

    def _start_queued(self) -> None:
        """Hand free cores to queued registrations, skipping cancelled
        ones."""
        while self._queued and self._running < self.node.cpus.cores:
            registration = self._queued.popleft()
            if registration.outcome is None:
                self._running += 1
                registration.start()

    def _registered(self, registration: _Registration, outcome) -> None:
        """*registration* ended with *outcome* (an MR or an error): pin
        it, unless :meth:`unpin` cancelled it or its memory was freed
        meanwhile; tell its waiters; free its core."""
        allocation = registration.allocation
        if self._registering.get(allocation) is registration:
            del self._registering[allocation]
        cancelled = registration.outcome is not None
        if not isinstance(outcome, Exception):
            if cancelled or allocation.freed:
                self.deregister_mr(outcome)
                outcome = self._cancelled(allocation)
            else:
                self._pins[allocation] = outcome
                allocation.mr = outcome
        registration.span.finish()
        if not cancelled:
            registration.settle(outcome)
        self._running -= 1
        self._start_queued()

    def _cancelled(self, allocation: Allocation) -> MemoryRegionError:
        return MemoryRegionError(
            f"{self.name}: the registration over {allocation.device.name} "
            f"at {allocation.addr:#x} was cancelled")

    def unpin(self, allocations: Iterable[Allocation]) -> None:
        """Retire the pins over *allocations* and cancel their
        registrations in flight; unpinned ones are skipped, so releasing
        twice is harmless."""
        for allocation in allocations:
            registration = self._registering.pop(allocation, None)
            if registration is not None:
                registration.settle(self._cancelled(allocation))
            mr = self._pins.pop(allocation, None)
            if mr is None:
                continue
            allocation.mr = None
            if mr.valid:
                self.deregister_mr(mr)

    def unpin_device(self, device: MemoryDevice) -> None:
        """Retire every pin over *device* and cancel every registration
        over it: the process that owns it died."""
        self.unpin([allocation
                    for table in (self._pins, self._registering)
                    for allocation in table
                    if allocation.device is device])

    # -- datapath composition -------------------------------------------------------

    def egress_channels(self, device: MemoryDevice) -> List[SharedChannel]:
        """Channels data crosses leaving *device* toward this NIC's port."""
        if isinstance(device, GpuMemory):
            # Peer-to-peer PCIe: BAR-mapped reads, no host DRAM involved.
            return [device.read_channel, device.pcie_read]
        return [device.read_channel, self.dma_read]

    def ingress_channels(self, device: MemoryDevice) -> List[SharedChannel]:
        """Channels data crosses arriving from the port into *device*."""
        if isinstance(device, GpuMemory):
            return [device.pcie_write, device.write_channel]
        return [self.dma_write, device.write_channel]

    def __repr__(self) -> str:
        return f"<Rnic {self.name}>"
