"""MemoryDevice: a byte-addressable device with an allocator and channels.

A device owns an address space managed by a first-fit free list.  Each
allocation is backed by a :class:`~repro.hw.content.SegmentBuffer`, so the
data living on the device is real (content-wise) while huge payloads stay
virtual.  Timing enters through the device's directional
:class:`~repro.sim.SharedChannel` pair: any transfer touching the device
claims a flow on the appropriate channel, which is how device bandwidth
limits and contention (e.g. PMem write bandwidth under sixteen concurrent
checkpoint streams) emerge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import InvalidAddressError, OutOfMemoryError
from repro.hw.content import (ByteContent, Content, SegmentBuffer,
                              TornContent)


def _subtract_range(ranges: List[Tuple[int, int]], lo: int,
                    hi: int) -> List[Tuple[int, int]]:
    """Remove ``[lo, hi)`` from a list of ``(offset, size)`` ranges."""
    out: List[Tuple[int, int]] = []
    for offset, size in ranges:
        end = offset + size
        if end <= lo or offset >= hi:
            out.append((offset, size))
            continue
        if offset < lo:
            out.append((offset, lo - offset))
        if end > hi:
            out.append((hi, end - hi))
    return out
from repro.sim import Environment, SharedChannel

ALIGNMENT = 64


class Allocation:
    """A live region of device memory.

    On devices with ``durable_tracking`` (PMem), the allocation keeps two
    views: ``buffer`` is what a CPU or DMA engine observes (store buffers /
    caches / DDIO included), ``durable`` is what survives power loss.
    Writes land in ``buffer`` and are logged; :meth:`persist` (clwb+fence)
    promotes a range to ``durable``; a crash replays each unflushed range
    with an arbitrary outcome (lost, fully evicted, or torn).
    """

    def __init__(self, device: "MemoryDevice", addr: int, size: int,
                 tag: str = "") -> None:
        self.device = device
        self.addr = addr
        self.size = size
        self.tag = tag
        self.buffer = SegmentBuffer(size)
        self.freed = False
        # Bumped on every write; in-flight DMA compares versions to detect
        # torn snapshots (data mutated while a one-sided read was flying).
        self.version = 0
        self.durable: Optional[SegmentBuffer] = None
        self._unflushed: List[Tuple[int, int]] = []
        #: The pin-table MR over this allocation (see ``Rnic.pin_all``);
        #: freeing the allocation retires it.
        self.mr = None
        if device.durable_tracking:
            self.durable = SegmentBuffer(size)

    @property
    def end(self) -> int:
        return self.addr + self.size

    def write(self, offset: int, content: Content) -> None:
        """Store *content* at *offset* within the allocation."""
        self._check_live()
        self.version += 1
        self.buffer.write(offset, content)
        if self.durable is not None and content.size > 0:
            self._unflushed.append((offset, content.size))

    # -- persistence (PMem-backed allocations only) ----------------------------

    def persist(self, offset: int = 0, length: Optional[int] = None) -> None:
        """clwb + sfence: make ``[offset, offset+length)`` power-fail safe."""
        if self.durable is None:
            return
        self._check_live()
        if length is None:
            length = self.size - offset
        if offset < 0 or length < 0 or offset + length > self.size:
            raise ValueError(
                f"persist [{offset}, {offset + length}) outside allocation "
                f"of size {self.size}")
        if length == 0:
            return
        self.durable.write(offset, self.buffer.read(offset, length))
        self._unflushed = _subtract_range(self._unflushed, offset,
                                          offset + length)

    @property
    def unflushed_ranges(self) -> List[Tuple[int, int]]:
        """Write ranges that would be at risk in a crash right now."""
        return list(self._unflushed)

    def crash(self, rng) -> None:
        """Power loss: each unflushed range survives, vanishes, or tears.

        *rng* is a :class:`random.Random`; the three outcomes model cache
        lines that were evicted in full, not at all, or partially.
        """
        if self.durable is None:
            return
        for offset, size in self._unflushed:
            outcome = rng.choice(("lost", "evicted", "torn"))
            if outcome == "evicted":
                self.durable.write(offset, self.buffer.read(offset, size))
            elif outcome == "torn":
                self.durable.write(
                    offset, TornContent(size, note=f"crash at {offset}"))
            # "lost": the durable view keeps its pre-write content.
        self._unflushed = []
        restored = SegmentBuffer(self.size)
        if self.size > 0:
            restored.write(0, self.durable.read(0, self.size))
        self.buffer = restored
        self.version += 1

    def read(self, offset: int = 0, length: Optional[int] = None) -> Content:
        """Read content at *offset* within the allocation."""
        self._check_live()
        return self.buffer.read(offset, length)

    def write_bytes(self, offset: int, data: bytes) -> None:
        self.write(offset, ByteContent(data))

    def read_bytes(self, offset: int, length: int) -> bytes:
        self._check_live()
        return self.buffer.read_bytes(offset, length)

    def free(self) -> None:
        """Release the region back to the device."""
        self.device.free(self)

    def _check_live(self) -> None:
        if self.freed:
            raise InvalidAddressError(
                f"use-after-free of {self.tag or 'allocation'} at "
                f"{self.addr:#x} on {self.device.name}")

    def __repr__(self) -> str:
        state = "freed" if self.freed else "live"
        return f"<Allocation {self.tag or ''}@{self.addr:#x}+{self.size} " \
               f"{state} on {self.device.name}>"


class MemoryDevice:
    """Byte-addressable device with bandwidth channels and an allocator."""

    #: Subclasses (PMem) set this to give allocations a durable view.
    durable_tracking = False

    def __init__(self, env: Environment, name: str, capacity: int,
                 read_bw_bps: float, write_bw_bps: float,
                 read_latency_ns: int = 0, write_latency_ns: int = 0) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = capacity
        self.read_latency_ns = read_latency_ns
        self.write_latency_ns = write_latency_ns
        self.read_channel = SharedChannel(env, read_bw_bps, f"{name}.read")
        self.write_channel = SharedChannel(env, write_bw_bps, f"{name}.write")
        # Sorted free list of (addr, size); starts as one hole.
        self._free: List[Tuple[int, int]] = [(0, capacity)]
        self._allocations: Dict[int, Allocation] = {}
        #: Crash-point instrumentation: when set, the PMem metadata layer
        #: calls ``crash_hook(point, tag)`` at every persistence write
        #: boundary (committed-record writes, extent alloc/free).  The
        #: hook may power-fail the device and raise
        #: :class:`~repro.errors.PowerFailure` to cut the operation
        #: short; None (the default) costs nothing.
        self.crash_hook = None

    # -- allocator -------------------------------------------------------------

    def alloc(self, size: int, tag: str = "") -> Allocation:
        """First-fit allocation, 64-byte aligned."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        rounded = (size + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT
        for i, (addr, hole) in enumerate(self._free):
            if hole >= rounded:
                if hole == rounded:
                    self._free.pop(i)
                else:
                    self._free[i] = (addr + rounded, hole - rounded)
                allocation = Allocation(self, addr, size, tag)
                self._allocations[addr] = allocation
                return allocation
        raise OutOfMemoryError(
            f"{self.name}: cannot allocate {size} bytes "
            f"({self.free_bytes} free of {self.capacity})")

    def free(self, allocation: Allocation) -> None:
        """Return an allocation's space to the free list (with coalescing)."""
        if allocation.freed or allocation.addr not in self._allocations:
            raise InvalidAddressError(
                f"double free at {allocation.addr:#x} on {self.name}")
        del self._allocations[allocation.addr]
        allocation.freed = True
        if allocation.mr is not None:
            allocation.mr.nic.unpin([allocation])
        rounded = ((allocation.size + ALIGNMENT - 1)
                   // ALIGNMENT * ALIGNMENT)
        self._free.append((allocation.addr, rounded))
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for addr, size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == addr:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            else:
                merged.append((addr, size))
        self._free = merged

    @property
    def free_bytes(self) -> int:
        return sum(size for _addr, size in self._free)

    @property
    def used_bytes(self) -> int:
        return self.capacity - self.free_bytes

    @property
    def allocations(self) -> List[Allocation]:
        return list(self._allocations.values())

    def crash(self, rng) -> None:
        """Power-fail the whole device (durable-tracking devices only)."""
        for allocation in self._allocations.values():
            allocation.crash(rng)

    # -- address-based access (what RDMA sees) ----------------------------------

    def allocation_at(self, addr: int) -> Allocation:
        """Find the live allocation containing *addr*."""
        for allocation in self._allocations.values():
            if allocation.addr <= addr < allocation.end:
                return allocation
        raise InvalidAddressError(
            f"{self.name}: address {addr:#x} is not allocated")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} " \
               f"{self.used_bytes}/{self.capacity}B used>"
