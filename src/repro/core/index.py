"""The three-level index on PMem: ModelTable -> MIndex -> TensorData.

Level 1 — :class:`ModelTable`: a persistent sorted array mapping model
names to the PMem offset of their metadata region (``info_offset`` in the
paper), stored as one crash-atomic committed record.

Level 2 — :class:`ModelMeta` / :class:`MIndex`: per model, a metadata
region holding (a) the *version flags* record — two checkpoint slots with
EMPTY/ACTIVE/DONE states and step stamps, the paper's double-mapping
mechanism (§III-D2, Fig. 6) — and (b) the MIndex record: per-tensor
name, dtype, shape, size and region offset.  :class:`ModelMeta` makes
every transition of the flags record: a checkpoint stamps ACTIVE the
slot that does *not* hold the newest DONE version, lands its bytes, and
stamps it DONE at its step, so a crash anywhere in between leaves the
other slot's last DONE version restorable.

Level 3 — where each version's bytes live: the model's *storage layout*,
:class:`SlotLayout` for the paper's two contiguous TensorData regions
(their addresses ride in the MIndex), :class:`ChunkLayout` for
deduplicated chunk manifests.  The layout is the only code that knows
which one a model holds; :class:`StorageLayout` lists every question it
answers, from the :class:`Extent` runs of a version and the
:class:`VersionWrite` of a new one to fsck's per-version checks.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from collections import Counter
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.dedup import chunk_spans
from repro.dnn.tensor import TensorSpec
from repro.dnn.dtypes import DType
from repro.errors import (CheckpointInProgress, InvalidAddressError,
                          ModelNotFound, NoValidCheckpoint, PmemError,
                          PortusError, ProtocolError)
from repro.hw.content import concat
from repro.hw.device import Allocation
from repro.pmem.chunks import ChunkStore
from repro.pmem.fsck import (K_DONE_ADDR_ZERO, K_DONE_EXTENT_SHORT,
                             K_EXTENT_SHARED, K_MANIFEST_BAD,
                             K_MANIFEST_CHUNK_MISSING, K_MANIFEST_TORN,
                             K_STALE_ACTIVE, K_VERSION_EXTENT_MISSING,
                             SEV_ERROR, SEV_WARN)
from repro.pmem.layout import CommittedRecord, blob_capacity
from repro.pmem.pool import PmemPool

FLAG_EMPTY = 0
FLAG_ACTIVE = 1
FLAG_DONE = 2

FLAG_NAMES = {FLAG_EMPTY: "EMPTY", FLAG_ACTIVE: "ACTIVE", FLAG_DONE: "DONE"}

_ALIGN = 64

_FLAGS = struct.Struct("<BBQQ")  # v0_state, v1_state, v0_step, v1_step
_FLAGS_SLOT = blob_capacity(_FLAGS.size) + 32  # headroom inside the slot

# The write-once geometry header at the front of every metadata region:
# magic, layout version, flags slot size, MIndex slot size.  Recovery
# derives every record offset from these persisted values instead of
# re-deriving them from the allocation size — which can legitimately be
# rounded up by the pool — so a reader never probes the B slot at the
# wrong offset.  The header is persisted before the model becomes
# reachable from the ModelTable, so it is crash-atomic by construction.
#
# Layout version 1 is the contiguous-TensorData layout (two data extents
# per model).  Version 2 is the deduplicated layout: no data extents —
# each version slot instead carries a *chunk manifest* record listing
# the content digests that reassemble the region from the pool-wide
# refcounted chunk store (:mod:`repro.pmem.chunks`).  The v2 header
# extends v1 with the manifest slot size and the chunk size; v1 regions
# keep their exact byte layout.
_META_HEADER = struct.Struct("<IIII")  # magic, version, flags_slot, mindex_slot
_META_HEADER_V2 = struct.Struct("<IIIIIQ")  # ... + manifest_slot, chunk_bytes
_META_MAGIC = 0x4D455441  # "META"
_META_LAYOUT_VERSION = 1
_META_LAYOUT_VERSION_DEDUP = 2
_META_HEADER_SIZE = 64  # header struct, padded to the data alignment

_MANIFEST_COUNT = struct.Struct("<I")
_DIGEST_BYTES = 20

_MINDEX_HEADER = struct.Struct("<64sIQQQ")  # name, count, v0, v1, total
_TENSOR_ENTRY = struct.Struct("<64s16sB8QQQ")  # name, dtype, ndim, dims, size, offset

MAX_DIMS = 8
NAME_BYTES = 64
META_TAG = "portus-meta"
DATA_TAG = "portus-data"
TABLE_TAG = "portus-modeltable"


def _pack_name(name: str, width: int = NAME_BYTES) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) > width:
        raise PortusError(f"name too long for index: {name!r}")
    return raw


def _unpack_name(raw: bytes) -> str:
    return raw.rstrip(b"\x00").decode("utf-8")


class TensorDescriptor:
    """One MIndex entry: everything needed to address a tensor's bytes."""

    def __init__(self, name: str, dtype_name: str, shape: Tuple[int, ...],
                 size: int, offset: int) -> None:
        if len(shape) > MAX_DIMS:
            raise PortusError(f"{name}: more than {MAX_DIMS} dims")
        self.name = name
        self.dtype_name = dtype_name
        self.shape = tuple(shape)
        self.size = size
        self.offset = offset

    @classmethod
    def from_spec(cls, spec: TensorSpec, offset: int) -> "TensorDescriptor":
        return cls(spec.name, spec.dtype.name, spec.shape, spec.size_bytes,
                   offset)

    def to_spec(self) -> TensorSpec:
        return TensorSpec(self.name, self.shape, DType.by_name(self.dtype_name))

    def pack(self) -> bytes:
        dims = list(self.shape) + [0] * (MAX_DIMS - len(self.shape))
        return _TENSOR_ENTRY.pack(_pack_name(self.name),
                                  _pack_name(self.dtype_name, 16),
                                  len(self.shape), *dims, self.size,
                                  self.offset)

    @classmethod
    def unpack(cls, data: bytes, offset: int) -> "TensorDescriptor":
        fields = _TENSOR_ENTRY.unpack_from(data, offset)
        name, dtype_raw, ndim = fields[0], fields[1], fields[2]
        dims = fields[3:3 + ndim]
        size, tensor_offset = fields[11], fields[12]
        return cls(_unpack_name(name), _unpack_name(dtype_raw), tuple(dims),
                   size, tensor_offset)

    def __repr__(self) -> str:
        return f"<TensorDescriptor {self.name} {self.shape} " \
               f"{self.dtype_name} @+{self.offset}>"


def layout_tensors(specs: List[TensorSpec]) -> Tuple[List[TensorDescriptor],
                                                     int]:
    """Assign aligned offsets inside a TensorData region; returns
    (descriptors, region size)."""
    descriptors = []
    cursor = 0
    for spec in specs:
        descriptors.append(TensorDescriptor.from_spec(spec, cursor))
        cursor += (spec.size_bytes + _ALIGN - 1) // _ALIGN * _ALIGN
    return descriptors, max(cursor, _ALIGN)


def region_extent(descriptors: List[TensorDescriptor]) -> int:
    """The TensorData region size a descriptor list occupies (the same
    value :func:`layout_tensors` returned when the offsets were assigned)."""
    cursor = 0
    for descriptor in descriptors:
        end = descriptor.offset + descriptor.size
        cursor = max(cursor, (end + _ALIGN - 1) // _ALIGN * _ALIGN)
    return max(cursor, _ALIGN)


class Extent:
    """A run of a version's region bytes held in one PMem allocation.

    Region bytes ``[offset, offset + size)`` live at the start of
    *allocation*.  *label*, when set, prefixes the names of the work
    requests that move the run (the chunk layout labels each chunk with
    its digest).
    """

    __slots__ = ("offset", "size", "allocation", "label")

    def __init__(self, offset: int, size: int, allocation: Allocation,
                 label: Optional[str] = None) -> None:
        self.offset = offset
        self.size = size
        self.allocation = allocation
        self.label = label


def overlaps(extents, runs):
    """Yield ``(extent, run, lo, hi)`` for every non-empty overlap
    ``[lo, hi)`` of two region maps, extent-major, runs in order.

    Each map is sorted by region ``offset`` and its runs are disjoint; a
    run is anything with ``offset`` and ``size`` (a tensor descriptor, a
    remote run, another extent).
    """
    starts = [run.offset for run in runs]
    for extent in extents:
        end = extent.offset + extent.size
        index = max(bisect_right(starts, extent.offset) - 1, 0)
        while index < len(runs) and starts[index] < end:
            run = runs[index]
            lo = max(extent.offset, run.offset)
            hi = min(end, run.offset + run.size)
            if lo < hi:
                yield extent, run, lo, hi
            index += 1


class MIndex:
    """The level-2 record: tensor table, plus two version addresses that
    only the slot layout sets (the chunk layout leaves them 0)."""

    def __init__(self, model_name: str,
                 descriptors: List[TensorDescriptor],
                 version_addrs: Tuple[int, int], total_bytes: int) -> None:
        self.model_name = model_name
        self.descriptors = descriptors
        self.version_addrs = version_addrs
        self.total_bytes = total_bytes

    @property
    def layer_count(self) -> int:
        return len(self.descriptors)

    def descriptor(self, tensor_name: str) -> TensorDescriptor:
        for descriptor in self.descriptors:
            if descriptor.name == tensor_name:
                return descriptor
        raise PortusError(
            f"{self.model_name}: no tensor named {tensor_name!r}")

    def pack(self) -> bytes:
        header = _MINDEX_HEADER.pack(_pack_name(self.model_name),
                                     len(self.descriptors),
                                     self.version_addrs[0],
                                     self.version_addrs[1],
                                     self.total_bytes)
        return header + b"".join(d.pack() for d in self.descriptors)

    @classmethod
    def unpack(cls, data: bytes) -> "MIndex":
        name, count, v0, v1, total = _MINDEX_HEADER.unpack_from(data)
        descriptors = [
            TensorDescriptor.unpack(
                data, _MINDEX_HEADER.size + i * _TENSOR_ENTRY.size)
            for i in range(count)
        ]
        return cls(_unpack_name(name), descriptors, (v0, v1), total)

    @staticmethod
    def slot_size(tensor_count: int) -> int:
        return blob_capacity(_MINDEX_HEADER.size
                             + tensor_count * _TENSOR_ENTRY.size) + 32


class VersionFlags:
    """The double-mapping state: per-version flag + step stamp."""

    def __init__(self, states: Tuple[int, int] = (FLAG_EMPTY, FLAG_EMPTY),
                 steps: Tuple[int, int] = (0, 0)) -> None:
        self.states = list(states)
        self.steps = list(steps)

    def pack(self) -> bytes:
        return _FLAGS.pack(self.states[0], self.states[1], self.steps[0],
                           self.steps[1])

    @classmethod
    def unpack(cls, data: bytes) -> "VersionFlags":
        s0, s1, t0, t1 = _FLAGS.unpack_from(data)
        return cls((s0, s1), (t0, t1))

    def newest_done(self) -> Optional[int]:
        """Version index holding the newest completed checkpoint."""
        done = [i for i in (0, 1) if self.states[i] == FLAG_DONE]
        if not done:
            return None
        return max(done, key=lambda i: self.steps[i])

    def done_at(self, step: int) -> Optional[int]:
        """Version index DONE at exactly *step* (slot 1 if both are)."""
        for version in (1, 0):
            if (self.states[version] == FLAG_DONE
                    and self.steps[version] == step):
                return version
        return None

    def protected(self, keep: int = 0) -> Optional[int]:
        """The version a restore must still serve: the one DONE at step
        *keep* (the model's group's committed step; 0 if none) if any,
        else the newest DONE one; None when no version is DONE."""
        held = self.done_at(keep) if keep else None
        return self.newest_done() if held is None else held

    def checkpoint_target(self, keep: int = 0) -> int:
        """Where the next checkpoint goes: never the :meth:`protected`
        version."""
        protected = self.protected(keep)
        if protected is None:
            return 0
        return 1 - protected

    def __repr__(self) -> str:
        parts = [f"v{i}={FLAG_NAMES[self.states[i]]}@{self.steps[i]}"
                 for i in (0, 1)]
        return f"<VersionFlags {' '.join(parts)}>"


class ModelMeta:
    """A model's metadata region: the write-once geometry header, the
    VersionFlags and the MIndex records — what every storage layout
    shares — plus :attr:`layout`, the only code that knows where the
    model's version bytes live."""

    def __init__(self, pool: PmemPool, meta: Allocation, mindex: MIndex,
                 flags_slot: int, mindex_slot: int) -> None:
        self.pool = pool
        self.meta = meta
        self.mindex = mindex
        self.flags_slot = flags_slot
        self.mindex_slot = mindex_slot
        self._flags_record = CommittedRecord(meta, _META_HEADER_SIZE,
                                             flags_slot)
        self._mindex_record = CommittedRecord(
            meta, _META_HEADER_SIZE + 2 * flags_slot, mindex_slot)
        #: Where the version bytes live; set by the layout that creates
        #: or opens the model.
        self.layout: Optional["StorageLayout"] = None

    # -- creation / recovery --------------------------------------------------------

    @staticmethod
    def meta_region_size(tensor_count: int, manifest_slot: int = 0) -> int:
        """Bytes the metadata region needs for *tensor_count* tensors
        (plus, in the chunk layout, two double-slotted manifest records
        of *manifest_slot* bytes)."""
        return (_META_HEADER_SIZE + 2 * _FLAGS_SLOT
                + 2 * MIndex.slot_size(tensor_count) + 4 * manifest_slot)

    @classmethod
    def create(cls, pool: PmemPool, model_name: str,
               specs: List[TensorSpec],
               chunk_bytes: Optional[int] = None) -> "ModelMeta":
        """Allocate and format a new model in the slot layout, or with
        *chunk_bytes* in the chunk layout."""
        descriptors, region_size = layout_tensors(specs)
        mindex = MIndex(model_name, descriptors, (0, 0),
                        sum(d.size for d in descriptors))
        if chunk_bytes is None:
            return SlotLayout.create(pool, mindex, region_size)
        return ChunkLayout.create(pool, mindex, region_size, chunk_bytes)

    @classmethod
    def _allocate(cls, pool: PmemPool, mindex: MIndex,
                  manifest_slot: int = 0) -> "ModelMeta":
        """Allocate a new model's metadata region (a layout's first
        step of :meth:`create`)."""
        meta = pool.alloc(cls.meta_region_size(mindex.layer_count,
                                               manifest_slot),
                          tag=f"{META_TAG}/{_short(mindex.model_name)}")
        return cls(pool, meta, mindex, _FLAGS_SLOT,
                   MIndex.slot_size(mindex.layer_count))

    def _format(self, header: bytes) -> None:
        """Persist the geometry *header*, then the MIndex and empty
        flags (a layout's last step of :meth:`create`)."""
        self.meta.write_bytes(0, header)
        self.meta.persist(0, len(header))
        self._mindex_record.write(self.mindex.pack())
        self.write_flags(VersionFlags())

    def replicate(self, pool: PmemPool) -> "ModelMeta":
        """An empty model with this model's tensors and layout on *pool*
        (a migration's destination index)."""
        return self.create(pool, self.mindex.model_name,
                           [d.to_spec() for d in self.mindex.descriptors],
                           chunk_bytes=self.layout.chunk_bytes)

    @staticmethod
    def read_geometry(meta: Allocation) -> Tuple[int, int, int, int]:
        """The persisted record geometry of a meta region.

        Returns ``(flags_slot, mindex_slot, manifest_slot, chunk_bytes)``
        — the last two are 0 for the v1 (contiguous TensorData) layout.
        Raises :class:`PmemError` when the header is torn or was never
        written — the region is not (or no longer) a model's metadata.
        """
        try:
            raw = meta.read_bytes(0, _META_HEADER_V2.size)
        except ValueError as exc:
            raise PmemError(
                f"meta header unreadable at {meta.addr:#x}") from exc
        magic, version, flags_slot, mindex_slot = _META_HEADER.unpack_from(raw)
        if magic != _META_MAGIC:
            raise PmemError(
                f"bad meta header magic {magic:#x} at {meta.addr:#x}")
        if version == _META_LAYOUT_VERSION:
            manifest_slot, chunk_bytes = 0, 0
        elif version == _META_LAYOUT_VERSION_DEDUP:
            (_magic, _version, flags_slot, mindex_slot, manifest_slot,
             chunk_bytes) = _META_HEADER_V2.unpack(raw)
            if manifest_slot <= 0 or chunk_bytes <= 0:
                raise PmemError(
                    f"bad dedup meta geometry at {meta.addr:#x}: "
                    f"manifest_slot={manifest_slot} "
                    f"chunk_bytes={chunk_bytes}")
        else:
            raise PmemError(
                f"unsupported meta layout version {version} "
                f"at {meta.addr:#x}")
        if flags_slot <= 0 or mindex_slot <= 0 or \
                _META_HEADER_SIZE + 2 * flags_slot + 2 * mindex_slot \
                + 4 * manifest_slot > meta.size:
            raise PmemError(
                f"meta geometry out of bounds at {meta.addr:#x}: "
                f"flags_slot={flags_slot} mindex_slot={mindex_slot} "
                f"manifest_slot={manifest_slot} region={meta.size}")
        return flags_slot, mindex_slot, manifest_slot, chunk_bytes

    @classmethod
    def open(cls, pool: PmemPool, meta_addr: int,
             lenient: bool = False) -> "ModelMeta":
        """Rebuild from PMem after a daemon restart or crash.

        Record geometry comes from the persisted header — never from the
        allocation size, which the pool may have rounded up — so the B
        slot is always probed where the writer put it.  With *lenient*
        (fsck) a slot model whose version address no device allocation
        backs opens with that region missing instead of raising, so the
        verifier can inspect the rest of the model and demote just the
        broken slot.
        """
        meta = pool.device.allocation_at(meta_addr)
        flags_slot, mindex_slot, manifest_slot, chunk_bytes = \
            cls.read_geometry(meta)
        record = CommittedRecord(meta, _META_HEADER_SIZE + 2 * flags_slot,
                                 mindex_slot)
        committed = record.read()
        if committed is None:
            raise PmemError(f"MIndex record unreadable at {meta_addr:#x}")
        instance = cls(pool, meta, MIndex.unpack(committed[0]), flags_slot,
                       mindex_slot)
        if manifest_slot > 0:
            instance.layout = ChunkLayout(instance, manifest_slot,
                                          chunk_bytes)
        else:
            instance.layout = SlotLayout.open(instance, lenient)
        return instance

    def free(self) -> int:
        """Release the layout's storage, then the metadata region
        (unregister, repack); returns the bytes freed."""
        freed = self.layout.free()
        self.pool.free(self.meta)
        return freed + self.meta.size

    # -- the version slots --------------------------------------------------------------

    def begin(self, keep: int = 0) -> int:
        """Stamp ACTIVE the slot that does not hold the version a
        restore must still serve (:meth:`VersionFlags.protected`); a
        restore never trusts the slot from here on.  Returns its version
        index."""
        flags = self.read_flags()
        target = flags.checkpoint_target(keep)
        flags.states[target] = FLAG_ACTIVE
        self.write_flags(flags)
        return target

    def commit(self, version: int, step: int) -> None:
        """Stamp the ACTIVE *version* DONE at *step*: it is restorable."""
        flags = self.read_flags()
        if flags.states[version] != FLAG_ACTIVE:
            raise CheckpointInProgress(
                f"commit of version {version} which is not ACTIVE "
                f"(flags: {flags!r})")
        flags.states[version] = FLAG_DONE
        flags.steps[version] = step
        self.write_flags(flags)

    def abort(self, version: int, landed: bool) -> None:
        """Roll the ACTIVE *version* back after a failed write (a slot
        that is not ACTIVE is left alone).  Once any byte *landed* the
        slot holds a mix of two steps, so it is invalidated (EMPTY, step
        0) and the sibling's last DONE version keeps the model
        restorable; an untouched slot returns to DONE at its old step
        (EMPTY if it never held one)."""
        flags = self.read_flags()
        if flags.states[version] != FLAG_ACTIVE:
            return
        if landed or flags.steps[version] == 0:
            flags.states[version] = FLAG_EMPTY
            flags.steps[version] = 0
        else:
            flags.states[version] = FLAG_DONE
        self.write_flags(flags)

    def demote(self, version: int) -> None:
        """Invalidate one version slot (EMPTY, step 0) with one flags
        write; its data is never touched."""
        flags = self.read_flags()
        flags.states[version] = FLAG_EMPTY
        flags.steps[version] = 0
        self.write_flags(flags)

    def restorable(self, step: Optional[int] = None) -> Tuple[int, int]:
        """The version a restore reads, as ``(version, step)``: the
        newest DONE slot, or with *step* the DONE slot at exactly that
        step.  A group restore pins every member to the group's
        committed step; the target rule of :meth:`begin` keeps it there
        until a later group commit.  With both slots DONE at one step the
        newest lookup answers slot 0, the pinned one slot 1.

        Raises :class:`NoValidCheckpoint` when no slot qualifies — e.g.
        after a crash during the very first checkpoint.
        """
        flags = self.read_flags()
        name = self.mindex.model_name
        if step is None:
            newest = flags.newest_done()
            if newest is None:
                raise NoValidCheckpoint(
                    f"{name}: no completed checkpoint (flags: {flags!r})")
            return newest, flags.steps[newest]
        version = flags.done_at(step)
        if version is None:
            raise NoValidCheckpoint(
                f"{name}: no completed checkpoint at step {step} "
                f"(flags: {flags!r})")
        return version, step

    # -- flags ------------------------------------------------------------------------

    def read_flags(self) -> VersionFlags:
        committed = self._flags_record.read()
        if committed is None:
            return VersionFlags()
        return VersionFlags.unpack(committed[0])

    def write_flags(self, flags: VersionFlags) -> None:
        self._flags_record.write(flags.pack())

    def inventory(self, name: str, **extra) -> Dict:
        """The model's inventory row (``portusctl view``, LIST): name,
        layers, bytes, any *extra* fields, each version's state and
        step."""
        flags = self.read_flags()
        return {"model": name, "layers": self.mindex.layer_count,
                "bytes": self.mindex.total_bytes, **extra,
                "versions": [{"state": FLAG_NAMES[flags.states[i]],
                              "step": flags.steps[i]} for i in (0, 1)]}

    # -- tensor data access ---------------------------------------------------------

    def read_tensor(self, descriptor: TensorDescriptor, version: int):
        """A tensor's bytes in *version*, gathered from the layout's
        extents (raises when the version holds no bytes)."""
        return concat([
            extent.allocation.read(lo - extent.offset, hi - lo)
            for extent, _run, lo, hi in overlaps(
                self.layout.extents(version), [descriptor])])


def _short(name: str) -> str:
    """Fit model names into AllocTable tags."""
    return name[-40:]


# -- storage layouts --------------------------------------------------------------


class StorageLayout:
    """Where a model's version bytes live: every question that depends
    on it is asked of the layout, so no caller branches on which one a
    model holds.

    * ``extents(v)`` — the PMem runs holding version *v*'s bytes;
    * ``new_version(manifest)`` — a :class:`VersionWrite` of the next
      version; ``replica_write(v, replica)`` — one copying *v*
      onto a migration's replica;
    * ``pinned_regions()`` — what REGISTER pins for the daemon's life;
    * ``unlink(v)`` — forget *v*'s storage in the metadata;
      ``drop(v)`` — demote, unlink and release it; ``free()`` — release
      all of it (both return the bytes freed);
    * ``private_region(v)`` — the region compaction may move, if any;
    * ``verify(walk, name, flags)`` — fsck's per-version checks.
    """

    #: The chunk size of the layout (None: contiguous slots).
    chunk_bytes: Optional[int] = None

    def __init__(self, meta: ModelMeta) -> None:
        self.meta = meta

    def untrust(self, version: int) -> None:
        """Demote *version* and forget its storage: fsck's repair of a
        version it cannot trust, and the first half of :meth:`drop`."""
        self.meta.demote(version)
        self.unlink(version)


class SlotLayout(StorageLayout):
    """The paper's layout: each version is one contiguous TensorData
    region (its address in the MIndex), inside which every tensor has a
    fixed 64-byte-aligned offset.  Each region is pinned for RDMA once
    (at REGISTER, or by the first pull into a slot re-created after a
    repack) for as long as the region and the daemon live, and every
    tensor is pulled by one-sided reads into its final resting place
    (§III-D2)."""

    def __init__(self, meta: ModelMeta,
                 regions: List[Optional[Allocation]]) -> None:
        super().__init__(meta)
        #: Each version's region; None where the repacking tool reclaimed
        #: it (address 0) or, in a lenient open, no allocation backs it.
        self.regions = list(regions)

    @classmethod
    def create(cls, pool: PmemPool, mindex: MIndex,
               region_size: int) -> ModelMeta:
        meta = ModelMeta._allocate(pool, mindex)
        tag = f"{DATA_TAG}/{_short(mindex.model_name)}"
        regions = [pool.alloc(region_size, tag=f"{tag}/v{version}")
                   for version in (0, 1)]
        mindex.version_addrs = tuple(region.addr for region in regions)
        meta.layout = cls(meta, regions)
        meta._format(_META_HEADER.pack(_META_MAGIC, _META_LAYOUT_VERSION,
                                       meta.flags_slot, meta.mindex_slot))
        return meta

    @classmethod
    def open(cls, meta: ModelMeta, lenient: bool) -> "SlotLayout":
        """Resolve the MIndex version addresses of an opened model."""
        def resolve(addr: int) -> Optional[Allocation]:
            if not addr:
                return None
            try:
                return meta.pool.device.allocation_at(addr)
            except InvalidAddressError:
                if lenient:
                    return None
                raise

        return cls(meta, [resolve(addr)
                          for addr in meta.mindex.version_addrs])

    def extents(self, version: int) -> List[Extent]:
        """The runs holding *version*'s bytes: its whole data region."""
        region = self.regions[version]
        if region is None:
            raise NoValidCheckpoint(
                f"{self.meta.mindex.model_name}: version {version} was "
                f"repacked away")
        return [Extent(0, region.size, region)]

    def new_version(self, manifest=None) -> "SlotWrite":
        return SlotWrite(self.meta)

    def replica_write(self, version: int,
                      replica: ModelMeta) -> "SlotWrite":
        return replica.layout.new_version()

    def pinned_regions(self) -> List[Allocation]:
        """Both data regions (those not reclaimed)."""
        return [region for region in self.regions if region is not None]

    def recreate(self) -> None:
        """Re-allocate any version slot the repacking tool reclaimed."""
        missing = [version for version in (0, 1)
                   if self.regions[version] is None]
        if not missing:
            return
        pool = self.meta.pool
        region_size = region_extent(self.meta.mindex.descriptors)
        tag = f"{DATA_TAG}/{_short(self.meta.mindex.model_name)}"
        self.repoint({version: pool.alloc(region_size,
                                          tag=f"{tag}/v{version}")
                      for version in missing})

    def repoint(self, regions: Dict[int, Optional[Allocation]]) -> None:
        """Point each version slot in *regions* at its data region, or
        at none (address 0), and commit the MIndex once."""
        mindex = self.meta.mindex
        addrs = list(mindex.version_addrs)
        for version, region in regions.items():
            self.regions[version] = region
            addrs[version] = region.addr if region is not None else 0
        mindex.version_addrs = tuple(addrs)
        self.meta._mindex_record.write(mindex.pack())

    def unlink(self, version: int) -> None:
        """Zero *version*'s MIndex address (if set)."""
        if self.meta.mindex.version_addrs[version]:
            self.repoint({version: None})

    def drop(self, version: int) -> int:
        """Free one version's region; returns the bytes reclaimed.

        Crash-safe ordering: demote the flag first (a crash after leaves
        an EMPTY slot whose data is merely still allocated), then commit
        the MIndex with address 0 (a crash after leaves the extent
        committed but unreferenced — a leak fsck reclaims), and free the
        extent last (the allocator's own leak-only window).  At no point
        can a DONE flag coexist with a zero or freed version address.
        """
        region = self.regions[version]
        if region is None:
            return 0
        self.untrust(version)
        self.meta.pool.free(region)
        return region.size

    def free(self) -> int:
        freed = 0
        for region in self.regions:
            if region is not None:
                self.meta.pool.free(region)
                freed += region.size
        return freed

    def private_region(self, version: int) -> Optional[Allocation]:
        """*version*'s data region: compaction may copy it lower and
        :meth:`repoint` the slot at the copy."""
        return self.regions[version]

    def verify(self, walk, name: str, flags: VersionFlags) -> None:
        """A DONE slot must point at a committed extent as large as the
        tensor layout that no other version claims; an ACTIVE slot is a
        pull that died mid-flight."""
        mindex = self.meta.mindex
        needed = region_extent(mindex.descriptors)
        for version in (0, 1):
            state = flags.states[version]
            step = flags.steps[version]
            addr = mindex.version_addrs[version]
            demote = partial(self.meta.demote, version)
            untrust = partial(self.untrust, version)
            if state == FLAG_ACTIVE:
                walk.add(K_STALE_ACTIVE, SEV_WARN,
                         f"v{version} still ACTIVE (step stamp {step}): a "
                         f"checkpoint was mid-pull at crash time; its "
                         f"TensorData cannot be trusted", name, demote)
            if addr == 0:
                if state == FLAG_DONE:
                    walk.add(K_DONE_ADDR_ZERO, SEV_ERROR,
                             f"v{version} DONE@{step} but its version "
                             f"address is 0 (extent reclaimed under a "
                             f"live flag)", name, demote)
                continue
            extent = walk.allocator.lookup(addr)
            if extent is None:
                label = FLAG_NAMES.get(state, f"?{state}")
                walk.add(K_VERSION_EXTENT_MISSING,
                         SEV_ERROR if state == FLAG_DONE else SEV_WARN,
                         f"v{version} ({label}@{step}) points at "
                         f"{addr:#x}, which no committed extent backs",
                         name, untrust)
            elif not walk.claim(addr, f"{name}:v{version}"):
                walk.add(K_EXTENT_SHARED, SEV_ERROR,
                         f"v{version} claims extent {addr:#x} already "
                         f"owned by {walk.claims[addr]}", name, untrust)
            elif state == FLAG_DONE and extent.size < needed:
                walk.add(K_DONE_EXTENT_SHORT, SEV_ERROR,
                         f"v{version} DONE@{step} extent holds "
                         f"{extent.size} bytes, layout needs {needed}",
                         name, untrust)


class ChunkLayout(StorageLayout):
    """The deduplicated layout: each version is a chunk manifest (one
    record per version slot) over the pool-wide refcounted
    :class:`~repro.pmem.chunks.ChunkStore`; each chunk extent is pinned
    when first written and stays pinned until it is freed."""

    def __init__(self, meta: ModelMeta, manifest_slot: int,
                 chunk_bytes: int) -> None:
        super().__init__(meta)
        self.chunk_bytes = chunk_bytes
        base = (_META_HEADER_SIZE + 2 * meta.flags_slot
                + 2 * meta.mindex_slot)
        self._manifests = tuple(
            CommittedRecord(meta.meta, base + 2 * version * manifest_slot,
                            manifest_slot) for version in (0, 1))
        self._spans = None

    @staticmethod
    def manifest_slot_size(region_size: int, chunk_bytes: int) -> int:
        """Slot bytes for one version's chunk-manifest record."""
        max_chunks = (region_size + chunk_bytes - 1) // chunk_bytes
        return blob_capacity(_MANIFEST_COUNT.size
                             + max_chunks * _DIGEST_BYTES) + 32

    @classmethod
    def create(cls, pool: PmemPool, mindex: MIndex, region_size: int,
               chunk_bytes: int) -> ModelMeta:
        """The metadata region only, sized for the two manifest records:
        version bytes live in the pool-wide chunk store (formatted on
        first use, and validating the chunk size)."""
        ChunkStore.ensure(pool, chunk_bytes=chunk_bytes)
        manifest_slot = cls.manifest_slot_size(region_size, chunk_bytes)
        meta = ModelMeta._allocate(pool, mindex, manifest_slot)
        meta.layout = cls(meta, manifest_slot, chunk_bytes)
        meta._format(_META_HEADER_V2.pack(
            _META_MAGIC, _META_LAYOUT_VERSION_DEDUP, meta.flags_slot,
            meta.mindex_slot, manifest_slot, chunk_bytes))
        return meta

    def spans(self):
        """The region's chunk spans — the same cut the client hashes
        over (derived once: the MIndex is immutable)."""
        if self._spans is None:
            descriptors = self.meta.mindex.descriptors
            self._spans = chunk_spans(descriptors,
                                      region_extent(descriptors),
                                      self.chunk_bytes)
        return self._spans

    def read_manifest(self, version: int) -> List[bytes]:
        """The chunk digests reassembling *version* (empty if none)."""
        committed = self._manifests[version].read()
        if committed is None:
            return []
        payload = committed[0]
        (count,) = _MANIFEST_COUNT.unpack_from(payload)
        base = _MANIFEST_COUNT.size
        return [payload[base + i * _DIGEST_BYTES:
                        base + (i + 1) * _DIGEST_BYTES]
                for i in range(count)]

    def write_manifest(self, version: int, digests: List[bytes]) -> None:
        self._manifests[version].write(
            _MANIFEST_COUNT.pack(len(digests)) + b"".join(digests))

    def extents(self, version: int) -> List[Extent]:
        """One run per chunk of *version*'s manifest, in region order."""
        name = self.meta.mindex.model_name
        store = ChunkStore.attach(self.meta.pool)
        if store is None:
            raise PmemError(f"{name}: dedup model but the pool has no "
                            f"chunk store")
        manifest = self.read_manifest(version)
        spans = self.spans()
        if len(manifest) != len(spans):
            raise PmemError(
                f"{name}: version {version} manifest carries "
                f"{len(manifest)} digests, the region has {len(spans)} "
                f"chunks")
        extents = []
        for digest, span in zip(manifest, spans):
            entry = store.lookup(digest)
            if entry is None:
                raise PmemError(f"{name}: chunk {digest.hex()[:12]} "
                                f"missing from the store")
            extents.append(Extent(span.start, span.size,
                                  store.allocation_of(entry),
                                  label=digest.hex()[:8]))
        return extents

    def new_version(self, manifest=None) -> "ChunkWrite":
        """A write of the version *manifest* describes (unchanged
        chunks are shared by reference)."""
        name = self.meta.mindex.model_name
        if manifest is None:
            raise ProtocolError(
                f"{name}: dedup model checkpoints need a chunk manifest")
        spans = self.spans()
        if len(manifest) != len(spans):
            raise ProtocolError(
                f"{name}: manifest carries {len(manifest)} digests, "
                f"the region has {len(spans)} chunks")
        store = ChunkStore.ensure(self.meta.pool,
                                  chunk_bytes=self.chunk_bytes)
        return ChunkWrite(self.meta, store, spans, manifest)

    def replica_write(self, version: int,
                      replica: ModelMeta) -> "ChunkWrite":
        return replica.layout.new_version(
            manifest=self.read_manifest(version))

    def pinned_regions(self) -> List[Allocation]:
        """None: each chunk extent is pinned when first written."""
        return []

    def unlink(self, version: int) -> None:
        """Commit an empty manifest for *version*."""
        self.write_manifest(version, [])

    def drop(self, version: int) -> int:
        """Demote, commit an empty manifest, then drop the chunk
        references (the store frees extents whose count reaches zero);
        returns the bytes freed.

        References are dropped only when the slot was DONE before the
        demote — a non-DONE slot's references were never certainly
        counted, so they are left for fsck's leak pass rather than
        risking an over-free.
        """
        digests = self.read_manifest(version)
        state = self.meta.read_flags().states[version]
        if not digests and state == FLAG_EMPTY:
            return 0
        self.untrust(version)
        if state != FLAG_DONE or not digests:
            return 0
        store = ChunkStore.attach(self.meta.pool)
        if store is None:
            return 0
        return sum(allocation.size for allocation in store.unref(digests))

    def free(self) -> int:
        """Drop every version holding references (:meth:`drop`), then
        free the store's spares that no write has taken: a deleted
        model (UNREGISTER, a repack's drop, a migration's evict) gives
        back every byte no checkpoint is about to reuse."""
        flags = self.meta.read_flags()
        freed = sum(self.drop(version) for version in (0, 1)
                    if flags.states[version] != FLAG_EMPTY)
        store = ChunkStore.attach(self.meta.pool)
        return freed + (0 if store is None else store.free_spares())

    def private_region(self, version: int) -> Optional[Allocation]:
        """None: the bytes live in the shared chunk store."""
        return None

    def verify(self, walk, name: str, flags: VersionFlags) -> None:
        """Torn manifest slots; a DONE manifest must list one digest per
        chunk, each held by the store.  Only manifests that pass count
        toward ``walk.recomputed`` — a slot flagged for demotion here
        must not hold references, or the refcount pass would repair
        toward a state the demotion is about to invalidate."""
        expected = len(self.spans())
        for version in (0, 1):
            walk.check_torn(self._manifests[version], K_MANIFEST_TORN,
                            f"v{version} manifest", name)
        for version in (0, 1):
            state = flags.states[version]
            step = flags.steps[version]
            untrust = partial(self.untrust, version)
            if state == FLAG_ACTIVE:
                walk.add(K_STALE_ACTIVE, SEV_WARN,
                         f"v{version} still ACTIVE (step stamp {step}): a "
                         f"checkpoint was mid-pull at crash time; its "
                         f"manifest cannot be trusted", name, untrust)
            if state != FLAG_DONE:
                continue
            digests = self.read_manifest(version)
            if len(digests) != expected:
                walk.add(K_MANIFEST_BAD, SEV_ERROR,
                         f"v{version} DONE@{step} manifest lists "
                         f"{len(digests)} chunks, the layout needs "
                         f"{expected}", name, untrust)
                continue
            # A referenced spare is counted here and surfaces as an
            # under-count (chunk-ref-overfree) in the refcount pass.
            missing = [digest for digest in digests
                       if walk.store is None
                       or walk.store.lookup(digest, spares=True) is None]
            if missing:
                walk.add(K_MANIFEST_CHUNK_MISSING, SEV_ERROR,
                         f"v{version} DONE@{step} references "
                         f"{len(set(missing))} chunks the store does not "
                         f"hold (e.g. {missing[0].hex()[:12]})", name,
                         untrust)
                continue
            for digest in digests:
                walk.recomputed[digest] = walk.recomputed.get(digest, 0) + 1


class VersionWrite:
    """One new version being written into a model's free slot.

    The datapath drives every layout through the same steps:
    :meth:`begin` (stamp the slot ACTIVE and reserve the runs the pull
    fills — :attr:`targets`), land the bytes, ``persist``, the flush
    barrier, :meth:`commit`; on any failure :meth:`abort`, which is safe
    at every stage and a no-op once the version is committed.
    """

    def __init__(self, meta: ModelMeta) -> None:
        self.meta = meta
        #: The version slot being written (None until :meth:`begin`).
        self.target: Optional[int] = None
        #: Where the pulled bytes land, region-ordered.
        self.targets: List[Extent] = []

    def begin(self, keep: int = 0) -> int:
        """Stamp the free slot ACTIVE (:meth:`ModelMeta.begin`); returns
        its version index."""
        self.target = self.meta.begin(keep)
        return self.target

    def commit(self, step: int) -> None:
        """Stamp the slot DONE at *step*: the version is restorable."""
        self.meta.commit(self.target, step)

    def abort(self, landed: bool) -> bool:
        """Roll the slot back after a failure.  Once any byte *landed*
        the slot is torn, so it is invalidated instead of returning to
        DONE at its old step; returns whether it was."""
        if self.target is None:
            return False
        self.meta.abort(self.target, landed)
        return landed

    def report(self) -> Dict[str, int]:
        """Layout-specific reply fields of a committed write."""
        return {}


class SlotWrite(VersionWrite):
    """A new version of a :class:`SlotLayout` model: the pull fills the
    free slot's whole region."""

    def begin(self, keep: int = 0) -> int:
        # A slot the repacking tool reclaimed is re-created first; the
        # pull pins it on first use.
        self.meta.layout.recreate()
        target = super().begin(keep)
        region = self.meta.layout.regions[target]
        self.targets = [Extent(0, region.size, region)]
        return target

    def persist(self) -> None:
        self.meta.layout.regions[self.target].persist()


class ChunkWrite(VersionWrite):
    """A new version of a :class:`ChunkLayout` model: pull only the
    chunks absent from the store, reference the rest.

    Crash-safe ordering (every window leak-only):

    1. :meth:`begin` stamps the slot ACTIVE and reserves an extent per
       missing chunk (``ChunkStore.alloc_chunk``): a spare of the
       chunk's size, already allocated and pinned, else a fresh extent
       — committed-but-unindexed until step 3, so fsck's leak scan
       reclaims it after a crash (a spare stays a spare);
    2. the chunks are pulled and persisted;
    3. ``ChunkStore.apply`` commits the whole reference delta (new
       entries, re-filed spares, shared-chunk increments) in ONE record
       write;
    4. the manifest record is written, the slot committed DONE;
    5. only then is the overwritten version's old manifest unreferenced
       — and only if the slot was DONE *before* the begin (a non-DONE
       slot's references were never certainly counted; dropping them
       could over-free a shared chunk).  One orphan per new chunk of
       its size stays as a spare for the next write; the rest are
       freed.
    """

    def __init__(self, meta: ModelMeta, store: ChunkStore, spans,
                 manifest: List[bytes]) -> None:
        super().__init__(meta)
        self.store = store
        self.spans = spans
        self.manifest = manifest
        self.counts = Counter(manifest)
        #: (digest, extent) reserved for the chunks the store lacks.
        self.new: List[Tuple[bytes, Allocation]] = []
        #: How many of them are spares.
        self.recycled = 0
        self.old_manifest: List[bytes] = []
        self.applied = False

    def begin(self, keep: int = 0) -> int:
        flags = self.meta.read_flags()
        target = super().begin(keep)
        if flags.states[target] == FLAG_DONE:
            self.old_manifest = self.meta.layout.read_manifest(target)
        seen = set()
        for digest, span in zip(self.manifest, self.spans):
            if digest in seen or self.store.lookup(digest) is not None:
                continue
            seen.add(digest)
            extent = self.store.alloc_chunk(digest, span.size)
            self.new.append((digest, extent))
            self.recycled += self.store.taken(extent)
            self.targets.append(Extent(span.start, span.size, extent,
                                       label=digest.hex()[:8]))
        return target

    def persist(self) -> None:
        for _digest, extent in self.new:
            extent.persist()

    def commit(self, step: int) -> None:
        fresh = {digest for digest, _extent in self.new}
        self.store.apply(
            [(digest, extent, self.counts[digest])
             for digest, extent in self.new],
            {digest: count for digest, count in self.counts.items()
             if digest not in fresh})
        self.applied = True
        self.meta.layout.write_manifest(self.target, self.manifest)
        super().commit(step)
        if self.old_manifest:
            self.store.unref(self.old_manifest, spares=Counter(
                extent.size for _digest, extent in self.new))

    def abort(self, landed: bool) -> bool:
        """Before the apply the slot's manifest is untouched and the new
        chunks are private (no live ChunkTable entry): the slot rolls
        back clean, a taken spare returns to the spare set and a fresh
        extent is freed."""
        if self.applied:
            return False
        super().abort(landed=False)
        for _digest, extent in self.new:
            self.store.release(extent)
        return False

    def report(self) -> Dict[str, int]:
        return {"bytes_logical": self.meta.mindex.total_bytes,
                "chunks_new": len(self.new),
                "chunks_recycled": self.recycled,
                "chunks_shared": len(self.manifest) - sum(
                    self.counts[digest] for digest, _e in self.new)}


class ModelTable:
    """Level 1: the persistent sorted name -> meta_addr array.

    The table's geometry (``max_models``, which fixes the slot size) is
    persisted: in the record payload header, and implicitly in the size
    of the region ``create`` allocated.  ``open`` derives the slot size
    from the region instead of trusting its caller, so a daemon started
    with a different ``max_models`` than the one that formatted the pool
    can never silently misread the B slot — a mismatch is rejected
    loudly.
    """

    _ENTRY = struct.Struct("<64sQ")
    _HEADER = struct.Struct("<II")  # max_models, count
    #: AllocTable tag of the table's region — subclasses (the group
    #: table) override it to coexist on the same pool.
    TAG = TABLE_TAG

    def __init__(self, record: CommittedRecord, max_models: int) -> None:
        self._record = record
        self.max_models = max_models
        self._entries: Dict[str, int] = {}

    @staticmethod
    def slot_size(max_models: int) -> int:
        return blob_capacity(ModelTable._HEADER.size
                             + max_models * ModelTable._ENTRY.size) + 32

    @classmethod
    def create(cls, pool: PmemPool, max_models: int = 512) -> "ModelTable":
        region = pool.alloc(2 * cls.slot_size(max_models), tag=cls.TAG)
        table = cls(CommittedRecord(region, 0, cls.slot_size(max_models)),
                    max_models)
        table._commit()
        return table

    @classmethod
    def open(cls, pool: PmemPool,
             max_models: Optional[int] = None) -> "ModelTable":
        """Open the table with its *persisted* geometry.

        *max_models*, when given, is validated against the stored value
        (a mismatch raises :class:`PmemError`); by default the stored
        geometry is simply used.
        """
        regions = pool.find_by_tag(cls.TAG)
        if not regions:
            raise PmemError(f"no Portus {cls.__name__} on this pool")
        slot = regions[0].size // 2
        record = CommittedRecord(regions[0], 0, slot)
        committed = record.read()
        if committed is None:
            raise PmemError(
                f"{cls.__name__} record unreadable at {regions[0].addr:#x}")
        payload = committed[0]
        stored_max, count = cls._HEADER.unpack_from(payload)
        if cls.slot_size(stored_max) != slot:
            raise PmemError(
                f"{cls.__name__} geometry mismatch: region slot is {slot} "
                f"bytes but stored max_models={stored_max} implies "
                f"{cls.slot_size(stored_max)}")
        if max_models is not None and max_models != stored_max:
            raise PmemError(
                f"{cls.__name__} was created with max_models={stored_max}, "
                f"refusing to open with max_models={max_models}")
        table = cls(record, stored_max)
        for i in range(count):
            raw_name, addr = cls._ENTRY.unpack_from(
                payload, cls._HEADER.size + i * cls._ENTRY.size)
            table._entries[_unpack_name(raw_name)] = addr
        return table

    def _commit(self) -> None:
        names = sorted(self._entries)
        payload = self._HEADER.pack(self.max_models, len(names)) + b"".join(
            self._ENTRY.pack(_pack_name(name), self._entries[name])
            for name in names)
        self._record.write(payload)

    def insert(self, name: str, meta_addr: int) -> None:
        if len(self._entries) >= self.max_models and \
                name not in self._entries:
            raise PmemError(
                f"{type(self).__name__} full ({self.max_models} entries)")
        self._entries[name] = meta_addr
        self._commit()

    def remove(self, name: str) -> int:
        try:
            addr = self._entries.pop(name)
        except KeyError:
            raise ModelNotFound(name) from None
        self._commit()
        return addr

    def drop(self, name: str, meta: ModelMeta) -> int:
        """Delete model *name*: remove its entry (committed) BEFORE
        freeing its extents, so a crash mid-drop only leaks GC-able
        extents instead of leaving an entry over freed metadata that
        wedges the next recovery; returns the bytes freed."""
        self.remove(name)
        return meta.free()

    def lookup(self, name: str) -> int:
        try:
            return self._entries[name]
        except KeyError:
            raise ModelNotFound(name) from None

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)
