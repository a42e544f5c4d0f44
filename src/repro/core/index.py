"""The three-level index on PMem: ModelTable -> MIndex -> TensorData.

Level 1 — :class:`ModelTable`: a persistent sorted array mapping model
names to the PMem offset of their metadata region (``info_offset`` in the
paper), stored as one crash-atomic committed record.

Level 2 — :class:`ModelMeta` / :class:`MIndex`: per model, a metadata
region holding (a) the *version flags* record — two checkpoint slots with
EMPTY/ACTIVE/DONE states and step stamps, the paper's double-mapping
mechanism — and (b) the MIndex record: per-tensor name, dtype, shape,
size, and the PMem address of its bytes in each version.

Level 3 — TensorData: two contiguous data extents per model (one per
checkpoint version), inside which every tensor has a fixed 64-byte-
aligned offset.  Contiguity is what lets the daemon register a single
RDMA MR per version and pull every tensor with one-sided reads into its
final resting place — the zero-copy, serialization-free property.

Where a version's bytes live is the model's *storage layout*
(:class:`SlotLayout` for the paper's contiguous slots,
:class:`ChunkLayout` for deduplicated chunk manifests).  A layout
answers the only two questions the datapath asks: which PMem
:class:`Extent` runs hold a version's bytes, and what reserves, commits
and aborts a new version (:class:`VersionWrite`).
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.core.dedup import chunk_spans
from repro.dnn.tensor import TensorSpec
from repro.dnn.dtypes import DType
from repro.errors import (ModelNotFound, NoValidCheckpoint, PmemError,
                          PortusError, ProtocolError)
from repro.hw.content import concat
from repro.hw.device import Allocation
from repro.pmem.chunks import ChunkStore
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

    Region bytes ``[offset, offset + size)`` live at *base* inside
    *allocation*.  *label*, when set, prefixes the names of the work
    requests that move the run (the chunk layout labels each chunk with
    its digest).
    """

    __slots__ = ("offset", "size", "allocation", "base", "label")

    def __init__(self, offset: int, size: int, allocation: Allocation,
                 base: int = 0, label: Optional[str] = None) -> None:
        self.offset = offset
        self.size = size
        self.allocation = allocation
        self.base = base
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
    """The level-2 record: tensor table + the two TensorData addresses."""

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

    def paddr(self, descriptor: TensorDescriptor, version: int) -> int:
        """The persistent address of a tensor's bytes in *version*."""
        return self.version_addrs[version] + descriptor.offset

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

    def checkpoint_target(self) -> int:
        """Where the next checkpoint goes: never the newest DONE slot."""
        newest = self.newest_done()
        if newest is None:
            return 0
        return 1 - newest

    def __repr__(self) -> str:
        parts = [f"v{i}={FLAG_NAMES[self.states[i]]}@{self.steps[i]}"
                 for i in (0, 1)]
        return f"<VersionFlags {' '.join(parts)}>"


class ModelMeta:
    """A model's metadata region plus its two TensorData extents."""

    def __init__(self, pool: PmemPool, meta: Allocation,
                 mindex: MIndex, data_regions: Tuple[Allocation,
                                                     Allocation],
                 flags_slot: int = _FLAGS_SLOT,
                 mindex_slot: Optional[int] = None,
                 manifest_slot: int = 0,
                 chunk_bytes: int = 0) -> None:
        self.pool = pool
        self.meta = meta
        self.mindex = mindex
        self.data_regions = data_regions
        self.flags_slot = flags_slot
        self.mindex_slot = (mindex_slot if mindex_slot is not None
                            else MIndex.slot_size(mindex.layer_count))
        #: Nonzero only in the deduplicated (layout v2) format.
        self.manifest_slot = manifest_slot
        self.chunk_bytes = chunk_bytes
        self._flags_record = CommittedRecord(meta, _META_HEADER_SIZE,
                                             self.flags_slot)
        self._mindex_record = CommittedRecord(
            meta, _META_HEADER_SIZE + 2 * self.flags_slot, self.mindex_slot)
        self._manifest_records: Tuple[Optional[CommittedRecord],
                                      Optional[CommittedRecord]]
        if manifest_slot > 0:
            base = (_META_HEADER_SIZE + 2 * self.flags_slot
                    + 2 * self.mindex_slot)
            self._manifest_records = (
                CommittedRecord(meta, base, manifest_slot),
                CommittedRecord(meta, base + 2 * manifest_slot,
                                manifest_slot))
        else:
            self._manifest_records = (None, None)
        self.layout = (ChunkLayout(self) if manifest_slot > 0
                       else SlotLayout(self))

    @property
    def dedup(self) -> bool:
        """True for the deduplicated (chunk-manifest) layout."""
        return self.manifest_slot > 0

    # -- creation / recovery --------------------------------------------------------

    @staticmethod
    def meta_region_size(tensor_count: int) -> int:
        """Bytes the metadata region needs for *tensor_count* tensors."""
        return (_META_HEADER_SIZE + 2 * _FLAGS_SLOT
                + 2 * MIndex.slot_size(tensor_count))

    @staticmethod
    def manifest_slot_size(region_size: int, chunk_bytes: int) -> int:
        """Slot bytes for one version's chunk-manifest record."""
        max_chunks = (region_size + chunk_bytes - 1) // chunk_bytes
        return blob_capacity(_MANIFEST_COUNT.size
                             + max_chunks * _DIGEST_BYTES) + 32

    @staticmethod
    def meta_region_size_dedup(tensor_count: int, region_size: int,
                               chunk_bytes: int) -> int:
        """Metadata-region bytes for a dedup model (no data extents —
        instead two manifest records, one per version slot)."""
        return (_META_HEADER_SIZE + 2 * _FLAGS_SLOT
                + 2 * MIndex.slot_size(tensor_count)
                + 4 * ModelMeta.manifest_slot_size(region_size, chunk_bytes))

    @classmethod
    def create(cls, pool: PmemPool, model_name: str,
               specs: List[TensorSpec],
               chunk_bytes: Optional[int] = None) -> "ModelMeta":
        """Allocate the metadata region and both TensorData versions.

        With *chunk_bytes* the model uses the dedup layout (v2) instead:
        the metadata region only — version data lives in the pool-wide
        chunk store (formatted on first use, and validating the chunk
        size), and each version slot's manifest record lists the digests
        that reassemble it.
        """
        descriptors, region_size = layout_tensors(specs)
        tag = _short(model_name)
        mindex_slot = MIndex.slot_size(len(descriptors))
        if chunk_bytes is None:
            manifest_slot = 0
            meta = pool.alloc(cls.meta_region_size(len(descriptors)),
                              tag=f"{META_TAG}/{tag}")
            regions = tuple(pool.alloc(region_size,
                                       tag=f"{DATA_TAG}/{tag}/v{version}")
                            for version in (0, 1))
            header = _META_HEADER.pack(_META_MAGIC, _META_LAYOUT_VERSION,
                                       _FLAGS_SLOT, mindex_slot)
        else:
            ChunkStore.ensure(pool, chunk_bytes=chunk_bytes)
            manifest_slot = cls.manifest_slot_size(region_size, chunk_bytes)
            meta = pool.alloc(
                cls.meta_region_size_dedup(len(descriptors), region_size,
                                           chunk_bytes),
                tag=f"{META_TAG}/{tag}")
            regions = (None, None)
            header = _META_HEADER_V2.pack(
                _META_MAGIC, _META_LAYOUT_VERSION_DEDUP, _FLAGS_SLOT,
                mindex_slot, manifest_slot, chunk_bytes)
        mindex = MIndex(model_name, descriptors,
                        tuple(region.addr if region is not None else 0
                              for region in regions),
                        sum(d.size for d in descriptors))
        instance = cls(pool, meta, mindex, regions,
                       manifest_slot=manifest_slot,
                       chunk_bytes=chunk_bytes or 0)
        meta.write_bytes(0, header)
        meta.persist(0, len(header))
        instance._mindex_record.write(mindex.pack())
        instance.write_flags(VersionFlags())
        return instance

    def replicate(self, pool: PmemPool) -> "ModelMeta":
        """An empty model with this model's tensors and layout on *pool*
        (a migration's destination index)."""
        return self.create(pool, self.mindex.model_name,
                           [d.to_spec() for d in self.mindex.descriptors],
                           chunk_bytes=self.chunk_bytes or None)

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
        slot is always probed where the writer put it.  A version address
        of 0 marks a slot the repacking tool reclaimed; its region handle
        is None until :meth:`ensure_regions` re-creates it on the next
        attach.

        With *lenient* (fsck), a nonzero version address that no device
        allocation backs maps to a None region instead of raising, so
        the verifier can inspect the rest of the model and demote just
        the broken slot.
        """
        meta = pool.device.allocation_at(meta_addr)
        flags_slot, mindex_slot, manifest_slot, chunk_bytes = \
            cls.read_geometry(meta)
        record = CommittedRecord(meta, _META_HEADER_SIZE + 2 * flags_slot,
                                 mindex_slot)
        committed = record.read()
        if committed is None:
            raise PmemError(f"MIndex record unreadable at {meta_addr:#x}")
        mindex = MIndex.unpack(committed[0])

        def resolve(addr: int) -> Optional[Allocation]:
            if not addr:
                return None
            try:
                return pool.device.allocation_at(addr)
            except Exception:
                if lenient:
                    return None
                raise

        data_regions = tuple(resolve(addr)
                             for addr in mindex.version_addrs)
        return cls(pool, meta, mindex, data_regions,
                   flags_slot=flags_slot, mindex_slot=mindex_slot,
                   manifest_slot=manifest_slot, chunk_bytes=chunk_bytes)

    def ensure_regions(self) -> None:
        """Re-allocate any version slot the repacking tool reclaimed."""
        if self.dedup:
            # Dedup models have no per-version data extents: version
            # bytes live in the shared chunk store.
            return
        regions = list(self.data_regions)
        changed = False
        for version in (0, 1):
            if regions[version] is None:
                _descriptors, region_size = layout_tensors(
                    [d.to_spec() for d in self.mindex.descriptors])
                regions[version] = self.pool.alloc(
                    region_size,
                    tag=f"{DATA_TAG}/{_short(self.mindex.model_name)}"
                        f"/v{version}")
                changed = True
        if changed:
            self.data_regions = tuple(regions)
            self.mindex.version_addrs = tuple(
                region.addr for region in self.data_regions)
            self._mindex_record.write(self.mindex.pack())

    def drop_version(self, version: int) -> int:
        """Free one version's TensorData; returns the bytes reclaimed.

        Crash-safe ordering: demote the flag first (a crash after leaves
        an EMPTY slot whose data is merely still allocated), then commit
        the MIndex with address 0 (a crash after leaves the extent
        committed but unreferenced — a leak fsck reclaims), and free the
        extent last (the allocator's own leak-only window).  At no point
        can a DONE flag coexist with a zero or freed version address —
        the ordering bug that used to crash restore-after-restart.

        Dedup models follow the same demote-before-unlink-before-unref
        ordering with the manifest in place of the data extent: demote
        the flag, commit an empty manifest, then drop the chunk
        references (the store frees extents whose count reaches zero).
        References are dropped only when the slot was DONE before the
        demote — a non-DONE slot's references were never certainly
        counted, so they are left for fsck's leak pass rather than
        risking an over-free.
        """
        if self.dedup:
            return self._drop_version_dedup(version)
        region = self.data_regions[version]
        if region is None:
            return 0
        reclaimed = region.size
        flags = self.read_flags()
        flags.states[version] = FLAG_EMPTY
        flags.steps[version] = 0
        self.write_flags(flags)
        regions = list(self.data_regions)
        regions[version] = None
        self.data_regions = tuple(regions)
        addrs = list(self.mindex.version_addrs)
        addrs[version] = 0
        self.mindex.version_addrs = tuple(addrs)
        self._mindex_record.write(self.mindex.pack())
        self.pool.free(region)
        return reclaimed

    def _drop_version_dedup(self, version: int) -> int:
        digests = self.read_manifest(version)
        flags = self.read_flags()
        was_done = flags.states[version] == FLAG_DONE
        if not digests and flags.states[version] == FLAG_EMPTY:
            return 0
        flags.states[version] = FLAG_EMPTY
        flags.steps[version] = 0
        self.write_flags(flags)
        self.write_manifest(version, [])
        if not was_done or not digests:
            return 0
        store = ChunkStore.attach(self.pool)
        if store is None:
            return 0
        freed = store.unref(digests)
        return sum(allocation.size for allocation in freed)

    # -- manifests (dedup layout) ----------------------------------------------------

    def read_manifest(self, version: int) -> List[bytes]:
        """The chunk digests reassembling *version* (dedup models only)."""
        record = self._manifest_records[version]
        if record is None:
            return []
        committed = record.read()
        if committed is None:
            return []
        payload = committed[0]
        (count,) = _MANIFEST_COUNT.unpack_from(payload)
        base = _MANIFEST_COUNT.size
        return [payload[base + i * _DIGEST_BYTES:
                        base + (i + 1) * _DIGEST_BYTES]
                for i in range(count)]

    def write_manifest(self, version: int, digests: List[bytes]) -> None:
        record = self._manifest_records[version]
        if record is None:
            raise PmemError(
                f"{self.mindex.model_name}: not a dedup model")
        payload = _MANIFEST_COUNT.pack(len(digests)) + b"".join(digests)
        record.write(payload)

    def manifest_record(self, version: int) -> Optional[CommittedRecord]:
        """The raw manifest record (integrity tooling)."""
        return self._manifest_records[version]

    # -- flags ------------------------------------------------------------------------

    def read_flags(self) -> VersionFlags:
        committed = self._flags_record.read()
        if committed is None:
            return VersionFlags()
        return VersionFlags.unpack(committed[0])

    def write_flags(self, flags: VersionFlags) -> None:
        self._flags_record.write(flags.pack())

    # -- tensor data access ---------------------------------------------------------

    def data_region(self, version: int) -> Allocation:
        return self.data_regions[version]

    def read_tensor(self, descriptor: TensorDescriptor, version: int):
        """A tensor's bytes in *version*, gathered from the layout's
        extents (raises when the version holds no bytes)."""
        return concat([
            extent.allocation.read(extent.base + lo - extent.offset,
                                   hi - lo)
            for extent, _run, lo, hi in overlaps(
                self.layout.extents(version), [descriptor])])

    def free(self) -> None:
        """Release every extent (unregister / repack).

        Dedup models drop their DONE versions' chunk references first
        (:meth:`drop_version` ordering), then free the metadata region —
        their bytes live in the shared store, never in private extents.
        """
        if self.dedup:
            flags = self.read_flags()
            for version in (0, 1):
                if flags.states[version] != FLAG_EMPTY:
                    self.drop_version(version)
            self.pool.free(self.meta)
            return
        for region in self.data_regions:
            if region is not None:
                self.pool.free(region)
        self.pool.free(self.meta)


def _short(name: str) -> str:
    """Fit model names into AllocTable tags."""
    return name[-40:]


# -- storage layouts --------------------------------------------------------------


class SlotLayout:
    """The paper's layout: each version is one contiguous TensorData
    region, pinned for RDMA once per attach (§III-D2)."""

    def __init__(self, meta: ModelMeta) -> None:
        self.meta = meta

    def extents(self, version: int) -> List[Extent]:
        """The runs holding *version*'s bytes: its whole data region."""
        region = self.meta.data_region(version)
        if region is None:
            raise NoValidCheckpoint(
                f"{self.meta.mindex.model_name}: version {version} was "
                f"repacked away")
        return [Extent(0, region.size, region)]

    def new_version(self, manifest=None, dirty=None) -> "SlotWrite":
        return SlotWrite(self.meta, dirty)


class ChunkLayout:
    """The deduplicated layout: each version is a chunk manifest over
    the pool-wide refcounted :class:`~repro.pmem.chunks.ChunkStore`;
    chunk extents are registered per operation, never pinned."""

    def __init__(self, meta: ModelMeta) -> None:
        self.meta = meta
        self._spans = None

    def spans(self):
        """The region's chunk spans — the same cut the client hashes
        over (derived once: the MIndex is immutable)."""
        if self._spans is None:
            descriptors = self.meta.mindex.descriptors
            self._spans = chunk_spans(descriptors,
                                      region_extent(descriptors),
                                      self.meta.chunk_bytes)
        return self._spans

    def extents(self, version: int) -> List[Extent]:
        """One run per chunk of *version*'s manifest, in region order."""
        name = self.meta.mindex.model_name
        store = ChunkStore.attach(self.meta.pool)
        if store is None:
            raise PmemError(f"{name}: dedup model but the pool has no "
                            f"chunk store")
        manifest = self.meta.read_manifest(version)
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

    def new_version(self, manifest=None, dirty=None) -> "ChunkWrite":
        """A write of the version *manifest* describes; *dirty* is moot
        (unchanged chunks are shared by reference)."""
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
                                  chunk_bytes=self.meta.chunk_bytes)
        return ChunkWrite(self.meta, store, spans, manifest)


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
        #: Incremental slot writes: the tensors carried over from the
        #: previous version by a local copy (None: nothing is carried).
        self.kept: Optional[List[TensorDescriptor]] = None

    def begin(self) -> int:
        """Stamp the free slot ACTIVE; returns its version index."""
        from repro.core.consistency import begin_checkpoint

        self.target = begin_checkpoint(self.meta)
        return self.target

    def commit(self, step: int) -> None:
        """Stamp the slot DONE at *step*: the version is restorable."""
        from repro.core.consistency import commit_checkpoint

        commit_checkpoint(self.meta, self.target, step)

    def abort(self, landed: bool) -> bool:
        """Roll the slot back after a failure.  Once any byte *landed*
        the slot is torn, so it is invalidated instead of returning to
        DONE at its old step; returns whether it was."""
        from repro.core.consistency import abort_checkpoint

        if self.target is None:
            return False
        abort_checkpoint(self.meta, self.target, data_dirty=landed)
        return landed

    def report(self) -> Dict[str, int]:
        """Layout-specific reply fields of a committed write."""
        return {}


class SlotWrite(VersionWrite):
    """A new version of a :class:`SlotLayout` model: the pull lands in
    the free slot's region; with *dirty* (incremental mode) only those
    tensors are pulled and the rest are carried over from the previous
    version by a local PMem copy."""

    def __init__(self, meta: ModelMeta, dirty) -> None:
        super().__init__(meta)
        self.dirty = dirty
        self.previous: Optional[int] = None

    def begin(self) -> int:
        self.previous = self.meta.read_flags().newest_done()
        target = super().begin()
        region = self.meta.data_region(target)
        if self.dirty is None or self.previous is None:
            self.targets = [Extent(0, region.size, region)]
            return target
        wanted = set(self.dirty)
        descriptors = self.meta.mindex.descriptors
        self.kept = [d for d in descriptors if d.name not in wanted]
        self.targets = [Extent(d.offset, d.size, region, d.offset)
                        for d in descriptors if d.name in wanted]
        return target

    def carry_forward(self) -> None:
        """Copy the kept tensors' bytes from the previous version (the
        content move that follows the timed local copy)."""
        source = self.meta.data_region(self.previous)
        target = self.meta.data_region(self.target)
        for descriptor in self.kept:
            target.write(descriptor.offset,
                         source.read(descriptor.offset, descriptor.size))

    def persist(self) -> None:
        self.meta.data_region(self.target).persist()


class ChunkWrite(VersionWrite):
    """A new version of a :class:`ChunkLayout` model: pull only the
    chunks absent from the store, reference the rest.

    Crash-safe ordering (every window leak-only):

    1. :meth:`begin` stamps the slot ACTIVE and reserves an extent per
       missing chunk — committed-but-unindexed extents until step 3, so
       fsck's leak scan reclaims them after a crash;
    2. the chunks are pulled and persisted;
    3. ``ChunkStore.apply`` commits the whole reference delta (new
       entries + shared-chunk increments) in ONE record write;
    4. the manifest record is written, the slot committed DONE;
    5. only then is the overwritten version's old manifest unreferenced
       — and only if the slot was DONE *before* the begin (a non-DONE
       slot's references were never certainly counted; dropping them
       could over-free a shared chunk).
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
        self.old_manifest: List[bytes] = []
        self.applied = False

    def begin(self) -> int:
        flags = self.meta.read_flags()
        target = super().begin()
        if flags.states[target] == FLAG_DONE:
            self.old_manifest = self.meta.read_manifest(target)
        seen = set()
        for digest, span in zip(self.manifest, self.spans):
            if digest in seen or self.store.lookup(digest) is not None:
                continue
            seen.add(digest)
            extent = self.store.alloc_chunk(digest, span.size)
            self.new.append((digest, extent))
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
        self.meta.write_manifest(self.target, self.manifest)
        super().commit(step)
        if self.old_manifest:
            self.store.unref(self.old_manifest)

    def abort(self, landed: bool) -> bool:
        """Before the apply the slot's manifest is untouched and the new
        chunks are private (no ChunkTable entry): the slot rolls back
        clean and the reserved extents are released."""
        if self.applied:
            return False
        super().abort(landed=False)
        for _digest, extent in self.new:
            self.meta.pool.free(extent)
        return False

    def report(self) -> Dict[str, int]:
        return {"bytes_logical": self.meta.mindex.total_bytes,
                "chunks_new": len(self.new),
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
