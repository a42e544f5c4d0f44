"""Refcounted content-addressed chunk store (dedup extents).

Deduplicated checkpoints store model bytes as fixed-size *chunks* keyed
by a content hash over :meth:`~repro.hw.content.Content.fingerprint`.
Each distinct chunk occupies exactly one AllocTable extent; versions and
tenants that share bytes share the extent and bump its reference count.

The store's metadata is a single :class:`~repro.pmem.layout.CommittedRecord`
(the *ChunkTable*) holding every ``(digest, addr, size, refcount)`` entry,
so refcount updates are crash-atomic the same way the AllocTable is.  The
write orderings keep every crash window leak-only:

* new chunk: reserve the extent (AllocTable commit) and land the bytes
  first, then commit the ChunkTable entry + refcounts in ONE record
  write.  A crash in between leaves a committed extent no ChunkTable
  entry references — fsck's leak scan reclaims it.
* unref to zero: commit the entry's removal (decrement and unlink are
  the same record write), then free the extent.  A crash in between
  also only leaks.

Every mutating commit fires the ``chunkref.update`` crash hook before
touching PMem, so the crash-point sweep can power-fail each refcount
boundary by name (the underlying record's ``record.write`` /
``record.persist`` and the allocator's ``alloc.commit`` /
``free.release`` boundaries fire as usual).
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import PmemError, PoolExhausted
from repro.hw.device import Allocation
from repro.pmem.layout import CommittedRecord, blob_capacity

#: AllocTable tag of the ChunkTable metadata extent (one per pool).
CHUNK_TABLE_TAG = "portus-chunktable"
#: Tag prefix of chunk data extents: ``portus-chunk/<hex12>``.
CHUNK_TAG = "portus-chunk"

DIGEST_BYTES = 20  # sha1

_STORE_MAGIC = 0x43484E4B  # "CHNK"
_STORE_HEADER = struct.Struct("<IIQ")  # magic, count, chunk_bytes
_ENTRY = struct.Struct("<20sQQQ")  # digest, addr, size, refcount

DEFAULT_CHUNK_BYTES = 4 * 1024 * 1024
DEFAULT_MAX_CHUNKS = 16384


def chunk_tag(digest: bytes) -> str:
    """AllocTable tag for a chunk extent (truncated digest, unique enough
    for humans; identity lives in the ChunkTable)."""
    return f"{CHUNK_TAG}/{digest.hex()[:12]}"


def store_slot_size(max_chunks: int) -> int:
    return blob_capacity(_STORE_HEADER.size + max_chunks * _ENTRY.size)


class ChunkEntry:
    """One committed chunk: content digest, backing extent, refcount."""

    __slots__ = ("digest", "addr", "size", "refcount")

    def __init__(self, digest: bytes, addr: int, size: int,
                 refcount: int) -> None:
        if len(digest) != DIGEST_BYTES:
            raise PmemError(f"bad chunk digest length {len(digest)}")
        self.digest = digest
        self.addr = addr
        self.size = size
        self.refcount = refcount

    def pack(self) -> bytes:
        return _ENTRY.pack(self.digest, self.addr, self.size, self.refcount)

    def __repr__(self) -> str:
        return f"<ChunkEntry {self.digest.hex()[:12]}@{self.addr:#x}" \
               f"+{self.size} refs={self.refcount}>"


class ChunkStore:
    """The pool-wide refcounted chunk index.

    One live instance per open pool handle: daemon, fsck and repack on
    the same :class:`~repro.pmem.pool.PmemPool` object must share the
    same in-DRAM entry map (use :meth:`attach`), or their commits would
    overwrite each other's view.  A fresh ``PmemPool.open`` after a
    crash rebuilds the map from the committed record.
    """

    def __init__(self, pool, table_alloc: Allocation,
                 chunk_bytes: int, max_chunks: int) -> None:
        self.pool = pool
        self.table_alloc = table_alloc
        self.chunk_bytes = chunk_bytes
        self.max_chunks = max_chunks
        self.record = CommittedRecord(table_alloc, 0,
                                      store_slot_size(max_chunks))
        self._entries: Dict[bytes, ChunkEntry] = {}

    # -- lifecycle ---------------------------------------------------------------

    @classmethod
    def create(cls, pool, chunk_bytes: int = DEFAULT_CHUNK_BYTES,
               max_chunks: int = DEFAULT_MAX_CHUNKS) -> "ChunkStore":
        """Format a fresh ChunkTable on *pool* (at most one per pool)."""
        if pool.find_by_tag(CHUNK_TABLE_TAG):
            raise PmemError("pool already has a chunk store")
        if chunk_bytes <= 0:
            raise PmemError(f"bad chunk size {chunk_bytes}")
        table_alloc = pool.alloc(2 * store_slot_size(max_chunks),
                                 tag=CHUNK_TABLE_TAG)
        store = cls(pool, table_alloc, chunk_bytes, max_chunks)
        store._commit("create")
        pool.__dict__["_chunk_store"] = store
        return store

    @classmethod
    def attach(cls, pool) -> Optional["ChunkStore"]:
        """The pool's chunk store, or None if the pool has none.

        Cached on the pool handle so every subsystem holding this handle
        shares one DRAM copy of the entry map.
        """
        cached = pool.__dict__.get("_chunk_store")
        if cached is not None:
            return cached
        found = pool.find_by_tag(CHUNK_TABLE_TAG)
        if not found:
            return None
        if len(found) > 1:
            raise PmemError("multiple chunk-store tables on one pool")
        table_alloc = found[0]
        committed = CommittedRecord(
            table_alloc, 0, table_alloc.size // 2).read()
        if committed is None:
            raise PmemError("chunk-store table unreadable")
        payload, _generation = committed
        magic, count, chunk_bytes = _STORE_HEADER.unpack_from(payload)
        if magic != _STORE_MAGIC:
            raise PmemError(f"bad chunk-store magic {magic:#x}")
        max_chunks = (table_alloc.size // 2 - blob_capacity(
            _STORE_HEADER.size)) // _ENTRY.size
        store = cls(pool, table_alloc, chunk_bytes, max_chunks)
        for i in range(count):
            digest, addr, size, refcount = _ENTRY.unpack_from(
                payload, _STORE_HEADER.size + i * _ENTRY.size)
            store._entries[digest] = ChunkEntry(digest, addr, size, refcount)
        pool.__dict__["_chunk_store"] = store
        return store

    @classmethod
    def ensure(cls, pool,
               chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> "ChunkStore":
        """Attach, creating the store on first use; validates chunk size."""
        store = cls.attach(pool)
        if store is None:
            return cls.create(pool, chunk_bytes=chunk_bytes)
        if store.chunk_bytes != chunk_bytes:
            raise PmemError(
                f"pool chunk size is {store.chunk_bytes}, "
                f"requested {chunk_bytes}")
        return store

    # -- persistence ------------------------------------------------------------

    def _commit(self, op: str) -> None:
        hook = self.pool.device.crash_hook
        if hook is not None:
            # Crash point: a refcount/entry mutation is about to commit —
            # power loss here must leave refcounts recoverable by fsck.
            hook("chunkref.update", op)
        entries = sorted(self._entries.values(), key=lambda e: e.digest)
        payload = _STORE_HEADER.pack(_STORE_MAGIC, len(entries),
                                     self.chunk_bytes)
        payload += b"".join(entry.pack() for entry in entries)
        self.record.write(payload)

    # -- query -------------------------------------------------------------------

    def lookup(self, digest: bytes) -> Optional[ChunkEntry]:
        return self._entries.get(digest)

    def entries(self) -> List[ChunkEntry]:
        """Committed chunks, digest-sorted."""
        return sorted(self._entries.values(), key=lambda e: e.digest)

    def allocation_of(self, entry: ChunkEntry) -> Allocation:
        """The live device allocation backing a chunk entry."""
        record = self.pool.allocator.lookup(entry.addr)
        if record is None:
            raise PmemError(
                f"chunk {entry.digest.hex()[:12]} extent at "
                f"{entry.addr:#x} missing from AllocTable")
        return self.pool.allocator.allocation_for(record)

    @property
    def chunk_count(self) -> int:
        return len(self._entries)

    @property
    def stored_bytes(self) -> int:
        """Physical bytes held by chunk extents (each counted once)."""
        return sum(entry.size for entry in self._entries.values())

    @property
    def logical_bytes(self) -> int:
        """Bytes the chunks represent across all references."""
        return sum(entry.size * entry.refcount
                   for entry in self._entries.values())

    # -- mutation ----------------------------------------------------------------

    def alloc_chunk(self, digest: bytes, size: int) -> Allocation:
        """Reserve the extent for a new chunk (bytes land before
        :meth:`apply` makes the chunk visible)."""
        if digest in self._entries:
            raise PmemError(f"chunk {digest.hex()[:12]} already stored")
        if len(self._entries) >= self.max_chunks:
            raise PoolExhausted(f"ChunkTable full ({self.max_chunks})")
        return self.pool.alloc(size, tag=chunk_tag(digest))

    def apply(self, new: List[Tuple[bytes, Allocation, int]],
              shared: Dict[bytes, int]) -> None:
        """Commit a manifest's reference delta in one record write.

        *new* lists ``(digest, extent, initial_refcount)`` for chunks
        whose bytes are already persisted in *extent*; *shared* maps
        already-stored digests to their reference increment.  Inserting
        and incrementing in a single commit means a crash never splits a
        checkpoint's references.
        """
        if not new and not shared:
            return
        if len(self._entries) + len(new) > self.max_chunks:
            raise PoolExhausted(f"ChunkTable full ({self.max_chunks})")
        for digest, extent, refs in new:
            if digest in self._entries:
                raise PmemError(
                    f"chunk {digest.hex()[:12]} already stored")
            if refs <= 0:
                raise PmemError(f"bad initial refcount {refs}")
            self._entries[digest] = ChunkEntry(digest, extent.addr,
                                               extent.size, refs)
        for digest, delta in shared.items():
            entry = self._entries.get(digest)
            if entry is None:
                raise PmemError(
                    f"increment of unknown chunk {digest.hex()[:12]}")
            if delta <= 0:
                raise PmemError(f"bad refcount increment {delta}")
            entry.refcount += delta
        self._commit("apply")

    def unref(self, digests: Iterable[bytes]) -> List[Allocation]:
        """Drop one reference per digest occurrence; free orphaned chunks.

        Decrement and unlink commit in the same record write; extents
        whose count reached zero are freed afterwards (crash window:
        leak-only).  Returns the freed allocations.
        """
        drops: Dict[bytes, int] = {}
        for digest in digests:
            drops[digest] = drops.get(digest, 0) + 1
        if not drops:
            return []
        # Validate everything before touching the in-DRAM map, so a
        # refused unref leaves no partial decrement behind.
        for digest, count in sorted(drops.items()):
            entry = self._entries.get(digest)
            if entry is None:
                raise PmemError(
                    f"unref of unknown chunk {digest.hex()[:12]}")
            if entry.refcount < count:
                raise PmemError(
                    f"over-free of chunk {digest.hex()[:12]}: "
                    f"{entry.refcount} refs, dropping {count}")
        doomed: List[ChunkEntry] = []
        for digest, count in sorted(drops.items()):
            entry = self._entries[digest]
            entry.refcount -= count
            if entry.refcount == 0:
                doomed.append(entry)
        for entry in doomed:
            del self._entries[entry.digest]
        self._commit("unref")
        freed: List[Allocation] = []
        for entry in doomed:
            allocation = self.pool.allocator.allocation_for(
                self.pool.allocator.lookup(entry.addr))
            self.pool.free(allocation)
            freed.append(allocation)
        return freed

    def set_refcount(self, digest: bytes, refcount: int) -> None:
        """Force a chunk's refcount (fsck repair path).

        At zero the entry is removed and its extent freed, with the same
        leak-only ordering as :meth:`unref`.
        """
        entry = self._entries.get(digest)
        if entry is None:
            raise PmemError(f"unknown chunk {digest.hex()[:12]}")
        if refcount < 0:
            raise PmemError(f"bad refcount {refcount}")
        if refcount == 0:
            del self._entries[entry.digest]
            self._commit("repair")
            allocation = self.pool.allocator.allocation_for(
                self.pool.allocator.lookup(entry.addr))
            self.pool.free(allocation)
            return
        entry.refcount = refcount
        self._commit("repair")

    def drop_entry(self, digest: bytes) -> None:
        """Remove an entry without freeing its extent (fsck repair for
        chunks whose backing is already gone)."""
        if digest not in self._entries:
            raise PmemError(f"unknown chunk {digest.hex()[:12]}")
        del self._entries[digest]
        self._commit("repair")

    def __repr__(self) -> str:
        return f"<ChunkStore chunks={len(self._entries)} " \
               f"chunk_bytes={self.chunk_bytes}>"
