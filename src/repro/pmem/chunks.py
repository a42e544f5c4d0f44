"""Refcounted content-addressed chunk store (dedup extents).

Deduplicated checkpoints store model bytes as fixed-size *chunks* keyed
by a content hash over :meth:`~repro.hw.content.Content.fingerprint`.
Each distinct chunk occupies exactly one AllocTable extent; versions and
tenants that share bytes share the extent and bump its reference count.

The store's metadata is a single :class:`~repro.pmem.layout.CommittedRecord`
(the *ChunkTable*) holding every ``(digest, addr, size, refcount)`` entry,
so refcount updates are crash-atomic the same way the AllocTable is.

A checkpoint keeps its memory the way the paper's two version slots do
(§III-D2): an orphan its commit displaces becomes a *spare* when the
same commit wrote a new chunk of that size.  A spare keeps its entry at
refcount 0, its extent and its MR; the next new chunk of that size
lands in it instead of a fresh, unpinned extent.  A spare is never
read: :meth:`ChunkStore.lookup` hides it, no manifest names it, and its
bytes may be torn.

The write orderings keep every crash window leak-only:

* new chunk: reserve the extent (a spare: DRAM only; a fresh extent: an
  AllocTable commit) and land the bytes first, then commit the ChunkTable
  entry + refcounts in ONE record write, which also re-files a taken
  spare under the new digest.  A crash in between leaves a fresh extent
  no ChunkTable entry references — fsck's leak scan reclaims it — or a
  spare that is still a spare.
* unref to zero: commit the entry's removal, or its parking as a spare
  (decrement and unlink are the same record write), then free the
  removed extents.  A crash in between also only leaks.
* freeing spares (repack, UNREGISTER, a full pool or ChunkTable): commit
  their removal, then free their extents — leak-only the same way.

Every mutating commit fires the ``chunkref.update`` crash hook before
touching PMem, so the crash-point sweep can power-fail each refcount
boundary by name (the underlying record's ``record.write`` /
``record.persist`` and the allocator's ``alloc.commit`` /
``free.release`` boundaries fire as usual).
"""

from __future__ import annotations

import struct
from collections import Counter
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
        #: Spares no write has taken, by the digest they are filed under.
        self._spares: Dict[bytes, ChunkEntry] = {}
        #: Spares a write has taken (:meth:`alloc_chunk`) and not yet
        #: applied or released, by extent address.  DRAM only: after a
        #: crash they are spares again.
        self._taken: Dict[int, ChunkEntry] = {}
        #: Fresh extents reserved for writes not yet applied or released;
        #: each becomes one more entry at its apply.
        self._fresh = 0

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
            entry = ChunkEntry(digest, addr, size, refcount)
            store._entries[digest] = entry
            if refcount == 0:
                store._spares[digest] = entry
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

    def lookup(self, digest: bytes,
               spares: bool = False) -> Optional[ChunkEntry]:
        """The live chunk filed under *digest*.  A spare is never a hit:
        only fsck, which counts what manifests reference, asks for one
        too (*spares*)."""
        entry = self._entries.get(digest)
        if entry is None or (entry.refcount == 0 and not spares):
            return None
        return entry

    def entries(self) -> List[ChunkEntry]:
        """Every ChunkTable entry, spares included, digest-sorted."""
        return sorted(self._entries.values(), key=lambda e: e.digest)

    def allocation_of(self, entry: ChunkEntry) -> Allocation:
        """The live device allocation backing a chunk entry."""
        record = self.pool.allocator.lookup(entry.addr)
        if record is None:
            raise PmemError(
                f"chunk {entry.digest.hex()[:12]} extent at "
                f"{entry.addr:#x} missing from AllocTable")
        return self.pool.allocator.allocation_for(record)

    def taken(self, extent: Allocation) -> bool:
        """Whether *extent* is a spare a write has taken."""
        return extent.addr in self._taken

    @property
    def chunk_count(self) -> int:
        """Live chunks (spares excluded)."""
        return len(self._entries) - self.spare_count

    @property
    def spare_count(self) -> int:
        return len(self._spares) + len(self._taken)

    @property
    def stored_bytes(self) -> int:
        """Physical bytes held by live chunk extents (each counted once)."""
        return sum(entry.size for entry in self._entries.values()
                   if entry.refcount > 0)

    @property
    def spare_bytes(self) -> int:
        return sum(entry.size for table in (self._spares, self._taken)
                   for entry in table.values())

    @property
    def logical_bytes(self) -> int:
        """Bytes the chunks represent across all references."""
        return sum(entry.size * entry.refcount
                   for entry in self._entries.values())

    def inventory(self) -> Dict[str, int]:
        """The store in numbers (``portusctl view``)."""
        return {"chunks": self.chunk_count,
                "stored_bytes": self.stored_bytes,
                "spares": self.spare_count,
                "spare_bytes": self.spare_bytes}

    # -- mutation ----------------------------------------------------------------

    def alloc_chunk(self, digest: bytes, size: int) -> Allocation:
        """Reserve the extent for a new chunk (bytes land before
        :meth:`apply` makes the chunk visible): the spare filed under
        *digest* if no write has taken it, else the lowest spare of
        *size*, else a fresh extent.

        A taken spare stays in the ChunkTable at refcount 0, so it keeps
        its extent and its MR, and until :meth:`apply` or
        :meth:`release` no other write gets it and nothing frees it.  A
        fresh extent that finds the pool or the ChunkTable full frees
        the other spares first (:meth:`free_spares`); only live chunks
        and reserved extents refuse it.
        """
        if self.lookup(digest) is not None:
            raise PmemError(f"chunk {digest.hex()[:12]} already stored")
        spare = self._spares.get(digest)
        if spare is None or spare.size != size:
            spare = min((entry for entry in self._spares.values()
                         if entry.size == size),
                        key=lambda entry: entry.addr, default=None)
        if spare is not None:
            del self._spares[spare.digest]
            self._taken[spare.addr] = spare
            return self.allocation_of(spare)
        if len(self._entries) + self._fresh >= self.max_chunks:
            self.free_spares()
            if len(self._entries) + self._fresh >= self.max_chunks:
                raise PoolExhausted(f"ChunkTable full ({self.max_chunks})")
        try:
            extent = self.pool.alloc(size, tag=chunk_tag(digest))
        except PoolExhausted:
            if not self.free_spares():
                raise
            extent = self.pool.alloc(size, tag=chunk_tag(digest))
        self._fresh += 1
        return extent

    def release(self, extent: Allocation) -> None:
        """Hand back an extent :meth:`alloc_chunk` reserved for a write
        that will not apply it: a spare returns to the spare set (the
        ChunkTable still names it, so it must not be freed), a fresh
        extent is freed."""
        spare = self._taken.pop(extent.addr, None)
        if spare is not None:
            self._spares[spare.digest] = spare
            return
        self._fresh -= 1
        self.pool.free(extent)

    def apply(self, new: List[Tuple[bytes, Allocation, int]],
              shared: Dict[bytes, int]) -> None:
        """Commit a manifest's reference delta in one record write.

        *new* lists ``(digest, extent, initial_refcount)`` for chunks
        whose bytes are already persisted in *extent* (from
        :meth:`alloc_chunk`: a taken spare's entry is re-filed under the
        new digest, in place); *shared* maps live digests to their
        reference increment.  Inserting and incrementing in a single
        commit means a crash never splits a checkpoint's references.
        """
        if not new and not shared:
            return
        taken = [self._taken.get(extent.addr) for _d, extent, _r in new]
        vacated = {spare.digest for spare in taken if spare is not None}
        if len({digest for digest, _e, _r in new}) != len(new):
            raise PmemError("one chunk inserted twice")
        for digest, _extent, refs in new:
            if digest in self._entries and digest not in vacated:
                raise PmemError(
                    f"chunk {digest.hex()[:12]} already stored")
            if refs <= 0:
                raise PmemError(f"bad initial refcount {refs}")
        if len(self._entries) + taken.count(None) > self.max_chunks:
            raise PoolExhausted(f"ChunkTable full ({self.max_chunks})")
        for digest, delta in shared.items():
            if self.lookup(digest) is None:
                raise PmemError(
                    f"increment of unknown chunk {digest.hex()[:12]}")
            if delta <= 0:
                raise PmemError(f"bad refcount increment {delta}")
        for (_digest, extent, _refs), spare in zip(new, taken):
            if spare is None:
                self._fresh -= 1
            else:
                del self._taken[extent.addr]
                del self._entries[spare.digest]
        for digest, extent, refs in new:
            self._entries[digest] = ChunkEntry(digest, extent.addr,
                                               extent.size, refs)
        for digest, delta in shared.items():
            self._entries[digest].refcount += delta
        self._commit("apply")

    def unref(self, digests: Iterable[bytes],
              spares: Optional[Counter] = None) -> List[Allocation]:
        """Drop one reference per digest occurrence; free orphaned chunks.

        *spares* counts, per size, the orphans to park as spares instead
        (a checkpoint's commit: one per new chunk it wrote).  Decrement,
        unlink and parking commit in the same record write; extents
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
            entry = self.lookup(digest)
            if entry is None:
                raise PmemError(
                    f"unref of unknown chunk {digest.hex()[:12]}")
            if entry.refcount < count:
                raise PmemError(
                    f"over-free of chunk {digest.hex()[:12]}: "
                    f"{entry.refcount} refs, dropping {count}")
        keep = Counter(spares or ())
        doomed: List[ChunkEntry] = []
        for digest, count in sorted(drops.items()):
            entry = self._entries[digest]
            entry.refcount -= count
            if entry.refcount > 0:
                continue
            if keep[entry.size] > 0:
                keep[entry.size] -= 1
                self._spares[digest] = entry
            else:
                doomed.append(entry)
        return self._remove(doomed, "unref")

    def free_spares(self) -> int:
        """Free every spare no write has taken (repack, UNREGISTER, a
        full pool or ChunkTable); returns the bytes freed."""
        if not self._spares:
            return 0
        doomed = [self._spares[digest] for digest in sorted(self._spares)]
        self._spares.clear()
        return sum(allocation.size
                   for allocation in self._remove(doomed, "reclaim"))

    def _remove(self, doomed: List[ChunkEntry],
                op: str) -> List[Allocation]:
        """Commit the removal of *doomed* entries (and whatever else the
        caller changed) in one record write, then free their extents."""
        for entry in doomed:
            del self._entries[entry.digest]
        self._commit(op)
        freed = [self.allocation_of(entry) for entry in doomed]
        for allocation in freed:
            self.pool.free(allocation)
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
        self._spares.pop(digest, None)
        if refcount == 0:
            self._remove([entry], "repair")
            return
        entry.refcount = refcount
        self._commit("repair")

    def drop_entry(self, digest: bytes) -> None:
        """Remove an entry without freeing its extent (fsck repair for
        chunks whose backing is already gone)."""
        if digest not in self._entries:
            raise PmemError(f"unknown chunk {digest.hex()[:12]}")
        del self._entries[digest]
        self._spares.pop(digest, None)
        self._commit("repair")

    def __repr__(self) -> str:
        return f"<ChunkStore chunks={len(self._entries)} " \
               f"chunk_bytes={self.chunk_bytes}>"
