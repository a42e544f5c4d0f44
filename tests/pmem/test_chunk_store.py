"""Unit tests for the refcounted content-addressed chunk store."""

import hashlib
from collections import Counter

import pytest

from repro.errors import PmemError, PoolExhausted
from repro.hw import PatternContent, PmemDimm
from repro.pmem import PmemPool
from repro.pmem.chunks import (CHUNK_TABLE_TAG, ChunkStore, chunk_tag)
from repro.sim import Environment
from repro.units import gib, kib


def make_pool():
    env = Environment()
    device = PmemDimm(env, dimms=1, dimm_capacity=gib(1))
    return PmemPool.format(device)


def digest_of(n):
    return hashlib.sha1(b"chunk-%d" % n).digest()


def put_chunk(store, n, size=kib(64), refs=1):
    digest = digest_of(n)
    extent = store.alloc_chunk(digest, size)
    extent.write(0, PatternContent(seed=n, size=size))
    extent.persist()
    store.apply([(digest, extent, refs)], {})
    return digest


def test_create_attach_roundtrip():
    pool = make_pool()
    store = ChunkStore.create(pool, chunk_bytes=kib(64))
    d0 = put_chunk(store, 0)
    d1 = put_chunk(store, 1, refs=3)
    assert ChunkStore.attach(pool) is store  # cached on the handle

    pool.close()
    reopened = PmemPool.open(pool.device)
    fresh = ChunkStore.attach(reopened)
    assert fresh is not store
    assert fresh.chunk_bytes == kib(64)
    assert fresh.lookup(d0).refcount == 1
    assert fresh.lookup(d1).refcount == 3
    got = fresh.allocation_of(fresh.lookup(d1))
    assert got.read(0, kib(64)).equals(PatternContent(seed=1, size=kib(64)))


def test_attach_without_store_returns_none():
    pool = make_pool()
    assert ChunkStore.attach(pool) is None
    store = ChunkStore.ensure(pool)
    assert ChunkStore.attach(pool) is store
    with pytest.raises(PmemError, match="chunk size"):
        ChunkStore.ensure(pool, chunk_bytes=store.chunk_bytes + 1)


def test_apply_merges_new_and_shared_in_one_commit():
    pool = make_pool()
    store = ChunkStore.create(pool)
    d0 = put_chunk(store, 0)
    d1 = digest_of(1)
    extent = store.alloc_chunk(d1, kib(64))
    extent.write(0, PatternContent(seed=1, size=kib(64)))
    extent.persist()
    store.apply([(d1, extent, 2)], {d0: 1})
    assert store.lookup(d0).refcount == 2
    assert store.lookup(d1).refcount == 2
    assert store.chunk_count == 2


def test_unref_frees_at_zero_and_refuses_over_free():
    pool = make_pool()
    store = ChunkStore.create(pool)
    d0 = put_chunk(store, 0, refs=2)
    assert store.unref([d0]) == []
    assert store.lookup(d0).refcount == 1
    freed = store.unref([d0])
    assert len(freed) == 1
    assert store.lookup(d0) is None
    assert pool.allocator.find_by_tag(chunk_tag(d0)) == []
    with pytest.raises(PmemError, match="unknown chunk"):
        store.unref([d0])

    d1 = put_chunk(store, 1, refs=1)
    with pytest.raises(PmemError, match="over-free"):
        store.unref([d1, d1])
    # The refused unref must not have committed a partial decrement.
    assert store.lookup(d1).refcount == 1


def test_capacity_enforced():
    pool = make_pool()
    store = ChunkStore.create(pool, max_chunks=2)
    put_chunk(store, 0)
    put_chunk(store, 1)
    with pytest.raises(PoolExhausted):
        store.alloc_chunk(digest_of(2), kib(64))


def test_set_refcount_repair_paths():
    pool = make_pool()
    store = ChunkStore.create(pool)
    d0 = put_chunk(store, 0, refs=5)
    store.set_refcount(d0, 1)
    assert store.lookup(d0).refcount == 1
    store.set_refcount(d0, 0)
    assert store.lookup(d0) is None
    assert pool.allocator.find_by_tag(chunk_tag(d0)) == []


def test_table_extent_is_tagged_and_single():
    pool = make_pool()
    ChunkStore.create(pool)
    assert len(pool.find_by_tag(CHUNK_TABLE_TAG)) == 1
    with pytest.raises(PmemError, match="already has"):
        ChunkStore.create(pool)


# -- spares ------------------------------------------------------------------------


def spare_digests(store):
    return [entry.digest for entry in store.entries() if entry.refcount == 0]


def test_unref_parks_one_spare_per_new_chunk_of_its_size():
    pool = make_pool()
    store = ChunkStore.create(pool)
    d0, d1 = put_chunk(store, 0), put_chunk(store, 1)
    d2 = put_chunk(store, 2, size=kib(32))
    extents = {d: store.allocation_of(store.lookup(d)) for d in (d0, d1, d2)}
    freed = store.unref([d0, d1, d2], spares=Counter({kib(64): 1}))
    # One 64 KiB orphan (the lower digest) stays; the rest are freed.
    [kept] = spare_digests(store)
    assert kept == min(d0, d1)
    assert {a.addr for a in freed} == {extents[d].addr
                                       for d in (d0, d1, d2) if d != kept}
    assert store.lookup(kept) is None
    assert store.lookup(kept, spares=True).refcount == 0
    assert not extents[kept].freed
    assert (store.chunk_count, store.spare_count, store.spare_bytes) == \
        (0, 1, kib(64))
    # A spare holds no reference: dropping one more is an unknown chunk.
    with pytest.raises(PmemError, match="unknown chunk"):
        store.unref([kept])


def test_a_new_chunk_takes_the_spare_of_its_digest_then_one_of_its_size():
    pool = make_pool()
    store = ChunkStore.create(pool)
    d0, d1 = put_chunk(store, 0), put_chunk(store, 1)
    addrs = {d: store.lookup(d).addr for d in (d0, d1)}
    store.unref([d0, d1], spares=Counter({kib(64): 2}))
    high = max(d0, d1)
    # The spare filed under a digest goes to a chunk of that digest,
    # whatever its address; another new chunk takes the other spare.
    same = store.alloc_chunk(high, kib(64))
    other = store.alloc_chunk(digest_of(7), kib(64))
    assert same.addr == addrs[high]
    assert other.addr == addrs[min(d0, d1)]
    assert store.taken(same) and store.taken(other)
    allocs = len(pool.allocator.records())
    store.apply([(high, same, 1), (digest_of(7), other, 2)], {})
    assert len(pool.allocator.records()) == allocs
    assert store.lookup(high).addr == addrs[high]
    assert store.lookup(digest_of(7)).refcount == 2
    assert (store.chunk_count, store.spare_count) == (2, 0)
    # The AllocTable tag keeps the digest the extent was allocated for.
    assert store.allocation_of(store.lookup(digest_of(7))).tag == \
        chunk_tag(min(d0, d1))


def test_a_taken_spare_survives_free_spares_and_release_returns_it():
    pool = make_pool()
    store = ChunkStore.create(pool)
    d0, d1 = put_chunk(store, 0), put_chunk(store, 1)
    store.unref([d0, d1], spares=Counter({kib(64): 2}))
    taken = store.alloc_chunk(digest_of(9), kib(64))
    assert store.free_spares() == kib(64)
    assert not taken.freed and store.spare_count == 1
    store.release(taken)
    assert store.spare_count == 1 and not store.taken(taken)
    assert store.free_spares() == kib(64)
    assert taken.freed and store.spare_count == 0
    assert pool.allocator.lookup(taken.addr) is None
    # A released fresh extent is freed.
    fresh = store.alloc_chunk(digest_of(10), kib(64))
    store.release(fresh)
    assert fresh.freed


def test_spares_persist_across_a_reopen():
    pool = make_pool()
    store = ChunkStore.create(pool)
    d0 = put_chunk(store, 0)
    put_chunk(store, 1)
    store.unref([d0], spares=Counter({kib(64): 1}))
    pool.close()
    fresh = ChunkStore.attach(PmemPool.open(pool.device))
    assert spare_digests(fresh) == [d0]
    assert (fresh.chunk_count, fresh.spare_count) == (1, 1)
    extent = fresh.alloc_chunk(digest_of(5), kib(64))
    assert extent.addr == store.lookup(d0, spares=True).addr


def test_a_full_chunk_table_frees_spares_before_it_refuses():
    pool = make_pool()
    store = ChunkStore.create(pool, max_chunks=2)
    put_chunk(store, 0)
    d1 = put_chunk(store, 1, size=kib(32))
    store.unref([d1], spares=Counter({kib(32): 1}))
    # The table holds one live chunk and one spare of another size: the
    # spare is freed to make room, so the new chunk is not refused.
    spare = store.allocation_of(store.lookup(d1, spares=True))
    put_chunk(store, 2)
    assert spare.freed
    assert (store.chunk_count, store.spare_count) == (2, 0)
    # Two live chunks fill it: now a new chunk is refused.
    with pytest.raises(PoolExhausted, match="ChunkTable full"):
        store.alloc_chunk(digest_of(3), kib(64))


def test_a_full_pool_frees_spares_before_it_refuses():
    pool = make_pool()
    store = ChunkStore.create(pool)
    pool.alloc(pool.free_bytes - kib(64), tag="filler")
    d0 = put_chunk(store, 0)
    assert pool.free_bytes == 0
    store.unref([d0], spares=Counter({kib(64): 1}))
    put_chunk(store, 1, size=kib(32))
    assert store.spare_count == 0
    assert store.lookup(d0, spares=True) is None
    with pytest.raises(PoolExhausted):
        store.alloc_chunk(digest_of(2), kib(64))
