"""fsck learns refcounts: recompute-from-reachability vs the stored
ChunkTable counts, with the portusctl exit-code contract (0 clean /
1 dirty / 2 repaired) and idempotent repair on every new finding kind."""

import pytest

from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.harness.cluster import PaperCluster
from repro.pmem.chunks import ChunkStore
from repro.pmem.fsck import (EXIT_CLEAN, EXIT_DIRTY, EXIT_REPAIRED,
                             K_CHUNK_BACKING_MISSING, K_CHUNK_REF_LEAK,
                             K_CHUNK_REF_OVERFREE, K_MANIFEST_BAD,
                             K_MANIFEST_CHUNK_MISSING, fsck, repair)

CHUNK = 256 * 1024

SPECS = [TensorSpec("backbone.weight", (256, 1024)),
         TensorSpec("backbone.bias", (1024,)),
         TensorSpec("head.weight", (64, 1024)),
         TensorSpec("head.bias", (64,))]


@pytest.fixture
def cluster():
    cluster = PaperCluster(seed=11)

    def scenario(env):
        instance = ModelInstance.materialize(
            "m", SPECS, cluster.volta.gpus[0], model_seed=5)
        session = yield from cluster.portus_register(
            instance, dedup=True, chunk_bytes=CHUNK)
        session.model.update_step(1)
        yield from session.checkpoint(1)
        session.model.update_step(2, only=["head.weight"])
        yield from session.checkpoint(2)

    cluster.run(scenario)
    return cluster


def _store(cluster):
    return ChunkStore.attach(cluster.portus_pool)


def _shared_entry(store):
    shared = [e for e in store.entries() if e.refcount >= 2]
    assert shared, "expected backbone chunks shared across versions"
    return shared[0]


def test_clean_dedup_pool_exits_clean(cluster):
    report = fsck(cluster.portus_pool)
    assert report.clean
    result = repair(cluster.portus_pool)
    assert result.exit_code == EXIT_CLEAN
    assert result.actions == []


def test_ref_leak_detected_lowered_and_idempotent(cluster):
    store = _store(cluster)
    entry = _shared_entry(store)
    want = entry.refcount
    store.set_refcount(entry.digest, want + 3)

    report = fsck(cluster.portus_pool)
    assert K_CHUNK_REF_LEAK in report.kinds()
    assert not report.errors()  # a leak is space-only: warning severity

    result = repair(cluster.portus_pool)
    assert result.exit_code == EXIT_REPAIRED
    assert store.lookup(entry.digest).refcount == want
    # Second run: nothing left to do — the tri-state contract's 0.
    assert repair(cluster.portus_pool).exit_code == EXIT_CLEAN


def test_ref_overfree_is_an_error_and_raised_back(cluster):
    store = _store(cluster)
    entry = _shared_entry(store)
    want = entry.refcount
    store.set_refcount(entry.digest, want - 1)

    report = fsck(cluster.portus_pool)
    assert K_CHUNK_REF_OVERFREE in report.kinds()
    assert report.errors()  # a future unref would free restorable bytes

    result = repair(cluster.portus_pool)
    assert result.exit_code == EXIT_REPAIRED
    assert store.lookup(entry.digest).refcount == want
    assert repair(cluster.portus_pool).exit_code == EXIT_CLEAN


def test_unreachable_chunk_refs_drop_to_zero_and_free(cluster):
    """A chunk no manifest reaches (the apply-committed / manifest-GC'd
    crash window) is repaired to refcount 0: entry removed, extent
    freed."""
    store = _store(cluster)
    digest = b"\xab" * 20
    extent = store.alloc_chunk(digest, CHUNK)
    store.apply([(digest, extent, 2)], {})
    before = store.chunk_count

    report = fsck(cluster.portus_pool)
    assert report.kinds().get(K_CHUNK_REF_LEAK) == 1

    result = repair(cluster.portus_pool)
    assert result.exit_code == EXIT_REPAIRED
    assert store.lookup(digest) is None
    assert store.chunk_count == before - 1
    assert cluster.portus_pool.allocator.lookup(extent.addr) is None
    assert repair(cluster.portus_pool).exit_code == EXIT_CLEAN


def test_manifest_missing_chunk_demotes_slot(cluster):
    """Dropping a chunk out from under a DONE manifest makes that slot
    unrestorable: fsck demotes it rather than pretending."""
    entry_map = cluster.daemon.model_map["m"]
    store = _store(cluster)
    flags = entry_map.meta.read_flags()
    newest = flags.newest_done()
    other = set(entry_map.meta.layout.read_manifest(1 - newest))
    # A digest only the newest version holds (its fine-tuned head), so
    # the other slot must survive the demotion.
    victim = next(d for d in entry_map.meta.layout.read_manifest(newest)
                  if d not in other)
    store.drop_entry(victim)

    report = fsck(cluster.portus_pool)
    assert K_MANIFEST_CHUNK_MISSING in report.kinds()
    assert fsck(cluster.portus_pool).clean is False

    result = repair(cluster.portus_pool)
    assert result.exit_code == EXIT_REPAIRED
    after = entry_map.meta.read_flags()
    assert after.states[newest] == 0  # demoted to EMPTY
    assert entry_map.meta.layout.read_manifest(newest) == []
    # The surviving version still verifies: the pool ends clean.
    assert repair(cluster.portus_pool).exit_code == EXIT_CLEAN
    assert after.newest_done() is not None


def test_chunk_backing_missing_cascades_to_clean(cluster):
    """Freeing the extent under a live chunk entry is the worst case:
    repair drops the entry, the next pass demotes the manifests that
    referenced it, the pass after lowers the leaked sibling refcounts —
    all within one repair() call."""
    store = _store(cluster)
    entry = _shared_entry(store)
    cluster.portus_pool.free(store.allocation_of(entry))

    report = fsck(cluster.portus_pool)
    assert K_CHUNK_BACKING_MISSING in report.kinds()
    assert report.errors()

    result = repair(cluster.portus_pool)
    assert result.exit_code == EXIT_REPAIRED
    assert result.clean
    assert store.lookup(entry.digest) is None
    assert repair(cluster.portus_pool).exit_code == EXIT_CLEAN


def test_truncated_manifest_is_bad_and_demoted(cluster):
    entry_map = cluster.daemon.model_map["m"]
    flags = entry_map.meta.read_flags()
    newest = flags.newest_done()
    digests = entry_map.meta.layout.read_manifest(newest)
    entry_map.meta.layout.write_manifest(newest, digests[:-1])

    report = fsck(cluster.portus_pool)
    assert K_MANIFEST_BAD in report.kinds()
    result = repair(cluster.portus_pool)
    assert result.exit_code == EXIT_REPAIRED
    assert repair(cluster.portus_pool).exit_code == EXIT_CLEAN


def test_fsck_exit_codes_through_dirty_report(cluster):
    """EXIT_DIRTY is what portusctl fsck returns while findings stand."""
    store = _store(cluster)
    entry = _shared_entry(store)
    store.set_refcount(entry.digest, entry.refcount + 1)
    report = fsck(cluster.portus_pool)
    assert (EXIT_CLEAN if report.clean else EXIT_DIRTY) == EXIT_DIRTY
    repair(cluster.portus_pool)
    report = fsck(cluster.portus_pool)
    assert (EXIT_CLEAN if report.clean else EXIT_DIRTY) == EXIT_CLEAN
