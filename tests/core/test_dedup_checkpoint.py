"""End-to-end deduplicated checkpoints: delta pulls, shared extents,
refcounts across versions/tenants, bit-exact restores."""

import pytest

from repro.core.repack import repack, repack_daemon, repack_live
from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.errors import PortusError
from repro.harness.cluster import PaperCluster
from repro.pmem import PmemPool
from repro.pmem.chunks import ChunkStore
from repro.pmem.fsck import fsck
from repro.units import kib

CHUNK = 256 * 1024

SPECS = [TensorSpec("backbone.weight", (256, 1024)),  # 1 MiB
         TensorSpec("backbone.bias", (1024,)),
         TensorSpec("head.weight", (64, 1024)),       # 256 KiB
         TensorSpec("head.bias", (64,))]
HEAD = ["head.weight", "head.bias"]


@pytest.fixture
def cluster():
    return PaperCluster(seed=7)


def _register(cluster, name, gpu=0, seed=77):
    instance = ModelInstance.materialize(
        name, SPECS, cluster.volta.gpus[gpu], model_seed=seed)
    return cluster.portus_register(instance, dedup=True, chunk_bytes=CHUNK)


def test_first_checkpoint_pulls_whole_region_then_only_deltas(cluster):
    def scenario(env):
        session = yield from _register(cluster, "m")
        session.model.update_step(1)
        first = yield from session.checkpoint(1)
        # Fine-tune only the head: the backbone chunks are already
        # stored, so the second checkpoint moves only the head's chunks.
        session.model.update_step(2, only=["head.weight", "head.bias"])
        second = yield from session.checkpoint(2)
        return session, first, second

    session, first, second = cluster.run(scenario)
    assert first["bytes_logical"] == session.model.total_bytes
    assert first["chunks_shared"] == 0
    assert first["bytes_pulled"] > 0
    # Second checkpoint: only the chunks the head dirtied move.
    assert second["bytes_pulled"] < first["bytes_pulled"] / 2
    assert second["chunks_shared"] > 0
    assert second["bytes_logical"] == first["bytes_logical"]


def test_dedup_restore_roundtrip_bit_exact(cluster):
    def scenario(env):
        session = yield from _register(cluster, "m")
        session.model.update_step(3)
        yield from session.checkpoint(3)
        session.model.update_step(4, only=["head.weight"])
        yield from session.checkpoint(4)
        session.model.update_step(9)  # diverge, then roll back
        step = yield from session.restore()
        return session, step

    session, step = cluster.run(scenario)
    assert step == 4
    # Only the head moved at step 4; the backbone's newest bytes are
    # its step-3 weights — the restore must reproduce exactly that mix.
    for tensor in session.model.tensors:
        want = 4 if tensor.name == "head.weight" else 3
        assert tensor.content().equals(tensor.expected_content(want)), \
            tensor.name


def test_cross_tenant_chunks_stored_once(cluster):
    """Two tenants fine-tuning the same base weights share backbone
    extents: the second tenant's first checkpoint pulls only its own
    distinct head bytes."""
    def scenario(env):
        a = yield from _register(cluster, "tenant-a", gpu=0, seed=77)
        b = yield from _register(cluster, "tenant-b", gpu=1, seed=77)
        a.model.update_step(1)
        # Same seed + step => identical bytes; then each tenant diverges
        # only its head.
        b.model.update_step(1)
        a.model.update_step(2, only=["head.weight", "head.bias"])
        first = yield from a.checkpoint(2)
        b.model.update_step(3, only=["head.weight", "head.bias"])
        second = yield from b.checkpoint(3)
        return first, second

    first, second = cluster.run(scenario)
    assert first["chunks_shared"] == 0
    # Tenant B found its backbone already stored by tenant A.
    assert second["chunks_shared"] > 0
    assert second["bytes_pulled"] < first["bytes_pulled"] / 2
    store = ChunkStore.attach(cluster.portus_pool)
    assert store.logical_bytes > store.stored_bytes


def test_drop_version_decrements_instead_of_freeing(cluster):
    """The third checkpoint overwrites the first's slot: shared chunks
    survive (refcount drops by one), distinct chunks are freed."""
    def scenario(env):
        session = yield from _register(cluster, "m")
        session.model.update_step(1)
        yield from session.checkpoint(1)
        session.model.update_step(2, only=["head.weight"])
        yield from session.checkpoint(2)
        session.model.update_step(3, only=["head.weight"])
        yield from session.checkpoint(3)
        return session

    cluster.run(scenario)
    entry = cluster.daemon.model_map["m"]
    store = ChunkStore.attach(cluster.portus_pool)
    flags = entry.meta.read_flags()
    assert sorted(flags.steps) == [2, 3]
    # Both manifests fully resolvable; backbone chunks counted twice.
    for version in (0, 1):
        for digest in entry.meta.layout.read_manifest(version):
            assert store.lookup(digest) is not None
    shared = [e for e in store.entries() if e.refcount >= 2]
    assert shared, "backbone chunks should be shared across versions"


def test_unregister_releases_all_references(cluster):
    def scenario(env):
        session = yield from _register(cluster, "m")
        session.model.update_step(1)
        yield from session.checkpoint(1)
        session.model.update_step(2)
        yield from session.checkpoint(2)
        yield from session.unregister()

    cluster.run(scenario)
    store = ChunkStore.attach(cluster.portus_pool)
    assert store.chunk_count == 0
    assert store.stored_bytes == 0


def test_daemon_restart_keeps_dedup_checkpoints(cluster):
    def phase1(env):
        session = yield from _register(cluster, "m")
        session.model.update_step(5)
        yield from session.checkpoint(5)
        return session

    old = cluster.run(phase1)
    model = old.model
    cluster.restart_daemon()

    def phase2(env):
        client = cluster.portus_client()
        session = yield from client.register(model, dedup=True,
                                             chunk_bytes=CHUNK)
        model.update_step(6)  # diverged weights to roll back
        step = yield from session.restore()
        return session, step

    session, step = cluster.run(phase2)
    assert step == 5
    contents = {t.name: t.content() for t in session.model.tensors}
    assert session.model.verify_against(contents, step=5) == []


def test_layout_mismatch_on_attach_rejected(cluster):
    plain = ModelInstance.materialize("p", SPECS, cluster.volta.gpus[1],
                                      model_seed=5)

    def phase1(env):
        session = yield from _register(cluster, "m")
        yield from session.checkpoint(0)
        yield from cluster.portus_register(plain)
        return session.model

    model = cluster.run(phase1)
    cluster.restart_daemon()

    def phase2(env):
        client = cluster.portus_client()
        with pytest.raises(PortusError):
            yield from client.register(model)  # contiguous attach
        with pytest.raises(PortusError):
            yield from client.register(model, dedup=True,
                                       chunk_bytes=2 * CHUNK)
        with pytest.raises(PortusError):
            yield from client.register(plain, dedup=True,
                                       chunk_bytes=CHUNK)
        return True

    assert cluster.run(phase2)


def test_repack_and_reattach_both_layouts(cluster):
    """One pool, a slot model and a dedup model, each dumped twice (the
    second time only the head): the offline repack drops the dedup
    model's stale references while the chunks its newest version shares
    survive, compaction moves only the slot model, and both re-attach
    and restore bit-exact on a pool that verifies clean."""
    plain = ModelInstance.materialize("plain", SPECS,
                                      cluster.volta.gpus[1], model_seed=5)

    def phase1(env):
        slot = yield from cluster.portus_register(plain)
        dedup = yield from _register(cluster, "dedup")
        for session in (slot, dedup):
            session.model.update_step(1)
            yield from session.checkpoint(1)
            session.model.update_step(2, only=HEAD)
            yield from session.checkpoint(2)
        return dedup.model

    deduped = cluster.run(phase1)
    layout = cluster.daemon.model_map["dedup"].meta.layout
    newest = layout.meta.read_flags().newest_done()
    kept = set(layout.read_manifest(newest))
    stale = set(layout.read_manifest(1 - newest)) - kept
    assert kept and stale
    cluster.kill_daemon()
    pool = PmemPool.open(cluster.server.pmem_devdax)

    report = cluster.run(lambda env: repack_live(env, pool))
    assert report.models_compacted == ["dedup", "plain"]
    assert report.models_migrated == ["plain"]
    store = ChunkStore.attach(pool)
    assert all(store.lookup(digest) is not None for digest in kept)
    assert all(store.lookup(digest) is None for digest in stale)
    assert fsck(pool).clean
    cluster.restart_daemon()

    def phase2(env):
        client = cluster.portus_client()
        steps = []
        for model, options in ((plain, {}),
                               (deduped, {"dedup": True,
                                          "chunk_bytes": CHUNK})):
            session = yield from client.register(model, **options)
            model.update_step(9)  # scramble: the restore rewrites all
            steps.append((yield from session.restore()))
        return steps

    assert cluster.run(phase2) == [2, 2]
    for model in (plain, deduped):
        for tensor in model.tensors:
            want = 2 if tensor.name in HEAD else 1
            assert tensor.content().equals(tensor.expected_content(want)), \
                f"{model.name}:{tensor.name}"
    assert fsck(cluster.portus_pool).clean


def test_chunk_bytes_without_dedup_rejected(cluster):
    def scenario(env):
        instance = ModelInstance.materialize(
            "m", SPECS, cluster.volta.gpus[0], model_seed=1)
        client = cluster.portus_client()
        with pytest.raises(PortusError):
            yield from client.register(instance, chunk_bytes=kib(64))
        return True

    assert cluster.run(scenario)


def test_spares_survive_a_quiescent_power_cycle_and_verify_clean():
    """Four head-only dumps after a full one: each commit from the third
    on keeps the displaced head chunks as spares.  A power failure
    between operations keeps them as refcount-0 entries, and fsck claims
    their extents instead of reporting leaks."""
    cluster = PaperCluster(seed=7, ampere_nodes=0)

    def scenario(env):
        session = yield from _register(cluster, "m")
        for step in range(1, 6):
            session.model.update_step(step, only=None if step == 1 else HEAD)
            yield from session.checkpoint(step)

    cluster.run(scenario)
    before = ChunkStore.attach(cluster.portus_pool).inventory()
    assert before["spares"] == 2 and before["spare_bytes"] > 0
    cluster.crash_server()
    pool = PmemPool.open(cluster.server.pmem_devdax)
    assert ChunkStore.attach(pool).inventory() == before
    report = fsck(pool)
    assert report.clean, report.describe()
    assert (report.checked["spares"], report.checked["spare_bytes"]) == \
        (before["spares"], before["spare_bytes"])


def test_repack_and_unregister_free_every_spare(cluster):
    """The offline and the online repack free the spares no write has
    taken, and so does a dedup model's UNREGISTER: no byte stays held
    for a checkpoint that will not come."""
    def dumps(env, name, seed):
        session = yield from _register(cluster, name, seed=seed)
        for step in range(1, 4):
            session.model.update_step(step, only=None if step == 1 else HEAD)
            yield from session.checkpoint(step)
        return session

    cluster.run(lambda env: dumps(env, "m", 77))
    cluster.kill_daemon()
    pool = PmemPool.open(cluster.server.pmem_devdax)
    spares = ChunkStore.attach(pool).spare_bytes
    assert ChunkStore.attach(pool).spare_count == 2
    assert repack(pool).bytes_reclaimed > spares
    assert ChunkStore.attach(pool).spare_count == 0
    pool.close()
    cluster.restart_daemon()

    session = cluster.run(lambda env: dumps(env, "n", 78))
    store = ChunkStore.attach(cluster.portus_pool)
    assert store.spare_count == 2
    assert repack_daemon(cluster.daemon).bytes_reclaimed > spares
    assert store.spare_count == 0
    cluster.run(lambda env: dumps(env, "o", 79))
    assert store.spare_count == 2
    cluster.run(lambda env: session.unregister())
    assert store.spare_count == 0
    assert fsck(cluster.portus_pool).clean
