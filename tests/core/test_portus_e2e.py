"""End-to-end Portus tests: register / checkpoint / restore / recover."""

import pytest

from repro.core.consistency import valid_checkpoint
from repro.core.repack import repack
from repro.errors import (CheckpointInProgress, ModelNotFound,
                          NoValidCheckpoint, PortusError)
from repro.harness.cluster import PaperCluster
from repro.units import gbytes, to_seconds


@pytest.fixture
def cluster():
    return PaperCluster(seed=1)


def test_register_builds_index(cluster):
    def scenario(env):
        session = yield from cluster.portus_register("resnet50")
        return session

    session = cluster.run(scenario)
    assert cluster.daemon.models() == ["resnet50"]
    entry = cluster.daemon.model_map["resnet50"]
    assert entry.meta.mindex.layer_count == 161
    assert entry.attached
    # Client registered one MR per tensor.
    assert len(session.mrs) == 161


def test_checkpoint_persists_exact_bytes(cluster):
    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        session.model.update_step(5)
        reply = yield from session.checkpoint(5)
        return session, reply

    session, reply = cluster.run(scenario)
    assert reply["step"] == 5
    entry = cluster.daemon.model_map["alexnet"]
    version, step = valid_checkpoint(entry.meta)
    assert step == 5
    # Every tensor's bytes on PMem match the step-5 weights exactly.
    for tensor, descriptor in zip(session.model.tensors,
                                  entry.meta.mindex.descriptors):
        stored = entry.meta.read_tensor(descriptor, version)
        assert stored.equals(tensor.expected_content(5))


def test_restore_roundtrip_bit_exact(cluster):
    def scenario(env):
        session = yield from cluster.portus_register("resnet50")
        session.model.update_step(30)
        yield from session.checkpoint(30)
        session.model.update_step(45)  # training continues...
        step = yield from session.restore()  # ...then rolls back
        return session, step

    session, step = cluster.run(scenario)
    assert step == 30
    contents = {t.name: t.content() for t in session.model.tensors}
    assert session.model.verify_against(contents, step=30) == []


def test_double_mapping_keeps_previous_version(cluster):
    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        session.model.update_step(1)
        yield from session.checkpoint(1)
        session.model.update_step(2)
        yield from session.checkpoint(2)
        return session

    cluster.run(scenario)
    entry = cluster.daemon.model_map["alexnet"]
    flags = entry.meta.read_flags()
    # Both versions are DONE, holding steps 1 and 2.
    assert sorted(flags.steps) == [1, 2]
    version, step = valid_checkpoint(entry.meta)
    assert step == 2


def test_restore_without_checkpoint_fails(cluster):
    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        with pytest.raises(NoValidCheckpoint):
            yield from session.restore()
        return True

    assert cluster.run(scenario)


def test_checkpoint_unknown_model_fails(cluster):
    from repro.core import protocol

    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        message, size = protocol.do_checkpoint("ghost", 1)
        yield from session.conn.send(message, wire_size=size)
        reply = yield from session.conn.recv()
        return reply

    reply = cluster.run(scenario)
    assert isinstance(reply["error"], ModelNotFound)


def test_concurrent_checkpoints_same_model_rejected(cluster):
    """The per-entry CAS guard: a second DO_CHECKPOINT for a model with
    one already in flight is refused."""
    from repro.core import protocol

    def scenario(env):
        session = yield from cluster.portus_register("vit_l_32")
        session.model.update_step(1)
        message, size = protocol.do_checkpoint("vit_l_32", 1)
        yield from session.conn.send(message, wire_size=size)
        yield from session.conn.send(message, wire_size=size)
        first = yield from session.conn.recv()
        second = yield from session.conn.recv()
        return first, second

    first, second = cluster.run(scenario)
    replies = [first, second]
    errors = [r for r in replies if r["op"] == "ERROR"]
    done = [r for r in replies if r["op"] == "CHECKPOINT_DONE"]
    assert len(errors) == 1 and len(done) == 1
    assert isinstance(errors[0]["error"], CheckpointInProgress)


def test_multi_tenant_models_checkpoint_concurrently(cluster):
    """Different models are independent: two concurrent checkpoints both
    succeed, sharing the wire fairly."""
    from repro.sim import AllOf

    def scenario(env):
        session_a = yield from cluster.portus_register("vgg19_bn", gpu=0)
        session_b = yield from cluster.portus_register("swin_b", gpu=1)
        session_a.model.update_step(1)
        session_b.model.update_step(1)
        jobs = [env.process(session_a.checkpoint(1)),
                env.process(session_b.checkpoint(1))]
        yield AllOf(env, jobs)
        return session_a, session_b

    cluster.run(scenario)
    assert cluster.obs.metrics.value("daemon.checkpoints_completed") == 2


def test_checkpoint_speed_near_bar_bandwidth(cluster):
    """Single-GPU pull rate ~= 5.8 GB/s (the BAR read cap)."""
    def scenario(env):
        session = yield from cluster.portus_register("bert_large")
        session.model.update_step(1)
        start = env.now
        yield from session.checkpoint(1)
        return env.now - start, session.model.total_bytes

    elapsed, size = cluster.run(scenario)
    rate = size / to_seconds(elapsed)
    assert rate == pytest.approx(gbytes(5.8), rel=0.05)


def test_restore_faster_than_checkpoint(cluster):
    """Writes to GPU are not BAR-limited, so restore beats checkpoint."""
    def scenario(env):
        session = yield from cluster.portus_register("bert_large")
        session.model.update_step(1)
        start = env.now
        yield from session.checkpoint(1)
        ckpt_ns = env.now - start
        start = env.now
        yield from session.restore()
        restore_ns = env.now - start
        return ckpt_ns, restore_ns

    ckpt_ns, restore_ns = cluster.run(scenario)
    assert restore_ns < ckpt_ns


def test_unregister_frees_pmem(cluster):
    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        session.model.update_step(1)
        yield from session.checkpoint(1)
        used = cluster.portus_pool.used_bytes
        yield from session.unregister()
        return used

    used_before = cluster.run(scenario)
    assert cluster.daemon.models() == []
    assert cluster.portus_pool.used_bytes < used_before


def test_daemon_restart_recovers_index_and_restores(cluster):
    """Daemon restart: ModelMap rebuilt from PMem; a re-attached client
    restores the exact pre-restart weights."""
    def phase1(env):
        session = yield from cluster.portus_register("resnet50")
        session.model.update_step(77)
        yield from session.checkpoint(77)
        return session

    old_session = cluster.run(phase1)
    model = old_session.model
    cluster.restart_daemon()
    assert cluster.daemon.models() == ["resnet50"]

    def phase2(env):
        # Simulate a fresh process: construct an "empty" model with the
        # same specs (here we reuse the GPU allocations) and re-attach.
        client = cluster.portus_client()
        session = yield from client.register(model)
        model.update_step(99)  # diverged weights to be rolled back
        step = yield from session.restore()
        return session, step

    session, step = cluster.run(phase2)
    assert step == 77
    contents = {t.name: t.content() for t in session.model.tensors}
    assert session.model.verify_against(contents, step=77) == []


def test_attach_with_mismatched_specs_rejected(cluster):
    def phase1(env):
        session = yield from cluster.portus_register("alexnet")
        yield from session.checkpoint(1)

    cluster.run(phase1)
    cluster.restart_daemon()

    def phase2(env):
        # Register a different architecture under the same name.
        instance = cluster.materialize("resnet50", gpu=1,
                                       instance_name="alexnet")
        client = cluster.portus_client()
        with pytest.raises(PortusError):
            yield from client.register(instance)
        return True

    assert cluster.run(phase2)


def test_crash_during_checkpoint_keeps_previous_version(cluster):
    """Power loss mid-pull: after recovery the previous DONE checkpoint
    is still restorable and bit-exact (the double-mapping guarantee)."""
    def phase1(env):
        session = yield from cluster.portus_register("alexnet")
        session.model.update_step(10)
        yield from session.checkpoint(10)
        # Start the second checkpoint but crash mid-pull.
        session.model.update_step(20)
        from repro.core import protocol
        message, size = protocol.do_checkpoint("alexnet", 20)
        yield from session.conn.send(message, wire_size=size)
        yield env.timeout(1_000_000)  # 1 ms into a ~40 ms pull
        return session

    session = cluster.run(phase1)
    model = session.model
    cluster.crash_server()
    cluster.restart_daemon()

    def phase2(env):
        client = cluster.portus_client()
        new_session = yield from client.register(model)
        step = yield from new_session.restore()
        return new_session, step

    new_session, step = cluster.run(phase2)
    assert step == 10
    contents = {t.name: t.content() for t in new_session.model.tensors}
    assert new_session.model.verify_against(contents, step=10) == []


def test_repack_after_finished_job(cluster):
    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        session.model.update_step(1)
        yield from session.checkpoint(1)
        session.model.update_step(2)
        yield from session.checkpoint(2)

    cluster.run(scenario)
    used_before = cluster.portus_pool.used_bytes
    report = repack(cluster.portus_pool, cluster.daemon.table)
    assert report.models_compacted == ["alexnet"]
    assert report.bytes_reclaimed > 0
    assert cluster.portus_pool.used_bytes < used_before
    # The surviving version is still restorable.
    entry_meta = cluster.daemon.model_map["alexnet"].meta
    reopened = type(entry_meta).open(cluster.portus_pool,
                                     entry_meta.meta.addr)
    assert valid_checkpoint(reopened)[1] == 2
