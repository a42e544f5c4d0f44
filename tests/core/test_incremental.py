"""Tests for incremental checkpointing (dirty-tensor pulls)."""

import pytest

from repro.core.consistency import valid_checkpoint
from repro.harness.cluster import PaperCluster


HEAD = "fc.weight"


def test_incremental_pulls_only_dirty_and_stays_complete():
    """Fine-tuning ResNet50's head: the second checkpoint pulls only the
    head tensors, yet the stored version is complete and correct."""
    cluster = PaperCluster(seed=50)

    def scenario(env):
        session = yield from cluster.portus_register("resnet50")
        model = session.model
        model.update_step(1)
        yield from session.checkpoint(1)
        metrics = cluster.obs.metrics
        pulled_before = metrics.value("daemon.bytes_pulled")
        # Only the classifier head trains.
        dirty = ["fc.weight", "fc.bias"]
        model.update_step(2, only=dirty)
        yield from session.checkpoint(2, dirty=dirty)
        pulled = metrics.value("daemon.bytes_pulled") - pulled_before
        return session, dirty, pulled

    session, dirty, pulled = cluster.run(scenario)
    head_bytes = sum(t.size_bytes for t in session.model.tensors
                     if t.name in dirty)
    assert pulled == head_bytes  # only the dirty bytes crossed the wire

    entry = cluster.daemon.model_map["resnet50"]
    version, step = valid_checkpoint(entry.meta)
    assert step == 2
    # Every tensor in the new version is correct: dirty ones at step 2,
    # frozen ones carrying their step-1 bytes.
    for tensor, descriptor in zip(session.model.tensors,
                                  entry.meta.mindex.descriptors):
        stored = entry.meta.read_tensor(descriptor, version)
        expected_step = 2 if tensor.name in dirty else 1
        assert stored.equals(tensor.expected_content(expected_step)), \
            tensor.name


def test_incremental_restore_roundtrip():
    cluster = PaperCluster(seed=51)

    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        model = session.model
        model.update_step(1)
        yield from session.checkpoint(1)
        dirty = ["classifier.6.weight", "classifier.6.bias"]
        model.update_step(2, only=dirty)
        yield from session.checkpoint(2, dirty=dirty)
        # Trash everything, restore, verify per-tensor.
        for tensor in model.tensors:
            tensor.set_step(99)
        step = yield from session.restore()
        bad = []
        for tensor in model.tensors:
            expected_step = 2 if tensor.name in dirty else 1
            if not tensor.content().equals(
                    tensor.expected_content(expected_step)):
                bad.append(tensor.name)
        return step, bad

    step, bad = cluster.run(scenario)
    assert step == 2
    assert bad == []


def test_incremental_without_previous_version_falls_back_to_full():
    cluster = PaperCluster(seed=52)

    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        session.model.update_step(1)
        # First checkpoint ever, but marked incremental: nothing to copy
        # from, so everything must be pulled.
        yield from session.checkpoint(1, dirty=["classifier.6.bias"])
        return session

    session = cluster.run(scenario)
    assert (cluster.obs.metrics.value("daemon.bytes_pulled")
            == session.model.total_bytes)


def test_incremental_much_faster_for_frozen_backbone():
    cluster = PaperCluster(seed=53)

    def scenario(env):
        session = yield from cluster.portus_register("vit_l_32")
        model = session.model
        model.update_step(1)
        start = env.now
        yield from session.checkpoint(1)
        full_ns = env.now - start
        dirty = ["heads.head.weight", "heads.head.bias"]
        model.update_step(2, only=dirty)
        start = env.now
        yield from session.checkpoint(2, dirty=dirty)
        incremental_ns = env.now - start
        return full_ns, incremental_ns

    full_ns, incremental_ns = cluster.run(scenario)
    # The local PMem copy (~8.4 GB/s interleaved write, no network, no
    # BAR) replaces the 5.8 GB/s pull: a solid constant-factor win.
    assert incremental_ns < full_ns * 0.75
