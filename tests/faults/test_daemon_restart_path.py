"""End-to-end coverage of the daemon restart path: a successor daemon
opens the pool, recovers the ModelTable into a fresh ModelMap, validates
the client's re-attach against the persisted index, and serves a
bit-exact restore — with no duplicate PMem allocation."""

import random

import pytest

from repro.core.index import FLAG_ACTIVE, FLAG_DONE
from repro.core.retry import RetryPolicy
from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.errors import PortusError
from repro.harness.cluster import PaperCluster
from repro.units import msecs, usecs

SPECS = [TensorSpec("block.weight", (512, 256)),
         TensorSpec("block.bias", (512,)),
         TensorSpec("head.weight", (16, 512))]


def seeded_cluster(retry=False):
    policy = RetryPolicy(rng=random.Random(11)) if retry else None
    return PaperCluster(seed=11, ampere_nodes=0, client_retry=policy)


def test_restart_recovers_index_and_serves_bit_exact_restore():
    cluster = seeded_cluster()
    state = {}

    def before(env):
        instance = ModelInstance.materialize("model", SPECS,
                                             cluster.volta.gpus[0],
                                             model_seed=11)
        session = yield from cluster.portus_client().register(instance)
        state["model"] = instance
        for step in (1, 2):  # both version slots end up DONE
            instance.update_step(step)
            yield from session.checkpoint(step)

    cluster.run(before)
    used_before = cluster.server.pmem_devdax.used_bytes
    old_daemon = cluster.daemon
    cluster.restart_daemon()
    assert cluster.daemon is not old_daemon
    assert old_daemon.stopped
    assert cluster.daemon.port == old_daemon.port  # same endpoint
    # _open_or_create_table took the recovery path: the ModelMap was
    # rebuilt from the persistent table, not re-created.
    assert cluster.daemon.models() == ["model"]
    entry = cluster.daemon.model_map["model"]
    assert not entry.attached  # DRAM session state did not survive
    flags = entry.meta.read_flags()
    assert sorted(flags.states) == [FLAG_DONE, FLAG_DONE]
    assert sorted(flags.steps) == [1, 2]

    def after(env):
        # Re-attach (validated against the persisted index), then wind
        # the weights back and restore.
        session = yield from cluster.portus_client().register(state["model"])
        state["model"].update_step(99)
        step = yield from session.restore()
        return step

    assert cluster.run(after) == 2
    for tensor in state["model"].tensors:
        assert tensor.content().equals(tensor.expected_content(2))
    # Re-attach reused the persisted regions: no new PMem allocation.
    assert cluster.server.pmem_devdax.used_bytes == used_before


def test_restart_with_interrupted_pull_leaves_active_slot_untrusted():
    cluster = seeded_cluster(retry=True)

    def before(env):
        instance = ModelInstance.materialize("model", SPECS,
                                             cluster.volta.gpus[0],
                                             model_seed=11)
        session = yield from cluster.portus_client().register(instance)
        instance.update_step(1)
        yield from session.checkpoint(1)
        instance.update_step(2)
        ckpt = env.process(session.checkpoint(2), name="interrupted")
        yield env.timeout(usecs(40))
        assert not ckpt.triggered
        cluster.kill_daemon()  # dies mid-pull; slot 2's target is ACTIVE
        yield env.timeout(usecs(200))
        cluster.restart_daemon()
        # The retrying client finishes step 2 against the successor.
        reply = yield ckpt
        return instance, reply

    instance, reply = cluster.run(before)
    assert reply["step"] == 2
    entry = cluster.daemon.model_map["model"]
    version, step = entry.meta.restorable()
    assert step == 2
    for tensor, descriptor in zip(instance.tensors,
                                  entry.meta.mindex.descriptors):
        assert entry.meta.read_tensor(descriptor, version).equals(
            tensor.expected_content(2))


def test_restart_rejects_mismatched_reattach():
    cluster = seeded_cluster()

    def before(env):
        instance = ModelInstance.materialize("model", SPECS,
                                             cluster.volta.gpus[0],
                                             model_seed=11)
        session = yield from cluster.portus_client().register(instance)
        instance.update_step(1)
        yield from session.checkpoint(1)

    cluster.run(before)
    cluster.restart_daemon()

    def after(env):
        impostor = ModelInstance.materialize(
            "model", [TensorSpec("other.weight", (64, 64))],
            cluster.volta.gpus[1], model_seed=12)
        with pytest.raises(PortusError):
            yield from cluster.portus_client().register(impostor)
        return True

    assert cluster.run(after)


def test_double_restart_is_idempotent():
    cluster = seeded_cluster()

    def before(env):
        instance = ModelInstance.materialize("model", SPECS,
                                             cluster.volta.gpus[0],
                                             model_seed=11)
        session = yield from cluster.portus_client().register(instance)
        instance.update_step(1)
        yield from session.checkpoint(1)
        return instance

    instance = cluster.run(before)
    cluster.restart_daemon()
    cluster.restart_daemon()  # back-to-back restarts must not corrupt
    assert cluster.daemon.models() == ["model"]

    def after(env):
        session = yield from cluster.portus_client().register(instance)
        return (yield from session.restore())

    assert cluster.run(after) == 1
