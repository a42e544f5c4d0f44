"""Full-stack integration: training + checkpointing + failure + restart."""

import pytest

from repro.baselines import CheckFreqPolicy, TorchSaveCheckpointer
from repro.core.async_ckpt import PortusAsyncPolicy
from repro.core.repack import repack_daemon
from repro.dnn.gpt import GPT_CONFIGS, shard_gpt
from repro.dnn.models import build_model
from repro.dnn.tensor import ModelInstance
from repro.dnn.training import TrainingJob
from repro.harness.cluster import PaperCluster
from repro.sim import AllOf
from repro.units import msecs


def test_checkfreq_end_to_end_restore_after_training():
    """CheckFreq trains, persists in the background, and the file on the
    shared FS restores the exact step it claims."""
    cluster = PaperCluster(seed=30)
    state = {}

    def train(env):
        mount = yield from cluster.beegfs_mount()
        checkpointer = TorchSaveCheckpointer(env, mount,
                                             cluster.volta.cpus)
        model = cluster.materialize("resnet50")
        policy = CheckFreqPolicy(env, checkpointer, frequency=3)
        job = TrainingJob(env, [model], iteration_ns=msecs(120),
                          hook=policy)
        yield from job.run(9)
        state.update(model=model, checkpointer=checkpointer,
                     policy=policy)

    cluster.run(train)
    assert state["policy"].last_persisted_step == 9

    def restore(env):
        model = state["model"]
        model.update_step(999)  # diverge, then roll back
        restored = yield from state["checkpointer"].restore(model)
        return model.verify_against(restored, step=9)

    assert cluster.run(restore) == []


def test_portus_training_survives_daemon_restart_between_epochs():
    """Train + checkpoint, restart the daemon (no crash), keep training
    with a re-attached session, checkpoint again, restore the new step."""
    cluster = PaperCluster(seed=31)
    state = {}

    def epoch1(env):
        session = yield from cluster.portus_register("vgg19_bn")
        policy = PortusAsyncPolicy(env, [session], frequency=2)
        spec = build_model("vgg19_bn")
        job = TrainingJob(env, [session.model],
                          iteration_ns=spec.iteration_ns, hook=policy)
        yield from job.run(4)
        state["model"] = session.model

    cluster.run(epoch1)
    cluster.restart_daemon()

    def epoch2(env):
        client = cluster.portus_client()
        session = yield from client.register(state["model"])
        policy = PortusAsyncPolicy(env, [session], frequency=2)
        spec = build_model("vgg19_bn")
        job = TrainingJob(env, [session.model],
                          iteration_ns=spec.iteration_ns, hook=policy)
        # Continue from step 4.
        yield from job.run(4)
        # job.run counts from 1; fix up the absolute step by stamping a
        # final checkpoint explicitly.
        session.model.update_step(8)
        yield from session.checkpoint(8)
        step = yield from session.restore()
        contents = {t.name: t.content()
                    for t in session.model.tensors}
        return step, session.model.verify_against(contents, step=8)

    step, mismatched = cluster.run(epoch2)
    assert step == 8
    assert mismatched == []


def test_gpt_distributed_training_with_portus_checkpoints():
    """Sixteen shards train in lockstep with async Portus checkpointing;
    every shard's persisted data matches the checkpointed step."""
    cluster = PaperCluster(seed=32)
    config = GPT_CONFIGS["gpt-1.5b"]
    state = {}

    def scenario(env):
        shards = shard_gpt(config, tensor_parallel=8, pipeline_parallel=2)
        instances = []
        sessions = []
        for index, shard in enumerate(shards):
            node = cluster.amperes[index // 8]
            instance = ModelInstance.materialize(
                shard.name, shard.tensors, node.gpus[index % 8],
                model_seed=index)
            session = yield from cluster.portus_register(instance,
                                                         node=node)
            instances.append(instance)
            sessions.append(session)
        policy = PortusAsyncPolicy(env, sessions, frequency=2)
        job = TrainingJob(env, instances,
                          iteration_ns=config.iteration_ns(), hook=policy)
        yield from job.run(4)
        state.update(instances=instances, sessions=sessions, job=job)

    cluster.run(scenario)
    assert cluster.obs.metrics.value("daemon.checkpoints_completed") == 2 * 16
    for instance in state["instances"]:
        entry = cluster.daemon.model_map[instance.name]
        version, step = entry.meta.restorable()
        assert step == 4
        descriptor = entry.meta.mindex.descriptors[0]
        stored = entry.meta.read_tensor(descriptor, version)
        expected = instance.state_dict()[descriptor.name] \
            .expected_content(4)
        assert stored.equals(expected)


def test_repack_with_live_jobs_skips_them():
    cluster = PaperCluster(seed=33)

    def scenario(env):
        live = yield from cluster.portus_register("alexnet", gpu=0)
        done = yield from cluster.portus_register("resnet50", gpu=1)
        for session in (live, done):
            session.model.update_step(1)
            yield from session.checkpoint(1)
            session.model.update_step(2)
            yield from session.checkpoint(2)

    cluster.run(scenario)
    report = repack_daemon(cluster.daemon, skip=["alexnet"])
    assert report.models_compacted == ["resnet50"]
    # The live job keeps both versions for the next ping-pong.
    entry = cluster.daemon.model_map["alexnet"]
    assert all(region is not None for region in entry.meta.layout.regions)


def test_multi_tenant_concurrent_training_all_verified():
    """Three tenants with different models/frequencies; every persisted
    checkpoint bit-matches its tenant's weights."""
    cluster = PaperCluster(seed=34)
    tenants = [("alexnet", 0, 1), ("resnet50", 1, 2), ("swin_b", 2, 3)]
    state = {}

    def scenario(env):
        procs = []
        sessions = {}
        for model_name, gpu, freq in tenants:
            session = yield from cluster.portus_register(model_name,
                                                         gpu=gpu)
            policy = PortusAsyncPolicy(env, [session], frequency=freq)
            job = TrainingJob(env, [session.model],
                              iteration_ns=msecs(100), hook=policy)
            sessions[model_name] = session
            procs.append(env.process(job.run(6)))
        yield AllOf(env, procs)
        state["sessions"] = sessions

    cluster.run(scenario)
    for model_name, _gpu, freq in tenants:
        entry = cluster.daemon.model_map[model_name]
        version, step = entry.meta.restorable()
        assert step == (6 // freq) * freq
        session = state["sessions"][model_name]
        for tensor, descriptor in zip(session.model.tensors,
                                      entry.meta.mindex.descriptors):
            stored = entry.meta.read_tensor(descriptor, version)
            assert stored.equals(tensor.expected_content(step))
            break  # first tensor per model is enough here
