"""Tests for the CheckFreq two-phase pipeline and its frequency tuner."""

import pytest

from repro.baselines import (CheckFreqPolicy, SyncCheckpointPolicy,
                             TorchSaveCheckpointer, recommend_frequency)
from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.dnn.training import TrainingJob
from repro.fs import LocalExtFilesystem
from repro.hw import ComputeNode
from repro.sim import Environment
from repro.units import SECOND, msecs, secs, usecs


def make_setup(tensor_mib=64):
    env = Environment()
    node = ComputeNode(env, "client", gpu_count=1)
    fs = LocalExtFilesystem(env, node.nvme)
    ckpt = TorchSaveCheckpointer(env, fs, node.cpus)
    specs = [TensorSpec("w", (tensor_mib * 1024 * 256,))]  # MiB of fp32
    model = ModelInstance.materialize("m", specs, node.gpus[0])
    return env, node, fs, ckpt, model


def test_checkfreq_persists_in_background():
    env, _node, fs, ckpt, model = make_setup()
    policy = CheckFreqPolicy(env, ckpt, frequency=5)
    job = TrainingJob(env, [model], iteration_ns=msecs(100), hook=policy)
    env.run_process(env.process(job.run(10)))
    assert policy.snapshots_taken == 2
    assert policy.persists_completed == 2
    assert policy.last_persisted_step == 10
    assert fs.exists("/checkpoints/m.pt")


def test_checkfreq_cheaper_than_sync():
    """Persist overlaps compute, so CheckFreq beats blocking torch.save."""
    env1, _n1, _fs1, ckpt1, model1 = make_setup()
    sync = SyncCheckpointPolicy(env1, ckpt1, frequency=5)
    job1 = TrainingJob(env1, [model1], iteration_ns=msecs(100), hook=sync)
    env1.run_process(env1.process(job1.run(20)))

    env2, _n2, _fs2, ckpt2, model2 = make_setup()
    cf = CheckFreqPolicy(env2, ckpt2, frequency=5)
    job2 = TrainingJob(env2, [model2], iteration_ns=msecs(100), hook=cf)
    env2.run_process(env2.process(job2.run(20)))

    assert job2.elapsed_ns < job1.elapsed_ns


def test_backlog_stalls_when_persist_exceeds_interval():
    """Checkpoint every iteration with a slow persist: the pipeline rule
    (one in-flight persist) must throttle training to persist speed."""
    env, _node, _fs, ckpt, model = make_setup(tensor_mib=256)
    policy = CheckFreqPolicy(env, ckpt, frequency=1)
    job = TrainingJob(env, [model], iteration_ns=msecs(10), hook=policy)
    env.run_process(env.process(job.run(8)))
    assert policy.stall_ns > 0
    util = job.utilization(job.started_at, job.finished_at)
    assert util < 0.5


def test_no_stall_when_interval_is_generous():
    env, _node, _fs, ckpt, model = make_setup(tensor_mib=16)
    policy = CheckFreqPolicy(env, ckpt, frequency=50)
    job = TrainingJob(env, [model], iteration_ns=msecs(50), hook=policy)
    env.run_process(env.process(job.run(100)))
    assert policy.persists_completed == 2
    assert policy.stall_ns == 0


def test_job_end_drains_pipeline():
    env, _node, fs, ckpt, model = make_setup()
    policy = CheckFreqPolicy(env, ckpt, frequency=10)
    job = TrainingJob(env, [model], iteration_ns=msecs(10), hook=policy)
    env.run_process(env.process(job.run(10)))
    # The run must not finish before the persist completed.
    assert policy.persists_completed == 1
    assert fs.exists("/checkpoints/m.pt")


# --- frequency tuner -----------------------------------------------------------


def test_recommend_frequency_meets_budget():
    iter_ns = msecs(100)
    snapshot_ns = msecs(20)
    persist_ns = secs(2)
    k = recommend_frequency(iter_ns, snapshot_ns, persist_ns,
                            overhead_budget=0.035)
    window = k * iter_ns
    stall = snapshot_ns + max(0, persist_ns - (window - snapshot_ns))
    assert stall / (window + stall) <= 0.035


def test_recommend_frequency_small_checkpoint_allows_every_iteration():
    k = recommend_frequency(msecs(100), usecs(100), msecs(50),
                            overhead_budget=0.035)
    assert k == 1


def test_recommend_frequency_rejects_bad_budget():
    with pytest.raises(ValueError):
        recommend_frequency(msecs(100), msecs(1), msecs(1),
                            overhead_budget=0)


def test_sync_policy_counts_and_stalls():
    env, _node, _fs, ckpt, model = make_setup()
    policy = SyncCheckpointPolicy(env, ckpt, frequency=2)
    job = TrainingJob(env, [model], iteration_ns=msecs(10), hook=policy)
    env.run_process(env.process(job.run(6)))
    assert policy.checkpoints_taken == 3
    assert policy.stall_ns > 0
    assert job.elapsed_ns > 6 * msecs(10)
