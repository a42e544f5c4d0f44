"""Tests for the torch.save baseline against the three storage targets."""

import pytest

from repro.baselines import TorchSaveCheckpointer
from repro.dnn.models import build_model
from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.fs import DaxFilesystem, LocalExtFilesystem
from repro.fs.beegfs import BeegfsClient, BeegfsServer
from repro.hw import ComputeNode, StorageNode
from repro.net import Fabric
from repro.obs import Observability
from repro.rdma import Rnic
from repro.sim import Environment
from repro.units import MIB, gbytes, gib, mib


def make_local_setup():
    env = Environment()
    node = ComputeNode(env, "client", gpu_count=1)
    fs = LocalExtFilesystem(env, node.nvme)
    return env, node, fs


def make_beegfs_setup(tracing=False):
    env = Environment()
    obs = Observability(tracing=tracing)
    fabric = Fabric(env)
    server_node = StorageNode(env, "server")
    Rnic(env, server_node, fabric)
    backing = DaxFilesystem(env, server_node.pmem_fsdax, obs=obs)
    server = BeegfsServer(env, server_node, backing)
    node = ComputeNode(env, "client", gpu_count=1)
    Rnic(env, node, fabric)
    holder = {}

    def setup(env):
        holder["fs"] = yield from BeegfsClient.mount(env, node, server,
                                                     obs=obs)

    env.run_process(env.process(setup(env)))
    return env, node, holder["fs"]


def materialize(node, name="resnet50", seed=1):
    spec = build_model(name)
    return ModelInstance.materialize(name, spec.tensors, node.gpus[0],
                                     model_seed=seed)


def test_checkpoint_then_restore_roundtrip_local():
    env, node, fs = make_local_setup()
    ckpt = TorchSaveCheckpointer(env, fs, node.cpus)
    model = materialize(node)

    def scenario(env):
        model.update_step(12)
        yield from ckpt.checkpoint(model)
        model.update_step(20)  # training continued; now crash + restore
        restored = yield from ckpt.restore(model)
        return model.verify_against(restored, step=12)

    assert env.run_process(env.process(scenario(env))) == []


def test_checkpoint_roundtrip_over_beegfs():
    env, node, fs = make_beegfs_setup()
    ckpt = TorchSaveCheckpointer(env, fs, node.cpus)
    model = materialize(node)

    def scenario(env):
        model.update_step(3)
        yield from ckpt.checkpoint(model)
        restored = yield from ckpt.restore(model)
        return model.verify_against(restored, step=3)

    assert env.run_process(env.process(scenario(env))) == []


def test_checkpoint_file_uses_tmp_rename():
    env, node, fs = make_local_setup()
    ckpt = TorchSaveCheckpointer(env, fs, node.cpus)
    model = materialize(node)

    def scenario(env):
        yield from ckpt.checkpoint(model)
        return True

    env.run_process(env.process(scenario(env)))
    assert fs.exists("/checkpoints/resnet50.pt")
    assert not fs.exists("/checkpoints/resnet50.pt.tmp")


def test_breakdown_ledger_covers_all_phases():
    """The checkpointer's phase spans cover every phase of the path."""
    env, node, fs = make_beegfs_setup(tracing=True)
    ckpt = TorchSaveCheckpointer(env, fs, node.cpus)
    model = materialize(node, "bert_large")

    def scenario(env):
        yield from ckpt.checkpoint(model)
        return True

    env.run_process(env.process(scenario(env)))
    phases = {phase: fs.obs.tracer.total_ns(f"torch_save.{phase}")
              for phase in ("gpu_to_dram", "serialization", "fs_write")}
    assert phases["gpu_to_dram"] > 0
    assert phases["serialization"] > 0
    assert phases["fs_write"] > 0
    # Serialization dominates the baseline path (Table I: 41.7%).
    assert phases["serialization"] > phases["gpu_to_dram"]


def test_bert_checkpoint_rate_matches_calibration():
    """Whole-path effective rate ~0.72 GB/s (1.386 ns per byte)."""
    env, node, fs = make_beegfs_setup()
    ckpt = TorchSaveCheckpointer(env, fs, node.cpus)
    model = materialize(node, "bert_large")

    def scenario(env):
        start = env.now
        yield from ckpt.checkpoint(model)
        return env.now - start

    elapsed = env.run_process(env.process(scenario(env)))
    rate = model.total_bytes / (elapsed / 1e9)
    assert rate == pytest.approx(gbytes(1 / 1.386), rel=0.06)


def test_restore_faster_on_local_nvme_than_beegfs():
    """Fig 12 shape: with GDS, local ext4 restores beat remote BeeGFS."""
    env_l, node_l, fs_l = make_local_setup()
    ckpt_l = TorchSaveCheckpointer(env_l, fs_l, node_l.cpus)
    model_l = materialize(node_l, "vit_l_32")

    def timed(env, ckpt, model):
        yield from ckpt.checkpoint(model)
        start = env.now
        yield from ckpt.restore(model)
        return env.now - start

    local_ns = env_l.run_process(
        env_l.process(timed(env_l, ckpt_l, model_l)))

    env_b, node_b, fs_b = make_beegfs_setup()
    ckpt_b = TorchSaveCheckpointer(env_b, fs_b, node_b.cpus)
    model_b = materialize(node_b, "vit_l_32")
    beegfs_ns = env_b.run_process(
        env_b.process(timed(env_b, ckpt_b, model_b)))
    assert local_ns < beegfs_ns


def test_many_small_tensors_pay_more_overhead():
    """Per-record costs: same bytes, more tensors -> slower checkpoint."""
    env, node, fs = make_beegfs_setup()
    ckpt = TorchSaveCheckpointer(env, fs, node.cpus)
    few = ModelInstance.materialize(
        "few", [TensorSpec("w", (4096, 1024))], node.gpus[0])
    many_specs = [TensorSpec(f"w{i}", (64, 1024)) for i in range(64)]
    many = ModelInstance.materialize("many", many_specs, node.gpus[0])
    assert few.total_bytes == many.total_bytes

    def timed(env, model):
        start = env.now
        yield from ckpt.checkpoint(model)
        return env.now - start

    few_ns = env.run_process(env.process(timed(env, few)))
    many_ns = env.run_process(env.process(timed(env, many)))
    assert many_ns > few_ns
