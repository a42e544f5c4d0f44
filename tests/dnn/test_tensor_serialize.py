"""Tests for tensors on devices and the torch.save-like format."""

import pytest

from repro.dnn.dtypes import float16, float32
from repro.dnn.models import build_model
from repro.dnn.optimizer import optimizer_state_specs
from repro.dnn.serialize import (deserialize_state_dict, file_size_for,
                                 serialization_time_ns,
                                 serialize_state_dict)
from repro.dnn.tensor import ModelInstance, TensorSpec, tensor_seed
from repro.hw import GpuMemory
from repro.sim import Environment
from repro.units import gib


@pytest.fixture
def gpu():
    env = Environment()
    return GpuMemory(env, capacity=gib(8))


def small_model(gpu, name="tiny", seed=3):
    specs = [TensorSpec("layer0.weight", (64, 32)),
             TensorSpec("layer0.bias", (64,)),
             TensorSpec("head.weight", (10, 64), float16)]
    return ModelInstance.materialize(name, specs, gpu, model_seed=seed)


# --- specs and tensors ------------------------------------------------------------


def test_spec_size_accounts_dtype():
    assert TensorSpec("w", (4, 4), float32).size_bytes == 64
    assert TensorSpec("w", (4, 4), float16).size_bytes == 32


def test_spec_rejects_bad_shapes():
    with pytest.raises(ValueError):
        TensorSpec("w", (0, 4))
    with pytest.raises(ValueError):
        TensorSpec("", (4,))


def test_materialize_allocates_on_device(gpu):
    model = small_model(gpu)
    assert gpu.used_bytes >= model.total_bytes
    model.free()
    assert gpu.used_bytes == 0


def test_update_step_changes_content(gpu):
    model = small_model(gpu)
    tensor = model.tensors[0]
    before = tensor.content()
    version_before = tensor.allocation.version
    model.update_step(1)
    assert tensor.allocation.version > version_before
    assert not tensor.content().equals(before)


def test_content_is_deterministic_per_step(gpu):
    model = small_model(gpu)
    model.update_step(5)
    expected = model.tensors[0].expected_content(5)
    assert model.tensors[0].content().equals(expected)


def test_tensor_seed_distinguishes_everything():
    assert tensor_seed(1, "a", 0) != tensor_seed(1, "b", 0)
    assert tensor_seed(1, "a", 0) != tensor_seed(1, "a", 1)
    assert tensor_seed(1, "a", 0) != tensor_seed(2, "a", 0)


def test_verify_against_detects_mismatch(gpu):
    model = small_model(gpu)
    model.update_step(2)
    contents = {t.name: t.expected_content(2) for t in model.tensors}
    assert model.verify_against(contents) == []
    contents["layer0.bias"] = model.tensors[0].expected_content(1)
    assert model.verify_against(contents) == ["layer0.bias"]


# --- serialization ------------------------------------------------------------------


def test_serialize_roundtrip(gpu):
    model = small_model(gpu)
    model.update_step(7)
    image = serialize_state_dict(model.tensors)
    parsed = deserialize_state_dict(image)
    assert set(parsed) == {t.name for t in model.tensors}
    for tensor in model.tensors:
        spec, payload = parsed[tensor.name]
        assert spec == tensor.spec
        assert payload.equals(tensor.expected_content(7))


def test_file_size_matches_image(gpu):
    model = small_model(gpu)
    image = serialize_state_dict(model.tensors)
    assert image.size == file_size_for([t.spec for t in model.tensors])


def test_deserialize_rejects_garbage():
    from repro.hw.content import ByteContent
    with pytest.raises(ValueError, match="magic"):
        deserialize_state_dict(ByteContent(b"not a checkpoint" + bytes(32)))


def test_serialization_cost_scales():
    small = serialization_time_ns(int(100e6), 100)
    large = serialization_time_ns(int(1e9), 100)
    assert large > 9 * small


def test_serialize_full_resnet_image(gpu):
    model_spec = build_model("resnet50")
    model = ModelInstance.materialize("resnet50", model_spec.tensors, gpu)
    image = serialize_state_dict(model.tensors)
    assert image.size > model_spec.total_bytes
    parsed = deserialize_state_dict(image)
    assert len(parsed) == 161


# --- optimizer specs ----------------------------------------------------------------


def test_sgd_momentum_doubles_state():
    params = build_model("resnet50").tensors
    extra = optimizer_state_specs(params, "sgd_momentum")
    assert len(extra) == len(params)
    assert sum(s.size_bytes for s in extra) == sum(
        s.size_bytes for s in params)


def test_adam_state_triples_plus_steps():
    params = [TensorSpec("w", (8, 8))]
    extra = optimizer_state_specs(params, "adam")
    assert len(extra) == 3
    names = {s.name for s in extra}
    assert names == {"optimizer.exp_avg.w", "optimizer.exp_avg_sq.w",
                     "optimizer.step.w"}


def test_plain_sgd_adds_nothing():
    params = [TensorSpec("w", (8, 8))]
    assert optimizer_state_specs(params, "sgd") == []


def test_unknown_optimizer_rejected():
    with pytest.raises(ValueError, match="unknown optimizer"):
        optimizer_state_specs([], "adamw2")
