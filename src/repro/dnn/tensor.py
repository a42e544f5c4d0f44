"""Tensors and model instances resident on simulated devices.

A :class:`TensorSpec` is pure metadata (name, shape, dtype) — the unit
the Portus MIndex records.  A :class:`Tensor` is a spec bound to a device
allocation whose content is a deterministic pattern derived from
``(model seed, tensor name, step)``, so after any checkpoint/restore
round trip the restored bytes can be verified exactly, at any model
scale, without materializing them.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dnn.dtypes import DType, float32
from repro.hw.content import Content, PatternContent
from repro.hw.device import Allocation, MemoryDevice


class TensorSpec:
    """Name, shape, dtype: everything the index needs to describe a tensor."""

    def __init__(self, name: str, shape: Tuple[int, ...],
                 dtype: DType = float32) -> None:
        if not name:
            raise ValueError("tensor name must be non-empty")
        if any(dim <= 0 for dim in shape):
            raise ValueError(f"{name}: non-positive dimension in {shape}")
        self.name = name
        self.shape = tuple(int(d) for d in shape)
        self.dtype = dtype

    @property
    def numel(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count

    @property
    def size_bytes(self) -> int:
        return self.numel * self.dtype.itemsize

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TensorSpec) and other.name == self.name
                and other.shape == self.shape and other.dtype == self.dtype)

    def __hash__(self) -> int:
        return hash((self.name, self.shape, self.dtype))

    def __repr__(self) -> str:
        return f"<TensorSpec {self.name} {self.shape} {self.dtype.name}>"


def tensor_seed(model_seed: int, tensor_name: str, step: int) -> int:
    """Deterministic content seed for a tensor at a training step."""
    return (zlib.crc32(tensor_name.encode("utf-8"))
            ^ (model_seed * 0x01000193) ^ (step * 0x9E3779B1)) & 0xFFFFFFFF


class Tensor:
    """A spec bound to device memory with versioned pattern content."""

    def __init__(self, spec: TensorSpec, allocation: Allocation,
                 model_seed: int) -> None:
        self.spec = spec
        self.allocation = allocation
        self.model_seed = model_seed
        self.step = -1
        #: Set on every content write, cleared by the checkpoint client
        #: once the bytes are safely on the daemon — the per-tensor delta
        #: signal that bounds a dedup client's manifest rehash.
        self.dirty = True

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def size_bytes(self) -> int:
        return self.spec.size_bytes

    @property
    def device(self) -> MemoryDevice:
        return self.allocation.device

    def set_step(self, step: int) -> None:
        """Write this tensor's content for training step *step* (an
        optimizer update: the bytes change, the shape does not)."""
        seed = tensor_seed(self.model_seed, self.spec.name, step)
        self.allocation.write(
            0, PatternContent(seed=seed, size=self.size_bytes))
        self.step = step
        self.dirty = True

    def content(self) -> Content:
        return self.allocation.read(0, self.size_bytes)

    def expected_content(self, step: Optional[int] = None) -> Content:
        """The canonical content at *step* (defaults to the current one)."""
        target = self.step if step is None else step
        seed = tensor_seed(self.model_seed, self.spec.name, target)
        return PatternContent(seed=seed, size=self.size_bytes)

    def __repr__(self) -> str:
        return f"<Tensor {self.spec.name} step={self.step} " \
               f"on {self.device.name}>"


class ModelInstance:
    """A full model (or model shard) materialized on one device."""

    def __init__(self, name: str, tensors: List[Tensor],
                 model_seed: int) -> None:
        self.name = name
        self.tensors = tensors
        self.model_seed = model_seed
        self.step = 0

    @classmethod
    def materialize(cls, name: str, specs: Iterable[TensorSpec],
                    device: MemoryDevice,
                    model_seed: int = 0) -> "ModelInstance":
        """Allocate every tensor on *device* and write step-0 content."""
        tensors = []
        for spec in specs:
            allocation = device.alloc(spec.size_bytes,
                                      tag=f"{name}/{spec.name}")
            tensor = Tensor(spec, allocation, model_seed)
            tensor.set_step(0)
            tensors.append(tensor)
        return cls(name, tensors, model_seed)

    def state_dict(self) -> Dict[str, Tensor]:
        return {tensor.name: tensor for tensor in self.tensors}

    def update_step(self, step: int,
                    only: Optional[Iterable[str]] = None) -> None:
        """Apply an optimizer update.

        Without *only*, every parameter gets new bytes; with *only* (a
        collection of tensor names), the rest keep their current content —
        the fine-tuning / frozen-backbone case that delta (dedup)
        checkpoints exploit.
        """
        names = None if only is None else set(only)
        for tensor in self.tensors:
            if names is None or tensor.name in names:
                tensor.set_step(step)
        self.step = step

    def clear_dirty(self, names: Optional[Iterable[str]] = None) -> None:
        """Mark tensors clean (checkpoint acked); all of them by default."""
        chosen = None if names is None else set(names)
        for tensor in self.tensors:
            if chosen is None or tensor.name in chosen:
                tensor.dirty = False

    @property
    def total_bytes(self) -> int:
        return sum(tensor.size_bytes for tensor in self.tensors)

    @property
    def tensor_count(self) -> int:
        return len(self.tensors)

    def verify_against(self, contents: Dict[str, Content],
                       step: Optional[int] = None) -> List[str]:
        """Names whose *contents* entry does not match the canonical bytes
        at *step*.  Empty list == bit-exact restore."""
        mismatched = []
        for tensor in self.tensors:
            expected = tensor.expected_content(step)
            got = contents.get(tensor.name)
            try:
                matches = got is not None and expected.equals(got)
            except ValueError:
                # Distinct huge contents that refuse byte comparison are,
                # by construction, not the expected pattern.
                matches = False
            if not matches:
                mismatched.append(tensor.name)
        return mismatched

    def free(self) -> None:
        """Release all device memory (job teardown)."""
        for tensor in self.tensors:
            tensor.allocation.free()

    def __repr__(self) -> str:
        return f"<ModelInstance {self.name} tensors={len(self.tensors)} " \
               f"bytes={self.total_bytes}>"
