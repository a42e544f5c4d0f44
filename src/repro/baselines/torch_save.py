"""The ordinary ``torch.save`` checkpointing path (and ``torch.load``).

This is the datapath Figure 3 dissects: device-to-host copy of every
tensor (pageable cuMemcpy), CPU serialization into a file image, then a
filesystem write (whose own cost structure depends on the target:
ext4-NVMe, ext4-DAX, or BeeGFS).  Restores use GPUDirect-Storage-style
direct reads where the target filesystem supports them, then pay
deserialization and the host-to-GPU copy.

The checkpointer writes to ``<dir>/<model>.pt`` via the classic
tmp-file + rename pattern for crash safety, and emits one write per
tensor record (zipfile-style), which is what makes many-small-tensor
models pay proportionally more in per-op overhead — the paper's ResNet50
observation.  Each phase is a ``torch_save.<phase>`` span on its
filesystem's tracer, next to the filesystem's own ``fs.*`` spans: the
Table I and Fig. 13 breakdowns read both from one traced run.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.dnn.serialize import (deserialization_time_ns,
                                 deserialize_state_dict,
                                 serialization_time_ns,
                                 serialize_state_dict)
from repro.dnn.tensor import ModelInstance
from repro.hw.content import Content
from repro.hw.devices import GpuMemory
from repro.hw.node import CpuSet
from repro.sim import Environment, Transfer
from repro.units import gbytes

#: Pageable cuMemcpyDtoH effective rate (Table I anchor: the GPU->DRAM
#: copy is 15.5 % of a BERT checkpoint; see repro.harness.calibration).
CUDA_D2H_PAGEABLE_BPS = gbytes(4.65)
#: Host-to-device copies ride posted writes and are faster.
CUDA_H2D_BPS = gbytes(9.0)


class TorchSaveCheckpointer:
    """Blocking save/load of one model per call against one filesystem."""

    def __init__(self, env: Environment, fs, cpus: CpuSet,
                 directory: str = "/checkpoints") -> None:
        self.env = env
        self.fs = fs
        self.cpus = cpus
        self.directory = directory.rstrip("/") or "/checkpoints"
        self._prepared = False

    def _span(self, phase: str):
        return self.fs.obs.tracer.span(self.env, f"torch_save.{phase}",
                                       cat="torch_save", track="torch_save")

    def _path_for(self, model_name: str) -> str:
        safe = model_name.replace("/", "_")
        return f"{self.directory}/{safe}.pt"

    def prepare(self) -> Generator:
        """Process: create the checkpoint directory (idempotent)."""
        if not self._prepared:
            try:
                yield from self.fs.mkdir(self.directory)
            except Exception:
                pass  # already exists — racing jobs share the directory
            self._prepared = True

    # -- snapshot phase -----------------------------------------------------------

    def snapshot_to_host(self, model: ModelInstance) -> Generator:
        """Process: blocking pageable D2H copy; returns captured contents.

        This is the part of the datapath that must hold the training step
        still — CheckFreq reuses it as its snapshot() phase.
        """
        gpu_tensors = [t for t in model.tensors
                       if isinstance(t.device, GpuMemory)]
        total = sum(t.size_bytes for t in gpu_tensors)
        with self._span("gpu_to_dram"):
            if total:
                device = gpu_tensors[0].device
                yield Transfer(
                    self.env, [device.read_channel, device.pcie_read],
                    total, rate_cap_bps=CUDA_D2H_PAGEABLE_BPS,
                    label="cuMemcpyDtoH")
        return {t.name: (t.spec, t.content()) for t in model.tensors}

    # -- persist phase -------------------------------------------------------------

    def persist_snapshot(self, model_name: str,
                         snapshot: Dict[str, Tuple],
                         tensor_count: Optional[int] = None) -> Generator:
        """Process: serialize captured contents and write the file."""
        specs = [spec for spec, _content in snapshot.values()]
        total = sum(spec.size_bytes for spec in specs)
        count = tensor_count if tensor_count is not None else len(specs)

        with self._span("serialization"):
            yield from self.cpus.execute(serialization_time_ns(total, count))

        path = self._path_for(model_name)
        tmp_path = path + ".tmp"
        with self._span("fs_write"):
            handle = yield from self.fs.open(tmp_path, create=True,
                                             truncate=True)
            # Zipfile-style image: one header record, then one write per
            # tensor payload.
            image = _build_image(snapshot)
            yield from handle.write(image.header)
            for payload in image.payloads:
                yield from handle.write(payload)
            yield from handle.fsync()
            yield from handle.close()
            yield from self.fs.rename(tmp_path, path)

    def checkpoint(self, model: ModelInstance) -> Generator:
        """Process: the full blocking torch.save path for one model."""
        yield from self.prepare()
        snapshot = yield from self.snapshot_to_host(model)
        yield from self.persist_snapshot(model.name, snapshot)

    # -- restore --------------------------------------------------------------------

    def restore(self, model: ModelInstance) -> Generator:
        """Process: torch.load into an already-constructed model.

        Returns the restored contents by tensor name; callers verify with
        :meth:`ModelInstance.verify_against` against the checkpointed
        step.
        """
        path = self._path_for(model.name)
        handle = yield from self.fs.open(path)
        with self._span("fs_read"):
            content = yield from handle.read(handle.size, direct=True)
            yield from handle.close()

        parsed = deserialize_state_dict(content)
        total = sum(spec.size_bytes for spec, _c in parsed.values())
        with self._span("deserialization"):
            yield from self.cpus.execute(
                deserialization_time_ns(total, len(parsed)))

        gpu_tensors = [t for t in model.tensors
                       if isinstance(t.device, GpuMemory)]
        with self._span("dram_to_gpu"):
            if gpu_tensors:
                device = gpu_tensors[0].device
                total_gpu = sum(t.size_bytes for t in gpu_tensors)
                yield Transfer(
                    self.env, [device.pcie_write, device.write_channel],
                    total_gpu, rate_cap_bps=CUDA_H2D_BPS,
                    label="cuMemcpyHtoD")

        restored: Dict[str, Content] = {}
        for tensor in model.tensors:
            entry = parsed.get(tensor.name)
            if entry is None:
                continue
            _spec, payload = entry
            tensor.allocation.write(0, payload)
            restored[tensor.name] = payload
        return restored


class _Image:
    def __init__(self, header: Content, payloads) -> None:
        self.header = header
        self.payloads = payloads


def _build_image(snapshot: Dict[str, Tuple]) -> _Image:
    """Split a serialized state dict into header + per-tensor writes."""
    from repro.dnn.tensor import Tensor  # noqa: F401 (doc reference)
    # Reuse the canonical serializer for the byte layout, then split it.
    class _Shim:
        def __init__(self, spec, content):
            self.spec = spec
            self._content = content
            self.size_bytes = spec.size_bytes
            self.name = spec.name

        def content(self):
            return self._content

    shims = [_Shim(spec, content) for spec, content in snapshot.values()]
    image = serialize_state_dict(shims)
    header_size = image.size - sum(s.size_bytes for s in shims)
    header = image.slice(0, header_size)
    payloads = [shim.content() for shim in shims]
    return _Image(header, payloads)
