"""Parameter-tensor builders for common layer types.

Each helper returns the :class:`~repro.dnn.tensor.TensorSpec` list that the
corresponding PyTorch module contributes to ``named_parameters()`` — the
exact granularity Portus registers memory regions at.  Composing these
reproduces the Table II models' layer counts and parameter totals.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.dnn.dtypes import DType, float32
from repro.dnn.tensor import TensorSpec


def conv2d(name: str, cin: int, cout: int, kernel: int,
           bias: bool = True, groups: int = 1,
           dtype: DType = float32) -> List[TensorSpec]:
    """A 2D convolution: weight [cout, cin/groups, k, k] (+ bias)."""
    specs = [TensorSpec(f"{name}.weight",
                        (cout, cin // groups, kernel, kernel), dtype)]
    if bias:
        specs.append(TensorSpec(f"{name}.bias", (cout,), dtype))
    return specs


def batchnorm2d(name: str, channels: int,
                dtype: DType = float32) -> List[TensorSpec]:
    """BatchNorm affine parameters (running stats are buffers, not params)."""
    return [TensorSpec(f"{name}.weight", (channels,), dtype),
            TensorSpec(f"{name}.bias", (channels,), dtype)]


def layernorm(name: str, width: int,
              dtype: DType = float32) -> List[TensorSpec]:
    return [TensorSpec(f"{name}.weight", (width,), dtype),
            TensorSpec(f"{name}.bias", (width,), dtype)]


def linear(name: str, fin: int, fout: int, bias: bool = True,
           dtype: DType = float32) -> List[TensorSpec]:
    specs = [TensorSpec(f"{name}.weight", (fout, fin), dtype)]
    if bias:
        specs.append(TensorSpec(f"{name}.bias", (fout,), dtype))
    return specs


def embedding(name: str, rows: int, width: int,
              dtype: DType = float32) -> List[TensorSpec]:
    return [TensorSpec(f"{name}.weight", (rows, width), dtype)]


def multihead_attention(name: str, width: int,
                        dtype: DType = float32) -> List[TensorSpec]:
    """torch.nn.MultiheadAttention: fused in-proj + out-proj."""
    return [
        TensorSpec(f"{name}.in_proj_weight", (3 * width, width), dtype),
        TensorSpec(f"{name}.in_proj_bias", (3 * width,), dtype),
        *linear(f"{name}.out_proj", width, width, dtype=dtype),
    ]


def parameter(name: str, shape: Tuple[int, ...],
              dtype: DType = float32) -> List[TensorSpec]:
    """A bare learnable tensor (class token, position embedding, ...)."""
    return [TensorSpec(name, shape, dtype)]


def total_params(specs: List[TensorSpec]) -> int:
    return sum(spec.numel for spec in specs)


def total_bytes(specs: List[TensorSpec]) -> int:
    return sum(spec.size_bytes for spec in specs)
