"""Optimizer state specs: what a checkpoint contains beyond parameters.

The paper's Table II sizes (and the 89.6 GB GPT-22.4B checkpoint) count
fp32 parameters only, so checkpoints default to the bare model; these
helpers produce the extra state tensors when an experiment opts into
optimizer checkpointing (SGD momentum: 1x, Adam: 2x + step scalars).
"""

from __future__ import annotations

from typing import List

from repro.dnn.dtypes import int64
from repro.dnn.tensor import TensorSpec

OPTIMIZER_KINDS = ("sgd", "sgd_momentum", "adam")


def optimizer_state_specs(param_specs: List[TensorSpec],
                          kind: str = "sgd_momentum") -> List[TensorSpec]:
    """Extra tensors the optimizer contributes to a full checkpoint."""
    if kind not in OPTIMIZER_KINDS:
        raise ValueError(
            f"unknown optimizer {kind!r}; choices: {OPTIMIZER_KINDS}")
    state: List[TensorSpec] = []
    if kind == "sgd":
        return state
    for spec in param_specs:
        if kind == "sgd_momentum":
            state.append(TensorSpec(f"optimizer.momentum.{spec.name}",
                                    spec.shape, spec.dtype))
        else:  # adam
            state.append(TensorSpec(f"optimizer.exp_avg.{spec.name}",
                                    spec.shape, spec.dtype))
            state.append(TensorSpec(f"optimizer.exp_avg_sq.{spec.name}",
                                    spec.shape, spec.dtype))
            state.append(TensorSpec(f"optimizer.step.{spec.name}", (1,),
                                    int64))
    return state
