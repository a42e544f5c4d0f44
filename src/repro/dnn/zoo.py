"""The extended model zoo (the paper's appendix evaluates 76 models).

Variants of the ResNet, VGG-BN, ViT, Swin and ConvNeXt families beyond
the seven representatives of Table II, built by the same family
builders (:mod:`repro.dnn.models`) with torchvision's exact
``named_parameters()`` layouts.  Exact parameter counts for the
well-known variants are pinned in ``tests/dnn/test_zoo.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.dnn.models import (MODEL_BUILDERS, ModelSpec, build_convnext,
                              build_resnet, build_swin, build_vgg_bn,
                              build_vit)


ZOO_BUILDERS: Dict[str, Callable[[], ModelSpec]] = {
    # ResNets.
    "resnet18": lambda: build_resnet("resnet18", "basic", (2, 2, 2, 2), 45),
    "resnet34": lambda: build_resnet("resnet34", "basic", (3, 4, 6, 3), 75),
    "resnet101": lambda: build_resnet("resnet101", "bottleneck",
                                      (3, 4, 23, 3), 190),
    "resnet152": lambda: build_resnet("resnet152", "bottleneck",
                                      (3, 8, 36, 3), 270),
    # VGGs.
    "vgg11_bn": lambda: build_vgg_bn("vgg11_bn", "A", 100),
    "vgg13_bn": lambda: build_vgg_bn("vgg13_bn", "B", 120),
    "vgg16_bn": lambda: build_vgg_bn("vgg16_bn", "D", 145),
    # ViTs.
    "vit_b_16": lambda: build_vit("vit_b_16", 16, 768, 12, 3072, 95),
    "vit_b_32": lambda: build_vit("vit_b_32", 32, 768, 12, 3072, 40),
    "vit_l_16": lambda: build_vit("vit_l_16", 16, 1024, 24, 4096, 250),
    # Swins.
    "swin_t": lambda: build_swin("swin_t", 96, (2, 2, 6, 2),
                                 (3, 6, 12, 24), 90),
    "swin_s": lambda: build_swin("swin_s", 96, (2, 2, 18, 2),
                                 (3, 6, 12, 24), 150),
    # ConvNeXts.
    "convnext_tiny": lambda: build_convnext(
        "convnext_tiny", (96, 192, 384, 768), (3, 3, 9, 3), 95),
    "convnext_small": lambda: build_convnext(
        "convnext_small", (96, 192, 384, 768), (3, 3, 27, 3), 140),
    "convnext_large": lambda: build_convnext(
        "convnext_large", (192, 384, 768, 1536), (3, 3, 27, 3), 300),
}


#: Name prefixes of the classification heads across every family the
#: zoo builds (torchvision's conventions).
_HEAD_PREFIXES = ("fc.", "classifier.", "heads.", "head.")


def head_tensor_names(spec: ModelSpec) -> List[str]:
    """The classification-head tensors of a zoo model.

    A fine-tune retrains exactly these while the backbone keeps the base
    weights — which is what makes two fine-tunes of the same base share
    almost all of their chunks under the deduplicated checkpoint layout.
    """
    names = [tensor.name for tensor in spec.tensors
             if tensor.name.startswith(_HEAD_PREFIXES)]
    if not names:
        raise ValueError(f"{spec.name}: no recognizable head tensors")
    return names


def build_zoo_model(name: str) -> ModelSpec:
    """Build any model: Table II representative or zoo variant."""
    if name in MODEL_BUILDERS:
        return MODEL_BUILDERS[name]()
    try:
        return ZOO_BUILDERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; choices: "
            f"{sorted(set(MODEL_BUILDERS) | set(ZOO_BUILDERS))}") from None


def all_model_names() -> List[str]:
    """Every model the zoo can build (Table II + appendix families)."""
    return sorted(set(MODEL_BUILDERS) | set(ZOO_BUILDERS))
