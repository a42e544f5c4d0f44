"""The Table II model zoo: exact torchvision/HF parameter layouts.

Each builder emits the ``named_parameters()`` tensor list of the real
implementation, so the layer counts and parameter totals of Table II are
*reproduced*, not approximated — e.g. ResNet50 comes out at exactly
25,557,032 parameters across 161 tensors.  Five of the seven models are
members of the ResNet, VGG-BN, ConvNeXt, Swin and ViT families, whose
parameterized builders the appendix zoo (:mod:`repro.dnn.zoo`) reuses;
AlexNet and BERT-large have their own.  The tests in
``tests/dnn/test_models.py`` pin every model against the paper's table.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.dnn.layers import (batchnorm2d, conv2d, embedding, layernorm,
                              linear, multihead_attention, parameter,
                              total_bytes, total_params)
from repro.dnn.tensor import TensorSpec
from repro.units import msecs


class ModelSpec:
    """A named model: tensor specs plus a nominal iteration time.

    ``iteration_ns`` is the F+B+U wall time of one training step at the
    model's default batch size on the paper's V100s — used by the training
    loop; checkpoint experiments never depend on it directly.
    """

    def __init__(self, name: str, tensors: List[TensorSpec],
                 iteration_ns: int) -> None:
        self.name = name
        self.tensors = tensors
        self.iteration_ns = iteration_ns

    @property
    def param_count(self) -> int:
        return total_params(self.tensors)

    @property
    def total_bytes(self) -> int:
        return total_bytes(self.tensors)

    @property
    def tensor_count(self) -> int:
        return len(self.tensors)

    def __repr__(self) -> str:
        return f"<ModelSpec {self.name} params={self.param_count} " \
               f"tensors={self.tensor_count}>"


# --- CNNs -----------------------------------------------------------------------


def build_alexnet() -> ModelSpec:
    specs: List[TensorSpec] = []
    feature_convs = [(3, 64, 11), (64, 192, 5), (192, 384, 3),
                     (384, 256, 3), (256, 256, 3)]
    feature_indexes = (0, 3, 6, 8, 10)
    for index, (cin, cout, kernel) in zip(feature_indexes, feature_convs):
        specs += conv2d(f"features.{index}", cin, cout, kernel)
    specs += linear("classifier.1", 9216, 4096)
    specs += linear("classifier.4", 4096, 4096)
    specs += linear("classifier.6", 4096, 1000)
    return ModelSpec("alexnet", specs, iteration_ns=msecs(35))


def build_resnet(name: str, block: str, blocks_per_stage: Sequence[int],
                 iteration_ms: float = 100.0) -> ModelSpec:
    """torchvision ResNet: 'basic' (18/34) or 'bottleneck' (50/101/152)."""
    if block not in ("basic", "bottleneck"):
        raise ValueError(f"unknown block kind {block!r}")
    specs: List[TensorSpec] = []
    specs += conv2d("conv1", 3, 64, 7, bias=False)
    specs += batchnorm2d("bn1", 64)
    expansion = 1 if block == "basic" else 4
    inplanes = 64
    for stage, blocks in enumerate(blocks_per_stage, start=1):
        planes = 64 * 2 ** (stage - 1)
        for index in range(blocks):
            prefix = f"layer{stage}.{index}"
            if block == "basic":
                specs += conv2d(f"{prefix}.conv1", inplanes, planes, 3,
                                bias=False)
                specs += batchnorm2d(f"{prefix}.bn1", planes)
                specs += conv2d(f"{prefix}.conv2", planes, planes, 3,
                                bias=False)
                specs += batchnorm2d(f"{prefix}.bn2", planes)
            else:
                specs += conv2d(f"{prefix}.conv1", inplanes, planes, 1,
                                bias=False)
                specs += batchnorm2d(f"{prefix}.bn1", planes)
                specs += conv2d(f"{prefix}.conv2", planes, planes, 3,
                                bias=False)
                specs += batchnorm2d(f"{prefix}.bn2", planes)
                specs += conv2d(f"{prefix}.conv3", planes,
                                planes * expansion, 1, bias=False)
                specs += batchnorm2d(f"{prefix}.bn3", planes * expansion)
            needs_downsample = index == 0 and (
                stage > 1 or expansion != 1)
            if needs_downsample:
                specs += conv2d(f"{prefix}.downsample.0", inplanes,
                                planes * expansion, 1, bias=False)
                specs += batchnorm2d(f"{prefix}.downsample.1",
                                     planes * expansion)
            inplanes = planes * expansion
    specs += linear("fc", 512 * expansion, 1000)
    return ModelSpec(name, specs, iteration_ns=msecs(iteration_ms))


_VGG_CFGS = {
    "A": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "B": [64, 64, "M", 128, 128, "M", 256, 256, "M", 512, 512, "M",
          512, 512, "M"],
    "D": [64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
          512, 512, 512, "M", 512, 512, 512, "M"],
    "E": [64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M",
          512, 512, 512, 512, "M", 512, 512, 512, 512, "M"],
}


def build_vgg_bn(name: str, cfg: str,
                 iteration_ms: float = 160.0) -> ModelSpec:
    specs: List[TensorSpec] = []
    cin = 3
    index = 0
    for entry in _VGG_CFGS[cfg]:
        if entry == "M":
            index += 1
            continue
        specs += conv2d(f"features.{index}", cin, entry, 3)
        specs += batchnorm2d(f"features.{index + 1}", entry)
        cin = entry
        index += 3
    specs += linear("classifier.0", 25088, 4096)
    specs += linear("classifier.3", 4096, 4096)
    specs += linear("classifier.6", 4096, 1000)
    return ModelSpec(name, specs, iteration_ns=msecs(iteration_ms))


def build_convnext(name: str, dims: Sequence[int], depths: Sequence[int],
                   iteration_ms: float = 170.0) -> ModelSpec:
    specs: List[TensorSpec] = []
    specs += conv2d("features.0.0", 3, dims[0], 4)
    specs += layernorm("features.0.1", dims[0])
    feature_index = 1
    for stage, (dim, depth) in enumerate(zip(dims, depths)):
        for index in range(depth):
            prefix = f"features.{feature_index}.{index}.block"
            specs += conv2d(f"{prefix}.0", dim, dim, 7, groups=dim)
            specs += layernorm(f"{prefix}.2", dim)
            specs += linear(f"{prefix}.3", dim, 4 * dim)
            specs += linear(f"{prefix}.5", 4 * dim, dim)
            specs += parameter(
                f"features.{feature_index}.{index}.layer_scale",
                (dim, 1, 1))
        feature_index += 1
        if stage < len(depths) - 1:
            specs += layernorm(f"features.{feature_index}.0", dim)
            specs += conv2d(f"features.{feature_index}.1", dim,
                            dims[stage + 1], 2)
            feature_index += 1
    specs += layernorm("classifier.0", dims[-1])
    specs += linear("classifier.2", dims[-1], 1000)
    return ModelSpec(name, specs, iteration_ns=msecs(iteration_ms))


def build_swin(name: str, embed_dim: int, depths: Sequence[int],
               heads: Sequence[int], iteration_ms: float = 180.0,
               window: int = 7) -> ModelSpec:
    specs: List[TensorSpec] = []
    dims = [embed_dim * 2 ** i for i in range(len(depths))]
    specs += conv2d("features.0.0", 3, dims[0], 4)
    specs += layernorm("features.0.2", dims[0])
    feature_index = 1
    for stage, (dim, depth, head) in enumerate(zip(dims, depths, heads)):
        for index in range(depth):
            prefix = f"features.{feature_index}.{index}"
            specs += layernorm(f"{prefix}.norm1", dim)
            specs += linear(f"{prefix}.attn.qkv", dim, 3 * dim)
            specs += parameter(
                f"{prefix}.attn.relative_position_bias_table",
                ((2 * window - 1) ** 2, head))
            specs += linear(f"{prefix}.attn.proj", dim, dim)
            specs += layernorm(f"{prefix}.norm2", dim)
            specs += linear(f"{prefix}.mlp.0", dim, 4 * dim)
            specs += linear(f"{prefix}.mlp.3", 4 * dim, dim)
        feature_index += 1
        if stage < len(depths) - 1:
            specs += linear(f"features.{feature_index}.reduction",
                            4 * dim, 2 * dim, bias=False)
            specs += layernorm(f"features.{feature_index}.norm", 4 * dim)
            feature_index += 1
    specs += layernorm("norm", dims[-1])
    specs += linear("head", dims[-1], 1000)
    return ModelSpec(name, specs, iteration_ns=msecs(iteration_ms))


# --- Transformers -----------------------------------------------------------------


def build_vit(name: str, patch: int, hidden: int, layers: int, mlp: int,
              iteration_ms: float = 80.0, image: int = 224) -> ModelSpec:
    specs: List[TensorSpec] = []
    patches = (image // patch) ** 2
    specs += parameter("class_token", (1, 1, hidden))
    specs += conv2d("conv_proj", 3, hidden, patch)
    specs += parameter("encoder.pos_embedding", (1, patches + 1, hidden))
    for layer in range(layers):
        prefix = f"encoder.layers.encoder_layer_{layer}"
        specs += layernorm(f"{prefix}.ln_1", hidden)
        specs += multihead_attention(f"{prefix}.self_attention", hidden)
        specs += layernorm(f"{prefix}.ln_2", hidden)
        specs += linear(f"{prefix}.mlp.linear_1", hidden, mlp)
        specs += linear(f"{prefix}.mlp.linear_2", mlp, hidden)
    specs += layernorm("encoder.ln", hidden)
    specs += linear("heads.head", hidden, 1000)
    return ModelSpec(name, specs, iteration_ns=msecs(iteration_ms))


def build_bert_large() -> ModelSpec:
    specs: List[TensorSpec] = []
    hidden, intermediate, layers = 1024, 4096, 24
    vocab, positions, types = 30522, 512, 2
    specs += embedding("bert.embeddings.word_embeddings", vocab, hidden)
    specs += embedding("bert.embeddings.position_embeddings", positions,
                       hidden)
    specs += embedding("bert.embeddings.token_type_embeddings", types,
                       hidden)
    specs += layernorm("bert.embeddings.LayerNorm", hidden)
    for layer in range(layers):
        prefix = f"bert.encoder.layer.{layer}"
        for proj in ("query", "key", "value"):
            specs += linear(f"{prefix}.attention.self.{proj}", hidden,
                            hidden)
        specs += linear(f"{prefix}.attention.output.dense", hidden, hidden)
        specs += layernorm(f"{prefix}.attention.output.LayerNorm", hidden)
        specs += linear(f"{prefix}.intermediate.dense", hidden, intermediate)
        specs += linear(f"{prefix}.output.dense", intermediate, hidden)
        specs += layernorm(f"{prefix}.output.LayerNorm", hidden)
    specs += linear("bert.pooler.dense", hidden, hidden)
    # Masked-LM head (decoder weight is tied to the word embeddings and
    # therefore not a separate parameter).
    specs += linear("cls.predictions.transform.dense", hidden, hidden)
    specs += layernorm("cls.predictions.transform.LayerNorm", hidden)
    specs += parameter("cls.predictions.bias", (vocab,))
    return ModelSpec("bert_large", specs, iteration_ns=msecs(350))


MODEL_BUILDERS: Dict[str, Callable[[], ModelSpec]] = {
    "alexnet": build_alexnet,
    "convnext_base": lambda: build_convnext(
        "convnext_base", (128, 256, 512, 1024), (3, 3, 27, 3), 180),
    "resnet50": lambda: build_resnet("resnet50", "bottleneck",
                                     (3, 4, 6, 3), 120),
    "swin_b": lambda: build_swin("swin_b", 128, (2, 2, 18, 2),
                                 (4, 8, 16, 32), 200),
    "vgg19_bn": lambda: build_vgg_bn("vgg19_bn", "E", 170),
    "vit_l_32": lambda: build_vit("vit_l_32", 32, 1024, 24, 4096, 62),
    "bert_large": build_bert_large,
}


def build_model(name: str) -> ModelSpec:
    """Build one of the paper's seven representative models by name."""
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; choices: {sorted(MODEL_BUILDERS)}"
        ) from None
    return builder()


#: Table II, for the validation tests and the reports.
TABLE_II = {
    "alexnet": {"layers": 16, "params": 61.1e6, "size_mib": 233},
    "convnext_base": {"layers": 344, "params": 88.6e6, "size_mib": 338},
    "resnet50": {"layers": 161, "params": 25.6e6, "size_mib": 97},
    "swin_b": {"layers": 329, "params": 87.8e6, "size_mib": 335},
    "vgg19_bn": {"layers": 70, "params": 143.7e6, "size_mib": 548},
    "vit_l_32": {"layers": 296, "params": 306.5e6, "size_mib": 1169},
    "bert_large": {"layers": 396, "params": 336.2e6, "size_mib": 1282},
}
