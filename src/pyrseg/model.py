"""Full network assembly: backbone -> pyramid pooling -> classifier head,
plus the auxiliary head on the backbone tap and the weighted two-loss sum.

The aux branch lives under the 'aux' child so every one of its parameters is
prefixed 'aux/' in the checkpoint namespace; inference never touches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .backbone import Backbone, BackboneConfig
from .layers import BatchNorm2d, Conv2d, Module, init_parameters
from .pyramid import PyramidConfig, PyramidPooling
from .tensor import Tensor


@dataclass
class ModelConfig:
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    pyramid: PyramidConfig | None = field(default_factory=PyramidConfig)
    num_classes: int = 4
    aux_weight: float = 0.4  # 0 builds no aux branch
    head_channels: int = 32

    def __post_init__(self) -> None:
        if not 0.0 <= self.aux_weight <= 1.0:
            raise ValueError(f"aux_weight must be in [0, 1], got {self.aux_weight}")
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        if self.head_channels < 1:
            raise ValueError(f"head_channels must be >= 1, got {self.head_channels}")


@dataclass
class Prediction:
    """logits is None for multi-scale averaged output (prob_map is the result)."""

    logits: np.ndarray | None
    label_map: np.ndarray
    prob_map: np.ndarray


class ClassifierHead(Module):
    """3x3 conv -> BN -> ReLU -> 1x1 conv to class logits."""

    def __init__(self, in_channels: int, mid_channels: int, num_classes: int) -> None:
        super().__init__()
        self.conv1 = Conv2d(in_channels, mid_channels, 3, padding=1)
        self.bn = BatchNorm2d(mid_channels)
        self.conv2 = Conv2d(mid_channels, num_classes, 1, bias=True)

    def forward(self, x: Tensor) -> Tensor:
        return self.conv2(ops.relu(self.bn(self.conv1(x))))


class PSPNet(Module):
    def __init__(self, cfg: ModelConfig) -> None:
        super().__init__()
        self.cfg = cfg
        self.backbone = Backbone(cfg.backbone)
        final_c = cfg.backbone.final_channels
        if cfg.pyramid is not None:
            self.psp = PyramidPooling(final_c, cfg.pyramid)
            head_in = self.psp.out_channels
        else:
            self.psp = None
            head_in = final_c
        self.head = ClassifierHead(head_in, cfg.head_channels, cfg.num_classes)
        if cfg.aux_weight > 0:
            self.aux = ClassifierHead(cfg.backbone.tap_channels, cfg.head_channels,
                                      cfg.num_classes)
        else:
            self.aux = None

    def _main_logits(self, x: Tensor) -> tuple[Tensor, Tensor]:
        final, tap = self.backbone(x)
        feats = self.psp(final) if self.psp is not None else final
        return self.head(feats), tap

    def forward_train(self, x: Tensor, labels: np.ndarray) -> tuple[Tensor, Tensor, Tensor]:
        """Returns (total, main, aux) losses; total = main + aux_weight * aux."""
        self.train(True)
        _, _, h, w = x.shape
        logits, tap = self._main_logits(x)
        logits = ops.bilinear_upsample(logits, (h, w))
        main = ops.softmax_cross_entropy(logits, labels)
        if self.aux is None:
            return main, main, Tensor(np.zeros((), dtype=np.float32))
        aux_logits = ops.bilinear_upsample(self.aux(tap), (h, w))
        aux = ops.softmax_cross_entropy(aux_logits, labels)
        total = main + aux * float(self.cfg.aux_weight)
        return total, main, aux

    def forward_infer(self, x: Tensor) -> Prediction:
        """Main path only, BN on running stats; aux branch is never evaluated."""
        self.train(False)
        _, _, h, w = x.shape
        logits, _ = self._main_logits(x)
        logits = ops.bilinear_upsample(logits, (h, w))
        z = logits.data
        return Prediction(
            logits=z,
            label_map=z.argmax(axis=1),  # ties resolve to the lowest class index
            prob_map=ops.stable_softmax(z, axis=1),
        )

    def count_parameters(self) -> int:
        """Number of scalar parameters (aux branch included)."""
        return sum(p.size for _, p in self.named_parameters())


def build_model(cfg: ModelConfig, seed: int) -> PSPNet:
    model = PSPNet(cfg)
    init_parameters(model, seed)
    return model
