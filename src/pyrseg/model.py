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
from .data import IGNORE_LABEL
from .layers import Module, bn_params, conv_bn, conv_params, init_parameters
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
        if not 2 <= self.num_classes <= IGNORE_LABEL:
            raise ValueError(f"need at least 2 classes and at most {IGNORE_LABEL} (labels are uint8 "
                             f"and {IGNORE_LABEL} is the ignore label), got {self.num_classes}")
        if self.head_channels < 1:
            raise ValueError(f"head_channels must be >= 1, got {self.head_channels}")


class ClassifierHead(Module):
    """3x3 conv -> BN -> ReLU -> 1x1 conv to class logits."""

    def __init__(self, in_channels: int, mid_channels: int, num_classes: int) -> None:
        self.conv1 = conv_params(in_channels, mid_channels, 3, padding=1)
        self.bn = bn_params(mid_channels)
        self.conv2 = conv_params(mid_channels, num_classes, 1, bias=True)

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return ops.conv2d(ops.relu(conv_bn(x, self.conv1, self.bn, training)), self.conv2)


class PSPNet(Module):
    def __init__(self, cfg: ModelConfig) -> None:
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

    def _main_logits(self, x: Tensor, training: bool) -> tuple[Tensor, Tensor]:
        final, tap = self.backbone.forward(x, training)
        feats = final if self.psp is None else self.psp.forward(final, training)
        return self.head.forward(feats, training), tap

    def forward_train(self, x: Tensor, labels: np.ndarray) -> tuple[Tensor, Tensor, Tensor]:
        """Returns (total, main, aux) losses; total = main + aux_weight * aux.
        Runs in training mode: every batch norm, the aux head's too, uses
        batch statistics and updates its running statistics."""
        _, _, h, w = x.shape
        logits, tap = self._main_logits(x, True)
        logits = ops.bilinear_upsample(logits, (h, w))
        main = ops.softmax_cross_entropy(logits, labels)
        if self.aux is None:
            return main, main, Tensor(np.zeros((), dtype=np.float32))
        aux_logits = ops.bilinear_upsample(self.aux.forward(tap, True), (h, w))
        aux = ops.softmax_cross_entropy(aux_logits, labels)
        total = main + aux * float(self.cfg.aux_weight)
        return total, main, aux

    def forward_infer(self, x: Tensor) -> np.ndarray:
        """(N, K, H, W) logits of the main path in inference mode: every batch
        norm uses its running statistics and changes nothing. The aux branch
        is never evaluated."""
        _, _, h, w = x.shape
        logits, _ = self._main_logits(x, False)
        return ops.bilinear_upsample(logits, (h, w)).data

    def count_parameters(self) -> int:
        """Number of scalar parameters (aux branch included)."""
        return sum(p.size for _, p in self.named_parameters())


def check_trainable(cfg: ModelConfig, batch_size: int, crop_size: int) -> None:
    """Reject a config whose first training step would fail: every batch norm
    needs at least 2 values per channel, and the pyramid's bins must fit the
    stride-8 map of a crop."""
    extent = crop_size // 8
    if batch_size * extent ** 2 < 2:
        raise ValueError(f"batch_size {batch_size} at crop_size {crop_size} gives each batch "
                         f"norm 1 value per channel on {extent}x{extent} maps; need 2")
    if cfg.pyramid is None:
        return
    if cfg.pyramid.dim_reduce and batch_size < 2:
        raise ValueError(f"batch_size {batch_size} gives the bin-1 batch norm of "
                         f"psp_dim_reduce 1 value per channel; need batch_size >= 2")
    largest = max(cfg.pyramid.bin_sizes)
    if largest > extent:
        raise ValueError(f"psp_bins' largest bin {largest} exceeds the {extent}x{extent} "
                         f"feature map of crop_size {crop_size}; need crop_size >= {8 * largest}")


def build_model(cfg: ModelConfig, seed: int) -> PSPNet:
    model = PSPNet(cfg)
    init_parameters(model, seed)
    return model
