"""Stride-8 residual backbone with the dilated-network conversion.

The stem plus stages 1-2 downsample x8; stages 3-4 trade stride for dilation
(plan (1,1,2,4) by default) so the final map keeps 1/8 resolution while the
kernels keep widening their reach. The auxiliary head taps stage 3 (the
paper's res4b22); both returned maps share spatial size.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ops
from .layers import Module, bn_params, conv_params
from .tensor import Tensor

EXPANSION = 4  # bottleneck width = stage width / EXPANSION
AUX_TAP_STAGE = 3


@dataclass
class BackboneConfig:
    stage_blocks: tuple[int, int, int, int] = (2, 2, 2, 2)
    base_channels: int = 16
    stem: str = "conv3"  # "conv3" (3x3 stride 2) or "conv7-pool" (7x7 stride 2 + maxpool)
    dilation_plan: tuple[int, int, int, int] = (1, 1, 2, 4)

    def __post_init__(self) -> None:
        if len(self.stage_blocks) != 4 or any(b < 1 for b in self.stage_blocks):
            raise ValueError(f"stage_blocks needs 4 positive counts, got {self.stage_blocks}")
        if len(self.dilation_plan) != 4 or any(d < 1 for d in self.dilation_plan):
            raise ValueError(f"dilation_plan needs 4 positive dilations, got {self.dilation_plan}")
        if self.stem not in ("conv3", "conv7-pool"):
            raise ValueError(f"unknown stem {self.stem!r}")

    @property
    def stage_channels(self) -> tuple[int, int, int, int]:
        return tuple(self.base_channels * (1 << i) for i in range(4))

    @property
    def stage_strides(self) -> tuple[int, int, int, int]:
        # Stride 4 is reached before stage 2 either way; stages 3-4 never stride.
        return (2, 2, 1, 1) if self.stem == "conv3" else (1, 2, 1, 1)

    @property
    def final_channels(self) -> int:
        return self.stage_channels[3]

    @property
    def tap_channels(self) -> int:
        return self.stage_channels[AUX_TAP_STAGE - 1]


PRESETS = {
    "toy": dict(stage_blocks=(2, 2, 2, 2), base_channels=16, stem="conv3"),
    "resnet50-layout": dict(stage_blocks=(3, 4, 6, 3), base_channels=64, stem="conv7-pool"),
    "resnet101-layout": dict(stage_blocks=(3, 4, 23, 3), base_channels=64, stem="conv7-pool"),
}


def preset(name: str) -> BackboneConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return BackboneConfig(**PRESETS[name])


class Bottleneck(Module):
    """1x1 reduce -> 3x3 (stride/dilation here) -> 1x1 expand, plus shortcut."""

    def __init__(self, in_channels: int, out_channels: int, mid_channels: int,
                 stride: int, dilation: int) -> None:
        super().__init__()
        self.conv1 = conv_params(in_channels, mid_channels, 1)
        self.bn1 = bn_params(mid_channels)
        self.conv2 = conv_params(mid_channels, mid_channels, 3, stride=stride,
                                 padding=dilation, dilation=dilation)
        self.bn2 = bn_params(mid_channels)
        self.conv3 = conv_params(mid_channels, out_channels, 1)
        self.bn3 = bn_params(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.proj = conv_params(in_channels, out_channels, 1, stride=stride)
            self.proj_bn = bn_params(out_channels)
        else:
            self.proj = None

    def forward(self, x: Tensor) -> Tensor:
        r = ops.relu(self.conv_bn(x, self.conv1, self.bn1))
        r = ops.relu(self.conv_bn(r, self.conv2, self.bn2))
        r = self.conv_bn(r, self.conv3, self.bn3)
        shortcut = self.conv_bn(x, self.proj, self.proj_bn) if self.proj is not None else x
        return ops.relu(r + shortcut)


class Backbone(Module):
    def __init__(self, cfg: BackboneConfig) -> None:
        super().__init__()
        self.cfg = cfg
        c = cfg.base_channels
        if cfg.stem == "conv3":
            self.stem_conv = conv_params(3, c, 3, stride=2, padding=1)
        else:
            self.stem_conv = conv_params(3, c, 7, stride=2, padding=3)
        self.stem_bn = bn_params(c)
        self.stages = []
        in_c = c
        for i in range(4):
            out_c = cfg.stage_channels[i]
            mid_c = max(out_c // EXPANSION, 1)
            blocks = []
            for b in range(cfg.stage_blocks[i]):
                stride = cfg.stage_strides[i] if b == 0 else 1
                blocks.append(Bottleneck(in_c, out_c, mid_c, stride, cfg.dilation_plan[i]))
                in_c = out_c
            self.stages.append(blocks)

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Returns (final stride-8 map, aux-tap map); both H/8 x W/8."""
        _, _, h, w = x.shape
        if h % 8 or w % 8:
            raise ValueError(f"input size {h}x{w} not divisible by 8")
        y = ops.relu(self.conv_bn(x, self.stem_conv, self.stem_bn))
        if self.cfg.stem == "conv7-pool":
            y = ops.max_pool2d(y, kernel=3, stride=2, padding=1)
        tap = None
        for i, stage in enumerate(self.stages, start=1):
            for block in stage:
                y = block(y)
            if i == AUX_TAP_STAGE:
                tap = y
        return y, tap

