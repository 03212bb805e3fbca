"""Pyramid pooling: multi-bin adaptive pooling, per-level 1/N channel
reduction, upsample back to feature resolution, concat with the input map.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ops
from .layers import Module, bn_params, conv_bn, conv_params
from .tensor import Tensor


@dataclass
class PyramidConfig:
    bin_sizes: tuple[int, ...] = (1, 2, 3, 6)
    pool_mode: str = "average"
    dim_reduce: bool = True

    def __post_init__(self) -> None:
        bins = tuple(self.bin_sizes)
        if not bins or bins[0] != 1:
            raise ValueError(f"bin_sizes must start at 1 (global bin), got {bins}")
        if any(b2 <= b1 for b1, b2 in zip(bins, bins[1:])):
            raise ValueError(f"bin_sizes must be strictly increasing, got {bins}")
        if self.pool_mode not in ("average", "max"):
            raise ValueError(f"pool_mode must be 'average' or 'max', got {self.pool_mode!r}")
        self.bin_sizes = bins

    def reduced_channels(self, in_channels: int) -> int:
        return in_channels // len(self.bin_sizes)

    def out_channels(self, in_channels: int) -> int:
        n = len(self.bin_sizes)
        if self.dim_reduce:
            return in_channels + n * (in_channels // n)
        return in_channels * (n + 1)


class PyramidPooling(Module):
    def __init__(self, in_channels: int, cfg: PyramidConfig) -> None:
        self.cfg = cfg
        self.in_channels = in_channels
        self.out_channels = cfg.out_channels(in_channels)
        levels = len(cfg.bin_sizes) if cfg.dim_reduce else 0
        rc = cfg.reduced_channels(in_channels)
        self.reduce = [conv_params(in_channels, rc, 1) for _ in range(levels)]
        self.reduce_bn = [bn_params(rc) for _ in range(levels)]

    def forward(self, feat: Tensor, training: bool) -> Tensor:
        _, c, h, w = feat.shape
        if c != self.in_channels:
            raise ValueError(f"channel mismatch: feature has {c}, module expects {self.in_channels}")
        if max(self.cfg.bin_sizes) > min(h, w):
            raise ValueError(
                f"largest bin {max(self.cfg.bin_sizes)} exceeds feature extent {h}x{w}"
            )
        levels = [feat]
        for i, b in enumerate(self.cfg.bin_sizes):
            level = ops.adaptive_pool(feat, b, self.cfg.pool_mode)
            if self.cfg.dim_reduce:
                level = ops.relu(conv_bn(level, self.reduce[i], self.reduce_bn[i], training))
            levels.append(ops.bilinear_upsample(level, (h, w)))
        return ops.concat_channels(levels)


@dataclass(frozen=True)
class AblationVariant:
    name: str
    pyramid: PyramidConfig | None  # None = module bypassed entirely


def psp_ablation_variants() -> list[AblationVariant]:
    """The ablation grid: baseline plus {B1,B1236} x {MAX,AVE} x {DR,noDR}."""
    variants = [AblationVariant("baseline", None)]
    for bins_name, bins in (("B1", (1,)), ("B1236", (1, 2, 3, 6))):
        for mode_name, mode in (("MAX", "max"), ("AVE", "average")):
            for dr in (False, True):
                name = f"{bins_name}+{mode_name}" + ("+DR" if dr else "")
                variants.append(
                    AblationVariant(name, PyramidConfig(bins, mode, dr))
                )
    return variants
