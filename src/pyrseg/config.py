"""Flat run configuration: key=value file, typed parsing, flag overrides."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .backbone import preset as backbone_preset
from .data import AugmentConfig
from .model import ModelConfig
from .optim import OptimConfig
from .pyramid import PyramidConfig
from .synth import SynthConfig


@dataclass
class RunConfig:
    # model
    preset: str = "toy"
    num_classes: int = 4
    psp_enabled: bool = True
    psp_bins: tuple = (1, 2, 3, 6)
    psp_mode: str = "average"
    psp_dim_reduce: bool = True
    aux_weight: float = 0.4
    head_channels: int = 0          # 0 = preset default (toy 32, resnet 512)

    # optimization
    base_lr: float = 0.01
    power: float = 0.9
    max_iter: int = 1000
    momentum: float = 0.9
    weight_decay: float = 0.0001
    batch_size: int = 4

    # augmentation
    crop_size: int = 64
    mirror_prob: float = 0.5
    resize_min: float = 0.5
    resize_max: float = 2.0
    rotation_deg: float = 10.0
    blur_prob: float = 0.5
    blur_sigma_min: float = 0.3
    blur_sigma_max: float = 1.0
    pad_image_mean: float = 0.5

    # synthetic data
    synth_canvas: int = 64
    synth_scenes: int = 2
    synth_objects: int = 2
    synth_count_min: int = 5
    synth_count_max: int = 9
    synth_radius_min: int = 6
    synth_radius_max: int = 12
    synth_noise: float = 0.06
    synth_n: int = 256

    # run control
    seed: int = 0
    data_dir: str = ""
    out_dir: str = "runs"
    checkpoint: str = ""
    resume: str = ""
    log_every: int = 10
    ckpt_every: int = 0             # 0 = final checkpoint only
    scales: tuple = (1.0,)
    min_scale_size: int = 64
    # No effect; kept so the perfbench probe's `workers = 2` is not an unknown key.
    workers: int = 1

    # ablation harness budget
    ablate_iters: int = 600
    ablate_seeds: int = 3
    ablate_train_n: int = 256
    ablate_test_n: int = 64

    def to_model_config(self) -> ModelConfig:
        pyramid = None
        if self.psp_enabled:
            pyramid = PyramidConfig(bin_sizes=tuple(self.psp_bins),
                                    pool_mode=self.psp_mode,
                                    dim_reduce=self.psp_dim_reduce)
        head = self.head_channels
        if head == 0:
            head = 32 if self.preset == "toy" else 512
        return ModelConfig(
            backbone=backbone_preset(self.preset),
            pyramid=pyramid,
            num_classes=self.num_classes,
            aux_weight=self.aux_weight,
            head_channels=head,
        )

    def to_optim_config(self, max_iter: int | None = None) -> OptimConfig:
        return OptimConfig(base_lr=self.base_lr, power=self.power,
                           max_iter=self.max_iter if max_iter is None else max_iter,
                           momentum=self.momentum, weight_decay=self.weight_decay)

    def to_augment_config(self) -> AugmentConfig:
        return AugmentConfig(
            mirror_prob=self.mirror_prob,
            resize_range=(self.resize_min, self.resize_max),
            rotation_deg=self.rotation_deg,
            blur_prob=self.blur_prob,
            blur_sigma_range=(self.blur_sigma_min, self.blur_sigma_max),
            crop_size=self.crop_size,
            pad_value_image=self.pad_image_mean,
        )

    def to_synth_config(self) -> SynthConfig:
        return SynthConfig(
            canvas=self.synth_canvas,
            num_scene_classes=self.synth_scenes,
            num_object_classes=self.synth_objects,
            object_count_range=(self.synth_count_min, self.synth_count_max),
            object_radius_range=(self.synth_radius_min, self.synth_radius_max),
            noise_sigma=self.synth_noise,
            seed=self.seed,
        )


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}

# Smallest accepted value of each run-control, batching and synthetic-data key.
_MINIMUMS = {
    "batch_size": 1, "log_every": 1, "ckpt_every": 0, "workers": 1,
    "ablate_iters": 1, "ablate_seeds": 1, "ablate_train_n": 1, "ablate_test_n": 1,
    "synth_n": 1, "synth_count_min": 0, "synth_radius_min": 1, "synth_noise": 0,
}
# (low, high) key pairs of one range; high may equal low.
_RANGES = (("synth_count_min", "synth_count_max"), ("synth_radius_min", "synth_radius_max"))


def parse_value(key: str, text: str):
    default = _FIELDS[key].default
    if isinstance(default, bool):
        low = text.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"config key {key} expects a boolean, got {text!r}")
    if isinstance(default, str):
        return text.strip()
    if isinstance(default, tuple):
        elem = float if any(isinstance(v, float) for v in default) else int
        words, what = text.replace(",", " ").split(), f"a list of {elem.__name__}s"
    else:
        elem, words, what = type(default), [text], f"one {type(default).__name__}"
    try:
        values = tuple(map(elem, words))
    except ValueError:
        values = ()
    if not values:
        raise ValueError(f"config key {key} expects {what}, got {text!r}")
    return values if isinstance(default, tuple) else values[0]


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    cfg = dataclasses.replace(base) if base is not None else RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _FIELDS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        setattr(cfg, key, parse_value(key, value))
    return cfg


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    cfg = RunConfig()
    if path:
        with open(path, "r", encoding="utf-8") as f:
            cfg = parse_config_text(f.read(), cfg)
    for key, value in (overrides or {}).items():
        if key not in _FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    for key, low in _MINIMUMS.items():
        if getattr(cfg, key) < low:
            raise ValueError(f"config key {key} must be >= {low}, got {getattr(cfg, key)}")
    for low, high in _RANGES:
        if getattr(cfg, high) < getattr(cfg, low):
            raise ValueError(f"config key {high} must be >= {low} = {getattr(cfg, low)}, "
                             f"got {getattr(cfg, high)}")
    return cfg


def format_config(cfg: RunConfig) -> str:
    """One 'config key=value' line per field, declaration order."""
    lines = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"config {f.name}={value}")
    return "\n".join(lines) + "\n"
