"""Synthetic context-dependent scenes.

Each image is a gray background wash shared by every "scene" class, with a
colored context band along the top that alone identifies the scene, plus
foreground objects whose appearance is drawn from one shared distribution no
matter the scene. The object's *label* is a function of the scene class, so
both object and wash pixels are locally ambiguous by construction: only the
band, which can sit a full canvas away, disambiguates them. That is the
mismatched-relationship failure mode, reproduced at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import IGNORE_LABEL, SegSample

# Stream tag for per-sample generators; changing it regenerates every corpus.
_SYNTH_STREAM = 7

# Context-band colors, one per scene; extended procedurally past four scenes.
_SCENE_COLORS = np.array(
    [
        [0.18, 0.32, 0.55],
        [0.55, 0.42, 0.18],
        [0.22, 0.50, 0.28],
        [0.48, 0.22, 0.45],
    ],
    dtype=np.float32,
)

_BACKGROUND_GRAY = 0.35


@dataclass
class SynthConfig:
    canvas: int = 64
    num_scene_classes: int = 2
    num_object_classes: int = 2
    object_count_range: tuple[int, int] = (5, 9)
    object_radius_range: tuple[int, int] = (6, 12)
    noise_sigma: float = 0.06
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_scene_classes < 2 or self.num_object_classes < 2:
            raise ValueError("need at least 2 scene and 2 object classes")
        if self.num_object_classes > self.num_scene_classes:
            raise ValueError("every object class needs a scene to pair with")
        if self.num_classes > IGNORE_LABEL:
            raise ValueError(f"{self.num_classes} scene plus object classes exceed {IGNORE_LABEL}: "
                             f"labels are uint8 and {IGNORE_LABEL} is the ignore label")
        if self.canvas < 16:
            raise ValueError(f"canvas too small: {self.canvas}")

    @property
    def num_classes(self) -> int:
        return self.num_scene_classes + self.num_object_classes

    def object_class_for_scene(self, scene: int) -> int:
        return self.num_scene_classes + (scene % self.num_object_classes)


def _scene_color(idx: int) -> np.ndarray:
    if idx < len(_SCENE_COLORS):
        return _SCENE_COLORS[idx]
    phi = 0.61803398875 * (idx + 1)
    return np.array([(phi * k) % 0.6 + 0.2 for k in (1.0, 2.0, 3.0)], dtype=np.float32)


def _band_height(size: int) -> int:
    return max(4, size // 8)


def _scene_texture(scene: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Scene-independent gray wash; the scene shows only in the top band.

    Every background pixel outside the band is drawn from one distribution
    shared by all scenes, so nothing local tells the scenes apart. The band
    plays the role of distant context (sky over the water, say): the only
    evidence for which object class the blobs below carry.
    """
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    theta = rng.uniform(0.0, np.pi)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    freq = rng.uniform(0.05, 0.12)
    wave = 0.08 * np.sin(2.0 * np.pi * freq * (np.cos(theta) * yy + np.sin(theta) * xx) + phase)
    base = np.broadcast_to(
        (_BACKGROUND_GRAY + wave[None]).astype(np.float32), (3, size, size)
    ).copy()
    base[:, : _band_height(size), :] = _scene_color(scene)[:, None, None]
    return base


def _paint_objects(img: np.ndarray, labels: np.ndarray, obj_class: int,
                   cfg: SynthConfig, rng: np.random.Generator) -> None:
    """Disks and squares from the shared appearance distribution.

    Draw order is fixed: count, then per object (cy, cx, radius, shape bit,
    gray level, 3 channel jitters). The distribution never looks at obj_class.
    """
    size = cfg.canvas
    lo, hi = cfg.object_count_range
    count = int(rng.integers(lo, hi + 1))
    band = _band_height(size)
    r_max = cfg.object_radius_range[1]
    # Centers stay at least r_max below the band so no object can occlude
    # the context cue.
    top = min(band + r_max, size - 1)
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    for _ in range(count):
        cy = int(rng.integers(top, size))
        cx = int(rng.integers(0, size))
        r = int(rng.integers(cfg.object_radius_range[0], cfg.object_radius_range[1] + 1))
        square = bool(rng.integers(0, 2))
        gray = float(rng.uniform(0.55, 0.85))
        jitter = rng.normal(0.0, 0.02, size=3).astype(np.float32)
        if square:
            half = max(1, int(round(r * 0.886)))  # area-matched to the disk
            mask = (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half)
        else:
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        color = np.clip(gray + jitter, 0.0, 1.0)[:, None]
        img[:, mask] = color
        labels[mask] = obj_class


def _void_boundary_ring(labels: np.ndarray) -> None:
    """Mark 1px on each side of every label edge as ignore, the usual
    annotation treatment for contours ambiguous at the label resolution."""
    edge = np.zeros(labels.shape, dtype=bool)
    ydif = labels[:-1, :] != labels[1:, :]
    edge[:-1, :] |= ydif
    edge[1:, :] |= ydif
    xdif = labels[:, :-1] != labels[:, 1:]
    edge[:, :-1] |= xdif
    edge[:, 1:] |= xdif
    labels[edge] = IGNORE_LABEL


def synth_generate(cfg: SynthConfig, n: int) -> list[SegSample]:
    """n samples; sample i depends only on (cfg.seed, i), so corpora are
    byte-identical across runs and machines."""
    samples = []
    for i in range(n):
        rng = np.random.default_rng([cfg.seed, _SYNTH_STREAM, i])
        scene = i % cfg.num_scene_classes
        img = _scene_texture(scene, cfg.canvas, rng)
        labels = np.full((cfg.canvas, cfg.canvas), scene, dtype=np.uint8)
        _paint_objects(img, labels, cfg.object_class_for_scene(scene), cfg, rng)
        _void_boundary_ring(labels)
        img += rng.normal(0.0, cfg.noise_sigma, size=img.shape).astype(np.float32)
        np.clip(img, 0.0, 1.0, out=img)
        samples.append(SegSample(img.astype(np.float32), labels))
    return samples
