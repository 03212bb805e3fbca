"""Dataset ingestion, the augmentation suite, and batch assembly.

Augmentation draw order per sample is fixed (resize scale, rotation angle,
blur coin, blur sigma, mirror coin, crop offsets) so a per-sample generator
fully determines the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pnm

IGNORE_LABEL = 255


@dataclass
class SegSample:
    image: np.ndarray  # float32 (3, H, W), values in [0, 1]
    labels: np.ndarray  # uint8 (H, W), values in [0, K) or 255

    def validate(self, num_classes: int) -> "SegSample":
        if self.image.ndim != 3 or self.image.shape[0] != 3:
            raise ValueError(f"image must be (3, H, W), got {self.image.shape}")
        if self.labels.shape != self.image.shape[1:]:
            raise ValueError(
                f"dim mismatch: image {self.image.shape[1:]} vs labels {self.labels.shape}"
            )
        bad = (self.labels != IGNORE_LABEL) & (self.labels >= num_classes)
        if bad.any():
            raise ValueError(
                f"label {int(self.labels[bad][0])} out of range for {num_classes} classes"
            )
        return self


@dataclass
class SegBatch:
    images: np.ndarray  # float32 (N, 3, H, W)
    labels: np.ndarray  # uint8 (N, H, W), values in [0, K) or 255


@dataclass
class AugmentConfig:
    mirror_prob: float = 0.5
    resize_range: tuple[float, float] = (0.5, 2.0)
    rotation_deg: float = 10.0
    blur_prob: float = 0.5
    blur_sigma_range: tuple[float, float] = (0.3, 1.0)
    crop_size: int = 64
    pad_value_image: float = 0.5  # every channel

    def __post_init__(self) -> None:
        lo, hi = self.resize_range
        if lo <= 0 or hi < lo:
            raise ValueError(f"resize_range must be positive and ordered, got {self.resize_range}")
        if self.crop_size < 8 or self.crop_size % 8:
            raise ValueError(f"crop_size must be >= 8 and divisible by 8, got {self.crop_size}")
        lo, hi = self.blur_sigma_range
        if not 0 < lo <= hi:
            raise ValueError(f"blur_sigma_range needs 0 < min <= max, got {self.blur_sigma_range}")
        if self.rotation_deg < 0:
            raise ValueError(f"rotation_deg must be >= 0, got {self.rotation_deg}")
        for name in ("mirror_prob", "blur_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")


# -- sample io ----------------------------------------------------------------


def load_sample(image_path, label_path, num_classes: int) -> SegSample:
    img = pnm.read_ppm(image_path).astype(np.float32) / 255.0
    labels = pnm.read_pgm(label_path)
    sample = SegSample(np.ascontiguousarray(img.transpose(2, 0, 1)), labels.copy())
    return sample.validate(num_classes)


def save_sample(sample: SegSample, image_path, label_path) -> None:
    img = np.clip(np.rint(sample.image * 255.0), 0, 255).astype(np.uint8)
    pnm.write_ppm(image_path, np.ascontiguousarray(img.transpose(1, 2, 0)))
    pnm.write_pgm(label_path, sample.labels.astype(np.uint8))


def write_dataset(root, samples: list[SegSample]) -> None:
    """images/NNNN.ppm + labels/NNNN.pgm + manifest.txt layout."""
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "labels").mkdir(parents=True, exist_ok=True)
    names = []
    for i, s in enumerate(samples):
        name = f"{i:04d}"
        save_sample(s, root / "images" / f"{name}.ppm", root / "labels" / f"{name}.pgm")
        names.append(name)
    (root / "manifest.txt").write_text("".join(n + "\n" for n in names))


def load_dataset(root, num_classes: int) -> list[SegSample]:
    root = Path(root)
    manifest = root / "manifest.txt"
    if not manifest.is_file():
        raise FileNotFoundError(f"no manifest.txt under {root}")
    names = [line.strip() for line in manifest.read_text().splitlines() if line.strip()]
    if not names:
        raise ValueError(f"empty manifest: {manifest}")
    return [
        load_sample(root / "images" / f"{n}.ppm", root / "labels" / f"{n}.pgm", num_classes)
        for n in names
    ]


# -- geometric primitives -----------------------------------------------------


def _axis_pos(src: int, dst: int) -> np.ndarray:
    """Align-corners source coordinates for dst output positions."""
    if dst == 1:
        return np.zeros(1)
    return np.arange(dst) * ((src - 1) / (dst - 1))


def resize_image(img: np.ndarray, out_hw: tuple[int, int],
                 rows: tuple[int, int] | None = None,
                 cols: tuple[int, int] | None = None) -> np.ndarray:
    """Bilinear resize of a (C, H, W) float map; up or down.

    rows/cols, each a (start, stop) range of the output, compute only that
    window; its pixels are bitwise those of the full resize.
    """
    _, h, w = img.shape
    oh, ow = out_hw
    r0, r1 = rows if rows is not None else (0, oh)
    c0, c1 = cols if cols is not None else (0, ow)
    if (oh, ow) == (h, w):
        return img[:, r0:r1, c0:c1].copy()
    ry = _axis_pos(h, oh)[r0:r1]
    rx = _axis_pos(w, ow)[c0:c1]
    i0 = np.floor(ry).astype(np.int64)
    i1 = np.minimum(i0 + 1, h - 1)
    fy = (ry - i0).astype(img.dtype)[None, :, None]
    j0 = np.floor(rx).astype(np.int64)
    j1 = np.minimum(j0 + 1, w - 1)
    fx = (rx - j0).astype(img.dtype)[None, None, :]
    gx = 1 - fx
    above, below = img[:, i0, :], img[:, i1, :]
    top = above[:, :, j0] * gx + above[:, :, j1] * fx
    bot = below[:, :, j0] * gx + below[:, :, j1] * fx
    return np.ascontiguousarray(top * (1 - fy) + bot * fy)


def resize_labels(labels: np.ndarray, out_hw: tuple[int, int],
                  rows: tuple[int, int] | None = None,
                  cols: tuple[int, int] | None = None) -> np.ndarray:
    """Nearest-neighbor resize of an (H, W) label map; rows/cols as in
    resize_image."""
    h, w = labels.shape
    oh, ow = out_hw
    r0, r1 = rows if rows is not None else (0, oh)
    c0, c1 = cols if cols is not None else (0, ow)
    if (oh, ow) == (h, w):
        return labels[r0:r1, c0:c1].copy()
    ri = np.clip(np.rint(_axis_pos(h, oh)[r0:r1]).astype(np.int64), 0, h - 1)
    ci = np.clip(np.rint(_axis_pos(w, ow)[c0:c1]).astype(np.int64), 0, w - 1)
    return np.ascontiguousarray(labels[ri[:, None], ci[None, :]])


def _rotation_source(h: int, w: int, degrees: float, rows: tuple[int, int],
                     cols: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Source coordinates (sy, sx) of output pixels rows x cols ((start, stop)
    ranges) when an h x w map turns by `degrees` about its center."""
    rad = math.radians(degrees)
    c, s = math.cos(rad), math.sin(rad)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(*rows) - cy, np.arange(*cols) - cx, indexing="ij")
    return c * yy + s * xx + cy, -s * yy + c * xx + cx


def _source_span(coords: np.ndarray, extent: int) -> tuple[int, int]:
    """Rows (or cols) [start, stop) that the clamped taps of coords read."""
    lo = min(max(math.floor(coords.min()), 0), extent - 1)
    hi = min(max(math.floor(coords.max()), 0), extent - 1)
    return lo, min(hi + 1, extent - 1) + 1


def _rotate_window(img: np.ndarray, labels: np.ndarray, sy: np.ndarray, sx: np.ndarray,
                   hw: tuple[int, int], origin: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Sample a rotated h x w map at source coordinates (sy, sx): bilinear and
    edge-clamped for the image, nearest with IGNORE_LABEL outside for the labels.

    img/labels hold the map's rows and cols from `origin` on, covering every
    tap (see _source_span).
    """
    h, w = hw
    top, left = origin
    stride = img.shape[2]
    fly, flx = np.floor(sy), np.floor(sx)
    i0 = np.clip(fly.astype(np.int64), 0, h - 1)
    i1 = np.clip(i0 + 1, 0, h - 1)
    j0 = np.clip(flx.astype(np.int64), 0, w - 1)
    j1 = np.clip(j0 + 1, 0, w - 1)
    fy = np.clip(sy - fly, 0.0, 1.0).astype(img.dtype)
    fx = np.clip(sx - flx, 0.0, 1.0).astype(img.dtype)
    gy, gx = 1 - fy, 1 - fx
    flat = img.reshape(img.shape[0], -1)
    r0, r1 = (i0 - top) * stride, (i1 - top) * stride
    k0, k1 = j0 - left, j1 - left
    # Edge clamp: source coords are clipped, so border rows/cols extend.
    # Sum of corner * wy * wx terms, left to right, accumulated in place.
    out = np.take(flat, r0 + k0, axis=1) * gy
    out *= gx
    for rows, cols, wy, wx in ((r0, k1, gy, fx), (r1, k0, fy, gx), (r1, k1, fy, fx)):
        term = np.take(flat, rows + cols, axis=1) * wy
        term *= wx
        out += term

    ri = np.clip(np.rint(sy).astype(np.int64), 0, h - 1) - top
    ci = np.clip(np.rint(sx).astype(np.int64), 0, w - 1) - left
    lab = labels[ri, ci]
    outside = (sy < -0.5) | (sy > h - 0.5) | (sx < -0.5) | (sx > w - 0.5)
    lab = np.where(outside, np.uint8(IGNORE_LABEL), lab)
    return np.ascontiguousarray(out), np.ascontiguousarray(lab)


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian with radius ceil(3*sigma), edge-clamped."""
    radius = _blur_radius(sigma)
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(t * t) / (2.0 * sigma * sigma))
    kernel = (kernel / kernel.sum()).astype(img.dtype)
    for axis in (1, 2):
        pad = [(0, 0), (0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.pad(img, pad, mode="edge")
        win = np.lib.stride_tricks.sliding_window_view(padded, 2 * radius + 1, axis=axis)
        img = np.tensordot(win, kernel, axes=(3, 0)).astype(img.dtype, copy=False)
    return np.ascontiguousarray(img)


def _blur_radius(sigma: float) -> int:
    return math.ceil(3.0 * sigma)


def _pad_to(img: np.ndarray, labels: np.ndarray, size: int,
            cfg: AugmentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Extend bottom and right to at least size x size with the pad values."""
    _, h, w = img.shape
    if h >= size and w >= size:
        return img, labels
    ph, pw = max(h, size), max(w, size)
    canvas = np.full((3, ph, pw), cfg.pad_value_image, dtype=img.dtype)
    canvas[:, :h, :w] = img
    lcanvas = np.full((ph, pw), IGNORE_LABEL, dtype=labels.dtype)
    lcanvas[:h, :w] = labels
    return canvas, lcanvas


def augment(sample: SegSample, cfg: AugmentConfig, rng: np.random.Generator) -> SegSample:
    """resize -> rotate -> blur -> mirror -> pad-and-random-crop.

    Every draw is made first, in the documented order; then only the pixels
    the crop keeps are computed (plus the blur's reach), which gives bitwise
    the result of running each stage on the whole map. The blur alone runs on
    a full-size map: its BLAS dot products may round a pixel differently
    when the map's shape changes.
    """
    img, lab = sample.image, sample.labels
    _, h, w = img.shape
    crop = cfg.crop_size

    scale = float(rng.uniform(*cfg.resize_range))
    oh, ow = max(1, round(h * scale)), max(1, round(w * scale))
    degrees = float(rng.uniform(-cfg.rotation_deg, cfg.rotation_deg))
    sigma = float(rng.uniform(*cfg.blur_sigma_range)) if rng.random() < cfg.blur_prob else None
    mirror = rng.random() < cfg.mirror_prob
    y0 = int(rng.integers(0, max(oh, crop) - crop + 1))
    x0 = int(rng.integers(0, max(ow, crop) - crop + 1))

    # The crop's in-map part, in rows/cols of the map before mirroring.
    rows = (y0, min(y0 + crop, oh))
    cols = (x0, min(x0 + crop, ow))
    if mirror:
        cols = (ow - cols[1], ow - cols[0])
    reach = _blur_radius(sigma) if sigma is not None else 0
    area_rows = (max(rows[0] - reach, 0), min(rows[1] + reach, oh))
    area_cols = (max(cols[0] - reach, 0), min(cols[1] + reach, ow))

    sy, sx = _rotation_source(oh, ow, degrees, area_rows, area_cols)
    span_rows, span_cols = _source_span(sy, oh), _source_span(sx, ow)
    img, lab = _rotate_window(
        resize_image(img, (oh, ow), span_rows, span_cols),
        resize_labels(lab, (oh, ow), span_rows, span_cols),
        sy, sx, (oh, ow), (span_rows[0], span_cols[0]),
    )
    keep_rows = slice(rows[0] - area_rows[0], rows[1] - area_rows[0])
    keep_cols = slice(cols[0] - area_cols[0], cols[1] - area_cols[0])
    lab = lab[keep_rows, keep_cols]
    if sigma is None:
        img = img[:, keep_rows, keep_cols]
    else:
        full = np.zeros((img.shape[0], oh, ow), dtype=img.dtype)
        full[:, area_rows[0] : area_rows[1], area_cols[0] : area_cols[1]] = img
        img = gaussian_blur(full, sigma)[:, rows[0] : rows[1], cols[0] : cols[1]]

    if mirror:
        img, lab = img[:, :, ::-1], lab[:, ::-1]
    img, lab = _pad_to(np.clip(img, 0.0, 1.0), lab, crop, cfg)
    return SegSample(np.ascontiguousarray(img), np.ascontiguousarray(lab))


# -- batches ------------------------------------------------------------------


def collate(samples: list[SegSample]) -> SegBatch:
    shape = samples[0].image.shape
    for s in samples[1:]:
        if s.image.shape != shape:
            raise ValueError(f"batch needs identical sizes, got {shape} vs {s.image.shape}")
    images = np.stack([s.image for s in samples]).astype(np.float32, copy=False)
    labels = np.stack([s.labels for s in samples])
    return SegBatch(images, labels)


def class_palette(num_classes: int) -> np.ndarray:
    """Deterministic class -> RGB table (uint8, shape (K, 3)) for color dumps."""
    hues = (np.arange(num_classes) * 0.61803398875) % 1.0
    rgb = np.empty((num_classes, 3), dtype=np.uint8)
    for i, h in enumerate(hues):
        x = h * 6.0
        k = int(x) % 6
        f = x - int(x)
        v, p, q, t = 1.0, 0.25, 1.0 - 0.75 * f, 0.25 + 0.75 * f
        r, g, b = [
            (v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q),
        ][k]
        rgb[i] = np.rint(np.array([r, g, b]) * 255.0)
    return rgb
