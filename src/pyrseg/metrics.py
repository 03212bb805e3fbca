"""Confusion-matrix metrics and multi-scale test-time inference."""

from __future__ import annotations

import io

import numpy as np

from . import ops
from .data import IGNORE_LABEL, float_image, resize_image
from .model import PSPNet
from .tensor import Tensor

DEFAULT_SCALES = (0.5, 0.75, 1.0, 1.25, 1.5)


class ConfusionMatrix:
    """counts[g][p] = pixels with ground truth g predicted p; IGNORE_LABEL excluded."""

    def __init__(self, num_classes: int) -> None:
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def accumulate(self, pred: np.ndarray, gt: np.ndarray) -> None:
        pred = np.asarray(pred)
        gt = np.asarray(gt)
        if pred.shape != gt.shape:
            raise ValueError(f"dim mismatch: pred {pred.shape} vs gt {gt.shape}")
        k = self.num_classes
        valid = gt != IGNORE_LABEL
        g = gt[valid].astype(np.int64)
        p = pred[valid].astype(np.int64)
        if g.size and (g.min() < 0 or g.max() >= k):
            raise ValueError(f"ground-truth label outside [0, {k})")
        if p.size and (p.min() < 0 or p.max() >= k):
            raise ValueError(f"predicted label outside [0, {k})")
        self.counts += np.bincount(k * g + p, minlength=k * k).reshape(k, k)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def pixel_accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm.counts) / cm.total)


def per_class_iou(cm: ConfusionMatrix) -> np.ndarray:
    """IoU per class; NaN for classes absent from both pred and gt."""
    diag = np.diag(cm.counts).astype(np.float64)
    rows = cm.counts.sum(axis=1).astype(np.float64)
    cols = cm.counts.sum(axis=0).astype(np.float64)
    union = rows + cols - diag
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(union > 0, diag / union, np.nan)


def mean_iou(cm: ConfusionMatrix) -> float:
    iou = per_class_iou(cm)
    present = ~np.isnan(iou)
    if not present.any():
        raise ValueError("empty confusion matrix")
    return float(iou[present].mean())


def per_class_report(cm: ConfusionMatrix, class_names: list[str]) -> tuple[str, str]:
    """Returns (aligned plain text, CSV with header 'class,iou')."""
    if len(class_names) != cm.num_classes:
        raise ValueError(
            f"{len(class_names)} names for {cm.num_classes} classes"
        )
    iou = per_class_iou(cm)
    width = max(len("class"), max(len(n) for n in class_names), len("mean_iou"))
    text = io.StringIO()
    text.write(f"{'class':<{width}}  iou\n")
    for name, value in zip(class_names, iou):
        cell = "absent" if np.isnan(value) else f"{value:.6f}"
        text.write(f"{name:<{width}}  {cell}\n")
    text.write(f"{'mean_iou':<{width}}  {mean_iou(cm):.6f}\n")

    csv = io.StringIO()
    csv.write("class,iou\n")
    for name, value in zip(class_names, iou):
        cell = "" if np.isnan(value) else f"{value:.9f}"
        csv.write(f"{name},{cell}\n")
    csv.write(f"mean_iou,{mean_iou(cm):.9f}\n")
    return text.getvalue(), csv.getvalue()


def _scaled_size(extent: int, scale: float) -> int:
    return max(8, int(round(extent * scale / 8.0)) * 8)


def _scaled_sizes(model: PSPNet, h: int, w: int, scales,
                  min_size: int) -> list[tuple[int, int]]:
    """(height, width) of an h x w image at each scale; an error if a scale is
    not positive, a side drops below min_size, or the stride-8 map is smaller
    than the model's largest pyramid bin."""
    pyramid = model.cfg.pyramid
    largest = max(pyramid.bin_sizes) if pyramid is not None else 0
    sizes = []
    for s in scales:
        if not s > 0:
            raise ValueError(f"scale {s} is not positive; drop it from scales")
        th, tw = _scaled_size(h, s), _scaled_size(w, s)
        if th < min_size or tw < min_size:
            raise ValueError(f"a {h}x{w} image at scale {s} gives {th}x{tw}, below the "
                             f"minimum size {min_size}; drop the scale from scales or lower "
                             f"min_scale_size")
        if min(th, tw) // 8 < largest:
            raise ValueError(f"a {h}x{w} image at scale {s} gives {th}x{tw}, whose "
                             f"{th // 8}x{tw // 8} feature map is smaller than psp_bins' "
                             f"largest bin {largest}; drop the scale from scales")
        sizes.append((th, tw))
    return sizes


def multi_scale_infer(model: PSPNet, image: np.ndarray,
                      scales=DEFAULT_SCALES, min_size: int = 64) -> np.ndarray:
    """(K, H, W) class probabilities of one (3, H, W) image (uint8 or float32,
    as float_image reads it), averaged over rescaled copies of it.

    Scaled sizes are rounded to multiples of 8. A scale that is not positive,
    whose size drops below min_size, or whose stride-8 map is smaller than the
    largest pyramid bin is an error, raised before the first forward.
    """
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected one (3, H, W) image, got {image.shape}")
    scales = tuple(scales)
    if not scales:
        raise ValueError("need at least one scale")
    image = float_image(image)
    _, h, w = image.shape
    acc = None
    for th, tw in _scaled_sizes(model, h, w, scales, min_size):
        scaled = image if (th, tw) == (h, w) else resize_image(image, (th, tw))
        prob = ops.stable_softmax(model.forward_infer(Tensor(scaled[None])), axis=1)[0]
        if (th, tw) != (h, w):
            prob = resize_image(prob, (h, w))
        acc = prob if acc is None else acc + prob
    return acc / len(scales)


def evaluate(model: PSPNet, samples, num_classes: int, scales=(1.0,),
             min_size: int = 64) -> ConfusionMatrix:
    for sample in samples:  # every image's sizes are checked before the first forward
        _scaled_sizes(model, *sample.image.shape[1:], scales, min_size)
    cm = ConfusionMatrix(num_classes)
    for sample in samples:
        prob = multi_scale_infer(model, sample.image, scales, min_size)
        cm.accumulate(prob.argmax(axis=0), sample.labels)  # ties go to the lowest class
    return cm
