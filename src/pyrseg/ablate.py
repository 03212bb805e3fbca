"""Pooling-variant and aux-weight ablation grids with shared seeds."""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from .data import AugmentConfig, SegBatch, SegSample
from .metrics import evaluate, mean_iou, pixel_accuracy
from .model import ModelConfig, build_model
from .optim import SGD, OptimConfig
from .pyramid import AblationVariant, psp_ablation_variants
from .synth import SynthConfig
from .training import train_loop

ALPHA_SWEEP = (0.0, 0.3, 0.4, 0.6, 0.9)


def context_dataset_config(seed: int = 0) -> SynthConfig:
    """Corpus recipe for the ablation grids: 128px canvas, 64px training crops.

    The canvas must outreach what a crop-trained convolutional stack can
    transport at evaluation time. Training crops frequently miss the scene
    band entirely, so a purely local path never learns to carry the cue
    across a full-size test image; the pyramid's image-wide bins can.
    Shrinking the canvas to the crop size collapses the measured gap.
    """
    return SynthConfig(canvas=128, object_count_range=(12, 18),
                       object_radius_range=(8, 15), seed=seed)


@dataclass
class AblationRow:
    name: str
    seed: int
    mean_iou: float
    pixel_acc: float
    final_loss: float
    loss_at_10: float


def train_and_eval(name: str, cfg: ModelConfig, train_samples: list[SegSample],
                   test_samples: list[SegSample], optim_cfg: OptimConfig,
                   aug_cfg: AugmentConfig, *, seed: int, batch_size: int,
                   batches: dict[int, SegBatch] | None = None) -> AblationRow:
    """Train one cell and evaluate it. `batches` is shared by the cells of
    one seed (see `training.batch_for_iteration`)."""
    model = build_model(cfg, seed=seed)
    sgd = SGD(model, optim_cfg)
    history = train_loop(model, sgd, train_samples, aug_cfg, optim_cfg,
                         seed=seed, batch_size=batch_size, batches=batches)
    cm = evaluate(model, test_samples)
    probe = min(10, len(history) - 1)
    return AblationRow(
        name=name,
        seed=seed,
        mean_iou=mean_iou(cm),
        pixel_acc=pixel_accuracy(cm),
        final_loss=history[-1].total_loss,
        loss_at_10=history[probe].total_loss,
    )


def variant_config(base: ModelConfig, variant: AblationVariant) -> ModelConfig:
    return replace(base, pyramid=variant.pyramid)


def variant_cells(base: ModelConfig, variants: list[AblationVariant] | None = None
                  ) -> list[tuple[str, ModelConfig]]:
    if variants is None:
        variants = psp_ablation_variants()
    return [(v.name, variant_config(base, v)) for v in variants]


def alpha_cells(base: ModelConfig, alphas=ALPHA_SWEEP) -> list[tuple[str, ModelConfig]]:
    """alpha=0 trains without the auxiliary branch entirely; the trunk update
    sequence is identical either way, so the rows stay comparable."""
    return [(f"alpha={alpha:g}", replace(base, aux_weight=alpha)) for alpha in alphas]


def run_cells(cells: list[tuple[str, ModelConfig]], train_samples, test_samples,
              optim_cfg: OptimConfig, aug_cfg: AugmentConfig, *, seeds,
              batch_size: int, progress) -> list[AblationRow]:
    """One row per (cell, seed), cells outermost, in the order given.

    Cells train with seeds outermost: the first cell of a seed builds its
    batches and the other cells of that seed reuse them, so one seed's
    batches are held at a time. A cell whose config and seed match a cell
    already run is not trained again; it gets that row under its own name.
    `progress` sees each row in the returned order, as soon as every row
    before it is done, so with several seeds it is called in bursts.
    """
    seeds = list(seeds)
    rows: list[AblationRow | None] = [None] * (len(cells) * len(seeds))
    reported = 0
    for s, seed in enumerate(seeds):
        batches: dict[int, SegBatch] = {}
        trained: list[tuple[ModelConfig, AblationRow]] = []
        for c, (name, cfg) in enumerate(cells):
            twin = next((row for seen, row in trained if seen == cfg), None)
            if twin is None:
                row = train_and_eval(name, cfg, train_samples, test_samples,
                                     optim_cfg, aug_cfg, seed=seed,
                                     batch_size=batch_size, batches=batches)
                trained.append((cfg, row))
            else:
                row = replace(twin, name=name)
            rows[c * len(seeds) + s] = row
            while reported < len(rows) and rows[reported] is not None:
                if progress is not None:
                    progress(rows[reported])
                reported += 1
    return rows


def run_variant_grid(base: ModelConfig, train_samples, test_samples,
                     optim_cfg: OptimConfig, aug_cfg: AugmentConfig, *,
                     seeds, batch_size: int,
                     variants: list[AblationVariant] | None = None,
                     progress=None) -> list[AblationRow]:
    return run_cells(variant_cells(base, variants), train_samples, test_samples,
                     optim_cfg, aug_cfg, seeds=seeds, batch_size=batch_size,
                     progress=progress)


def run_alpha_sweep(base: ModelConfig, train_samples, test_samples,
                    optim_cfg: OptimConfig, aug_cfg: AugmentConfig, *,
                    seeds, batch_size: int, alphas=ALPHA_SWEEP,
                    progress=None) -> list[AblationRow]:
    return run_cells(alpha_cells(base, alphas), train_samples, test_samples,
                     optim_cfg, aug_cfg, seeds=seeds, batch_size=batch_size,
                     progress=progress)


def summarize(rows: list[AblationRow]) -> list[tuple[str, float, float, float, float]]:
    """Per name: (name, mIoU mean, mIoU std, acc mean, acc std), input order."""
    order: list[str] = []
    groups: dict[str, list[AblationRow]] = {}
    for row in rows:
        if row.name not in groups:
            order.append(row.name)
            groups[row.name] = []
        groups[row.name].append(row)
    out = []
    for name in order:
        ious = np.array([r.mean_iou for r in groups[name]])
        accs = np.array([r.pixel_acc for r in groups[name]])
        out.append((name, float(ious.mean()), float(ious.std()),
                    float(accs.mean()), float(accs.std())))
    return out


def format_table(rows: list[AblationRow], title: str) -> str:
    summary = summarize(rows)
    width = max(len("variant"), max(len(s[0]) for s in summary))
    buf = io.StringIO()
    buf.write(f"{title}\n")
    buf.write(f"{'variant':<{width}}  {'mean_iou':>17}  {'pixel_acc':>17}\n")
    for name, im, istd, am, astd in summary:
        buf.write(f"{name:<{width}}  {im:7.4f} +/- {istd:6.4f}  "
                  f"{am:7.4f} +/- {astd:6.4f}\n")
    return buf.getvalue()


def format_csv(rows: list[AblationRow]) -> str:
    buf = io.StringIO()
    buf.write("variant,seed,mean_iou,pixel_acc,final_loss,loss_at_10\n")
    for r in rows:
        buf.write(f"{r.name},{r.seed},{r.mean_iou:.9f},{r.pixel_acc:.9f},"
                  f"{r.final_loss:.9f},{r.loss_at_10:.9f}\n")
    return buf.getvalue()
