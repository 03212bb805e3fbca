"""Seeded training loop.

An epoch is n // batch_size full batches of its shuffled order; the last
n % batch_size samples of that order are skipped, and the next epoch
reshuffles. Every random draw comes from a generator keyed by (seed, stream
tag, index): the shuffle order for epoch e is default_rng([seed, 1, e]), the
augmentation stream for sample j of iteration i is default_rng([seed, 2, i, j]).
A resumed run replays the remaining iterations bit-for-bit without ever
serializing generator state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import AugmentConfig, SegBatch, SegSample, augment, collate
from .model import PSPNet, check_trainable
from .optim import SGD, OptimConfig, poly_lr
from .tensor import Graph, Tensor, backward

TAG_SHUFFLE = 1
TAG_AUG = 2


@dataclass
class IterStats:
    iteration: int
    lr: float
    main_loss: float
    aux_loss: float
    total_loss: float


def epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, TAG_SHUFFLE, epoch]).permutation(n)


def augment_rng(seed: int, iteration: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, TAG_AUG, iteration, slot])


def batch_for_iteration(samples: list[SegSample], batch_size: int, seed: int,
                        iteration: int, aug_cfg: AugmentConfig,
                        batches: dict[int, SegBatch] | None = None) -> SegBatch:
    """Deterministic batch for one global iteration index.

    `batches` maps iterations to batches already built for these same
    samples, batch size, seed and augmentation config. A hit is returned as
    it is; a miss is built, made read-only and stored, so every caller that
    shares the dict trains on the same arrays and none can alter them for
    the others.
    """
    if batches is not None and iteration in batches:
        return batches[iteration]
    n = len(samples)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if n < batch_size:
        raise ValueError(f"{n} samples do not fill one batch of batch_size {batch_size}")
    per_epoch = n // batch_size
    epoch, slot = divmod(iteration, per_epoch)
    order = epoch_order(seed, epoch, n)
    ids = order[slot * batch_size : slot * batch_size + batch_size]
    picked = [samples[int(i)] for i in ids]
    batch = collate([augment(s, aug_cfg, augment_rng(seed, iteration, j))
                     for j, s in enumerate(picked)])
    if batches is not None:
        batch.images.flags.writeable = False
        batch.labels.flags.writeable = False
        batches[iteration] = batch
    return batch


def train_loop(model: PSPNet, sgd: SGD, samples: list[SegSample],
               aug_cfg: AugmentConfig, optim_cfg: OptimConfig, *, seed: int,
               batch_size: int, start_iter: int = 0,
               on_iteration: Callable[[IterStats], None] | None = None,
               batches: dict[int, SegBatch] | None = None) -> list[IterStats]:
    """Run iterations [start_iter, max_iter); returns per-iteration stats.

    `batches` goes to `batch_for_iteration`: runs that share one dict (same
    samples, seed, batch size and augmentation) build each batch once.

    on_iteration fires after the optimizer step, so a checkpoint taken there
    captures the state a fresh run would reach at the same index. A
    non-finite loss raises RuntimeError before the step, so no NaN reaches
    the parameters or a checkpoint. A batch shape `check_trainable` rejects
    raises ValueError before the first op, so the model is left untouched.
    """
    if not 0 <= start_iter <= optim_cfg.max_iter:
        raise ValueError(f"start iteration {start_iter} outside the schedule "
                         f"[0, {optim_cfg.max_iter}]")
    check_trainable(model.cfg, batch_size, aug_cfg.crop_size)
    history: list[IterStats] = []
    for it in range(start_iter, optim_cfg.max_iter):
        batch = batch_for_iteration(samples, batch_size, seed, it, aug_cfg, batches)
        lr = poly_lr(it, optim_cfg)
        with Graph():
            total, main, aux = model.forward_train(Tensor(batch.images), batch.labels)
            backward(total)
        total_loss = float(total.data)
        if not math.isfinite(total_loss):
            raise RuntimeError(f"non-finite loss at iteration {it}")
        sgd.step(lr)
        stats = IterStats(
            iteration=it,
            lr=lr,
            main_loss=float(main.data),
            aux_loss=float(aux.data),
            total_loss=total_loss,
        )
        history.append(stats)
        if on_iteration is not None:
            on_iteration(stats)
    return history
