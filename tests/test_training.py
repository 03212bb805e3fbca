"""Training-loop determinism, resume equivalence and memory bound."""

import gc
import tracemalloc

import numpy as np
import pytest

from pyrseg import checkpoint as ckpt
from pyrseg.backbone import BackboneConfig
from pyrseg.data import AugmentConfig, augment, collate
from pyrseg.model import ModelConfig, build_model
from pyrseg.optim import SGD, OptimConfig
from pyrseg.pyramid import PyramidConfig
from pyrseg.synth import SynthConfig, synth_generate
from pyrseg.training import (
    augment_rng,
    batch_for_iteration,
    epoch_order,
    train_loop,
)


def _tiny_model(seed=0):
    cfg = ModelConfig(
        backbone=BackboneConfig(stage_blocks=(1, 1, 1, 1), base_channels=8,
                                dilation_plan=(1, 1, 1, 1)),
        pyramid=PyramidConfig(bin_sizes=(1, 2), pool_mode="average", dim_reduce=True),
        num_classes=4,
        aux_weight=0.4,
        head_channels=8,
    )
    return cfg, build_model(cfg, seed=seed)


def _corpus(n=6, canvas=32):
    return synth_generate(SynthConfig(canvas=canvas, object_radius_range=(4, 7),
                                      object_count_range=(2, 4)), n)


def _aug(crop=16):
    return AugmentConfig(crop_size=crop, resize_range=(0.75, 1.25),
                         rotation_deg=5.0, blur_prob=0.25)


def test_epoch_orders_differ_and_replay():
    a = epoch_order(0, 0, 50)
    b = epoch_order(0, 1, 50)
    assert sorted(a) == list(range(50))
    assert not np.array_equal(a, b)
    assert np.array_equal(a, epoch_order(0, 0, 50))
    assert not np.array_equal(a, epoch_order(1, 0, 50))


def test_shared_batches_are_stored_read_only():
    samples = _corpus()
    shared = {}
    first = batch_for_iteration(samples, 4, seed=3, iteration=7, aug_cfg=_aug(), batches=shared)
    assert list(shared) == [7]
    again = batch_for_iteration(samples, 4, seed=3, iteration=7, aug_cfg=_aug(), batches=shared)
    assert again is first
    fresh = batch_for_iteration(samples, 4, seed=3, iteration=7, aug_cfg=_aug())
    assert np.array_equal(first.images, fresh.images)
    assert np.array_equal(first.labels, fresh.labels)
    assert fresh.images.flags.writeable
    # one cached batch feeds every cell of a seed: an in-place write must fail
    with pytest.raises(ValueError, match="read-only"):
        first.images[0, 0, 0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        first.labels += 1


def test_shared_batches_train_the_same_bits():
    samples = _corpus()
    ocfg = OptimConfig(max_iter=3)
    shared = {}
    runs = []
    for batches in (None, shared, shared):
        cfg, model = _tiny_model()
        sgd = SGD(model, ocfg)
        hist = train_loop(model, sgd, samples, _aug(), ocfg, seed=2, batch_size=2,
                          batches=batches)
        runs.append(([h.total_loss for h in hist],
                     {k: p.data.copy() for k, p in model.named_parameters()}))
    assert sorted(shared) == [0, 1, 2]
    for losses, params in runs[1:]:
        assert losses == runs[0][0]
        assert all(np.array_equal(params[k], runs[0][1][k]) for k in params)


def test_batches_deterministic_and_order_preserving():
    samples = _corpus()
    batch = batch_for_iteration(samples, 4, seed=3, iteration=6, aug_cfg=_aug())
    again = batch_for_iteration(samples, 4, seed=3, iteration=6, aug_cfg=_aug())
    assert np.array_equal(batch.images, again.images)
    assert np.array_equal(batch.labels, again.labels)
    # 6 samples at batch 4 is 2 batches an epoch, so iteration 6 opens epoch
    # 3; slot j holds picked sample j, augmented by stream (seed, iteration, j)
    picked = [samples[int(i)] for i in epoch_order(3, 3, 6)[:4]]
    want = collate([augment(s, _aug(), augment_rng(3, 6, j)) for j, s in enumerate(picked)])
    assert np.array_equal(batch.images, want.images)
    assert np.array_equal(batch.labels, want.labels)
    other = batch_for_iteration(samples, 4, seed=3, iteration=7, aug_cfg=_aug())
    assert not np.array_equal(batch.images[:2], other.images)


def test_batch_covers_epoch_without_repeats():
    # 6 samples, batch 4 -> iteration 0 takes 4, iteration 1 the other 2
    samples = _corpus()
    b0 = batch_for_iteration(samples, 4, seed=0, iteration=0, aug_cfg=_aug())
    b1 = batch_for_iteration(samples, 4, seed=0, iteration=1, aug_cfg=_aug())
    assert b0.images.shape[0] == 4
    assert b1.images.shape[0] == 2


def test_batch_for_iteration_validation():
    with pytest.raises(ValueError, match="empty"):
        batch_for_iteration([], 4, seed=0, iteration=0, aug_cfg=_aug())
    with pytest.raises(ValueError, match="batch_size"):
        batch_for_iteration(_corpus(), 0, seed=0, iteration=0, aug_cfg=_aug())


def test_augment_rng_streams_distinct():
    a = augment_rng(0, 5, 0).uniform(size=4)
    b = augment_rng(0, 5, 1).uniform(size=4)
    c = augment_rng(0, 6, 0).uniform(size=4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, augment_rng(0, 5, 0).uniform(size=4))


def test_train_loop_history_and_callback():
    _, model = _tiny_model()
    ocfg = OptimConfig(max_iter=4)
    sgd = SGD(model, ocfg)
    seen = []
    history = train_loop(model, sgd, _corpus(), _aug(), ocfg, seed=0,
                         batch_size=2, on_iteration=seen.append)
    assert [h.iteration for h in history] == [0, 1, 2, 3]
    assert seen == history
    for h in history:
        assert h.total_loss > 0.0
        assert abs(h.total_loss - (h.main_loss + 0.4 * h.aux_loss)) < 1e-5
        assert h.lr > 0.0


def test_train_loop_leaves_no_gradient_behind():
    # each step applies and clears what that iteration's backward wrote
    _, model = _tiny_model()
    ocfg = OptimConfig(max_iter=3)
    held = []
    train_loop(model, SGD(model, ocfg), _corpus(), _aug(), ocfg, seed=0, batch_size=2,
               on_iteration=lambda _: held.append(
                   [n for n, p in model.named_parameters() if p.grad is not None]))
    assert held == [[], [], []]


def test_same_seed_same_trajectory():
    ocfg = OptimConfig(max_iter=3)
    losses = []
    for _ in range(2):
        _, model = _tiny_model(seed=5)
        sgd = SGD(model, ocfg)
        history = train_loop(model, sgd, _corpus(), _aug(), ocfg, seed=5, batch_size=2)
        losses.append([h.total_loss for h in history])
    assert losses[0] == losses[1]


def test_resume_matches_straight_run(tmp_path):
    """Checkpoint mid-run, reload, finish: bitwise-equal weights and losses."""
    samples = _corpus()
    ocfg = OptimConfig(max_iter=6)
    cfg, model = _tiny_model(seed=2)
    sgd = SGD(model, ocfg)
    path = tmp_path / "mid.pspc"

    def snapshot(stats):
        # fires after the step, so this is the state entering iteration 3
        if stats.iteration == 2:
            ckpt.save(str(path), model, sgd.velocity, 3)

    straight = train_loop(model, sgd, samples, _aug(), ocfg, seed=2,
                          batch_size=2, on_iteration=snapshot)

    m2, velocity, start = ckpt.load(str(path), cfg, seed=77)
    assert start == 3
    sgd2 = SGD(m2, ocfg)
    for name in sgd2.velocity:
        sgd2.velocity[name][...] = velocity[name]
    rest = train_loop(m2, sgd2, samples, _aug(), ocfg, seed=2,
                      batch_size=2, start_iter=start)

    assert [h.total_loss for h in rest] == [h.total_loss for h in straight[3:]]
    for (na, pa), (nb, pb) in zip(sorted(model.named_parameters()),
                                  sorted(m2.named_parameters())):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)


def test_start_iter_skips_the_prefix():
    _, model = _tiny_model()
    ocfg = OptimConfig(max_iter=5)
    sgd = SGD(model, ocfg)
    history = train_loop(model, sgd, _corpus(), _aug(), ocfg, seed=0,
                         batch_size=2, start_iter=3)
    assert [h.iteration for h in history] == [3, 4]


def test_start_iter_outside_schedule_rejected():
    _, model = _tiny_model()
    ocfg = OptimConfig(max_iter=2)
    sgd = SGD(model, ocfg)
    for start in (4, -1):
        with pytest.raises(ValueError, match=rf"{start}.*\[0, 2\]"):
            train_loop(model, sgd, _corpus(), _aug(), ocfg, seed=0,
                       batch_size=2, start_iter=start)
    assert train_loop(model, sgd, _corpus(), _aug(), ocfg, seed=0,
                      batch_size=2, start_iter=2) == []


def test_non_finite_loss_stops_before_the_step():
    _, model = _tiny_model()
    params = dict(model.named_parameters())
    params["head/conv2/bias"].data[0] = np.nan
    snapshot = {n: p.data.copy() for n, p in params.items()}
    ocfg = OptimConfig(max_iter=3)
    sgd = SGD(model, ocfg)
    seen = []
    with pytest.raises(RuntimeError, match="non-finite loss at iteration 0$"):
        train_loop(model, sgd, _corpus(), _aug(), ocfg, seed=0, batch_size=2,
                   on_iteration=seen.append)
    assert seen == []
    for name, p in params.items():
        assert np.array_equal(p.data, snapshot[name], equal_nan=True), name


def _traced_peak(iters):
    _, model = _tiny_model()
    ocfg = OptimConfig(max_iter=iters)
    sgd = SGD(model, ocfg)
    samples = _corpus()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        train_loop(model, sgd, samples, _aug(), ocfg, seed=0, batch_size=2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_training_memory_is_one_tape_without_gc():
    # Each iteration's tape must be freed by refcount, not by the cyclic GC,
    # so the peak does not grow with the iteration count.
    short, long = _traced_peak(2), _traced_peak(8)
    assert long <= 1.2 * short, (short, long)
