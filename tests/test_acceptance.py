"""Acceptance gate: eleven criteria, one test and one PASS/FAIL line each.

Budgets and tolerances are asserted exactly as pinned; run with `-s` (or read
captured stdout) for the per-criterion verdict lines with measured values.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from reference import adaptive_pool_naive, confusion_naive, metrics_naive

from pyrseg import checkpoint as ckpt
from pyrseg import gradcheck, ops
from pyrseg.ablate import (
    context_dataset_config,
    format_table,
    run_alpha_sweep,
    run_variant_grid,
    summarize,
)
from pyrseg.config import RunConfig
from pyrseg.data import AugmentConfig
from pyrseg.metrics import (
    ConfusionMatrix,
    evaluate,
    mean_iou,
    multi_scale_infer,
    pixel_accuracy,
)
from pyrseg.model import build_model
from pyrseg.optim import SGD, OptimConfig, poly_lr
from pyrseg.pyramid import AblationVariant, PyramidConfig
from pyrseg.synth import synth_generate
from pyrseg.tensor import Tensor
from pyrseg.training import train_loop


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def context_data():
    cfg = context_dataset_config(0)
    corpus = synth_generate(cfg, 256 + 64)
    return corpus[:256], corpus[256:]


def _toy_run_config() -> RunConfig:
    return RunConfig()  # toy preset, bins (1,2,3,6), crop 64, batch 4


# -- A1 -------------------------------------------------------------------


def test_a1_gradient_check_suite():
    t0 = time.perf_counter()
    results = gradcheck.run_suite()
    elapsed = time.perf_counter() - t0
    worst = max(r.worst for r in results)
    pinned = gradcheck.TOLERANCE == 1e-4 and all(r.seeds == 20 for r in results)
    ok = pinned and all(r.ok for r in results) and elapsed < 120.0
    _verdict(
        "A1 gradient-check suite",
        ok,
        f"{len(results)} cases x 20 seeds, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# -- A2 -------------------------------------------------------------------


def test_a2_overfit_sanity():
    rc = _toy_run_config()
    model_cfg = rc.to_model_config()
    params = build_model(model_cfg, seed=0).count_parameters()
    samples = synth_generate(rc.to_synth_config(), 32)

    t0 = time.perf_counter()
    model = build_model(model_cfg, seed=0)
    ocfg = rc.to_optim_config(max_iter=2000)
    sgd = SGD(model, ocfg)
    train_loop(model, sgd, samples, rc.to_augment_config(), ocfg,
               seed=0, batch_size=4)
    elapsed = time.perf_counter() - t0

    acc = pixel_accuracy(evaluate(model, samples))
    ok = params <= 200_000 and acc >= 0.95 and elapsed < 600.0
    _verdict(
        "A2 overfit sanity",
        ok,
        f"{params} params, train acc {acc:.4f}, {elapsed:.0f}s for 2000 iters",
    )


# -- A3 -------------------------------------------------------------------


def test_a3_context_ablation_trend(context_data):
    train, test = context_data
    rc = _toy_run_config()
    variants = [
        AblationVariant("baseline", None),
        AblationVariant("B1+AVE+DR", PyramidConfig((1,), "average", True)),
        AblationVariant("B1236+AVE+DR", PyramidConfig((1, 2, 3, 6), "average", True)),
    ]
    t0 = time.perf_counter()
    rows = run_variant_grid(rc.to_model_config(), train, test,
                            rc.to_optim_config(max_iter=rc.ablate_iters),
                            rc.to_augment_config(), seeds=(0, 1, 2),
                            batch_size=4, variants=variants)
    elapsed = time.perf_counter() - t0
    means = {name: im for name, im, _, _, _ in summarize(rows)}
    gap = means["B1236+AVE+DR"] - means["baseline"]
    ordered = means["B1236+AVE+DR"] >= means["B1+AVE+DR"]
    ok = gap >= 0.10 and ordered and elapsed < 3600.0
    _verdict(
        "A3 context-ablation trend",
        ok,
        f"baseline {means['baseline']:.4f}, B1 {means['B1+AVE+DR']:.4f}, "
        f"B1236 {means['B1236+AVE+DR']:.4f}; gap {gap * 100:.1f} pts, "
        f"{elapsed / 60:.1f} min",
    )


# -- A4 -------------------------------------------------------------------


def test_a4_aux_branch_equivalence(tmp_path):
    rc = _toy_run_config()
    full_cfg = rc.to_model_config()
    assert full_cfg.aux_weight > 0
    model = build_model(full_cfg, seed=3)
    path = tmp_path / "full.pspc"
    ckpt.save(str(path), model, None, 0)

    import dataclasses

    bare_cfg = dataclasses.replace(full_cfg, aux_weight=0.0)
    with_aux, _, _ = ckpt.load(str(path), full_cfg)
    pruned, _, _ = ckpt.load(str(path), bare_cfg, inference=True)

    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(size=(2, 3, 64, 64)).astype(np.float32))
    za = with_aux.forward_infer(x)
    zb = pruned.forward_infer(x)
    ok = np.array_equal(za, zb)
    _verdict("A4 aux-branch equivalence", ok,
             f"logits bitwise identical on {za.shape} = {ok}")


# -- A5 -------------------------------------------------------------------


def test_a5_aux_loss_sweep():
    rc = _toy_run_config()
    samples = synth_generate(rc.to_synth_config(), 32)
    # Mirror-only augmentation: the gate is that every run's training loss
    # halves from iter 10 to the end, which needs a fittable stream, not a
    # heavily distorted one.
    aug = AugmentConfig(mirror_prob=0.5, resize_range=(1.0, 1.0),
                        rotation_deg=0.0, blur_prob=0.0, crop_size=64)
    rows = run_alpha_sweep(rc.to_model_config(), samples, samples[:8],
                           rc.to_optim_config(max_iter=rc.ablate_iters),
                           aug, seeds=(0,), batch_size=4)
    print(format_table(rows, "aux weight sweep"), end="")
    names = [r.name for r in rows]
    expected = ["alpha=0", "alpha=0.3", "alpha=0.4", "alpha=0.6", "alpha=0.9"]
    drops = {r.name: r.final_loss / r.loss_at_10 for r in rows}
    ok = names == expected and all(v <= 0.5 for v in drops.values())
    _verdict(
        "A5 aux-loss sweep",
        ok,
        "final/iter10 loss " + ", ".join(f"{k} {v:.3f}" for k, v in drops.items()),
    )


# -- A6 -------------------------------------------------------------------


def test_a6_metric_oracle():
    cm = ConfusionMatrix(2)
    cm.counts[...] = [[3, 1], [2, 4]]
    hand_ok = (
        abs(pixel_accuracy(cm) - 0.7) < 1e-9
        and abs(mean_iou(cm) - (0.5 + 4.0 / 7.0) / 2.0) < 1e-9
    )

    rng = np.random.default_rng(42)
    exact = 0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        gt = rng.integers(0, k, size=(50, 50))
        gt[rng.random(size=gt.shape) < 0.1] = 255
        pred = rng.integers(0, k, size=(50, 50))
        fast = ConfusionMatrix(k)
        fast.accumulate(pred, gt)
        slow = confusion_naive(gt, pred, k)
        acc_n, miou_n = metrics_naive(slow)
        if (np.array_equal(fast.counts, slow)
                and pixel_accuracy(fast) == acc_n
                and abs(mean_iou(fast) - miou_n) < 1e-12):
            exact += 1
    ok = hand_ok and exact == 100
    _verdict("A6 metric oracle", ok,
             f"hand case ok={hand_ok}, {exact}/100 brute-force maps exact")


# -- A7 -------------------------------------------------------------------


def test_a7_poly_lr():
    cfg = OptimConfig(base_lr=0.01, power=0.9, max_iter=10_000)
    endpoints = poly_lr(0, cfg) == 0.01 and poly_lr(10_000, cfg) == 0.0
    mid = abs(poly_lr(5_000, cfg) - 0.01 * 0.5 ** 0.9) < 1e-12
    values = np.array([poly_lr(i, cfg) for i in range(10_001)])
    monotone = bool(np.all(np.diff(values) < 0))
    ok = endpoints and mid and monotone
    _verdict("A7 poly LR", ok,
             f"endpoints exact={endpoints}, midpoint ok={mid}, "
             f"strictly decreasing over 10k sweep={monotone}")


# -- A8 -------------------------------------------------------------------


def test_a8_pooling_upsampling_oracles():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        bins = int(rng.integers(1, 8))
        h = int(rng.integers(bins, 25))
        w = int(rng.integers(bins, 25))
        mode = ("average", "max")[int(rng.integers(0, 2))]
        x = rng.normal(size=(2, 3, h, w)).astype(np.float32)
        got = ops.adaptive_pool(Tensor(x), bins, mode).data
        ref = adaptive_pool_naive(x, (bins, bins), mode)
        worst = max(worst, float(np.abs(got - ref).max()))
    shapes_ok = worst < 1e-6

    x = rng.normal(size=(2, 4, 9, 11)).astype(np.float32)
    pooled = ops.adaptive_pool(Tensor(x), 1, "average")
    up = ops.bilinear_upsample(pooled, (9, 11)).data
    broadcast = np.broadcast_to(x.mean(axis=(2, 3))[:, :, None, None], x.shape)
    bin1_err = float(np.abs(up - broadcast).max())
    bin1_ok = bin1_err < 1e-6

    const = np.full((1, 2, 7, 5), np.float32(0.3725), dtype=np.float32)
    pool_c = ops.adaptive_pool(Tensor(const), 3, "average").data
    up_c = ops.bilinear_upsample(Tensor(const), (23, 17)).data
    const_ok = (pool_c == np.float32(0.3725)).all() and (up_c == np.float32(0.3725)).all()

    ok = shapes_ok and bin1_ok and bool(const_ok)
    _verdict(
        "A8 pooling/upsampling oracles",
        ok,
        f"100 shapes worst err {worst:.1e}, bin-1 err {bin1_err:.1e}, "
        f"constant plane exact={bool(const_ok)}",
    )


# -- A9 -------------------------------------------------------------------


def test_a9_psp_channel_arithmetic():
    cfg = PyramidConfig(bin_sizes=(1, 2, 3, 6), pool_mode="average", dim_reduce=True)
    big = cfg.out_channels(2048)
    small = cfg.out_channels(16)
    ok = big == 4096 and small == 32
    _verdict("A9 PSP channel arithmetic", ok,
             f"C=2048 -> {big} (want 4096), C=16 -> {small} (want 32)")


# -- A10 ------------------------------------------------------------------


def test_a10_checkpoint_round_trip_and_resume(tmp_path):
    rc = _toy_run_config()
    cfg = rc.to_model_config()
    samples = synth_generate(replace(rc, seed=5).to_synth_config(), 8)
    aug = rc.to_augment_config()
    ocfg = rc.to_optim_config(max_iter=6)

    model = build_model(cfg, seed=5)
    sgd = SGD(model, ocfg)
    mid = tmp_path / "mid.pspc"

    def snapshot(stats):
        if stats.iteration == 2:
            ckpt.save(str(mid), model, sgd.velocity, 3)

    straight = train_loop(model, sgd, samples, aug, ocfg, seed=5,
                          batch_size=4, on_iteration=snapshot)

    # bit-exact round trip: load, save again, compare bytes
    loaded, velocity, start = ckpt.load(str(mid), cfg)
    again = tmp_path / "again.pspc"
    ckpt.save(str(again), loaded, velocity, start)
    round_trip_ok = mid.read_bytes() == again.read_bytes()

    sgd2 = SGD(loaded, ocfg)
    for name in sgd2.velocity:
        sgd2.velocity[name][...] = velocity[name]
    resumed = train_loop(loaded, sgd2, samples, aug, ocfg, seed=5,
                         batch_size=4, start_iter=start)
    diff = abs(resumed[-1].total_loss - straight[-1].total_loss)
    ok = round_trip_ok and diff <= 1e-6
    _verdict("A10 checkpoint round-trip/resume", ok,
             f"round trip bit-exact={round_trip_ok}, final-loss diff {diff:.2e}")


# -- A11 ------------------------------------------------------------------


def test_a11_multi_scale_identity():
    rc = _toy_run_config()
    model = build_model(rc.to_model_config(), seed=1)
    img = synth_generate(replace(rc, seed=9).to_synth_config(), 1)[0].image

    single = ops.stable_softmax(model.forward_infer(Tensor(img[None])), axis=1)
    ms_one = multi_scale_infer(model, img, (1.0,))
    probs_ok = np.array_equal(ms_one, single[0])

    ms_two = multi_scale_infer(model, img, (1.0, 1.0))
    argmax_ok = np.array_equal(ms_two.argmax(axis=0), ms_one.argmax(axis=0))
    ok = probs_ok and argmax_ok
    _verdict("A11 multi-scale identity", ok,
             f"[1.0] probs bitwise={probs_ok}, [1.0, 1.0] same argmax={argmax_ok}")
