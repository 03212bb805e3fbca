"""Confusion-matrix metrics against per-pixel counting, plus inference glue."""

import numpy as np
import pytest

from pyrseg.data import SegSample, float_image, load_dataset, write_dataset
from pyrseg.metrics import (
    ConfusionMatrix,
    _scaled_size,
    evaluate,
    mean_iou,
    multi_scale_infer,
    per_class_iou,
    per_class_report,
    pixel_accuracy,
)
from pyrseg.model import ModelConfig, build_model
from pyrseg.ops import stable_softmax
from pyrseg.synth import SynthConfig, synth_generate

from reference import confusion_naive, metrics_naive


def _cm_from(counts):
    cm = ConfusionMatrix(len(counts))
    cm.counts = np.array(counts, dtype=np.int64)
    return cm


def test_hand_case():
    cm = _cm_from([[3, 1], [2, 4]])
    assert abs(pixel_accuracy(cm) - 0.7) < 1e-9
    # class 0: 3/(4+5-3), class 1: 4/(6+5-4)
    want = (3 / 6 + 4 / 7) / 2
    assert abs(mean_iou(cm) - want) < 1e-9
    assert abs(mean_iou(cm) - 0.5357142857142857) < 1e-9


def test_matches_per_pixel_count_on_random_maps():
    rng = np.random.default_rng(42)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        gt = rng.integers(0, k, size=(50, 50)).astype(np.int64)
        pred = rng.integers(0, k, size=(50, 50)).astype(np.int64)
        gt[rng.random(size=gt.shape) < 0.1] = 255
        cm = ConfusionMatrix(k)
        cm.accumulate(pred, gt)
        want = confusion_naive(gt, pred, k)
        assert np.array_equal(cm.counts, want)
        acc, miou = metrics_naive(want)
        assert pixel_accuracy(cm) == acc
        assert abs(mean_iou(cm) - miou) < 1e-12


def test_accumulate_is_additive():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 3, size=(20, 20))
    b = rng.integers(0, 3, size=(20, 20))
    gt_a = rng.integers(0, 3, size=(20, 20))
    gt_b = rng.integers(0, 3, size=(20, 20))
    one = ConfusionMatrix(3)
    one.accumulate(a, gt_a)
    one.accumulate(b, gt_b)
    xa, xb = ConfusionMatrix(3), ConfusionMatrix(3)
    xa.accumulate(a, gt_a)
    xb.accumulate(b, gt_b)
    assert np.array_equal(one.counts, xa.counts + xb.counts)


def test_accumulate_validates_inputs():
    cm = ConfusionMatrix(3)
    with pytest.raises(ValueError, match="dim mismatch"):
        cm.accumulate(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="ground-truth label"):
        cm.accumulate(np.zeros((2, 2), np.int64), np.full((2, 2), 9, np.int64))
    with pytest.raises(ValueError, match="predicted label"):
        cm.accumulate(np.full((2, 2), -1, np.int64), np.zeros((2, 2), np.int64))


def test_ignore_pixels_do_not_count():
    cm = ConfusionMatrix(2)
    gt = np.array([[0, 255], [255, 1]])
    pred = np.array([[0, 1], [0, 0]])  # both ignored pixels are "wrong"
    cm.accumulate(pred, gt)
    assert cm.total == 2
    assert pixel_accuracy(cm) == 0.5


def test_absent_class_is_nan_and_excluded_from_mean():
    cm = _cm_from([[5, 0, 0], [0, 3, 0], [0, 0, 0]])
    iou = per_class_iou(cm)
    assert iou[0] == 1.0 and iou[1] == 1.0
    assert np.isnan(iou[2])
    assert mean_iou(cm) == 1.0


def test_fp_only_class_counts_as_zero_iou():
    # class 1 never occurs in gt but is predicted: union > 0, iou 0.
    cm = _cm_from([[3, 2], [0, 0]])
    iou = per_class_iou(cm)
    assert iou[1] == 0.0
    assert mean_iou(cm) == (3 / 5) / 2


def test_empty_matrix_raises():
    cm = ConfusionMatrix(2)
    with pytest.raises(ValueError, match="empty"):
        pixel_accuracy(cm)
    with pytest.raises(ValueError, match="empty"):
        mean_iou(cm)


def test_metrics_invariant_under_class_permutation():
    rng = np.random.default_rng(3)
    k = 5
    gt = rng.integers(0, k, size=(40, 40))
    pred = rng.integers(0, k, size=(40, 40))
    perm = rng.permutation(k)
    cm = ConfusionMatrix(k)
    cm.accumulate(pred, gt)
    pcm = ConfusionMatrix(k)
    pcm.accumulate(perm[pred], perm[gt])
    assert pixel_accuracy(cm) == pixel_accuracy(pcm)
    assert abs(mean_iou(cm) - mean_iou(pcm)) < 1e-12


def test_metrics_stay_in_unit_interval():
    rng = np.random.default_rng(4)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        cm = ConfusionMatrix(k)
        cm.accumulate(rng.integers(0, k, size=(9, 9)), rng.integers(0, k, size=(9, 9)))
        assert 0.0 <= pixel_accuracy(cm) <= 1.0
        assert 0.0 <= mean_iou(cm) <= 1.0


def test_all_ignore_leaves_matrix_unchanged():
    cm = ConfusionMatrix(3)
    cm.accumulate(np.zeros((4, 4), np.int64), np.full((4, 4), 255, np.int64))
    assert cm.total == 0


def test_csv_reload_reproduces_values():
    cm = _cm_from([[31, 7, 2], [5, 44, 9], [1, 3, 27]])
    _, csv = per_class_report(cm, ["a", "b", "c"])
    parsed = {}
    for line in csv.strip().splitlines()[1:]:
        name, val = line.split(",")
        parsed[name] = float(val)
    iou = per_class_iou(cm)
    for i, name in enumerate(["a", "b", "c"]):
        assert abs(parsed[name] - iou[i]) < 1e-9
    assert abs(parsed["mean_iou"] - mean_iou(cm)) < 1e-9


def test_per_class_report_text_and_csv():
    cm = _cm_from([[3, 1, 0], [2, 4, 0], [0, 0, 0]])
    text, csv = per_class_report(cm, ["sky", "road", "rare"])
    assert "absent" in text
    lines = csv.strip().splitlines()
    assert lines[0] == "class,iou"
    assert lines[1].startswith("sky,0.5")
    assert lines[3] == "rare,"  # absent class: empty cell
    assert lines[4].startswith("mean_iou,")
    with pytest.raises(ValueError, match="names for"):
        per_class_report(cm, ["a", "b"])


def test_scaled_size_rounds_to_multiple_of_8():
    assert _scaled_size(64, 1.0) == 64
    assert _scaled_size(64, 0.5) == 32
    assert _scaled_size(64, 0.75) == 48
    assert _scaled_size(64, 0.01) == 8  # floor at 8
    for e in range(8, 200):
        for s in (0.5, 0.75, 1.0, 1.25, 1.5):
            got = _scaled_size(e, s)
            assert got % 8 == 0
            assert abs(got - e * s) <= 4 or got == 8  # nearest multiple


class _StubModel:
    """forward_infer stand-in returning deterministic logits from the input;
    it has no pyramid, so no bin limits the scales."""

    def __init__(self, k=3):
        self.k = k
        self.cfg = ModelConfig(pyramid=None)

    def forward_infer(self, x):
        arr = x.data
        logits = np.stack([arr[:, 0] * (i + 1) for i in range(self.k)], axis=1)
        return logits.astype(np.float32)


def test_multi_scale_single_identity_is_bitwise():
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(3, 64, 64)).astype(np.float32)
    model = _StubModel()
    one = multi_scale_infer(model, img, scales=(1.0,))
    direct = stable_softmax(model.forward_infer(_wrap(img)), axis=1)
    assert one.shape == (3, 64, 64)
    assert np.array_equal(one, direct[0])


def test_multi_scale_duplicate_scale_same_argmax():
    rng = np.random.default_rng(1)
    img = rng.uniform(size=(3, 64, 64)).astype(np.float32)
    model = _StubModel()
    one = multi_scale_infer(model, img, scales=(1.0,))
    two = multi_scale_infer(model, img, scales=(1.0, 1.0))
    assert np.allclose(two.sum(axis=0), 1.0, atol=1e-5)  # still a distribution
    assert np.array_equal(one.argmax(axis=0), two.argmax(axis=0))


def test_multi_scale_rejects_too_small():
    img = np.zeros((3, 64, 64), dtype=np.float32)
    with pytest.raises(ValueError, match="below the minimum size"):
        multi_scale_infer(_StubModel(), img, scales=(0.25,))
    with pytest.raises(ValueError, match="at least one scale"):
        multi_scale_infer(_StubModel(), img, scales=())
    with pytest.raises(ValueError, match="expected one"):
        multi_scale_infer(_StubModel(), img[None], scales=(1.0,))


def test_evaluate_reads_a_loaded_8bit_set_as_its_float_images(tmp_path):
    write_dataset(tmp_path / "ds", synth_generate(SynthConfig(), 3))
    loaded = load_dataset(tmp_path / "ds", 4)
    as_float = [SegSample(float_image(s.image), s.labels) for s in loaded]
    assert all(s.image.dtype == np.uint8 for s in loaded)
    model = build_model(ModelConfig(), seed=0)
    for scales in ((1.0,), (0.75, 1.0, 1.25)):
        got = evaluate(model, loaded, scales=scales, min_size=8)
        want = evaluate(model, as_float, scales=scales, min_size=8)
        assert np.array_equal(got.counts, want.counts), scales


def _wrap(img):
    from pyrseg.tensor import Tensor

    return Tensor(img[None])
