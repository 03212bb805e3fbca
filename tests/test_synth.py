"""The generated corpus must be ambiguous locally and resolvable only globally."""

import numpy as np
import pytest

from pyrseg.synth import (
    SynthConfig,
    _band_height,
    _scene_color,
    synth_generate,
)


def test_deterministic_and_prefix_stable():
    cfg = SynthConfig(seed=3)
    a = synth_generate(cfg, 6)
    b = synth_generate(cfg, 6)
    for x, y in zip(a, b):
        assert np.array_equal(x.image, y.image)
        assert np.array_equal(x.labels, y.labels)
    # sample i depends only on (seed, i): a longer corpus shares its prefix
    longer = synth_generate(cfg, 10)
    assert np.array_equal(longer[2].image, a[2].image)


def test_seed_changes_content():
    a = synth_generate(SynthConfig(seed=0), 1)[0]
    b = synth_generate(SynthConfig(seed=1), 1)[0]
    assert not np.array_equal(a.image, b.image)


def test_output_contract():
    cfg = SynthConfig()
    for s in synth_generate(cfg, 8):
        assert s.image.shape == (3, 64, 64)
        assert s.image.dtype == np.float32
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
        assert s.labels.shape == (64, 64)
        assert s.labels.dtype == np.uint8
        s.validate(cfg.num_classes)


def test_scene_and_object_classes_pair_up():
    cfg = SynthConfig()
    for i, s in enumerate(synth_generate(cfg, 8)):
        scene = i % cfg.num_scene_classes
        expected_obj = cfg.object_class_for_scene(scene)
        present = set(np.unique(s.labels)) - {255}
        assert present == {scene, expected_obj}


def test_objects_never_touch_the_band():
    cfg = SynthConfig()
    band = _band_height(cfg.canvas)
    for s in synth_generate(cfg, 16):
        top_rows = s.labels[:band, :]
        # band rows carry the scene class (or edge void), never an object
        assert not np.isin(top_rows, [2, 3]).any()


def test_band_alone_identifies_the_scene():
    cfg = SynthConfig()
    samples = synth_generate(cfg, 8)
    band = _band_height(cfg.canvas)
    for i, s in enumerate(samples):
        scene = i % cfg.num_scene_classes
        color = _scene_color(scene)
        # noise is zero-mean so the band average stays near the scene color
        mean = s.image[:, : band // 2, :].mean(axis=(1, 2))
        assert np.abs(mean - color).max() < 0.03


def test_backgrounds_share_one_distribution_across_scenes():
    """Wash statistics below the band must not separate the scenes."""
    cfg = SynthConfig()
    samples = synth_generate(cfg, 60)
    band = _band_height(cfg.canvas)
    stats = {0: [], 1: []}
    for i, s in enumerate(samples):
        scene = i % 2
        wash = s.image[:, band + 14 :, :][:, s.labels[band + 14 :, :] == scene]
        if wash.size:
            stats[scene].append((wash.mean(), wash.std()))
    m0 = np.mean([m for m, _ in stats[0]])
    m1 = np.mean([m for m, _ in stats[1]])
    s0 = np.mean([s for _, s in stats[0]])
    s1 = np.mean([s for _, s in stats[1]])
    assert abs(m0 - m1) < 0.01
    assert abs(s0 - s1) < 0.01


def test_object_appearance_identical_across_paired_classes():
    """Object pixels from class 2 and class 3 come from the same distribution."""
    cfg = SynthConfig()
    samples = synth_generate(cfg, 60)
    pools = {2: [], 3: []}
    for s in samples:
        for k in (2, 3):
            sel = s.image[:, s.labels == k]
            if sel.size:
                pools[k].append(sel.ravel())
    a = np.concatenate(pools[2])
    b = np.concatenate(pools[3])
    assert abs(a.mean() - b.mean()) < 0.01
    assert abs(a.std() - b.std()) < 0.01
    # quantiles agree too, not just the first two moments
    qa = np.quantile(a, [0.1, 0.5, 0.9])
    qb = np.quantile(b, [0.1, 0.5, 0.9])
    assert np.abs(qa - qb).max() < 0.02


def test_class_balance_within_2x_of_uniform():
    cfg = SynthConfig()
    samples = synth_generate(cfg, 200)
    counts = np.zeros(cfg.num_classes)
    for s in samples:
        for k in range(cfg.num_classes):
            counts[k] += (s.labels == k).sum()
    ratios = counts / counts.sum() * cfg.num_classes
    assert ratios.min() > 0.5
    assert ratios.max() < 2.0


def test_boundary_ring_is_void():
    """No two differently-labeled non-void pixels may sit side by side."""
    for s in synth_generate(SynthConfig(), 4):
        lab = s.labels.astype(np.int16)
        assert (lab != 255).any() and (lab == 255).any()
        for a, b in (
            (lab[:-1, :], lab[1:, :]),
            (lab[:, :-1], lab[:, 1:]),
        ):
            clash = (a != b) & (a != 255) & (b != 255)
            assert not clash.any()


def test_band_height_floor():
    assert _band_height(64) == 8
    assert _band_height(128) == 16
    assert _band_height(16) == 4  # floor kicks in


def test_config_validation():
    with pytest.raises(ValueError, match="at least 2"):
        SynthConfig(num_scene_classes=1)
    with pytest.raises(ValueError, match="scene to pair"):
        SynthConfig(num_scene_classes=2, num_object_classes=3)
    with pytest.raises(ValueError, match="canvas"):
        SynthConfig(canvas=8)
    assert SynthConfig().num_classes == 4


def test_more_scenes_extend_palette():
    cfg = SynthConfig(num_scene_classes=5, num_object_classes=2)
    assert cfg.num_classes == 7
    samples = synth_generate(cfg, 5)
    colors = [tuple(np.round(_scene_color(i), 4)) for i in range(5)]
    assert len(set(colors)) == 5
    for i, s in enumerate(samples):
        assert (s.labels == i).any()


def test_class_count_fits_uint8_labels_beside_the_ignore_label():
    assert SynthConfig(num_scene_classes=200, num_object_classes=55).num_classes == 255
    with pytest.raises(ValueError, match="255 is the ignore label"):
        SynthConfig(num_scene_classes=200, num_object_classes=56)
