"""Backbone shape arithmetic, stride-8 contract, receptive-field probe."""

import dataclasses

import numpy as np
import pytest

from pyrseg.backbone import (
    Backbone,
    BackboneConfig,
    Bottleneck,
    preset,
)
from pyrseg.layers import init_parameters
from pyrseg.ops import Conv2dParams, conv2d
from pyrseg.tensor import Tensor


def _toy(**overrides):
    cfg = dataclasses.replace(preset("toy"), **overrides)
    model = Backbone(cfg)
    init_parameters(model, seed=0)
    model.train(False)
    return model, cfg


def test_toy_preset_final_shape():
    model, _ = _toy()
    x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 64, 64)).astype(np.float32))
    final, tap = model(x)
    assert final.shape == (1, 128, 8, 8)  # base 16 doubled per stage
    assert tap.shape[2:] == final.shape[2:]


def test_output_stride_is_8_for_random_sizes():
    model, cfg = _toy()
    rng = np.random.default_rng(1)
    for _ in range(4):
        h = int(rng.integers(2, 9)) * 8
        w = int(rng.integers(2, 9)) * 8
        final, tap = model(Tensor(rng.normal(size=(1, 3, h, w)).astype(np.float32)))
        assert final.shape == (1, cfg.final_channels, h // 8, w // 8)
        assert tap.shape == (1, cfg.tap_channels, h // 8, w // 8)


def test_indivisible_input_rejected():
    model, _ = _toy()
    with pytest.raises(ValueError, match="not divisible by 8"):
        model(Tensor(np.zeros((1, 3, 60, 64), dtype=np.float32)))


def test_stage_channel_doubling():
    cfg = BackboneConfig(base_channels=16)
    assert cfg.stage_channels == (16, 32, 64, 128)
    assert cfg.final_channels == 128
    assert cfg.tap_channels == 64  # default tap after stage 3


def test_config_validation():
    with pytest.raises(ValueError, match="stage_blocks"):
        BackboneConfig(stage_blocks=(1, 1, 1))
    with pytest.raises(ValueError, match="dilation_plan"):
        BackboneConfig(dilation_plan=(0, 1, 2, 4))
    with pytest.raises(ValueError, match="unknown stem"):
        BackboneConfig(stem="conv5")
    with pytest.raises(ValueError, match="unknown preset"):
        preset("resnet152-layout")


def test_resnet_layout_presets():
    assert preset("resnet50-layout").stage_blocks == (3, 4, 6, 3)
    assert preset("resnet101-layout").stage_blocks == (3, 4, 23, 3)
    assert preset("resnet50-layout").stem == "conv7-pool"
    assert preset("toy").stage_strides == (2, 2, 1, 1)
    assert preset("resnet50-layout").stage_strides == (1, 2, 1, 1)


def test_zeroed_residual_branch_is_identity():
    # gamma=0 on the block's last BN kills the residual path; with an identity
    # shortcut the block reduces to ReLU(x) = x for non-negative input.
    block = Bottleneck(8, 8, 2, stride=1, dilation=1)
    init_parameters(block, seed=0)
    block.train(False)
    for name, p in block.named_parameters():
        if name == "bn3/gamma":
            p.data[...] = 0.0
    x = np.abs(np.random.default_rng(2).normal(size=(1, 8, 6, 6))).astype(np.float32)
    out = block(Tensor(x))
    assert np.allclose(out.data, x, atol=1e-6)


def impulse_footprint(forward_fn, size: int, channels: int = 3) -> int:
    """Nonzero output extent of a centered impulse, mapped to input pixels."""
    x = np.zeros((1, channels, size, size), dtype=np.float32)
    x[:, :, size // 2, size // 2] = 1.0
    out = forward_fn(Tensor(x))
    plane = np.abs(out.data[0]).max(axis=0)
    rows = np.flatnonzero(plane.any(axis=1))
    cols = np.flatnonzero(plane.any(axis=0))
    if rows.size == 0:
        return 0
    extent = max(rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1)
    scale = size // plane.shape[0]
    return min(int(extent) * scale, size)


def receptive_field_probe(cfg: BackboneConfig, input_size: int = 256) -> int:
    """Positive-weight impulse probe; reports footprint capped by the canvas."""
    model = Backbone(cfg)
    init_parameters(model, seed=0)
    for name, p in model.named_parameters():
        if name.endswith("/weight"):
            p.data[...] = np.abs(p.data) + 0.01
        elif name.endswith("/gamma"):
            p.data[...] = 1.0
    model.train(False)  # BN becomes identity: running stats are still (0, 1)
    return impulse_footprint(lambda t: model(t)[0], input_size)


def test_impulse_footprint_single_conv():
    w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    fp = impulse_footprint(lambda t: conv2d(t, Conv2dParams(w, padding=1)), 15, channels=1)
    assert fp == 3


def test_impulse_footprint_two_convs():
    w1 = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    w2 = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))

    def two(t):
        return conv2d(conv2d(t, Conv2dParams(w1, padding=1)), Conv2dParams(w2, padding=1))

    assert impulse_footprint(two, 15, channels=1) == 5


def test_dilated_plan_widens_receptive_field():
    dilated = receptive_field_probe(preset("toy"), input_size=256)
    plain = receptive_field_probe(dataclasses.replace(preset("toy"), dilation_plan=(1, 1, 1, 1)),
                                  input_size=256)
    assert dilated > plain


def test_forward_deterministic_for_fixed_seed():
    a, _ = _toy()
    b, _ = _toy()
    x = np.random.default_rng(3).normal(size=(1, 3, 32, 32)).astype(np.float32)
    ya, _ = a(Tensor(x))
    yb, _ = b(Tensor(x))
    assert np.array_equal(ya.data, yb.data)
