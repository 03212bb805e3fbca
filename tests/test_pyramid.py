"""Pyramid pooling channel arithmetic, forward contract, ablation grid."""

import numpy as np
import pytest

from pyrseg.layers import init_parameters
from pyrseg.pyramid import (
    PyramidConfig,
    PyramidPooling,
    psp_ablation_variants,
)
from pyrseg.tensor import Tensor


def _module(c, cfg, seed=0):
    m = PyramidPooling(c, cfg)
    init_parameters(m, seed=seed)
    return m


def test_channel_arithmetic_resnet_scale():
    cfg = PyramidConfig(bin_sizes=(1, 2, 3, 6), dim_reduce=True)
    assert cfg.reduced_channels(2048) == 512
    assert cfg.out_channels(2048) == 4096


def test_channel_arithmetic_toy_scale():
    cfg = PyramidConfig(bin_sizes=(1, 2, 3, 6), dim_reduce=True)
    assert cfg.out_channels(16) == 32


def test_channel_arithmetic_without_reduction():
    cfg = PyramidConfig(bin_sizes=(1, 2, 3, 6), dim_reduce=False)
    assert cfg.out_channels(16) == 16 * 5


def test_uneven_reduction_floors():
    cfg = PyramidConfig(bin_sizes=(1, 2, 3), dim_reduce=True)
    assert cfg.reduced_channels(16) == 5
    assert cfg.out_channels(16) == 16 + 3 * 5


def test_config_validation():
    with pytest.raises(ValueError, match="start at 1"):
        PyramidConfig(bin_sizes=(2, 3))
    with pytest.raises(ValueError, match="start at 1"):
        PyramidConfig(bin_sizes=())
    with pytest.raises(ValueError, match="strictly increasing"):
        PyramidConfig(bin_sizes=(1, 3, 3))
    with pytest.raises(ValueError, match="pool_mode"):
        PyramidConfig(pool_mode="median")


def test_forward_shape_preserved():
    cfg = PyramidConfig(bin_sizes=(1, 2, 3, 6))
    m = _module(16, cfg)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 16, 8, 8)).astype(np.float32))
    out = m.forward(x, False)
    assert out.shape == (2, 32, 8, 8)
    # the input map rides along as the first C channels
    assert np.array_equal(out.data[:, :16], x.data)


def test_forward_no_reduction_concats_raw_levels():
    cfg = PyramidConfig(bin_sizes=(1, 2), dim_reduce=False)
    m = _module(4, cfg)
    x = Tensor(np.random.default_rng(1).normal(size=(1, 4, 6, 6)).astype(np.float32))
    out = m.forward(x, False)
    assert out.shape == (1, 12, 6, 6)
    # bin-1 level without reduction = broadcast global average
    want = np.broadcast_to(x.data.mean(axis=(2, 3))[:, :, None, None], (1, 4, 6, 6))
    assert np.allclose(out.data[:, 4:8], want, atol=1e-6)


def test_constant_plane_levels_stay_constant():
    # With identity reductions disabled, every pooled+upsampled level of a
    # constant plane is that constant, both pool modes.
    for mode in ("average", "max"):
        cfg = PyramidConfig(bin_sizes=(1, 2, 3), pool_mode=mode, dim_reduce=False)
        m = _module(2, cfg)
        x = Tensor(np.full((1, 2, 9, 9), 0.73, dtype=np.float32))
        out = m.forward(x, False)
        assert np.array_equal(out.data, np.full((1, 8, 9, 9), np.float32(0.73)))


def test_forward_rejects_wrong_channels_and_small_maps():
    cfg = PyramidConfig(bin_sizes=(1, 2, 3, 6))
    m = _module(16, cfg)
    with pytest.raises(ValueError, match="channel mismatch"):
        m.forward(Tensor(np.zeros((1, 8, 8, 8), dtype=np.float32)), False)
    with pytest.raises(ValueError, match="exceeds feature extent"):
        m.forward(Tensor(np.zeros((1, 16, 4, 4), dtype=np.float32)), False)


def test_max_mode_levels_dominate_average():
    cfg_max = PyramidConfig(bin_sizes=(1, 2), pool_mode="max", dim_reduce=False)
    cfg_avg = PyramidConfig(bin_sizes=(1, 2), pool_mode="average", dim_reduce=False)
    x = Tensor(np.random.default_rng(2).normal(size=(1, 3, 6, 6)).astype(np.float32))
    out_max = _module(3, cfg_max).forward(x, False).data[:, 3:]
    out_avg = _module(3, cfg_avg).forward(x, False).data[:, 3:]
    assert (out_max >= out_avg - 1e-6).all()


def test_ablation_grid_is_nine_variants():
    variants = psp_ablation_variants()
    names = [v.name for v in variants]
    assert len(variants) == 9
    assert names[0] == "baseline"
    assert variants[0].pyramid is None
    assert "B1+MAX" in names and "B1+AVE+DR" in names
    assert "B1236+MAX+DR" in names and "B1236+AVE" in names
    for v in variants[1:]:
        bins = v.pyramid.bin_sizes
        assert bins in ((1,), (1, 2, 3, 6))
        assert ("DR" in v.name) == v.pyramid.dim_reduce
        assert ("MAX" in v.name) == (v.pyramid.pool_mode == "max")
