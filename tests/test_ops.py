"""Layer ops against the loop-level references in tests/reference.py."""

import numpy as np
import pytest

from pyrseg.ops import (
    BatchNormParams,
    Conv2dParams,
    adaptive_pool,
    batch_norm,
    bilinear_upsample,
    concat_channels,
    conv2d,
    conv_output_size,
    max_pool2d,
    relu,
    softmax_cross_entropy,
    stable_softmax,
)
from pyrseg.tensor import Graph, Tensor, backward

from reference import (
    adaptive_pool_naive,
    batchnorm_train_naive,
    bilinear_naive,
    conv2d_naive,
    cross_entropy_naive,
    max_pool_naive,
)


def _rt(rng, *shape, grad=False):
    return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=grad)


# -- conv ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "stride,padding,dilation,bias",
    [(1, 0, 1, True), (1, 1, 1, False), (2, 1, 1, True), (1, 2, 2, True), (2, 3, 3, False)],
)
def test_conv2d_matches_direct_summation(stride, padding, dilation, bias):
    rng = np.random.default_rng(hash((stride, padding, dilation)) % 2**31)
    x = rng.normal(size=(2, 3, 9, 8)).astype(np.float32)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32) if bias else None
    p = Conv2dParams(Tensor(w), Tensor(b) if bias else None, stride, padding, dilation)
    got = conv2d(Tensor(x), p).data
    want = conv2d_naive(x, w, b, stride, padding, dilation)
    assert got.shape == want.shape
    assert np.allclose(got, want, atol=1e-4)


def test_conv_output_size_formula():
    # Matches the standard (E + 2p - d(k-1) - 1) // s + 1 on a sweep.
    for e in (1, 7, 16, 33):
        for k in (1, 3, 7):
            for s in (1, 2, 3):
                for p in (0, 1, 3):
                    for d in (1, 2, 4):
                        span = d * (k - 1) + 1
                        if e + 2 * p < span:
                            continue
                        naive = len(range(0, e + 2 * p - span + 1, s))
                        assert conv_output_size(e, k, s, p, d) == naive


def test_conv2d_1x1_is_channel_mix():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 5, 4, 4)).astype(np.float32)
    w = rng.normal(size=(7, 5, 1, 1)).astype(np.float32)
    got = conv2d(Tensor(x), Conv2dParams(Tensor(w))).data
    want = np.einsum("oc,nchw->nohw", w[:, :, 0, 0], x)
    assert np.allclose(got, want, atol=1e-5)


def test_conv2d_rejects_bad_geometry():
    x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
    w = Tensor(np.zeros((2, 3, 3, 3), dtype=np.float32))
    with pytest.raises(ValueError, match="channel mismatch"):
        conv2d(Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32)), Conv2dParams(w))
    with pytest.raises(ValueError, match="stride/dilation"):
        conv2d(x, Conv2dParams(w, stride=0))
    with pytest.raises(ValueError, match="non-positive output"):
        conv2d(x, Conv2dParams(w, dilation=4))
    with pytest.raises(ValueError, match="N x C x H x W"):
        conv2d(Tensor(np.zeros((3, 4, 4), dtype=np.float32)), Conv2dParams(w))


def test_conv2d_dilated_taps_land_where_expected():
    # A single-tap weight at kernel corner (0,0) with dilation d reads the
    # pixel d*(k-1) up-left of the window end; verify against a shifted copy.
    x = np.arange(49, dtype=np.float32).reshape(1, 1, 7, 7)
    w = np.zeros((1, 1, 3, 3), dtype=np.float32)
    w[0, 0, 0, 0] = 1.0
    out = conv2d(Tensor(x), Conv2dParams(Tensor(w), dilation=2)).data
    assert out.shape == (1, 1, 3, 3)
    assert np.array_equal(out[0, 0], x[0, 0, :3, :3])


# -- batch norm ---------------------------------------------------------------


def test_batch_norm_train_matches_reference():
    rng = np.random.default_rng(11)
    x = rng.normal(1.5, 2.0, size=(4, 3, 5, 6)).astype(np.float32)
    gamma = rng.normal(size=3).astype(np.float32)
    beta = rng.normal(size=3).astype(np.float32)
    p = BatchNormParams(
        Tensor(gamma), Tensor(beta), np.zeros(3, np.float32), np.ones(3, np.float32)
    )
    got = batch_norm(Tensor(x), p, training=True).data
    want, mu, var = batchnorm_train_naive(x, gamma, beta)
    assert np.allclose(got, want, atol=1e-4)
    # running <- 0.9*running + 0.1*batch  (fresh stats are (0, 1))
    assert np.allclose(p.running_mean, 0.1 * mu, atol=1e-5)
    assert np.allclose(p.running_var, 0.9 + 0.1 * var, atol=1e-4)


def test_batch_norm_eval_uses_running_stats():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
    rm = rng.normal(size=3).astype(np.float32)
    rv = rng.uniform(0.5, 2.0, size=3).astype(np.float32)
    p = BatchNormParams(
        Tensor(np.ones(3, np.float32)), Tensor(np.zeros(3, np.float32)), rm.copy(), rv.copy()
    )
    got = batch_norm(Tensor(x), p, training=False).data
    want = (x - rm[None, :, None, None]) / np.sqrt(rv[None, :, None, None] + 1e-5)
    assert np.allclose(got, want, atol=1e-5)
    assert np.array_equal(p.running_mean, rm)  # eval never touches stats
    assert np.array_equal(p.running_var, rv)


def test_batch_norm_train_needs_two_values_per_channel():
    p = BatchNormParams(
        Tensor(np.ones(2, np.float32)), Tensor(np.zeros(2, np.float32)),
        np.zeros(2, np.float32), np.ones(2, np.float32),
    )
    x = Tensor(np.zeros((1, 2, 1, 1), dtype=np.float32))
    with pytest.raises(ValueError, match="at least 2 values per channel"):
        batch_norm(x, p, training=True)
    batch_norm(x, p, training=False)  # eval mode has no such constraint


def _bn_two_branch(x, gamma, beta, rm, rv, g, training):
    """batch_norm's arithmetic as two separate branches, written out once:
    (out, dx, dgamma, dbeta, running_mean, running_var)."""
    b = (None, slice(None), None, None)
    axes = (0, 2, 3)
    rm, rv = rm.copy(), rv.copy()
    if training:
        n, c, h, w = x.shape
        m = n * h * w
        mean = x.mean(axis=axes, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=axes)
        invstd = 1.0 / np.sqrt(var + 1e-5)
        xhat = centered * invstd[b]
        out = gamma[b] * xhat + beta[b]
        rm *= 0.9
        rm += 0.1 * mean.reshape(c)
        rv *= 0.9
        rv += 0.1 * var
        dxhat = g * gamma[b]
        t1 = dxhat.sum(axis=axes)
        t2 = (dxhat * xhat).sum(axis=axes)
        dx = (dxhat - (t1[b] + xhat * t2[b]) / m) * invstd[b]
    else:
        invstd = 1.0 / np.sqrt(rv + 1e-5)
        xhat = (x - rm[b]) * invstd[b]
        out = gamma[b] * xhat + beta[b]
        dx = g * (gamma * invstd)[b]
    return out, dx, (g * xhat).sum(axis=axes), g.sum(axis=axes), rm, rv


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,training", [
    ((4, 3, 5, 6), True), ((4, 3, 5, 6), False),
    ((1, 2, 3, 3), True), ((1, 2, 3, 3), False),
    ((1, 3, 1, 1), False),
])
def test_batch_norm_bits_match_two_branch_arithmetic(dtype, shape, training):
    """Both modes' outputs, the running-stat update and the gradients are
    bit-identical to the two-branch expressions; inputs are never written."""
    rng = np.random.default_rng(31)
    c = shape[1]
    x = rng.normal(0.7, 1.9, size=shape).astype(dtype)
    gamma = rng.uniform(0.5, 1.5, size=c).astype(dtype)
    beta = rng.normal(size=c).astype(dtype)
    rm = rng.normal(size=c).astype(dtype)
    rv = rng.uniform(0.5, 2.0, size=c).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    x0, gamma0, beta0 = x.copy(), gamma.copy(), beta.copy()

    p = BatchNormParams(Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True),
                        rm.copy(), rv.copy())
    xt = Tensor(x, requires_grad=True)
    with Graph():
        out = batch_norm(xt, p, training=training)
        backward(out, g)

    want = _bn_two_branch(x0, gamma0, beta0, rm, rv, g, training)
    assert out.data.dtype == dtype
    assert np.array_equal(out.data, want[0])
    if training:
        assert np.array_equal(xt.grad, want[1])
    else:  # (g*gamma)*invstd against g*(gamma*invstd): equal up to the last bit
        assert np.allclose(xt.grad, want[1], rtol=4 * np.finfo(dtype).eps, atol=0)
    assert np.array_equal(p.gamma.grad, want[2])
    assert np.array_equal(p.beta.grad, want[3])
    assert np.array_equal(p.running_mean, want[4])
    assert np.array_equal(p.running_var, want[5])
    assert np.array_equal(x, x0) and np.array_equal(gamma, gamma0)
    assert np.array_equal(beta, beta0)


# -- relu / pooling -----------------------------------------------------------


def test_relu_forward_and_gate():
    x = Tensor(np.array([-2.0, 0.0, 3.0], dtype=np.float32), requires_grad=True)
    with Graph():
        out = relu(x)
        assert np.array_equal(out.data, [0.0, 0.0, 3.0])
        backward(out, np.ones(3, dtype=np.float32))
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


@pytest.mark.parametrize("kernel,stride,padding", [(2, 2, 0), (3, 2, 1), (3, 1, 1)])
def test_max_pool_matches_reference(kernel, stride, padding):
    rng = np.random.default_rng(kernel * 10 + stride)
    x = rng.normal(size=(2, 3, 9, 8)).astype(np.float32)
    got = max_pool2d(Tensor(x), kernel, stride, padding).data
    want = max_pool_naive(x, kernel, stride, padding)
    assert np.allclose(got, want)


def test_max_pool_padding_never_wins():
    # All-negative input with padding: -inf pad must not leak zeros.
    x = -np.abs(np.random.default_rng(4).normal(size=(1, 1, 4, 4))).astype(np.float32) - 1.0
    out = max_pool2d(Tensor(x), 3, 2, 1).data
    assert (out < 0).all()


def test_max_pool_backward_routes_to_argmax():
    x = np.zeros((1, 1, 2, 2), dtype=np.float32)
    x[0, 0, 1, 0] = 5.0
    t = Tensor(x, requires_grad=True)
    with Graph():
        backward(max_pool2d(t, 2, 2), np.ones((1, 1, 1, 1), dtype=np.float32))
    want = np.zeros_like(x)
    want[0, 0, 1, 0] = 1.0
    assert np.array_equal(t.grad, want)


@pytest.mark.parametrize("mode", ["average", "max"])
def test_adaptive_pool_matches_exhaustive_bins(mode):
    rng = np.random.default_rng(77)
    for _ in range(25):
        h = int(rng.integers(1, 13))
        w = int(rng.integers(1, 13))
        bh = int(rng.integers(1, h + 1))
        bw = int(rng.integers(1, w + 1))
        x = rng.normal(size=(2, 3, h, w)).astype(np.float32)
        got = adaptive_pool(Tensor(x), (bh, bw), mode).data
        want = adaptive_pool_naive(x, (bh, bw), mode)
        assert np.allclose(got, want, atol=1e-6), (h, w, bh, bw, mode)


def test_adaptive_pool_bin1_is_global():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 4, 6, 7)).astype(np.float32)
    avg = adaptive_pool(Tensor(x), 1, "average").data
    assert np.allclose(avg[..., 0, 0], x.mean(axis=(2, 3)), atol=1e-6)
    mx = adaptive_pool(Tensor(x), 1, "max").data
    assert np.allclose(mx[..., 0, 0], x.max(axis=(2, 3)))


def test_adaptive_pool_rejects_oversized_bins():
    x = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        adaptive_pool(x, 4)


def test_adaptive_avg_backward_spreads_by_area():
    x = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32), requires_grad=True)
    with Graph():
        backward(adaptive_pool(x, 1, "average"), np.ones((1, 1, 1, 1), dtype=np.float32))
    assert np.allclose(x.grad, 1.0 / 9.0)


def test_adaptive_pool_overlapping_bins_backward():
    # 3 -> 2 bins on extent 3 overlap at the middle element; its gradient is
    # the sum of both bins' shares.
    x = Tensor(np.zeros((1, 1, 3, 1), dtype=np.float32), requires_grad=True)
    with Graph():
        backward(adaptive_pool(x, (2, 1), "average"), np.ones((1, 1, 2, 1), dtype=np.float32))
    # bins are rows [0,2) and [1,3): each has area 2, middle row in both
    assert np.allclose(x.grad[0, 0, :, 0], [0.5, 1.0, 0.5])


# -- bilinear -----------------------------------------------------------------


@pytest.mark.parametrize("src,dst", [((3, 4), (7, 9)), ((1, 5), (4, 5)), ((2, 2), (8, 8))])
def test_bilinear_matches_reference(src, dst):
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 3, *src)).astype(np.float32)
    got = bilinear_upsample(Tensor(x), dst).data
    want = bilinear_naive(x, dst)
    assert got.shape == want.shape
    assert np.allclose(got, want, atol=1e-5)


def test_bilinear_corners_align_exactly():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(1, 2, 3, 5)).astype(np.float32)
    out = bilinear_upsample(Tensor(x), (9, 13)).data
    assert np.array_equal(out[..., 0, 0], x[..., 0, 0])
    assert np.array_equal(out[..., 0, -1], x[..., 0, -1])
    assert np.array_equal(out[..., -1, 0], x[..., -1, 0])
    assert np.array_equal(out[..., -1, -1], x[..., -1, -1])


def test_bilinear_constant_plane_invariant():
    x = np.full((1, 1, 4, 4), 3.25, dtype=np.float32)
    out = bilinear_upsample(Tensor(x), (11, 17)).data
    assert np.array_equal(out, np.full((1, 1, 11, 17), 3.25, dtype=np.float32))


def test_bilinear_upsample_only():
    x = Tensor(np.zeros((1, 1, 8, 8), dtype=np.float32))
    with pytest.raises(ValueError):
        bilinear_upsample(x, (4, 4))


# -- concat / softmax / loss --------------------------------------------------


def test_concat_channels_layout_and_backward():
    a = Tensor(np.ones((2, 2, 3, 3), dtype=np.float32), requires_grad=True)
    b = Tensor(np.full((2, 3, 3, 3), 2.0, dtype=np.float32), requires_grad=True)
    with Graph():
        out = concat_channels([a, b])
        assert out.shape == (2, 5, 3, 3)
        assert np.array_equal(out.data[:, :2], a.data)
        assert np.array_equal(out.data[:, 2:], b.data)
        backward(out * 3.0, np.ones(out.shape, dtype=np.float32))
    assert np.allclose(a.grad, 3.0)
    assert np.allclose(b.grad, 3.0)


def test_concat_rejects_spatial_mismatch():
    a = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
    b = Tensor(np.zeros((1, 1, 4, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        concat_channels([a, b])


def test_stable_softmax_handles_huge_logits():
    z = np.array([[1000.0, 1001.0], [-1000.0, -999.0]], dtype=np.float32)
    p = stable_softmax(z, axis=1)
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)
    assert np.allclose(p[0], p[1], atol=1e-6)  # shift invariance


def test_cross_entropy_matches_reference():
    rng = np.random.default_rng(21)
    logits = rng.normal(size=(2, 5, 6, 6)).astype(np.float32)
    labels = rng.integers(0, 5, size=(2, 6, 6)).astype(np.int64)
    labels[0, :2, :2] = 255
    got = float(softmax_cross_entropy(Tensor(logits), labels).data)
    want = cross_entropy_naive(logits, labels)
    assert abs(got - want) < 1e-5


def test_cross_entropy_ignores_only_ignored():
    logits = np.zeros((1, 3, 2, 2), dtype=np.float32)
    logits[0, 1] = 5.0
    labels = np.full((1, 2, 2), 255, dtype=np.int64)
    labels[0, 0, 0] = 1
    loss = float(softmax_cross_entropy(Tensor(logits), labels).data)
    # single valid pixel predicts its own label confidently
    assert loss < 0.05


def test_cross_entropy_all_ignored_is_zero_loss_zero_grad():
    logits = Tensor(np.random.default_rng(1).normal(size=(1, 3, 2, 2)).astype(np.float32),
                    requires_grad=True)
    labels = np.full((1, 2, 2), 255, dtype=np.int64)
    with Graph():
        loss = softmax_cross_entropy(logits, labels)
        assert float(loss.data) == 0.0
        backward(loss)
    assert np.array_equal(logits.grad, np.zeros_like(logits.data))


def test_cross_entropy_rejects_out_of_range_label():
    logits = Tensor(np.zeros((1, 3, 2, 2), dtype=np.float32))
    labels = np.zeros((1, 2, 2), dtype=np.int64)
    labels[0, 1, 1] = 7
    with pytest.raises(ValueError):
        softmax_cross_entropy(logits, labels)
