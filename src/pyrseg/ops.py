"""Layer primitives: dilated conv, batch norm, ReLU, pooling, bilinear
upsampling, channel concat, and softmax cross-entropy with an ignore label.

Every op is a pure function of Tensors (BN running-stat updates are the one
documented mutation) and registers its own backward on the active Graph.
batch_norm has one path: training and inference differ only in the statistics
they take, then share one in-place normalize/affine sequence and one backward,
which adds the batch-statistic terms in training only.
conv2d has one lowering for every shape: it pads a channels-last copy of the
input, gathers im2col columns in (c, i, j) order tap by tap, and multiplies
by the weight matrix; its backward scatter-adds the tap gradients onto a
channels-last buffer in the same tap order. The naive direct-summation
reference the tests compare against lives with the tests, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import IGNORE_LABEL
from .tensor import Tensor, record_op

BN_MOMENTUM = 0.1  # running-stat update weight of the current batch
BN_EPSILON = 1e-5


@dataclass
class Conv2dParams:
    """Weight/geometry bundle for conv2d. weight: out x in x kh x kw."""

    weight: Tensor
    bias: Tensor | None = None
    stride: int = 1
    padding: int = 0
    dilation: int = 1


@dataclass
class BatchNormParams:
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray


def conv_output_size(extent: int, kernel: int, stride: int, padding: int, dilation: int) -> int:
    return (extent + 2 * padding - dilation * (kernel - 1) - 1) // stride + 1


def _zero_pad(a: np.ndarray, pad: int) -> np.ndarray:
    """Zero border of width pad on the H and W axes of an N x H x W x C array
    (np.pad's result, minus its per-call overhead)."""
    if not pad:
        return a
    n, h, w, c = a.shape
    out = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=a.dtype)
    out[:, pad : pad + h, pad : pad + w] = a
    return out


def _tap_window(i: int, j: int, stride: int, dilation: int, ho: int, wo: int) -> tuple[slice, slice]:
    """Row and column slices of the padded input that kernel tap (i, j) meets
    across the ho x wo output grid."""
    return (
        slice(i * dilation, i * dilation + (ho - 1) * stride + 1, stride),
        slice(j * dilation, j * dilation + (wo - 1) * stride + 1, stride),
    )


def conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Cross-correlation with taps at offsets dilation*k."""
    if x.ndim != 4:
        raise ValueError(f"conv2d expects N x C x H x W input, got shape {x.shape}")
    n, c, h, w = x.shape
    oc, ic, kh, kw = p.weight.shape
    if c != ic:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {ic}")
    if p.stride < 1 or p.dilation < 1 or p.padding < 0:
        raise ValueError("stride/dilation must be >= 1 and padding >= 0")
    ho = conv_output_size(h, kh, p.stride, p.padding, p.dilation)
    wo = conv_output_size(w, kw, p.stride, p.padding, p.dilation)
    if ho < 1 or wo < 1:
        raise ValueError(
            f"non-positive output size {ho}x{wo} for input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {p.stride}, padding {p.padding}, dilation {p.dilation}"
        )

    stride, pad, dil = p.stride, p.padding, p.dilation
    # windows[i * kw + j] holds the slices tap (i, j) reads.
    windows = [_tap_window(i, j, stride, dil, ho, wo) for i in range(kh) for j in range(kw)]
    # col matrix (n*ho*wo, c*kh*kw), columns in (c, i, j) order, gathered one
    # tap at a time from a channels-last padded input: each copy moves runs
    # of c values.
    xp = _zero_pad(x.data.transpose(0, 2, 3, 1), pad)
    cols = np.empty((n, ho, wo, c, kh * kw), dtype=xp.dtype)
    for t, (rows, cs) in enumerate(windows):
        cols[..., t] = xp[:, rows, cs]
    cols = cols.reshape(n * ho * wo, c * kh * kw)
    wmat = p.weight.data.reshape(oc, -1)
    out = (cols @ wmat.T).reshape(n, ho, wo, oc).transpose(0, 3, 1, 2)
    out = np.ascontiguousarray(out)
    if p.bias is not None:
        out += p.bias.data[None, :, None, None]

    weight, bias = p.weight, p.bias

    def backward_fn(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, oc)
        dw = (g2.T @ cols).reshape(weight.shape) if weight.requires_grad else None
        db = g.sum(axis=(0, 2, 3)) if bias is not None and bias.requires_grad else None
        dx = None
        if x.requires_grad:
            # Scatter-add each tap's columns onto the channels-last padded
            # input in tap order, then transpose once to N x C x H x W.
            taps = (g2 @ wmat).reshape(n, ho, wo, c, kh * kw)
            taps = np.ascontiguousarray(taps.transpose(4, 0, 1, 2, 3))
            dxp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=g.dtype)
            for t, (rows, cs) in enumerate(windows):
                dxp[:, rows, cs] += taps[t]
            dx = np.ascontiguousarray(dxp[:, pad : pad + h, pad : pad + w].transpose(0, 3, 1, 2))
        if bias is not None:
            return dx, dw, db
        return dx, dw

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return record_op(out, inputs, backward_fn)


def batch_norm(x: Tensor, p: BatchNormParams, training: bool) -> Tensor:
    """Per-channel normalization by the batch stats in training (which also
    updates the running stats in place) or by the running stats in inference."""
    if x.ndim != 4:
        raise ValueError(f"batch_norm expects N x C x H x W input, got shape {x.shape}")
    n, c, h, w = x.shape
    gamma, beta = p.gamma, p.beta
    axes, b = (0, 2, 3), (None, slice(None), None, None)
    m = n * h * w
    if training:
        if m < 2:
            raise ValueError("batch_norm in training mode needs at least 2 values per channel")
        mean = x.data.mean(axis=axes, keepdims=True)
        xhat = x.data - mean
        var = (xhat * xhat).mean(axis=axes)  # x.var's arithmetic
        for running, batch in ((p.running_mean, mean.reshape(c)), (p.running_var, var)):
            running *= 1.0 - BN_MOMENTUM
            running += BN_MOMENTUM * batch
    else:
        xhat = x.data - p.running_mean[b]
        var = p.running_var
    invstd = (1.0 / np.sqrt(var + BN_EPSILON))[b]
    xhat *= invstd
    out = xhat * gamma.data[b]
    out += beta.data[b]

    def backward_fn(g):
        dgamma = (g * xhat).sum(axis=axes) if gamma.requires_grad else None
        dbeta = g.sum(axis=axes) if beta.requires_grad else None
        dx = None
        if x.requires_grad:
            dx = g * gamma.data[b]
            if training:
                t = xhat * (dx * xhat).sum(axis=axes)[b]
                t += dx.sum(axis=axes)[b]
                t /= m
                dx -= t
            dx *= invstd
        return dx, dgamma, dbeta

    return record_op(out, (x, gamma, beta), backward_fn)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def backward_fn(g):
        return (g * (x.data > 0),)

    return record_op(out, (x,), backward_fn)


def max_pool2d(x: Tensor, kernel: int, stride: int, padding: int = 0) -> Tensor:
    """Strided max pooling (the resnet-layout stem). Pad cells never win."""
    n, c, h, w = x.shape
    ho = (h + 2 * padding - kernel) // stride + 1
    wo = (w + 2 * padding - kernel) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"non-positive output size {ho}x{wo} for max_pool2d on {h}x{w}")
    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                    constant_values=-np.inf)
    else:
        xp = x.data
    win = sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    win = win[:, :, : (ho - 1) * stride + 1 : stride, : (wo - 1) * stride + 1 : stride]
    flat = win.reshape(n, c, ho, wo, kernel * kernel)
    arg = flat.argmax(axis=-1)  # first max = lowest linear index in the bin
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward_fn(g):
        rows = arg // kernel + np.arange(ho)[None, None, :, None] * stride
        cols = arg % kernel + np.arange(wo)[None, None, None, :] * stride
        dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=g.dtype)
        nidx = np.arange(n)[:, None, None, None]
        cidx = np.arange(c)[None, :, None, None]
        np.add.at(dxp, (nidx, cidx, rows, cols), g)
        dx = dxp[:, :, padding : padding + h, padding : padding + w] if padding else dxp
        return (np.ascontiguousarray(dx),)

    return record_op(np.ascontiguousarray(out), (x,), backward_fn)


def _bin_edges(extent: int, bins: int) -> list[tuple[int, int]]:
    """Bin i covers [floor(i*extent/bins), ceil((i+1)*extent/bins)); may overlap."""
    edges = []
    for i in range(bins):
        lo = (i * extent) // bins
        hi = -((-(i + 1) * extent) // bins)
        edges.append((lo, hi))
    return edges


def adaptive_pool(x: Tensor, bins: int | tuple[int, int], mode: str = "average") -> Tensor:
    if mode not in ("average", "max"):
        raise ValueError(f"unknown pool mode {mode!r}; expected 'average' or 'max'")
    nh, nw = (bins, bins) if isinstance(bins, int) else bins
    n, c, h, w = x.shape
    if not (1 <= nh <= h and 1 <= nw <= w):
        raise ValueError(f"bins {nh}x{nw} exceed spatial extent {h}x{w}")
    rows = _bin_edges(h, nh)
    cols = _bin_edges(w, nw)
    out = np.empty((n, c, nh, nw), dtype=x.data.dtype)
    argrows = argcols = None
    if mode == "max":
        argrows = np.empty((n, c, nh, nw), dtype=np.int64)
        argcols = np.empty((n, c, nh, nw), dtype=np.int64)
    for i, (r0, r1) in enumerate(rows):
        for j, (c0, c1) in enumerate(cols):
            patch = x.data[:, :, r0:r1, c0:c1]
            if mode == "average":
                # anchor + mean(patch - anchor) preserves constant planes
                # exactly (the residuals are exact zeros).
                anchor = patch[:, :, 0, 0]
                out[:, :, i, j] = anchor + (patch - anchor[:, :, None, None]).mean(axis=(2, 3))
            else:
                flat = patch.reshape(n, c, -1)
                arg = flat.argmax(axis=-1)  # ties: lowest linear index in the bin
                out[:, :, i, j] = np.take_along_axis(flat, arg[..., None], -1)[..., 0]
                argrows[:, :, i, j] = r0 + arg // (c1 - c0)
                argcols[:, :, i, j] = c0 + arg % (c1 - c0)

    def backward_fn(g):
        dx = np.zeros_like(x.data)
        if mode == "average":
            for i, (r0, r1) in enumerate(rows):
                for j, (c0, c1) in enumerate(cols):
                    area = (r1 - r0) * (c1 - c0)
                    dx[:, :, r0:r1, c0:c1] += g[:, :, i, j, None, None] / area
        else:
            nidx = np.arange(n)[:, None, None, None]
            cidx = np.arange(c)[None, :, None, None]
            np.add.at(dx, (nidx, cidx, argrows, argcols), g)
        return (dx,)

    return record_op(out, (x,), backward_fn)


def _axis_taps(src: int, dst: int, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Align-corners neighbor indices and fractions for one axis."""
    if src == 1:
        zeros = np.zeros(dst, dtype=np.int64)
        return zeros, zeros, np.zeros(dst, dtype=dtype)
    pos = np.arange(dst) * (src - 1) / (dst - 1)
    i0 = np.floor(pos).astype(np.int64)
    i1 = np.minimum(i0 + 1, src - 1)
    return i0, i1, (pos - i0).astype(dtype)


@lru_cache(maxsize=64)
def _interp_matrix(src: int, dst: int, dtype) -> np.ndarray:
    """Dense align-corners row-interpolation operator (dst x src); cached
    per shape, so it is read-only."""
    i0, i1, frac = _axis_taps(src, dst, np.float64)
    m = np.zeros((dst, src), dtype=np.float64)
    np.add.at(m, (np.arange(dst), i0), 1.0 - frac)
    np.add.at(m, (np.arange(dst), i1), frac)
    m = m.astype(dtype, copy=False)
    m.flags.writeable = False
    return m


def bilinear_upsample(x: Tensor, out_hw: tuple[int, int]) -> Tensor:
    """Align-corners bilinear resize to a size >= the input's.

    src coordinate = dst * (h-1)/(H-1) when H > 1; a 1x1 input replicates.
    Linear in x, so the gradient is the transposed interpolation. The blend
    uses the x0 + f*(x1-x0) form so constant planes pass through bit-exact.
    """
    n, c, h, w = x.shape
    ho, wo = out_hw
    if ho < h or wo < w:
        raise ValueError(f"bilinear_upsample cannot downsample: {h}x{w} -> {ho}x{wo}")
    dt = x.data.dtype
    r0, r1, rf = _axis_taps(h, ho, dt)
    c0, c1, cf = _axis_taps(w, wo, dt)
    lo = x.data[:, :, r0, :]
    rows = lo + rf[None, None, :, None] * (x.data[:, :, r1, :] - lo)
    left = rows[:, :, :, c0]
    out = left + cf[None, None, None, :] * (rows[:, :, :, c1] - left)

    def backward_fn(g):
        rmat = _interp_matrix(h, ho, dt)
        cmat = _interp_matrix(w, wo, dt)
        tmpg = np.moveaxis(np.tensordot(rmat.T, g, axes=(1, 2)), 0, 2)
        return (np.ascontiguousarray(np.tensordot(tmpg, cmat, axes=(3, 0))),)

    return record_op(np.ascontiguousarray(out), (x,), backward_fn)


def concat_channels(xs: list[Tensor]) -> Tensor:
    if not xs:
        raise ValueError("concat_channels needs at least one tensor")
    n, _, h, w = xs[0].shape
    for t in xs[1:]:
        tn, _, th, tw = t.shape
        if (tn, th, tw) != (n, h, w):
            raise ValueError(f"shape mismatch: {xs[0].shape} vs {t.shape}")
    out = np.concatenate([t.data for t in xs], axis=1)
    sizes = [t.shape[1] for t in xs]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        return tuple(
            g[:, offsets[i] : offsets[i + 1]] if t.requires_grad else None
            for i, t in enumerate(xs)
        )

    return record_op(out, tuple(xs), backward_fn)


def stable_softmax(z: np.ndarray, axis: int = 1) -> np.ndarray:
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean of -log softmax[label] over non-ignored pixels (0 if none)."""
    if logits.ndim != 4:
        raise ValueError(f"softmax_cross_entropy expects N x K x H x W logits, got {logits.shape}")
    n, k, h, w = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n, h, w):
        raise ValueError(f"shape mismatch: logits {logits.shape} vs labels {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integer, got dtype {labels.dtype}")
    bad = (labels != IGNORE_LABEL) & ((labels < 0) | (labels >= k))
    if bad.any():
        raise ValueError(
            f"label {int(labels[bad][0])} out of range for {k} classes (ignore={IGNORE_LABEL})"
        )

    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    sume = e.sum(axis=1, keepdims=True)
    mask = labels != IGNORE_LABEL
    nvalid = int(mask.sum())
    safe = np.where(mask, labels, 0).astype(np.int64)[:, None]
    if nvalid == 0:
        loss = np.asarray(0.0, dtype=z.dtype)
    else:
        logp_true = np.take_along_axis((z - zmax) - np.log(sume), safe, axis=1)[:, 0]
        loss = np.asarray(-(logp_true * mask).sum() / nvalid, dtype=z.dtype)

    def backward_fn(g):
        if nvalid == 0:
            return (np.zeros_like(z),)
        grad = e / sume
        np.put_along_axis(grad, safe, np.take_along_axis(grad, safe, axis=1) - 1.0, axis=1)
        grad *= mask[:, None].astype(z.dtype) / nvalid
        grad *= float(g)
        return (grad,)

    return record_op(loss, (logits,), backward_fn)
