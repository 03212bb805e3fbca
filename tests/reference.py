"""Independent reference implementations the tests compare against.

Everything here is written the slow, obvious way (explicit loops, direct
summation) on purpose: these are the oracles, so they must not share code or
vectorization tricks with the package.
"""

import hashlib
import math

import numpy as np


def conv2d_naive(x, w, b=None, stride=1, padding=0, dilation=1):
    """Direct-summation cross-correlation, one tap at a time."""
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    assert c == ic
    ho = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    wo = (wd + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    out = np.zeros((n, oc, ho, wo), dtype=np.float64)
    for bi in range(n):
        for o in range(oc):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for a in range(kh):
                            for bb in range(kw):
                                yy = i * stride + a * dilation - padding
                                xx = j * stride + bb * dilation - padding
                                if 0 <= yy < h and 0 <= xx < wd:
                                    acc += float(x[bi, ci, yy, xx]) * float(w[o, ci, a, bb])
                    out[bi, o, i, j] = acc + (float(b[o]) if b is not None else 0.0)
    return out


def adaptive_bins_naive(extent, bins):
    """[floor(i*E/n), ceil((i+1)*E/n)) per bin, via plain float math."""
    edges = []
    for i in range(bins):
        start = math.floor(i * extent / bins)
        end = math.ceil((i + 1) * extent / bins)
        edges.append((start, end))
    return edges

def adaptive_pool_naive(x, bins_hw, mode="average"):
    n, c, h, w = x.shape
    bh, bw = bins_hw
    rows = adaptive_bins_naive(h, bh)
    cols = adaptive_bins_naive(w, bw)
    out = np.zeros((n, c, bh, bw), dtype=np.float64)
    for bi in range(n):
        for ci in range(c):
            for i, (r0, r1) in enumerate(rows):
                for j, (c0, c1) in enumerate(cols):
                    window = x[bi, ci, r0:r1, c0:c1].astype(np.float64)
                    out[bi, ci, i, j] = window.max() if mode == "max" else window.mean()
    return out


def max_pool_naive(x, kernel, stride, padding=0):
    n, c, h, w = x.shape
    ho = (h + 2 * padding - kernel) // stride + 1
    wo = (w + 2 * padding - kernel) // stride + 1
    out = np.full((n, c, ho, wo), -np.inf, dtype=np.float64)
    for bi in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    for a in range(kernel):
                        for bb in range(kernel):
                            yy = i * stride + a - padding
                            xx = j * stride + bb - padding
                            if 0 <= yy < h and 0 <= xx < w:
                                v = float(x[bi, ci, yy, xx])
                                if v > out[bi, ci, i, j]:
                                    out[bi, ci, i, j] = v
    return out


def bilinear_naive(x, out_hw):
    """Align-corners sampling, one output pixel at a time."""
    n, c, h, w = x.shape
    oh, ow = out_hw
    out = np.zeros((n, c, oh, ow), dtype=np.float64)
    for i in range(oh):
        sy = i * (h - 1) / (oh - 1) if oh > 1 else 0.0
        y0 = int(math.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for j in range(ow):
            sx = j * (w - 1) / (ow - 1) if ow > 1 else 0.0
            x0 = int(math.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            out[:, :, i, j] = (
                x[:, :, y0, x0] * (1 - fy) * (1 - fx)
                + x[:, :, y0, x1] * (1 - fy) * fx
                + x[:, :, y1, x0] * fy * (1 - fx)
                + x[:, :, y1, x1] * fy * fx
            )
    return out


def batchnorm_train_naive(x, gamma, beta, eps=1e-5):
    """Per-channel standardization with the biased variance."""
    n, c, h, w = x.shape
    out = np.zeros_like(x, dtype=np.float64)
    means, variances = [], []
    for ci in range(c):
        vals = x[:, ci, :, :].astype(np.float64)
        mu = vals.mean()
        var = ((vals - mu) ** 2).mean()
        out[:, ci] = (vals - mu) / math.sqrt(var + eps) * float(gamma[ci]) + float(beta[ci])
        means.append(mu)
        variances.append(var)
    return out, np.array(means), np.array(variances)


def cross_entropy_naive(logits, labels, ignore=255):
    """Mean -log softmax[label] over non-ignored pixels, double precision."""
    n, k, h, w = logits.shape
    total, count = 0.0, 0
    for bi in range(n):
        for i in range(h):
            for j in range(w):
                lab = int(labels[bi, i, j])
                if lab == ignore:
                    continue
                z = logits[bi, :, i, j].astype(np.float64)
                z = z - z.max()
                total += math.log(np.exp(z).sum()) - z[lab]
                count += 1
    return total / count if count else 0.0


def confusion_naive(gt, pred, num_classes, ignore=255):
    """Per-pixel python loop; rows are ground truth, columns prediction."""
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for g, p in zip(gt.ravel().tolist(), pred.ravel().tolist()):
        if g == ignore:
            continue
        cm[g][p] += 1
    return cm


def metrics_naive(cm):
    total = cm.sum()
    acc = np.trace(cm) / total if total else float("nan")
    ious = []
    for c in range(cm.shape[0]):
        tp = cm[c, c]
        union = cm[c, :].sum() + cm[:, c].sum() - tp
        if union > 0:
            ious.append(tp / union)
    return acc, (sum(ious) / len(ious) if ious else float("nan"))


def poly_lr_naive(base, iteration, max_iter, power):
    return base * (1.0 - iteration / max_iter) ** power


def he_init_naive(shape, seed, name):
    """He-normal conv weight from its own (seed, name)-keyed stream."""
    h = int.from_bytes(hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest(), "little")
    rng = np.random.default_rng([seed, h & 0xFFFFFFFF, h >> 32])
    fan_in = 1
    for d in shape[1:]:
        fan_in *= d
    return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape).astype(np.float32)
