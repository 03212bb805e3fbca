"""Property tests: conv, average pooling and upsampling against the oracles
in tests/reference.py over drawn shapes.

Forward outputs are compared directly. Backward passes are checked through
the adjoint identity of a linear map A: for random v and an upstream
gradient g, <A^T g, v> = <A v, g>, with A v computed by the oracle only.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pyrseg.ops import Conv2dParams, adaptive_pool, bilinear_upsample, conv2d
from pyrseg.tensor import Graph, Tensor, backward

from reference import adaptive_pool_naive, bilinear_naive, conv2d_naive


def _assert_adjoint(lhs_grad: np.ndarray, v: np.ndarray, oracle_out: np.ndarray,
                    g: np.ndarray) -> None:
    lhs = float(np.sum(lhs_grad.astype(np.float64) * v))
    rhs = float(np.sum(oracle_out * g))
    scale = float(np.abs(lhs_grad.astype(np.float64) * v).sum() + np.abs(oracle_out * g).sum())
    assert abs(lhs - rhs) <= 1e-5 * scale + 1e-6, (lhs, rhs, scale)


@st.composite
def conv_cases(draw):
    k = draw(st.sampled_from((1, 3)))
    stride = draw(st.integers(1, 3))
    dil = draw(st.integers(1, 3))
    pad = draw(st.integers(0, 3))
    # The smallest extent with at least one output; padding may exceed the span.
    low = max(1, dil * (k - 1) + 1 - 2 * pad)
    h = draw(st.integers(low, 10))
    w = draw(st.integers(low, 10))
    return dict(n=draw(st.integers(1, 2)), c=draw(st.integers(1, 8)),
                oc=draw(st.integers(1, 4)), h=h, w=w, k=k, stride=stride,
                dil=dil, pad=pad, bias=draw(st.booleans()), seed=draw(st.integers(0, 2**16)))


# Pinned draws: channels above and below the output width, and padding wider
# than the dilated kernel's reach, d * (k - 1).
@example(dict(n=2, c=8, oc=3, h=5, w=4, k=3, stride=1, dil=1, pad=1, bias=True, seed=1))
@example(dict(n=1, c=2, oc=4, h=9, w=10, k=3, stride=1, dil=2, pad=2, bias=False, seed=2))
@example(dict(n=2, c=5, oc=2, h=7, w=6, k=3, stride=2, dil=1, pad=3, bias=True, seed=3))
@example(dict(n=1, c=1, oc=1, h=1, w=1, k=1, stride=3, dil=3, pad=2, bias=False, seed=4))
@example(dict(n=1, c=3, oc=4, h=10, w=10, k=3, stride=3, dil=3, pad=0, bias=True, seed=5))
@settings(max_examples=150)
@given(conv_cases())
def test_conv2d_fuzz_forward_and_adjoint(case):
    rng = np.random.default_rng(case["seed"])
    n, c, oc, k = case["n"], case["c"], case["oc"], case["k"]
    stride, pad, dil = case["stride"], case["pad"], case["dil"]
    x = rng.normal(size=(n, c, case["h"], case["w"])).astype(np.float32)
    w = rng.normal(size=(oc, c, k, k)).astype(np.float32)
    b = rng.normal(size=oc).astype(np.float32) if case["bias"] else None

    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    bt = Tensor(b, requires_grad=True) if b is not None else None
    with Graph():
        out = conv2d(xt, Conv2dParams(wt, bt, stride, pad, dil))
        want = conv2d_naive(x, w, b, stride, pad, dil)
        assert out.shape == want.shape
        assert np.allclose(out.data, want, rtol=1e-5, atol=1e-4)
        g = rng.normal(size=out.shape).astype(np.float32)
        backward(out, g)

    v = rng.normal(size=x.shape)
    _assert_adjoint(xt.grad, v, conv2d_naive(v, w, None, stride, pad, dil), g)
    u = rng.normal(size=w.shape)
    _assert_adjoint(wt.grad, u, conv2d_naive(x, u, None, stride, pad, dil), g)
    if bt is not None:
        assert np.allclose(bt.grad, g.astype(np.float64).sum(axis=(0, 2, 3)), rtol=1e-5, atol=1e-5)


@st.composite
def pool_cases(draw):
    h, w = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    return dict(n=draw(st.integers(1, 2)), c=draw(st.integers(1, 4)), h=h, w=w,
                bh=draw(st.integers(1, h)), bw=draw(st.integers(1, w)),
                seed=draw(st.integers(0, 2**16)))


@settings(max_examples=60)
@given(pool_cases())
def test_adaptive_avg_pool_fuzz_forward_and_adjoint(case):
    rng = np.random.default_rng(case["seed"])
    bins = (case["bh"], case["bw"])
    x = rng.normal(size=(case["n"], case["c"], case["h"], case["w"])).astype(np.float32)
    xt = Tensor(x, requires_grad=True)
    with Graph():
        out = adaptive_pool(xt, bins, "average")
        assert np.allclose(out.data, adaptive_pool_naive(x, bins), atol=1e-5)
        g = rng.normal(size=out.shape).astype(np.float32)
        backward(out, g)
    v = rng.normal(size=x.shape)
    _assert_adjoint(xt.grad, v, adaptive_pool_naive(v, bins), g)


@st.composite
def upsample_cases(draw):
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return dict(n=draw(st.integers(1, 2)), c=draw(st.integers(1, 3)), h=h, w=w,
                oh=draw(st.integers(max(h, 2), 12)), ow=draw(st.integers(max(w, 2), 12)),
                seed=draw(st.integers(0, 2**16)))


@settings(max_examples=60)
@given(upsample_cases())
def test_bilinear_upsample_fuzz_forward_and_adjoint(case):
    rng = np.random.default_rng(case["seed"])
    out_hw = (case["oh"], case["ow"])
    x = rng.normal(size=(case["n"], case["c"], case["h"], case["w"])).astype(np.float32)
    xt = Tensor(x, requires_grad=True)
    with Graph():
        out = bilinear_upsample(xt, out_hw)
        assert np.allclose(out.data, bilinear_naive(x, out_hw), atol=1e-5)
        g = rng.normal(size=out.shape).astype(np.float32)
        backward(out, g)
    v = rng.normal(size=x.shape)
    _assert_adjoint(xt.grad, v, bilinear_naive(v, out_hw), g)
