"""Engine semantics: tape recording, reverse walk, gradient contracts."""

import gc
import weakref

import numpy as np
import pytest

from pyrseg import ops
from pyrseg.tensor import (
    Graph,
    Tensor,
    add,
    backward,
    finite_diff_check,
    mul,
)


def test_tensor_defaults_to_float32():
    t = Tensor([1, 2, 3])
    assert t.data.dtype == np.float32
    assert not t.requires_grad
    assert t.grad is None


def test_tensor_keeps_float64():
    t = Tensor(np.zeros(4, dtype=np.float64))
    assert t.data.dtype == np.float64


def test_no_recording_outside_graph():
    a = Tensor([1.0, 2.0], requires_grad=True)
    out = a + a
    assert out.graph is None
    with pytest.raises(RuntimeError, match="not attached to a graph"):
        backward(out, np.ones(2))


def test_no_recording_without_requires_grad():
    a = Tensor([1.0, 2.0])
    with Graph() as g:
        _ = a * 2.0 + a
    assert g.nodes == []


# The single-input ops' backward closures assume their input requires grad:
# record_op must not tape them otherwise.
@pytest.mark.parametrize("op", [
    ops.relu,
    lambda x: ops.max_pool2d(x, 3, 2, 1),
    lambda x: ops.adaptive_pool(x, 2, "average"),
    lambda x: ops.adaptive_pool(x, 2, "max"),
    lambda x: ops.bilinear_upsample(x, (8, 8)),
    lambda x: ops.softmax_cross_entropy(x, np.zeros((1, 4, 4), np.int64)),
], ids=["relu", "max_pool2d", "adaptive_pool-average", "adaptive_pool-max",
        "bilinear_upsample", "softmax_cross_entropy"])
def test_single_input_ops_record_nothing_without_requires_grad(op):
    x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 4, 4)))
    with Graph() as g:
        out = op(x)
    assert g.nodes == []
    assert not out.requires_grad and out.graph is None


def test_backward_scalar_root_only():
    a = Tensor([1.0, 2.0], requires_grad=True)
    with Graph():
        out = a * 3.0
        with pytest.raises(RuntimeError, match="scalar root"):
            backward(out)


def test_backward_grad_must_match_root_shape():
    a = Tensor([1.0, 2.0], requires_grad=True)
    for grad in (np.ones(3), np.ones((2, 1)), np.float64(1.0)):
        with Graph():
            out = a * 3.0
            with pytest.raises(ValueError, match="grad has shape"):
                backward(out, grad)


def test_simple_chain_gradient():
    a = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    with Graph():
        out = a * 2.0
        backward(out, np.array([1.0, 0.5, -1.0]))
    assert np.allclose(a.grad, [2.0, 1.0, -2.0])
    assert out.grad is None


def test_fanout_gradients_sum():
    # y = a + a uses `a` twice; dy/da = 2 must come from summing both paths.
    a = Tensor([3.0, -4.0], requires_grad=True)
    with Graph():
        backward(a + a, np.array([1.0, -3.0]))
    assert np.allclose(a.grad, [2.0, -6.0])


def test_shape_mismatch_raises():
    # add takes two Tensors of equal shape: no broadcasting, no promotion of
    # a number and no raw arrays.
    a = Tensor(np.ones((2, 3)))
    for shape in [(1, 3), (4, 5)]:
        b = Tensor(np.ones(shape))
        with pytest.raises(ValueError, match="shape mismatch"):
            add(a, b)
        with pytest.raises(ValueError, match="shape mismatch"):
            add(b, a)
        with pytest.raises(ValueError, match="shape mismatch"):
            _ = a + b
    for other in (1.0, np.ones((2, 3))):
        with pytest.raises(TypeError):
            _ = a + other
        with pytest.raises(TypeError):
            _ = other + a


def test_mul_takes_only_a_number():
    # mul scales by a number (the aux loss weight); there is no Tensor product.
    a = Tensor(np.ones((2, 3)))
    for other in (a, Tensor(np.ones((4, 5))), np.ones((2, 3))):
        with pytest.raises(TypeError):
            _ = a * other
    with pytest.raises(TypeError):
        mul(a, a)
    assert np.array_equal((a * np.float32(2.0)).data, np.full((2, 3), 2.0))


def test_double_backward_rejected():
    a = Tensor([1.0], requires_grad=True)
    with Graph():
        loss = a * 2.0
        backward(loss)
        with pytest.raises(RuntimeError, match="already ran"):
            backward(loss)


def test_backward_needs_explicit_zero():
    a = Tensor([1.0], requires_grad=True)
    with Graph():
        backward(a * 2.0)
    with Graph():
        loss = a * 3.0
        with pytest.raises(RuntimeError, match="step the optimizer or set .grad to None"):
            backward(loss)
    a.grad = None
    assert a.grad is None
    with Graph():
        backward(a * 3.0)
    assert np.allclose(a.grad, [3.0])


def test_grads_do_not_accumulate_across_graphs():
    # The explicit-zero contract means a fresh backward sees only its own graph.
    a = Tensor([1.0, 1.0], requires_grad=True)
    with Graph():
        backward(a * 5.0, np.ones(2))
    first = a.grad.copy()
    a.grad = None
    with Graph():
        backward(a * 5.0, np.ones(2))
    assert np.array_equal(first, a.grad)


def test_nested_graphs_rejected():
    with Graph():
        with pytest.raises(RuntimeError, match="already active"):
            with Graph():
                pass


def test_only_leaves_receive_gradients():
    # out = (a * 3 + b) * 4 + a: the root and every intermediate stay empty.
    a = Tensor([2.0], requires_grad=True)
    b = Tensor([5.0], requires_grad=True)
    with Graph():
        mid = a * 3.0
        fan = mid + b
        top = fan * 4.0
        out = top + a
        backward(out)
    assert [t.grad for t in (mid, fan, top, out)] == [None] * 4
    assert np.allclose(a.grad, [13.0])
    assert np.allclose(b.grad, [4.0])


def test_backward_releases_the_tape_without_gc():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    gc.disable()
    try:
        with Graph() as g:
            h = x + w
            z = h * 2.0
            out = z + x
        refs = [weakref.ref(h.data), weakref.ref(z.data)]
        del h, z
        assert refs[0]() is not None
        backward(out, np.ones((4, 3)))
        assert g.nodes == []
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
    assert x.grad.shape == (4, 3) and w.grad.shape == (4, 3)


def test_finite_diff_check_agrees_on_polynomial():
    # x -> x * 0.5 + x: analytic gradient 1.5 through both branches.
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
        err = finite_diff_check(lambda t: t * 0.5 + t, [x], rng)
        assert err < 1e-6


def test_finite_diff_check_catches_wrong_gradient():
    # A forward that lies about its backward must be flagged.
    from pyrseg.tensor import record_op

    def bad_double(t):
        return record_op(t.data * 2.0, (t,), lambda g: (g * 3.0,))

    x = Tensor(np.ones((2, 2)), requires_grad=True)
    err = finite_diff_check(bad_double, [x], np.random.default_rng(0))
    assert err > 0.1


def test_finite_diff_uses_float64_internally():
    seen = []

    def f(t):
        seen.append(t.data.dtype)
        return t * 2.0

    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    finite_diff_check(f, [x], np.random.default_rng(0))
    assert all(d == np.float64 for d in seen)
    assert x.data.dtype == np.float32  # caller's tensor untouched
