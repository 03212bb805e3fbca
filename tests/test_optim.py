"""Poly schedule against the closed form; SGD update against hand math."""

from dataclasses import replace

import numpy as np
import pytest

from pyrseg import checkpoint as ckpt
from pyrseg import optim
from pyrseg.config import load_config
from pyrseg.model import build_model
from pyrseg.optim import SGD, OptimConfig, poly_lr
from pyrseg.tensor import Graph, Tensor, backward

from reference import poly_lr_naive


def test_poly_lr_endpoints_exact():
    cfg = OptimConfig(base_lr=0.01, power=0.9, max_iter=1000)
    assert poly_lr(0, cfg) == 0.01
    assert poly_lr(1000, cfg) == 0.0


def test_poly_lr_matches_closed_form():
    cfg = OptimConfig(base_lr=0.01, power=0.9, max_iter=90000)
    for it in (1, 45000, 89999):
        want = poly_lr_naive(0.01, it, 90000, 0.9)
        assert abs(poly_lr(it, cfg) - want) < 1e-12


def test_poly_lr_monotone_over_sweep():
    cfg = OptimConfig(base_lr=0.02, power=0.9, max_iter=10000)
    values = [poly_lr(i, cfg) for i in range(10001)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_poly_lr_power_one_is_linear():
    cfg = OptimConfig(base_lr=1.0, power=1.0, max_iter=10)
    assert abs(poly_lr(5, cfg) - 0.5) < 1e-15


def test_poly_lr_rejects_out_of_range():
    cfg = OptimConfig(max_iter=100)
    with pytest.raises(ValueError, match="outside"):
        poly_lr(-1, cfg)
    with pytest.raises(ValueError, match="outside"):
        poly_lr(101, cfg)


def test_optim_config_validation():
    with pytest.raises(ValueError, match="base_lr"):
        OptimConfig(base_lr=0.0)
    with pytest.raises(ValueError, match="momentum"):
        OptimConfig(momentum=1.0)
    with pytest.raises(ValueError, match="weight_decay"):
        OptimConfig(weight_decay=-0.1)
    with pytest.raises(ValueError, match="max_iter"):
        OptimConfig(max_iter=0)
    with pytest.raises(ValueError, match="power"):
        OptimConfig(power=0.0)


def _param(values):
    t = Tensor(np.array(values, dtype=np.float32), requires_grad=True)
    return t


class _Holder:
    """Yields the given parameters, named as keyed: all that SGD reads of a model."""

    def __init__(self, params: dict) -> None:
        self.params = params

    def named_parameters(self):
        return iter(self.params.items())


def test_sgd_two_steps_constant_grad_unrolls():
    # mu=0.9, wd=0: v1 = g, v2 = 1.9 g, displacement lr*g*(1 + 1.9).
    p = _param([1.0])
    sgd = SGD(_Holder({"w": p}), OptimConfig(momentum=0.9, weight_decay=0.0))
    g = np.array([2.0], dtype=np.float32)
    lr = 0.1
    for _ in range(2):
        p.grad = g.copy()
        sgd.step(lr)
    want = 1.0 - lr * 2.0 * (1.0 + 1.9)
    assert np.allclose(p.data, [want], atol=1e-6)


def test_sgd_weight_decay_added_to_gradient():
    p = _param([10.0])
    sgd = SGD(_Holder({"w": p}), OptimConfig(momentum=0.0, weight_decay=0.5))
    p.grad = np.array([1.0], dtype=np.float32)
    sgd.step(0.1)
    # effective grad = 1 + 0.5*10 = 6; p = 10 - 0.1*6
    assert np.allclose(p.data, [9.4], atol=1e-6)


def test_sgd_momentum_zero_is_plain_descent():
    p = _param([3.0, -2.0])
    sgd = SGD(_Holder({"w": p}), OptimConfig(momentum=0.0, weight_decay=0.0))
    p.grad = np.array([1.0, -1.0], dtype=np.float32)
    sgd.step(0.5)
    assert np.allclose(p.data, [2.5, -1.5])


def test_sgd_requires_gradients():
    p = _param([1.0])
    sgd = SGD(_Holder({"w": p}), OptimConfig())
    with pytest.raises(RuntimeError, match="has no gradient"):
        sgd.step(0.1)


def test_sgd_velocity_keyed_by_name():
    a, b = _param([1.0]), _param([1.0])
    sgd = SGD(_Holder({"a": a, "b": b}), OptimConfig(momentum=0.9, weight_decay=0.0))
    assert set(sgd.velocity) == {"a", "b"}
    a.grad = np.array([1.0], dtype=np.float32)
    b.grad = np.array([0.0], dtype=np.float32)
    sgd.step(0.1)
    assert sgd.velocity["a"][0] != 0.0
    assert sgd.velocity["b"][0] == 0.0


def test_sgd_step_clears_every_gradient_it_applied():
    params = {"a": _param([1.0]), "b": _param([2.0, 3.0])}
    sgd = SGD(_Holder(params), OptimConfig())
    for p in params.values():
        p.grad = np.ones(p.shape, dtype=np.float32)
    sgd.step(0.1)
    assert [p.grad for p in params.values()] == [None, None]
    with pytest.raises(RuntimeError, match="parameter a has no gradient"):
        sgd.step(0.1)


def test_sgd_trajectory_matches_manual_simulation():
    rng = np.random.default_rng(8)
    cfg = OptimConfig(momentum=0.9, weight_decay=0.01)
    p = Tensor(rng.normal(size=(4,)).astype(np.float32), requires_grad=True)
    ref = p.data.astype(np.float64).copy()
    vel = np.zeros(4)
    sgd = SGD(_Holder({"w": p}), cfg)
    for it in range(25):
        g = rng.normal(size=4).astype(np.float32)
        p.grad = g.copy()
        lr = 0.05 * (1 - it / 25) ** 0.9
        sgd.step(lr)
        vel = 0.9 * vel + (g + 0.01 * ref)
        ref = ref - lr * vel
    assert np.allclose(p.data, ref, atol=1e-4)


def test_sgd_step_bitwise_equals_reference_update(tmp_path):
    # Velocity comes back through a checkpoint save and load, and SGD steps
    # the loaded arrays in place, as a resume does. With 64 head channels the
    # head conv holds 147,456 weights: over two blocks and not a multiple of
    # one; most other parameters sit below a block.
    cfg = replace(load_config(None, {}).to_model_config(), head_channels=64)
    model = build_model(cfg, seed=0)
    rng = np.random.default_rng(3)
    saved = {n: rng.normal(size=p.shape).astype(np.float32)
             for n, p in model.named_parameters()}
    assert max(v.size for v in saved.values()) > 2 * optim._BLOCK
    path = tmp_path / "v.pspc"
    ckpt.save(str(path), model, saved, 0)
    loaded, velocity, _ = ckpt.load(str(path), cfg)
    params = dict(loaded.named_parameters())
    ocfg = OptimConfig(momentum=0.9, weight_decay=0.0005)
    sgd = SGD(loaded, ocfg, velocity)
    ref_p = {n: p.data.copy() for n, p in model.named_parameters()}
    ref_v = {n: v.copy() for n, v in saved.items()}
    for lr in (0.01, 0.0093):
        for name, p in params.items():
            p.grad = rng.normal(size=p.shape).astype(np.float32)
            g = p.grad + ocfg.weight_decay * ref_p[name]
            ref_v[name] *= ocfg.momentum
            ref_v[name] += g
            ref_p[name] -= lr * ref_v[name]
        sgd.step(lr)
    for name, p in params.items():
        assert np.array_equal(p.data, ref_p[name]), name
        assert np.array_equal(sgd.velocity[name], ref_v[name]), name


def test_sgd_missing_last_gradient_leaves_every_parameter_unchanged():
    params = {n: _param(np.arange(4) + i) for i, n in enumerate("abc")}
    sgd = SGD(_Holder(params), OptimConfig())
    for name in "ab":
        params[name].grad = np.ones(4, dtype=np.float32)
    before = {n: p.data.copy() for n, p in params.items()}
    with pytest.raises(RuntimeError, match="parameter c has no gradient"):
        sgd.step(0.1)
    for name, p in params.items():
        assert np.array_equal(p.data, before[name]), name
        assert not sgd.velocity[name].any(), name
    assert [params[n].grad is not None for n in "abc"] == [True, True, False]


def test_sgd_rejects_non_contiguous_state():
    p = _param(np.arange(12).reshape(3, 4))
    sgd = SGD(_Holder({"w": p}), OptimConfig())
    p.grad = np.ones((3, 4), dtype=np.float32)
    sgd.velocity["w"] = np.zeros((4, 3), dtype=np.float32).T
    with pytest.raises(RuntimeError, match="velocity w must be a C-contiguous"):
        sgd.step(0.1)
    sgd.velocity["w"] = np.zeros((3, 4), dtype=np.float32)
    p.data = np.asfortranarray(p.data)
    with pytest.raises(RuntimeError, match="parameter w must be a C-contiguous"):
        sgd.step(0.1)


def test_sgd_updates_the_velocity_arrays_it_is_given():
    params = {"w": Tensor(np.ones(3, np.float32), requires_grad=True)}
    vel = {"w": np.full(3, 0.5, np.float32)}
    sgd = SGD(_Holder(params), OptimConfig(momentum=0.9, weight_decay=0.0), velocity=vel)
    assert sgd.velocity["w"] is vel["w"]
    params["w"].grad = np.ones(3, np.float32)
    sgd.step(0.1)
    assert np.array_equal(vel["w"], np.full(3, np.float32(0.5) * np.float32(0.9) + 1))
    with pytest.raises(ValueError, match="one array per parameter"):
        SGD(_Holder(params), OptimConfig(), velocity={"w": np.zeros(4, np.float32)})
    with pytest.raises(ValueError, match="one array per parameter"):
        SGD(_Holder(params), OptimConfig(), velocity={})


def test_sgd_steps_a_parameter_assigned_after_it_was_built():
    model = build_model(load_config(None, {}).to_model_config(), seed=0)
    sgd = SGD(model, OptimConfig())
    velocity = sgd.velocity["head/conv1/weight"]
    old = model.head.conv1.weight
    new = Tensor(old.data.copy(), requires_grad=True)
    model.head.conv1.weight = new
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, size=(2, 64, 64)).astype(np.uint8)
    with Graph():
        total, _, _ = model.forward_train(Tensor(rng.random((2, 3, 64, 64), np.float32)), labels)
        backward(total)
    sgd.step(0.01)
    assert not np.array_equal(new.data, old.data)
    assert sgd.velocity["head/conv1/weight"] is velocity and velocity.any()
    assert old.grad is None
    assert all(p.grad is None for _, p in model.named_parameters())


def test_sgd_rejects_a_parameter_replaced_by_another_shape():
    model = build_model(load_config(None, {}).to_model_config(), seed=0)
    sgd = SGD(model, OptimConfig())
    old = model.head.conv1.weight
    model.head.conv1.weight = Tensor(np.ones(old.shape[:-1] + (1,), np.float32),
                                     requires_grad=True)
    for _, p in model.named_parameters():
        p.grad = np.ones(p.shape, np.float32)
    before = [(n, p.data.copy(), p.grad, sgd.velocity[n].copy())
              for n, p in model.named_parameters()]
    with pytest.raises(RuntimeError, match="parameter head/conv1/weight has shape"):
        sgd.step(0.01)
    for (name, data, grad, vel), (_, p) in zip(before, model.named_parameters()):
        assert np.array_equal(p.data, data), name
        assert p.grad is grad, name
        assert np.array_equal(sgd.velocity[name], vel), name
