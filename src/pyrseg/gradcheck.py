"""Double-precision finite-difference verification of every backward pass.

Each case builds one op (or a short chain, or the micro model's training
loss) on freshly drawn inputs and returns its output. The checker projects
that output onto a random array drawn from the case's generator and compares
recorded gradients against central differences (see tensor.finite_diff_check).
Inputs feeding kinked ops (relu, max pooling) are pushed away from the kink so
the difference quotient stays two-sided valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .backbone import BackboneConfig
from .data import IGNORE_LABEL
from .model import ModelConfig, build_model
from .pyramid import PyramidConfig
from .tensor import Tensor, finite_diff_check

TOLERANCE = 1e-4
DEFAULT_SEEDS = 20


@dataclass
class CheckResult:
    name: str
    seeds: int
    worst: float
    worst_seed: int
    ok: bool


def _t(rng: np.random.Generator, *shape: int, scale: float = 1.0) -> Tensor:
    return Tensor(rng.normal(size=shape, scale=scale), requires_grad=True)


def _away_from_zero(rng: np.random.Generator, *shape: int) -> Tensor:
    x = rng.normal(size=shape)
    return Tensor(x + 0.25 * np.sign(x), requires_grad=True)


def _distinct_grid(rng: np.random.Generator, *shape: int) -> Tensor:
    """All values distinct with gaps >> finite-difference eps."""
    n = int(np.prod(shape))
    vals = rng.permutation(n).astype(np.float64) * 0.01
    return Tensor(vals.reshape(shape), requires_grad=True)


# -- cases ---------------------------------------------------------------------


def case_add(rng):
    a, b = _t(rng, 3, 4), _t(rng, 3, 4)
    return (lambda a, b: a + b), [a, b]


def case_scale(rng):
    a = _t(rng, 4, 3)
    return (lambda a: a * -1.7), [a]


def case_relu(rng):
    x = _away_from_zero(rng, 2, 3, 4)
    return ops.relu, [x]


def _conv_case(rng, xshape, wshape, stride, padding, dilation, bias):
    x = _t(rng, *xshape, scale=0.5)
    w = _t(rng, *wshape, scale=0.5)
    xs = [x, w]
    if bias:
        xs.append(_t(rng, wshape[0]))

    def f(x, w, b=None):
        p = ops.Conv2dParams(weight=w, bias=b, stride=stride, padding=padding,
                             dilation=dilation)
        return ops.conv2d(x, p)

    return f, xs


def case_conv_basic(rng):
    return _conv_case(rng, (2, 3, 5, 5), (4, 3, 3, 3), 1, 1, 1, bias=True)


def case_conv_stride2(rng):
    return _conv_case(rng, (1, 2, 7, 7), (3, 2, 3, 3), 2, 1, 1, bias=False)


def case_conv_dilated(rng):
    return _conv_case(rng, (1, 2, 9, 9), (2, 2, 3, 3), 1, 2, 2, bias=False)


def case_conv_1x1(rng):
    return _conv_case(rng, (2, 4, 4, 4), (3, 4, 1, 1), 1, 0, 1, bias=False)


def case_batch_norm(rng):
    x = _t(rng, 2, 3, 4, 4)
    gamma = Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
    beta = _t(rng, 3)

    def f(x, gamma, beta):
        p = ops.BatchNormParams(gamma=gamma, beta=beta,
                                running_mean=np.zeros(3, dtype=np.float32),
                                running_var=np.ones(3, dtype=np.float32))
        return ops.batch_norm(x, p, training=True)

    return f, [x, gamma, beta]


def case_batch_norm_eval(rng):
    x = _t(rng, 1, 3, 3, 3)
    gamma = Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
    beta = _t(rng, 3)
    rm = rng.normal(size=3).astype(np.float32)
    rv = rng.uniform(0.5, 2.0, size=3).astype(np.float32)

    def f(x, gamma, beta):
        p = ops.BatchNormParams(gamma=gamma, beta=beta, running_mean=rm.copy(),
                                running_var=rv.copy())
        return ops.batch_norm(x, p, training=False)

    return f, [x, gamma, beta]


def case_max_pool(rng):
    x = _distinct_grid(rng, 1, 2, 6, 6)
    return (lambda x: ops.max_pool2d(x, 3, 2, 1)), [x]


def case_adaptive_avg(rng):
    x = _t(rng, 1, 2, 7, 7)
    return (lambda x: ops.adaptive_pool(x, 3, "average")), [x]


def case_adaptive_max(rng):
    x = _distinct_grid(rng, 1, 2, 5, 5)
    return (lambda x: ops.adaptive_pool(x, 2, "max")), [x]


def case_bilinear(rng):
    x = _t(rng, 1, 2, 3, 4)
    return (lambda x: ops.bilinear_upsample(x, (7, 9))), [x]


def case_concat(rng):
    a, b = _t(rng, 1, 2, 3, 3), _t(rng, 1, 3, 3, 3)
    return (lambda a, b: ops.concat_channels([a, b])), [a, b]


def case_cross_entropy(rng):
    z = _t(rng, 2, 3, 4, 4)
    labels = rng.integers(0, 3, size=(2, 4, 4)).astype(np.int64)
    labels[rng.random(size=labels.shape) < 0.2] = IGNORE_LABEL
    return (lambda z: ops.softmax_cross_entropy(z, labels)), [z]


def case_conv_bn_relu_pool(rng):
    x = _t(rng, 1, 2, 8, 8, scale=0.5)
    w = _t(rng, 3, 2, 3, 3, scale=0.5)
    gamma = Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
    beta = _t(rng, 3)

    def f(x, w, gamma, beta):
        conv = ops.Conv2dParams(weight=w, stride=1, padding=1)
        bn = ops.BatchNormParams(gamma=gamma, beta=beta,
                                 running_mean=np.zeros(3, dtype=np.float32),
                                 running_var=np.ones(3, dtype=np.float32))
        h = ops.relu(ops.batch_norm(ops.conv2d(x, conv), bn, training=True))
        return ops.adaptive_pool(h, 2, "average")

    return f, [x, w, gamma, beta]


def _micro_config() -> ModelConfig:
    # 16x16 inputs give 2x2 final maps; dilation stays 1 throughout because a
    # dilated 3x3 on a 2x2 map sees only its center tap (dilated taps are
    # exercised by case_conv_dilated on an adequate extent).
    return ModelConfig(
        backbone=BackboneConfig(stage_blocks=(1, 1, 1, 1), base_channels=8,
                                dilation_plan=(1, 1, 1, 1)),
        pyramid=PyramidConfig(bin_sizes=(1,)),
        num_classes=3,
        head_channels=8,
    )


def _replace_param(model, name: str, new: Tensor) -> None:
    path, _, field = name.rpartition("/")
    setattr(dict(model.walk())[path], field, new)


def case_micro_model(rng):
    """End-to-end training loss on a miniature network, differentiated with
    respect to one small parameter tensor from every depth of the chain (stem,
    bottleneck, pyramid, both heads). Batch of 2 keeps the bin-1 BN valid."""
    seed = int(rng.integers(0, 2**31))
    model = build_model(_micro_config(), seed=seed)
    picked = [
        "backbone/stem_bn/gamma",
        "backbone/stages/0/0/conv2/weight",  # first bottleneck 3x3
        "backbone/stages/0/0/bn2/gamma",
        "psp/reduce_bn/0/gamma",             # pyramid-level BN gamma
        "head/conv2/bias",
        "aux/conv2/weight",
    ]
    x = Tensor(rng.uniform(0.0, 1.0, size=(2, 3, 16, 16)).astype(np.float32))
    labels = rng.integers(0, 3, size=(2, 16, 16)).astype(np.int64)
    labels[0, 0, 0] = IGNORE_LABEL

    def f(*spliced):
        for name, t in zip(picked, spliced):
            _replace_param(model, name, t)
        total, _, _ = model.forward_train(x, labels)
        return total

    params = dict(model.named_parameters())
    xs = [Tensor(params[n].data.copy(), requires_grad=True) for n in picked]
    return f, xs


CASES = [
    ("add", case_add),
    ("scale", case_scale),
    ("relu", case_relu),
    ("conv_basic", case_conv_basic),
    ("conv_stride2", case_conv_stride2),
    ("conv_dilated", case_conv_dilated),
    ("conv_1x1", case_conv_1x1),
    ("batch_norm", case_batch_norm),
    ("batch_norm_eval", case_batch_norm_eval),
    ("max_pool", case_max_pool),
    ("adaptive_avg", case_adaptive_avg),
    ("adaptive_max", case_adaptive_max),
    ("bilinear", case_bilinear),
    ("concat", case_concat),
    ("cross_entropy", case_cross_entropy),
    ("conv_bn_relu_pool", case_conv_bn_relu_pool),
    ("micro_model", case_micro_model),
]


def run_case(name: str, builder, seeds: int) -> CheckResult:
    worst, worst_seed = 0.0, -1
    for s in range(seeds):
        rng = np.random.default_rng([0, 101, s])
        f, xs = builder(rng)
        err = finite_diff_check(f, xs, rng)
        if err > worst:
            worst, worst_seed = err, s
    return CheckResult(name=name, seeds=seeds, worst=worst,
                       worst_seed=worst_seed, ok=worst < TOLERANCE)


def run_suite() -> list[CheckResult]:
    return [run_case(name, builder, DEFAULT_SEEDS) for name, builder in CASES]


def format_report(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "pass" if r.ok else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  worst_rel_err={r.worst:.3e}"
                     f"  seeds={r.seeds}  worst_seed={r.worst_seed}")
    return "\n".join(lines) + "\n"
