"""Parameter-owning building blocks over the functional ops.

Modules form a tree, and a module's attributes are its children: a Module,
an ops bundle (ops.Conv2dParams or ops.BatchNormParams), or a list of these
whose items are named by index. No other attribute is a child, so a child
set to None or replaced is gone from every registry at once. One pre-order
walk over the attributes names every module and bundle; parameter and buffer
names join the path with '/' and are the checkpoint namespace, so renaming
an attribute is a format change. A bundle is the one store of a layer's
parameters and buffers: its Tensor fields are the parameters and its ndarray
fields the buffers, in field order, so assigning a field changes what the op
reads, what named_parameters() yields, what SGD steps and what a checkpoint
saves, all at once. Parameter init is derived from (seed, full parameter
name), never from creation order: two configs that share a submodule tree
get bitwise-identical weights for the shared part, which is what makes the
aux-branch on/off comparison and the inference-load tests meaningful. A
large model's per-weight streams are drawn concurrently, one thread per
core; no stream depends on another, so the weights are the same bits for any
core count.
"""

from __future__ import annotations

import hashlib
import os
from collections import deque

import numpy as np

from . import ops
from .tensor import Tensor


def conv_params(in_channels: int, out_channels: int, kernel: int, stride: int = 1,
                padding: int = 0, dilation: int = 1, bias: bool = False) -> ops.Conv2dParams:
    """A conv bundle with zero weight (init_parameters draws it) and zero bias."""
    shape = (out_channels, in_channels, kernel, kernel)
    return ops.Conv2dParams(
        weight=Tensor(np.zeros(shape, np.float32), requires_grad=True),
        bias=Tensor(np.zeros(out_channels, np.float32), requires_grad=True) if bias else None,
        stride=stride, padding=padding, dilation=dilation)


def bn_params(channels: int) -> ops.BatchNormParams:
    """A batch-norm bundle at gamma 1, beta 0, running mean 0 and variance 1."""
    return ops.BatchNormParams(
        gamma=Tensor(np.ones(channels, np.float32), requires_grad=True),
        beta=Tensor(np.zeros(channels, np.float32), requires_grad=True),
        running_mean=np.zeros(channels, np.float32),
        running_var=np.ones(channels, np.float32))


def _walk_items(prefix: str, items):
    """walk() below each (name, value) pair that is a module, a bundle or a list."""
    for name, value in items:
        path = f"{prefix}/{name}" if prefix else name
        if isinstance(value, Module):
            yield from value.walk(path)
        elif isinstance(value, (ops.Conv2dParams, ops.BatchNormParams)):
            yield path, value
        elif isinstance(value, list):
            yield from _walk_items(path, enumerate(value))


class Module:
    def __init__(self) -> None:
        self.training = True

    def walk(self, prefix: str = ""):
        """(path, node) for this module and, in pre-order, every module and
        bundle its attributes hold."""
        yield prefix, self
        yield from _walk_items(prefix, vars(self).items())

    def named_modules(self):
        return ((path, node) for path, node in self.walk() if isinstance(node, Module))

    def _bundle_fields(self, kind: type):
        for path, node in self.walk():
            if not isinstance(node, Module):
                for name, value in vars(node).items():
                    if isinstance(value, kind):
                        yield f"{path}/{name}", value

    def named_parameters(self):
        return self._bundle_fields(Tensor)

    def named_buffers(self):
        return self._bundle_fields(np.ndarray)

    def train(self, mode: bool = True) -> "Module":
        for _, mod in self.named_modules():
            mod.training = mode
        return self

    def conv_bn(self, x: Tensor, conv: ops.Conv2dParams, bn: ops.BatchNormParams) -> Tensor:
        return ops.batch_norm(ops.conv2d(x, conv), bn, self.training)

    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def _name_rng(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    h = int.from_bytes(digest, "little")
    return np.random.default_rng([seed, h & 0xFFFFFFFF, h >> 32])


def _cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Samples per draw: each thread refills one 512 KiB float64 buffer. Whole
# float64 weights (37.8 MB for the resnet head) left the allocator holding
# enough freed memory to raise train-r50's peak RSS by 10-20 MB.
_CHUNK = 1 << 16
# Samples that pay for one more thread: starting threads made the 164K-sample
# toy init slower (6.5 -> 7.9 ms), while resnet50-layout (7.6M) gains.
_SAMPLES_PER_THREAD = 1 << 20


def _draw_until_empty(seed: int, jobs: deque) -> None:
    # The bits of rng.normal(0, std, shape).astype(float32): normal computes
    # 0 + std * standard_normal (the 0 turns -0.0 into +0.0), and a stream
    # drawn in pieces is the same stream. The fill runs without the GIL.
    buf = np.empty(_CHUNK)
    while True:
        try:
            name, weight = jobs.popleft()  # deque pops are thread-safe
        except IndexError:
            return
        rng = _name_rng(seed, name)
        std = np.sqrt(2.0 / int(np.prod(weight.shape[1:])))
        flat = weight.reshape(-1)
        for start in range(0, flat.size, _CHUNK):
            z = buf[: flat.size - start]
            rng.standard_normal(out=z)
            z *= std
            np.add(z, 0.0, out=flat[start:start + z.size])


def init_parameters(model: Module, seed: int) -> None:
    """He-init the conv weights (the 4-D parameters) of a freshly built model.

    Each weight draws from its own (seed, name)-keyed stream, so the weights
    are the same bits however the draws are scheduled. Up to one thread per
    core and per _SAMPLES_PER_THREAD samples takes weights from one queue,
    largest first, so each thread costs one handoff, not one per weight.
    Everything else keeps the value its constructor created: biases and BN
    beta 0, BN gamma 1, running mean 0 and variance 1.
    """
    jobs = deque(sorted(((name, p.data) for name, p in model.named_parameters()
                         if p.data.ndim == 4), key=lambda job: -job[1].size))
    samples = sum(weight.size for _, weight in jobs)
    workers = min(len(jobs), _cores(), samples // _SAMPLES_PER_THREAD)
    if workers <= 1:
        _draw_until_empty(seed, jobs)
        return
    # Imported here because it loads `logging`, about 0.6 MB of resident
    # memory that a model too small for threads never needs.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        for future in [pool.submit(_draw_until_empty, seed, jobs) for _ in range(workers)]:
            future.result()
