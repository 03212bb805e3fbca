"""Parameter-owning building blocks over the functional ops.

Modules form a tree; parameter and buffer names join with '/' and are the
checkpoint namespace, so renaming an attribute is a format change. A leaf's
ops bundle (`params`) is the one store of its parameters and buffers: its
Tensor fields are the parameters and its ndarray fields the buffers, in field
order, so assigning a field changes what the op reads, what
named_parameters() yields, what SGD steps and what a checkpoint saves, all at
once. Parameter init is derived from (seed, full parameter name), never from
creation order: two configs that share a submodule tree get bitwise-identical
weights for the shared part, which is what makes the aux-branch on/off
comparison and the checkpoint prune test meaningful. A large model's
per-weight streams are drawn concurrently, one thread per core; no stream
depends on another, so the weights are the same bits for any core count.
"""

from __future__ import annotations

import hashlib
import os
from collections import deque

import numpy as np

from . import ops
from .tensor import Tensor


class Module:
    params = None  # a leaf's ops bundle: the one store of its parameters and buffers

    def __init__(self) -> None:
        self._children: dict[str, Module] = {}
        self.training = True

    def __setattr__(self, name, value):
        if isinstance(value, Module):
            self.__dict__.setdefault("_children", {})[name] = value
        object.__setattr__(self, name, value)

    def named_modules(self, prefix: str = ""):
        yield prefix, self
        for name, child in self._children.items():
            sub = f"{prefix}/{name}" if prefix else name
            yield from child.named_modules(sub)

    def _bundle_fields(self, kind: type):
        for root, mod in self.named_modules():
            if mod.params is not None:
                for name, value in vars(mod.params).items():
                    if isinstance(value, kind):
                        yield (f"{root}/{name}" if root else name), value

    def named_parameters(self):
        return self._bundle_fields(Tensor)

    def named_buffers(self):
        return self._bundle_fields(np.ndarray)

    def train(self, mode: bool = True) -> "Module":
        for _, mod in self.named_modules():
            mod.training = mode
        return self

    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """Children named '0', '1', ... in append order."""

    def append(self, module: Module) -> None:
        setattr(self, str(len(self._children)), module)

    def __iter__(self):
        return iter(self._children.values())

    def __getitem__(self, i: int) -> Module:
        return self._children[str(i)]


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0, dilation: int = 1,
                 bias: bool = False) -> None:
        super().__init__()
        shape = (out_channels, in_channels, kernel, kernel)
        self.params = ops.Conv2dParams(
            weight=Tensor(np.zeros(shape, np.float32), requires_grad=True),
            bias=Tensor(np.zeros(out_channels, np.float32), requires_grad=True) if bias else None,
            stride=stride, padding=padding, dilation=dilation)

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.params)


class BatchNorm2d(Module):
    def __init__(self, channels: int) -> None:
        super().__init__()
        self.params = ops.BatchNormParams(
            gamma=Tensor(np.ones(channels, np.float32), requires_grad=True),
            beta=Tensor(np.zeros(channels, np.float32), requires_grad=True),
            running_mean=np.zeros(channels, np.float32),
            running_var=np.ones(channels, np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return ops.batch_norm(x, self.params, self.training)


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
