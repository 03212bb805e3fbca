"""Heavy-ball SGD with L2 weight decay and the poly learning-rate schedule.

Update order is fixed: g <- grad + weight_decay * p; v <- momentum * v + g;
p <- p - lr * v. Decay applies to every parameter, BN scales included.

The update runs in place over each parameter's flat view, one block of
_BLOCK elements at a time through one preallocated float32 scratch buffer,
so a step allocates nothing of the parameters' size; the arithmetic is the
same, element for element, as the three lines above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Module

_BLOCK = 65536


@dataclass
class OptimConfig:
    base_lr: float = 0.01
    power: float = 0.9
    max_iter: int = 1000
    momentum: float = 0.9
    weight_decay: float = 0.0001

    def __post_init__(self) -> None:
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.power <= 0:
            raise ValueError(f"power must be positive, got {self.power}")


def poly_lr(iteration: int, cfg: OptimConfig) -> float:
    """base_lr * (1 - iter/max_iter)^power, evaluated at step start (0-based)."""
    if not 0 <= iteration <= cfg.max_iter:
        raise ValueError(f"iteration {iteration} outside [0, {cfg.max_iter}]")
    return cfg.base_lr * (1.0 - iteration / cfg.max_iter) ** cfg.power


class SGD:
    """Steps the model's parameters as named_parameters() yields them at each
    step, then sets each applied .grad to None, so the gradient one backward
    wrote is applied exactly once. Velocity state is keyed by parameter name
    for checkpointing.

    velocity, if given, holds one array per parameter, of its shape, and the
    SGD updates those arrays in place (a resume passes the ones that
    checkpoint.load returned); otherwise every velocity starts at zero.
    """

    def __init__(self, model: Module, cfg: OptimConfig,
                 velocity: dict[str, np.ndarray] | None = None) -> None:
        self.model = model
        self.cfg = cfg
        shapes = {name: p.shape for name, p in model.named_parameters()}
        if velocity is None:
            velocity = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
        elif {n: v.shape for n, v in velocity.items()} != shapes:
            raise ValueError("velocity must hold one array per parameter, of its shape")
        self.velocity: dict[str, np.ndarray] = dict(velocity)
        self._scratch = np.empty(_BLOCK, dtype=np.float32)

    def step(self, lr: float) -> None:
        """Check every parameter first, so a bad one leaves all unchanged."""
        params = list(self.model.named_parameters())
        for name, p in params:
            if p.grad is None:
                raise RuntimeError(f"parameter {name} has no gradient; run backward first")
            v = self.velocity.get(name)
            if v is None or not p.grad.shape == v.shape == p.data.shape:
                raise RuntimeError(f"parameter {name} has shape {p.data.shape}, its gradient "
                                   f"{p.grad.shape} and its velocity {getattr(v, 'shape', None)}")
            for what, arr in (("parameter", p.data), ("velocity", v)):
                if arr.dtype != np.float32 or not arr.flags.c_contiguous:
                    raise RuntimeError(f"{what} {name} must be a C-contiguous float32 array")
        mu = self.cfg.momentum
        wd = self.cfg.weight_decay
        lr = float(lr)
        for name, p in params:
            pf = p.data.reshape(-1)
            gf = p.grad.reshape(-1)
            vf = self.velocity[name].reshape(-1)
            for lo in range(0, pf.size, _BLOCK):
                hi = min(lo + _BLOCK, pf.size)
                t = self._scratch[: hi - lo]
                pb, vb = pf[lo:hi], vf[lo:hi]
                np.multiply(pb, wd, out=t)
                t += gf[lo:hi]
                vb *= mu
                vb += t
                np.multiply(vb, lr, out=t)
                pb -= t
            p.grad = None
