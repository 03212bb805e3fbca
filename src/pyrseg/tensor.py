"""Reverse-mode autodiff over a recorded op tape.

Tensors wrap numpy arrays (float32 by default; float64 is used by the
finite-difference checker). While a Graph is active as a context manager,
every op that touches a requires_grad tensor appends one node to the tape.
backward(loss) replays the tape exactly once, in reverse recorded order,
summing gradients where a tensor fans out to several consumers.

The engine holds only the ops that PSPNet's training tape and the gradient
checker record. Defined here: `add` and `mul` of two Tensors of equal shape
(no broadcasting; a mismatch raises ValueError), `mul` by a number (the
auxiliary loss weight), and `tsum`, the full reduction to a 0-d tensor onto
which the checker projects. `Tensor + number` is a TypeError. The network
ops (conv2d, batch_norm, relu, max_pool2d, adaptive_pool, bilinear_upsample,
concat_channels, softmax_cross_entropy) live in ops.py.

backward pops each node off the tape as it walks it, so a node's closure,
the arrays it captured, its intermediate output and that output's .grad
are freed by refcount as soon as they are used; no reference cycle keeps
an iteration's tape alive until the cyclic GC runs. Training memory is
therefore one iteration's tape, and a walked graph holds no nodes.

Gradients land in .grad, which must be empty at backward time: clear it
first (via SGD.zero_grad). Re-running backward without clearing raises
instead of silently accumulating, and a graph can only be walked once.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_active_graph: "Graph | None" = None


def active_graph() -> "Graph | None":
    return _active_graph


class Graph:
    """Op tape for one forward pass (define-by-run, single logical thread)."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.consumed = False

    def __enter__(self) -> "Graph":
        global _active_graph
        if _active_graph is not None:
            raise RuntimeError("a Graph is already active; graphs do not nest")
        _active_graph = self
        return self

    def __exit__(self, *exc) -> bool:
        global _active_graph
        _active_graph = None
        return False


class Node:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(
        self,
        inputs: tuple["Tensor", ...],
        output: "Tensor",
        backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]],
    ) -> None:
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tensor:
    """Dense N-d array plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "graph")

    def __init__(self, data, requires_grad: bool = False, dtype=None) -> None:
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.graph: Graph | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        if not isinstance(other, Tensor):
            return NotImplemented
        return add(self, other)

    def __mul__(self, other) -> "Tensor":
        return mul(self, other)

    def sum(self) -> "Tensor":
        return tsum(self)


def record_op(
    data: np.ndarray,
    inputs: tuple[Tensor, ...],
    backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]],
) -> Tensor:
    """Wrap an op result; append a tape node if recording and grads are needed."""
    g = _active_graph
    needs = g is not None and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=needs, dtype=data.dtype)
    if needs:
        out.graph = g
        g.nodes.append(Node(inputs, out, backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Populate .grad for every requires_grad tensor reachable from loss."""
    if loss.size != 1:
        raise RuntimeError(f"backward requires a scalar root, got shape {loss.shape}")
    g = loss.graph
    if g is None:
        raise RuntimeError(
            "tensor is not attached to a graph; compute the loss inside `with Graph():` "
            "from requires_grad inputs"
        )
    if g.consumed:
        raise RuntimeError("backward already ran on this graph; record a new graph first")
    g.consumed = True

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {id(loss): loss}
    while g.nodes:
        node = g.nodes.pop()
        gout = grads.pop(id(node.output), None)
        if gout is None:
            continue
        leaves.pop(id(node.output), None)
        _set_grad(node.output, gout)
        for t, gin in zip(node.inputs, node.backward_fn(gout)):
            if gin is None or not t.requires_grad:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + gin
            else:
                grads[key] = gin
                leaves[key] = t
    for key, garr in grads.items():
        _set_grad(leaves[key], garr)


def _set_grad(t: Tensor, garr: np.ndarray) -> None:
    if t.grad is not None:
        raise RuntimeError("tensor already holds a gradient; call zero_grad before backward")
    t.grad = np.ascontiguousarray(garr, dtype=t.data.dtype)


# -- primitive ops ----------------------------------------------------------


def _check_same_shape(a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b)
    return record_op(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor | float) -> Tensor:
    """Elementwise product with an equal-shape Tensor, or scaling by a number."""
    if isinstance(b, Tensor):
        _check_same_shape(a, b)
        return record_op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))
    s = float(b)
    return record_op(a.data * s, (a,), lambda g: (g * s,))


def tsum(a: Tensor) -> Tensor:
    """Sum of every element, as a 0-d tensor."""
    return record_op(np.asarray(a.data.sum()), (a,),
                     lambda g: (np.broadcast_to(g, a.shape).copy(),))


def finite_diff_check(f, xs: Sequence[Tensor]) -> float:
    """Max relative error between backward() and central differences.

    Runs f on float64 copies of xs: one recorded pass for analytic grads,
    then 2 unrecorded evaluations per input element. Relative error per
    element is |a-n| / max(|a|, |n|, 1e-8).
    """
    eps = 1e-6
    xs64 = [Tensor(x.data.astype(np.float64), requires_grad=True) for x in xs]
    with Graph():
        loss = f(*xs64)
    if loss.size != 1:
        raise RuntimeError(f"finite_diff_check needs a scalar objective, got shape {loss.shape}")
    backward(loss)

    worst = 0.0
    for x in xs64:
        analytic = x.grad.reshape(-1)
        flat = x.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f(*xs64).data)
            flat[i] = orig - eps
            fm = float(f(*xs64).data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            a = float(analytic[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
