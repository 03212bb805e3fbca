"""Reverse-mode autodiff over a recorded op tape.

Tensors wrap numpy arrays (float32 by default; float64 is used by the
finite-difference checker). While a Graph is active as a context manager,
every op that touches a requires_grad tensor appends one node to the tape.
backward(root, grad) replays the tape exactly once, in reverse recorded
order, summing gradients where a tensor fans out to several consumers.

The engine holds exactly the ops that PSPNet's training tape records.
Defined here: `add` of two Tensors of equal shape (no broadcasting; a
mismatch raises ValueError) and `mul` by a number (the auxiliary loss
weight). `Tensor + number` and `Tensor * Tensor` are TypeErrors. The network
ops (conv2d, batch_norm, relu, max_pool2d, adaptive_pool, bilinear_upsample,
concat_channels, softmax_cross_entropy) live in ops.py.

Seeding: `grad` is the gradient of the objective with respect to the root,
an array of the root's shape. It may be left out only for a scalar root,
which is then seeded with 1; the training loss is such a root.

backward pops each node off the tape as it walks it, so a node's closure,
the arrays it captured, its intermediate output and that output's gradient
are freed by refcount as soon as they are used; no reference cycle keeps
an iteration's tape alive until the cyclic GC runs. Training memory is
therefore one iteration's tape, and a walked graph holds no nodes.

Only leaves (tensors no node produced, such as parameters) receive .grad;
a node output, the root included, never does. A leaf's .grad must be empty
at backward time (SGD.step clears each gradient it applies): backward into
a full .grad raises instead of accumulating, and a graph is walked once.
"""

from __future__ import annotations

import numbers
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
    __array_ufunc__ = None  # ndarray (op) Tensor is a TypeError, not an object array

    def __init__(self, data, requires_grad: bool = False) -> None:
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        if not isinstance(other, Tensor):
            return NotImplemented
        return add(self, other)

    def __mul__(self, other) -> "Tensor":
        if not isinstance(other, numbers.Real):
            return NotImplemented
        return mul(self, other)


def record_op(
    data: np.ndarray,
    inputs: tuple[Tensor, ...],
    backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]],
) -> Tensor:
    """Wrap an op result; append a tape node if recording and grads are needed."""
    g = _active_graph
    needs = g is not None and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=needs)
    if needs:
        out.graph = g
        g.nodes.append(Node(inputs, out, backward_fn))
    return out


def backward(loss: Tensor, grad: np.ndarray | None = None) -> None:
    """Set .grad on every requires_grad leaf reachable from loss, seeding
    the walk with grad (ones for a scalar loss when left out)."""
    if grad is None:
        if loss.size != 1:
            raise RuntimeError(f"backward requires a scalar root, got shape {loss.shape}")
        grad = np.ones_like(loss.data)
    elif np.shape(grad) != loss.shape:
        raise ValueError(f"grad has shape {np.shape(grad)}, the root {loss.shape}")
    g = loss.graph
    if g is None:
        raise RuntimeError(
            "tensor is not attached to a graph; compute the loss inside `with Graph():` "
            "from requires_grad inputs"
        )
    if g.consumed:
        raise RuntimeError("backward already ran on this graph; record a new graph first")
    g.consumed = True

    # id -> (tensor, gradient summed so far); a node output leaves when its
    # node runs, so what is left at the end is the leaves
    acc: dict[int, tuple[Tensor, np.ndarray]] = {id(loss): (loss, grad)}
    while g.nodes:
        node = g.nodes.pop()
        entry = acc.pop(id(node.output), None)
        if entry is None:
            continue
        for t, gin in zip(node.inputs, node.backward_fn(entry[1])):
            if gin is None or not t.requires_grad:
                continue
            prev = acc.get(id(t))
            acc[id(t)] = (t, gin if prev is None else prev[1] + gin)
    for t, garr in acc.values():
        if t.grad is not None:
            raise RuntimeError("tensor already holds a gradient; step the optimizer or "
                               "set .grad to None before backward")
        t.grad = np.ascontiguousarray(garr, dtype=t.data.dtype)


# -- primitive ops ----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return record_op(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, s: float) -> Tensor:
    """a scaled by the number s."""
    s = float(s)
    return record_op(a.data * s, (a,), lambda g: (g * s,))


def finite_diff_check(f, xs: Sequence[Tensor], rng: np.random.Generator) -> float:
    """Max relative error between backward() and central differences.

    Runs f on float64 copies of xs and projects its output, of any shape,
    onto a standard normal array proj drawn from rng: one recorded pass
    seeds backward with proj, then 2 unrecorded evaluations of
    sum(f(xs) * proj) per input element. Relative error per element is
    |a-n| / max(|a|, |n|, 1e-8).
    """
    eps = 1e-6
    xs64 = [Tensor(x.data.astype(np.float64), requires_grad=True) for x in xs]
    with Graph():
        out = f(*xs64)
    proj = rng.normal(size=out.shape)
    backward(out, proj)

    worst = 0.0
    for x in xs64:
        analytic = x.grad.reshape(-1)
        flat = x.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float((f(*xs64).data * proj).sum())
            flat[i] = orig - eps
            fm = float((f(*xs64).data * proj).sum())
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            a = float(analytic[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
