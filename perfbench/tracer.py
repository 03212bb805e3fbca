"""Per-layer spans recorded around calls into pyrseg's modules.

Nothing here edits the package: `Tracer.installed()` swaps module and class
attributes for timing wrappers and puts the originals back on exit. Each op
wrapper also wraps the backward closure the op records on the tape, so the
backward half of every op is timed where the tape replays it.

A span is (name, detail, start, end, parent, step). `step` is the id of the
training iteration (opened by `training.batch_for_iteration`) or of the
inference image (opened by `metrics.multi_scale_infer`) that was current when
the span opened; spans before the first step carry -1.
"""

from __future__ import annotations

import contextlib
import csv
import os
import statistics
import time
from collections import defaultdict

perf = time.perf_counter

OPS = ("conv2d", "batch_norm", "relu", "max_pool2d", "adaptive_pool",
       "bilinear_upsample", "concat_channels", "softmax_cross_entropy")
TENSOR_OPS = ("add", "mul")


class Patches:
    """Attribute swaps undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list = []

    def wrap(self, owner, attr: str, make) -> None:
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


def conv_key(x_shape, weight_shape, stride: int, dilation: int) -> str:
    """k<kernel>-c<in>-o<out>-e<input extent>-d<dilation>-s<stride>."""
    _, _, h, w = x_shape
    oc, ic, kh, _ = weight_shape
    extent = f"{h}" if h == w else f"{h}x{w}"
    return f"k{kh}-c{ic}-o{oc}-e{extent}-d{dilation}-s{stride}"


def conv_class(key: str) -> str:
    """k1 for every 1x1 conv, else kernel and dilation: k3d2, k7d1, ..."""
    k, _, _, _, d, _ = key.split("-")
    return "k1" if k == "k1" else k + d


class Tracer:
    def __init__(self) -> None:
        self.name: list[str] = []
        self.detail: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.step: list[int] = []
        self._stack: list[int] = []
        self.step_id = -1
        self.step_kind: dict[int, str] = {}
        # (step, flops, im2col bytes) per conv forward, computed from shapes
        self.conv_work: list[tuple[int, float, float]] = []
        self.tape_nodes: list[tuple[int, int]] = []
        self.ckpt_bytes: list[int] = []
        self.cell_keys: list[tuple[int, str]] = []  # (command index, cell config)
        self.commands: list[float] = []  # wall seconds of each traced command

    # -- recording ------------------------------------------------------------

    def open(self, name: str, detail: str = "") -> int:
        i = len(self.name)
        self.name.append(name)
        self.detail.append(detail)
        self.start.append(perf())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step.append(self.step_id)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf()
        self._stack.pop()

    def new_step(self, kind: str) -> None:
        self.step_id = len(self.step_kind)
        self.step_kind[self.step_id] = kind

    def timed(self, name: str, fn, step_kind: str | None = None):
        def wrapper(*args, **kwargs):
            if step_kind is not None:
                self.new_step(step_kind)
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Trace every call into the package made inside the block."""
        import pyrseg.ablate
        import pyrseg.checkpoint
        import pyrseg.cli
        import pyrseg.metrics
        import pyrseg.ops
        import pyrseg.tensor
        import pyrseg.training
        from pyrseg.backbone import Backbone
        from pyrseg.model import ClassifierHead, PSPNet
        from pyrseg.optim import SGD
        from pyrseg.pyramid import PyramidPooling

        p = Patches()
        t = self.timed
        p.wrap(pyrseg.training, "batch_for_iteration",
               lambda f: t("data.batch", f, step_kind="train"))
        p.wrap(pyrseg.metrics, "multi_scale_infer", self._wrap_multi_scale)
        p.wrap(pyrseg.metrics, "resize_image", lambda f: t("metrics.resize", f))
        p.wrap(pyrseg.metrics.ConfusionMatrix, "accumulate",
               lambda f: t("metrics.accumulate", f))
        p.wrap(pyrseg.cli, "load_dataset", lambda f: t("data.load_dataset", f))
        p.wrap(pyrseg.cli, "synth_generate", lambda f: t("synth.generate", f))
        p.wrap(PSPNet, "forward_train", lambda f: t("model.forward", f))
        p.wrap(PSPNet, "forward_infer", lambda f: t("model.infer", f))
        p.wrap(Backbone, "forward", lambda f: t("model.backbone", f))
        p.wrap(PyramidPooling, "forward", lambda f: t("model.pyramid", f))
        p.wrap(ClassifierHead, "forward", lambda f: t("model.head", f))
        p.wrap(pyrseg.training, "backward", self._wrap_backward)
        p.wrap(SGD, "step", lambda f: t("optim.step", f))
        p.wrap(pyrseg.checkpoint, "save", self._wrap_save)
        p.wrap(pyrseg.checkpoint, "load", self._wrap_load)
        p.wrap(pyrseg.ablate, "train_and_eval", self._wrap_cell)
        for op in OPS:
            make = self._wrap_conv if op == "conv2d" else (
                lambda f, op=op: t(f"ops.{op}.fwd", f))
            p.wrap(pyrseg.ops, op, make)
        for op in TENSOR_OPS:
            p.wrap(pyrseg.tensor, op, lambda f, op=op: t(f"ops.{op}.fwd", f))
        p.wrap(pyrseg.ops, "record_op", self._wrap_record_op)
        p.wrap(pyrseg.tensor, "record_op", self._wrap_record_op)
        try:
            yield self
        finally:
            p.restore()

    # -- wrappers that record more than a span ---------------------------------

    def _wrap_multi_scale(self, fn):
        from pyrseg.metrics import DEFAULT_SCALES

        def wrapper(model, image, *args, **kwargs):
            scales = args[0] if args else kwargs.get("scales", DEFAULT_SCALES)
            self.new_step("infer")
            i = self.open("metrics.multi_scale_infer", f"{len(tuple(scales))}x")
            try:
                return fn(model, image, *args, **kwargs)
            finally:
                self.close(i)
        return wrapper

    def _wrap_conv(self, fn):
        from pyrseg.ops import conv_output_size
        from pyrseg.tensor import active_graph

        def wrapper(x, p):
            n, _, h, w = x.shape
            oc, ic, kh, kw = p.weight.shape
            ho = conv_output_size(h, kh, p.stride, p.padding, p.dilation)
            wo = conv_output_size(w, kw, p.stride, p.padding, p.dilation)
            # forward GEMM, plus dW and dx when the tape will need them
            passes = 1
            if active_graph() is not None:
                passes += int(p.weight.requires_grad) + int(x.requires_grad)
            self.conv_work.append((self.step_id, 2.0 * n * ho * wo * oc * ic * kh * kw * passes,
                                   4.0 * n * ho * wo * ic * kh * kw))
            i = self.open("ops.conv2d.fwd", conv_key(x.shape, p.weight.shape,
                                                     p.stride, p.dilation))
            try:
                return fn(x, p)
            finally:
                self.close(i)
        return wrapper

    def _wrap_record_op(self, fn):
        def wrapper(data, inputs, backward_fn):
            top = self._stack[-1] if self._stack else -1
            if top >= 0 and self.name[top].startswith("ops.") and self.name[top].endswith(".fwd"):
                backward_fn = self._timed_backward(backward_fn, self.name[top][:-4] + ".bwd",
                                                   self.detail[top])
            return fn(data, inputs, backward_fn)
        return wrapper

    def _timed_backward(self, fn, name: str, detail: str):
        def backward_fn(g):
            i = self.open(name, detail)
            try:
                return fn(g)
            finally:
                self.close(i)
        return backward_fn

    def _wrap_backward(self, fn):
        def wrapper(loss):
            self.tape_nodes.append((self.step_id, len(loss.graph.nodes)))
            i = self.open("tensor.backward")
            try:
                return fn(loss)
            finally:
                self.close(i)
        return wrapper

    def _wrap_save(self, fn):
        def wrapper(path, *args, **kwargs):
            i = self.open("checkpoint.save")
            try:
                out = fn(path, *args, **kwargs)
            finally:
                self.close(i)
            self.ckpt_bytes.append(os.path.getsize(path))
            return out
        return wrapper

    def _wrap_load(self, fn):
        def wrapper(path, *args, **kwargs):
            self.ckpt_bytes.append(os.path.getsize(path))
            i = self.open("checkpoint.load")
            try:
                return fn(path, *args, **kwargs)
            finally:
                self.close(i)
        return wrapper

    def _wrap_cell(self, fn):
        def wrapper(name, cfg, *args, **kwargs):
            self.cell_keys.append((len(self.commands), f"{cfg!r}|{kwargs.get('seed')}"))
            i = self.open("ablate.cell", name)
            try:
                return fn(name, cfg, *args, **kwargs)
            finally:
                self.close(i)
        return wrapper

    # -- output ---------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["id", "name", "detail", "start_s", "end_s", "parent", "step", "step_kind"])
            t0 = self.start[0] if self.start else 0.0
            for i, name in enumerate(self.name):
                out.writerow([i, name, self.detail[i], f"{self.start[i] - t0:.9f}",
                              f"{self.end[i] - t0:.9f}", self.parent[i], self.step[i],
                              self.step_kind.get(self.step[i], "")])

    def summarize(self, nproc: int) -> tuple[dict[str, float], list[tuple]]:
        """Per-layer metrics and the self-time table.

        Per-step values are means over the steps of one kind: training
        iterations when the workload trains, inference images otherwise.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        n_kind = defaultdict(int)
        for kind in self.step_kind.values():
            n_kind[kind] += 1
        main = "train" if n_kind["train"] else "infer"

        total = defaultdict(float)      # (name, kind) -> seconds
        self_t = defaultdict(float)     # (name, kind) -> seconds
        durations = defaultdict(list)   # name or (name, detail) -> [seconds]
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for i, name in enumerate(self.name):
            kind = self.step_kind.get(self.step[i], "setup")
            total[name, kind] += dur[i]
            self_t[name, kind] += dur[i] - child[i]
            durations[name].append(dur[i])
            if self.detail[i]:
                durations[name, self.detail[i]].append(dur[i])
            # rows: (name, conv shape or "", step kind) -> [count, total, self]
            row = table[name, self.detail[i] if name.startswith("ops.conv2d.") else "", kind]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]

        def per_step(name: str, kind: str = main, which=total) -> float:
            n = n_kind[kind]
            return 1e3 * which[name, kind] / n if n else 0.0

        def median(xs, scale=1.0) -> float:
            return scale * statistics.median(xs) if xs else 0.0

        def pct(xs, q) -> float:
            if len(xs) < 2:
                return 1e3 * xs[0] if xs else 0.0
            return 1e3 * statistics.quantiles(xs, n=100, method="inclusive")[q - 1]

        m: dict[str, float] = {
            "data.batch_ms": per_step("data.batch", "train"),
            "data.load_dataset_s": median(durations["data.load_dataset"]),
            "synth.generate_s": median(durations["synth.generate"]),
            "model.forward_ms": per_step("model.forward", "train"),
            "model.forward_self_ms": per_step("model.forward", "train", self_t),
            "model.backbone_ms": per_step("model.backbone"),
            "model.pyramid_ms": per_step("model.pyramid"),
            "model.head_ms": per_step("model.head"),
            "tensor.backward_ms": per_step("tensor.backward", "train"),
            "tensor.backward_self_ms": per_step("tensor.backward", "train", self_t),
            "tensor.tape_nodes": median([n for _, n in self.tape_nodes]),
            "optim.step_ms": per_step("optim.step", "train"),
            "model.infer_ms": per_step("model.infer", "infer"),
            "metrics.resize_ms": per_step("metrics.resize", "infer"),
            "metrics.accumulate_ms": per_step("metrics.accumulate", "infer"),
            "checkpoint.save_ms": median(durations["checkpoint.save"], 1e3),
            "checkpoint.load_ms": median(durations["checkpoint.load"], 1e3),
            "checkpoint.bytes": float(max(self.ckpt_bytes, default=0)),
        }
        for scales in ("1x", "5x"):
            xs = durations["metrics.multi_scale_infer", scales]
            m[f"metrics.multi_scale_infer.{scales}.ms_p50"] = pct(xs, 50)
            m[f"metrics.multi_scale_infer.{scales}.ms_p90"] = pct(xs, 90)
        for op in OPS + TENSOR_OPS:
            for half in ("fwd", "bwd"):
                m[f"ops.{op}.{half}_ms"] = per_step(f"ops.{op}.{half}")
        n_main = n_kind[main]
        for (name, shape, kind), (_, secs, _) in table.items():
            if shape and kind == main:
                half = name.rsplit(".", 1)[1]
                m[f"ops.conv2d.{shape}.{half}_ms"] = 1e3 * secs / n_main
                cls = f"ops.conv2d.{conv_class(shape)}.{half}_ms"
                m[cls] = m.get(cls, 0.0) + 1e3 * secs / n_main
        work = [(f, b) for step, f, b in self.conv_work if self.step_kind.get(step) == main]
        m["ops.conv2d.gflop"] = sum(f for f, _ in work) / n_main / 1e9 if n_main else 0.0
        m["ops.conv2d.im2col_mb"] = sum(b for _, b in work) / n_main / 1e6 if n_main else 0.0

        cells = durations["ablate.cell"]
        m["ablate.cells"] = len(cells) / len(self.commands) if cells else 0.0
        m["ablate.cell_s_p50"] = median(cells)
        m["ablate.cell_s_max"] = max(cells, default=0.0)
        first = [key for cmd, key in self.cell_keys if cmd == self.cell_keys[0][0]] if cells else []
        m["ablate.unique_cell_ratio"] = len(set(first)) / len(first) if first else 0.0
        m["ablate.core_busy_share"] = sum(cells) / (sum(self.commands) * nproc) if cells else 0.0

        rows = []
        for (name, detail, kind), (count, tot, self_s) in sorted(table.items()):
            n = n_kind.get(kind, 0)
            rows.append((name, detail, kind, count, 1e3 * tot, 1e3 * self_s,
                         1e3 * tot / n if n else 0.0))
        return m, rows
