"""The four workloads: inputs made from the seed, one unit of work through
`pyrseg.cli.main`, the correctness gates on its outputs, and the numbers
each unit yields.

Every unit runs the same command with the same seed, so its outputs must be
byte-identical to the first unit's; the gates check that.
"""

from __future__ import annotations

import csv
import io
import math
import re
import statistics
from pathlib import Path

import numpy as np

ITER_LINE = re.compile(r"iter=(\d+) lr=\S+ main=(\S+) aux=(\S+) total=(\S+)")
CORPUS_N = 256          # the default `synth_n`; train reads it from disk
FINAL_LOSS_WINDOW = 20  # train_final_loss: mean total loss of the last 20 iterations


def write_cfg(path: Path, **keys) -> Path:
    # `train` and `eval` take data_dir only from a config file.
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


def median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else math.nan


class Workload:
    entry: tuple[str, str]              # the call where a command's work starts
    per_step: tuple[str, str] | None = None  # timed on every call, if set

    def warmup(self, bench) -> None:
        """One untimed unit, so first-touch costs stay out of the numbers."""

    def probe(self, bench) -> None:
        """Checks run once after the timed units."""


class Train(Workload):
    """`pyrseg train` on a 64-px synthetic corpus read from disk."""

    entry = ("cli", "train_loop")  # iteration times come from the `iter=` lines

    def __init__(self, preset: str, batch: int, iters: int, ckpt_every: int,
                 probe: bool) -> None:
        self.preset, self.batch, self.iters = preset, batch, iters
        self.ckpt_every, self.probe_determinism = ckpt_every, probe
        self.params = 0

    def prepare(self, bench) -> None:
        from pyrseg.data import write_dataset
        from pyrseg.synth import SynthConfig, synth_generate

        data = bench.work / "data"
        write_dataset(data, synth_generate(SynthConfig(canvas=64, seed=bench.seed), CORPUS_N))
        self.keys = dict(preset=self.preset, batch_size=self.batch, crop_size=64,
                         data_dir=data, log_every=1)
        self.cfg = write_cfg(bench.work / "train.cfg", max_iter=self.iters,
                             ckpt_every=self.ckpt_every, **self.keys)

    def warmup(self, bench) -> None:
        # The first iterations in a process pay for page faults and BLAS
        # thread start; a two-iteration run takes them outside the timing.
        warm = write_cfg(bench.work / "warm.cfg", max_iter=2, **self.keys)
        self._train(bench, warm, bench.work / "warm")

    def _train(self, bench, cfg: Path, out: Path, traced: bool = False):
        cmd = bench.cli(["train", "--config", str(cfg), "--seed", str(bench.seed),
                         "--out", str(out)], traced)
        losses = [float(m.group(4)) for _, line in cmd.lines
                  if (m := ITER_LINE.fullmatch(line))]
        stamps = [t for t, line in cmd.lines if ITER_LINE.fullmatch(line)]
        bench.check(all(math.isfinite(x) for x in losses), "a logged loss is not finite")
        return cmd, losses, stamps

    def unit(self, bench, traced: bool) -> dict:
        out = bench.work / "run"
        cmd, losses, stamps = self._train(bench, self.cfg, out, traced)
        bench.check(len(losses) == self.iters,
                    f"logged {len(losses)} iterations, expected {self.iters}")
        final = out / "final.pspc"
        digest = bench.digest(final)
        if bench.same("final.pspc", digest) and digest not in bench.reloaded:
            bench.reloaded.add(digest)
            self.params = bench.check_reload(final, self.cfg, self.iters)
        steps = np.diff([cmd.t_work] + stamps) * 1e3
        return {"setup": [cmd.t_work - cmd.t0], "steps": list(steps),
                "work": cmd.t1 - cmd.t_work,
                "final_loss": statistics.fmean(losses[-FINAL_LOSS_WINDOW:]) if losses else math.nan}

    def probe(self, bench) -> None:
        """workers=1 vs workers=2, and straight vs resumed, give the same bytes."""
        if not self.probe_determinism:
            return
        probe_iters = 8
        runs = {}
        for workers in (1, 2):
            cfg = write_cfg(bench.work / f"probe{workers}.cfg", max_iter=probe_iters,
                            ckpt_every=probe_iters // 2, workers=workers, **self.keys)
            self._train(bench, cfg, bench.work / f"probe{workers}")
            runs[f"workers={workers}"] = bench.work / f"probe{workers}" / "final.pspc"
        mid = bench.work / "probe1" / f"iter{probe_iters // 2:06d}.pspc"
        cfg = write_cfg(bench.work / "resume.cfg", max_iter=probe_iters, resume=mid,
                        **self.keys)
        cmd, _, _ = self._train(bench, cfg, bench.work / "resumed")
        bench.check(any(line == f"resumed iteration={probe_iters // 2} checkpoint={mid}"
                        for _, line in cmd.lines), "the resumed run did not resume")
        runs["resumed"] = bench.work / "resumed" / "final.pspc"
        ref = bench.digest(runs["workers=1"])
        for name in ("workers=2", "resumed"):
            bench.check(bench.digest(runs[name]) == ref,
                        f"determinism probe: {name} final checkpoint differs from workers=1")
        bench.digests["probe.final.pspc"] = ref

    def summarize(self, units: list[dict], e2e: dict) -> dict:
        return {
            "train_ms_per_iter_p50": (e2e["step_ms_p50"], "ms"),
            "train_ms_per_iter_p90": (e2e["step_ms_p90"], "ms"),
            "train_iterations_timed": (sum(len(u["steps"]) for u in units), "count"),
            "train_final_loss": (units[0]["final_loss"], "loss"),
            "model_params": (self.params, "count"),
        }


class Eval(Workload):
    """`pyrseg eval` of a benchmark-trained toy checkpoint on 128-px context
    images, at scale 1.0 and at the five paper scales."""

    entry = ("cli", "evaluate")
    per_step = ("metrics", "multi_scale_infer")
    passes = {"1x": "1.0", "5x": "0.5,0.75,1.0,1.25,1.5"}
    test_n = 16

    def prepare(self, bench) -> None:
        from pyrseg.ablate import context_dataset_config
        from pyrseg.data import write_dataset
        from pyrseg.synth import synth_generate

        corpus = synth_generate(context_dataset_config(bench.seed), 2 * self.test_n)
        write_dataset(bench.work / "train-data", corpus[: self.test_n])
        test = corpus[self.test_n:]
        write_dataset(bench.work / "test-data", test)
        self.valid_pixels = int(sum((s.labels != 255).sum() for s in test))
        cfg = write_cfg(bench.work / "ckpt.cfg", data_dir=bench.work / "train-data",
                        max_iter=20, log_every=20)
        cmd = bench.cli(["train", "--config", str(cfg), "--seed", str(bench.seed),
                         "--out", str(bench.work / "ckpt")])
        self.ckpt = bench.work / "ckpt" / "final.pspc"
        bench.check(cmd.rc == 0 and self.ckpt.is_file(), "could not train the eval checkpoint")
        self.cfg = write_cfg(bench.work / "eval.cfg", data_dir=bench.work / "test-data")

    def warmup(self, bench) -> None:
        self.unit(bench, False)  # its digests become the reference

    def unit(self, bench, traced: bool) -> dict:
        u = {"setup": [], "steps": [], "work": 0.0}
        for name, scales in self.passes.items():
            out = bench.work / f"eval-{name}"
            cmd = bench.cli(["eval", "--config", str(self.cfg), "--seed", str(bench.seed),
                             "--checkpoint", str(self.ckpt), "--scales", scales,
                             "--out", str(out)], traced)
            cm = bench.hooks.result
            bench.check(cm is not None and cm.total == self.valid_pixels,
                        f"{name}: confusion total {getattr(cm, 'total', None)} != "
                        f"{self.valid_pixels} non-ignore label pixels")
            bench.same(f"metrics.csv {name}", bench.digest(out / "metrics.csv"))
            u["setup"].append(cmd.t_work - cmd.t0)
            u["work"] += cmd.t1 - cmd.t_work
            u[f"images_per_s_{name}"] = (self.test_n / bench.hooks.work_s
                                         if bench.hooks.work_s else math.nan)
            if name == "1x":
                u["steps"] = [1e3 * s for s in bench.hooks.step_s]
        return u

    def summarize(self, units: list[dict], e2e: dict) -> dict:
        return {
            f"eval_{name}_images_per_s": (median(u[f"images_per_s_{name}"] for u in units), "1/s")
            for name in self.passes
        } | {"eval_1x_images_timed": (sum(len(u["steps"]) for u in units), "count")}


class Ablate(Workload):
    """`pyrseg ablate` on its built-in 128-px context corpus, reduced budget."""

    entry = per_step = ("ablate", "train_and_eval")
    budget = dict(ablate_seeds=1, ablate_iters=10, ablate_train_n=16, ablate_test_n=4)
    cells = 14  # 9 pooling variants + 5 aux weights, one seed each
    # No warm-up: a unit is 14 cells, and its first iterations are a small part.

    def prepare(self, bench) -> None:
        self.cfg = write_cfg(bench.work / "ablate.cfg", **self.budget)

    def unit(self, bench, traced: bool) -> dict:
        out = bench.work / "ablate"
        cmd = bench.cli(["ablate", "--config", str(self.cfg), "--seed", str(bench.seed),
                         "--out", str(out)], traced)
        rows = []
        for name in ("ablation_variants.csv", "ablation_alpha.csv"):
            path = out / name
            bench.same(name, bench.digest(path))
            if path.is_file():
                rows += list(csv.DictReader(io.StringIO(path.read_text())))
        bench.check(len(rows) == self.cells, f"{len(rows)} ablation rows, expected {self.cells}")
        bench.check(all(math.isfinite(float(r[k])) for r in rows
                        for k in ("final_loss", "loss_at_10")), "an ablation loss is not finite")
        return {"setup": [cmd.t_work - cmd.t0], "steps": [1e3 * s for s in bench.hooks.step_s],
                "work": cmd.t1 - cmd.t_work, "wall": cmd.t1 - cmd.t0,
                "mean_iou": statistics.fmean(float(r["mean_iou"]) for r in rows) if rows else math.nan}

    def summarize(self, units: list[dict], e2e: dict) -> dict:
        return {
            "ablate_wall_s": (median(u["wall"] for u in units), "s"),
            "ablate_mean_iou": (units[0]["mean_iou"], "mIoU"),
            "ablate_cells_timed": (sum(len(u["steps"]) for u in units), "count"),
        }


WORKLOADS = {
    "train-toy": lambda: Train("toy", batch=4, iters=40, ckpt_every=10, probe=True),
    "train-r50": lambda: Train("resnet50-layout", batch=2, iters=24, ckpt_every=0, probe=False),
    "eval-128": Eval,
    "ablate-grid": Ablate,
}
