"""pyrseg benchmark: train, eval and ablate end to end through `pyrseg.cli.main`.

Run from the root of a pyrseg checkout:

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 25 --trace 0

The seed makes the inputs; the run repeats one unit of work (a CLI command,
or the 1x and 5x eval pair) for about `--seconds` seconds. With `--trace 0`
the end-to-end metrics are measured with nothing patched but the marks they
need. With `--trace 1` untraced and traced units alternate, and the
per-layer metrics and the tracing overhead are reported. The last line of
standard output is the JSON result; the spans and the full self-time table
go under `.perfbench_work/`. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Patches, Tracer
from workloads import WORKLOADS, median

perf = time.perf_counter
WORK_ROOT = Path(".perfbench_work")


@dataclass
class Cmd:
    rc: int
    t0: float
    t_work: float  # the command reached its first unit of work
    t1: float
    lines: list[tuple[float, str]] = field(default_factory=list)


class StampedLines(io.TextIOBase):
    """Collects printed lines with the time each was completed."""

    def __init__(self) -> None:
        self.lines: list[tuple[float, str]] = []
        self._part = ""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        t = perf()
        self._part += s
        while "\n" in self._part:
            line, self._part = self._part.split("\n", 1)
            self.lines.append((t, line))
        return len(s)


class Hooks:
    """End-to-end marks that the CLI does not print.

    `entry` is the call where a command's work starts: its first call marks
    the end of set-up, and its time and result (the eval confusion matrix)
    are kept. `per_step`, when set, is timed on every call: one image for
    eval, one train+eval cell for ablate.
    """

    def __init__(self) -> None:
        self.installed_entry = False
        self.reset()

    def reset(self) -> None:
        self.t_work: float | None = None
        self.work_s = 0.0
        self.result = None
        self.step_s: list[float] = []

    @contextlib.contextmanager
    def installed(self, entry: tuple[str, str], per_step: tuple[str, str] | None):
        def owner(where: tuple[str, str]):
            return importlib.import_module(f"pyrseg.{where[0]}"), where[1]

        def step_wrapper(fn):
            def wrapper(*args, **kwargs):
                t = perf()
                out = fn(*args, **kwargs)
                self.step_s.append(perf() - t)
                return out
            return wrapper

        def entry_wrapper(fn):
            def wrapper(*args, **kwargs):
                t = perf()
                if self.t_work is None:
                    self.t_work = t
                self.result = fn(*args, **kwargs)
                self.work_s += perf() - t
                return self.result
            return wrapper

        patches = Patches()
        if per_step is not None:
            patches.wrap(*owner(per_step), step_wrapper)
        patches.wrap(*owner(entry), entry_wrapper)
        self.installed_entry = True
        try:
            yield
        finally:
            self.installed_entry = False
            patches.restore()


class Bench:
    def __init__(self, seed: int, work: Path, tracer) -> None:
        self.seed, self.work, self.tracer = seed, work, tracer
        self.hooks = Hooks()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.reloaded: set[str] = set()

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)
        return ok

    def same(self, name: str, digest: str | None) -> bool:
        """The output `name` has the bytes it had in the first unit."""
        ref = self.digests.setdefault(name, digest)
        return self.check(digest is not None and digest == ref,
                          f"{name} differs across repetitions of one seed")

    @staticmethod
    def digest(path: Path) -> str | None:
        return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None

    def check_reload(self, path: Path, cfg_path: Path, iteration: int) -> int:
        """Reload through `checkpoint.load`; returns the parameter count."""
        from pyrseg import checkpoint
        from pyrseg.config import load_config

        cfg = load_config(str(cfg_path), {"seed": self.seed})
        params = 0
        try:
            model, _, it = checkpoint.load(str(path), cfg.to_model_config(), seed=self.seed)
            # PSPNet's method: model.count_parameters takes a config, not a model
            params = model.count_parameters()
        except (OSError, ValueError) as exc:
            it = None
            self.failures.append(f"checkpoint.load({path}): {exc}")
        self.check(it == iteration, f"{path.name} does not reload at iteration {iteration}")
        return params

    def cli(self, argv: list[str], traced: bool = False) -> Cmd:
        from pyrseg import cli

        out, err = StampedLines(), io.StringIO()
        self.hooks.reset()
        tracing = self.tracer.installed() if traced else contextlib.nullcontext()
        t0 = perf()
        try:
            with tracing, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crashing command is a counted failure
            rc = -1
            err.write(traceback.format_exc())
        t1 = perf()
        if traced:
            self.tracer.commands.append(t1 - t0)
        if self.check(rc == 0, f"pyrseg {argv[0]} exited {rc}: {err.getvalue().strip()[-400:]}") \
                and self.hooks.installed_entry:
            self.check(self.hooks.t_work is not None, f"pyrseg {argv[0]} never reached its work")
        return Cmd(rc, t0, self.hooks.t_work or t1, t1, out.lines)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def blas_threads() -> int | str:
    """Ask the OpenBLAS that numpy loaded for its thread count."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            if hasattr(handle, name):
                fn = getattr(handle, name)
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(bench: Bench, wl, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Repeat units while the next one is expected to end within `seconds`.

    With `trace`, units alternate untraced and traced, so a drift in machine
    speed during the run falls on both sides of the overhead estimate.
    Returns (untraced units, traced units), at least two units in all.
    """
    plain, traced, took = [], [], []
    deadline = perf() + seconds
    while len(took) < 2 or perf() + statistics.median(took) <= deadline:
        t = perf()
        on = trace and len(took) % 2 == 1
        (traced if on else plain).append(wl.unit(bench, on))
        took.append(perf() - t)
    return plain, traced


def end_to_end(units: list[dict]) -> dict[str, float]:
    steps = [s for u in units for s in u["steps"]]
    return {
        "setup_s": median(s for u in units for s in u["setup"]),
        "step_ms_p50": median(steps),
        "step_ms_p90": statistics.quantiles(steps, n=10, method="inclusive")[8]
        if len(steps) > 1 else math.nan,
        "work_s": median(u["work"] for u in units),
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "pyrseg" / "cli.py").is_file():
        print(f"error: no pyrseg sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import pyrseg

    if Path(pyrseg.__file__).resolve().parent != (src / "pyrseg").resolve():
        print(f"error: imported pyrseg from {pyrseg.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy as np

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    env = environment()
    wl = WORKLOADS[args.workload]()
    work = WORK_ROOT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    bench = Bench(args.seed, work.resolve(), tracer)
    try:
        wl.prepare(bench)
        with bench.hooks.installed(wl.entry, wl.per_step):
            wl.warmup(bench)
            plain, traced = measure(bench, wl, args.seconds, bool(args.trace))
        wl.probe(bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(plain)
    named = wl.summarize(plain, e2e)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "units": len(plain) + len(traced),
              "attempted": bench.attempted, "failed": bench.failed,
              "failures": bench.failures, "digests": bench.digests, "end_to_end": e2e,
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "unit_work_s": [u["work"] for u in plain + traced],
              "unit_steps_ms": [[round(s, 3) for s in u["steps"]] for u in plain + traced]}

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in e2e.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in named.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"metric failed_share = {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} failed of {bench.attempted} attempted)")
    for name, digest in sorted(bench.digests.items()):
        print(f"sha256 {name} = {digest}")
    for message in bench.failures:
        print(f"FAILED {message}")

    if args.trace:
        layers, rows = tracer.summarize(env["nproc"])
        base, over = end_to_end(plain)["work_s"], end_to_end(traced)["work_s"]
        layers["trace.overhead_s"] = over - base
        layers["trace.overhead_share"] = (over - base) / base
        trace_dir = WORK_ROOT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(str(trace_dir / f"{args.workload}-spans.csv"))
        table = ["name detail step_kind count total_ms self_ms per_step_ms"]
        table += [f"{n} {d or '-'} {k} {c} {t:.3f} {s:.3f} {p:.4f}" for n, d, k, c, t, s, p in rows]
        (trace_dir / f"{args.workload}-layers.txt").write_text("\n".join(table) + "\n")
        for line in table:
            print(f"layer {line}")
        for name in sorted(layers):
            print(f"per_layer {name} = {layers[name]:.6g}")
        report["per_layer"] = layers
        declared, values = spec["per_layer"], layers
    else:
        declared, values = spec["end_to_end"], e2e

    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")
    # a layer the workload does not exercise reports 0; so does a failed run's NaN
    metrics = {m["name"]: {"value": float(np.nan_to_num(values.get(m["name"], 0.0))),
                           "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
