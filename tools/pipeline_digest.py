"""Fixed-seed pyrseg pipeline with one sha256 per output file, to compare two trees.

    python3 tools/pipeline_digest.py [--checkout DIR] [--work DIR]

Imports `pyrseg` from `<checkout>/src` (default: this file's checkout) and
drives `pyrseg.cli.main` inside the work directory (default: a temporary one,
removed afterwards). The pipeline: `synth` at a 100-px canvas and at 64 px;
`train` with a mid-run checkpoint; `train` resumed from that checkpoint; one
iteration of the resnet50-layout preset, which covers its threaded init, its
conv7 stem with max pooling and its optimizer step; `eval` at scale 1.0 and at
0.75,1.0,1.25; `predict` on one 100-px and one 64-px image; and a reduced
`ablate`. Each command's stdout is kept as `logs/<step>.txt`.
All paths are relative to the work directory, so the logs of two checkouts
compare byte for byte. Prints one `sha256 <output> = <hex>` line per file the
pipeline leaves in the work directory (its configs, outputs and logs), sorted
by path. Standard library and pyrseg only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

TRAIN = "data_dir = ds100\nbatch_size = 2\nlog_every = 1\nckpt_every = 2\n"
R50 = "data_dir = ds100\npreset = resnet50-layout\nbatch_size = 2\n"
ABLATE = "ablate_iters = 2\nablate_seeds = 1\nablate_train_n = 4\nablate_test_n = 2\n" \
         "batch_size = 2\n"

# (step, argv); every path is relative to the work directory.
STEPS = [
    ("synth100", ["synth", "--config", "synth100.cfg", "--seed", "3", "--out", "ds100"]),
    ("synth64", ["synth", "--config", "synth64.cfg", "--seed", "4", "--out", "ds64"]),
    ("train", ["train", "--config", "train.cfg", "--seed", "1", "--max-iter", "4",
               "--out", "train"]),
    ("resume", ["train", "--config", "train.cfg", "--seed", "1", "--max-iter", "4",
                "--checkpoint", "train/iter000002.pspc", "--out", "resume"]),
    ("train_r50", ["train", "--config", "r50.cfg", "--seed", "1", "--max-iter", "1",
                   "--out", "train_r50"]),
    ("eval1", ["eval", "--config", "train.cfg", "--checkpoint", "train/final.pspc",
               "--out", "eval1"]),
    ("eval3", ["eval", "--config", "train.cfg", "--checkpoint", "train/final.pspc",
               "--scales", "0.75,1.0,1.25", "--out", "eval3"]),
    ("predict100", ["predict", "--config", "train.cfg", "--checkpoint", "train/final.pspc",
                    "--out", "predict100", "ds100/images/0000.ppm"]),
    ("predict64", ["predict", "--config", "train.cfg", "--checkpoint", "train/final.pspc",
                   "--out", "predict64", "ds64/images/0000.ppm"]),
    ("ablate", ["ablate", "--config", "ablate.cfg", "--seed", "2", "--out", "ablate"]),
]


def run_pipeline(work: Path) -> list[str]:
    from pyrseg.cli import main

    configs = {"synth100.cfg": "synth_canvas = 100\nsynth_n = 6\n",
               "synth64.cfg": "synth_n = 1\n", "train.cfg": TRAIN, "r50.cfg": R50,
               "ablate.cfg": ABLATE}
    for name, text in configs.items():
        (work / name).write_text(text)
    (work / "logs").mkdir()
    here = os.getcwd()
    os.chdir(work)
    try:
        for step, argv in STEPS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            Path("logs", f"{step}.txt").write_text(out.getvalue())
            if code != 0:
                raise SystemExit(f"pyrseg {' '.join(argv)} exited {code}")
    finally:
        os.chdir(here)
    files = sorted(p.relative_to(work).as_posix() for p in work.rglob("*") if p.is_file())
    return [f"sha256 {f} = {hashlib.sha256((work / f).read_bytes()).hexdigest()}"
            for f in files]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1],
                        help="tree whose src/pyrseg runs the pipeline")
    parser.add_argument("--work", type=Path,
                        help="empty or missing directory to keep the outputs in")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    if args.work is None:
        with tempfile.TemporaryDirectory() as tmp:
            lines = run_pipeline(Path(tmp))
    else:
        args.work.mkdir(parents=True, exist_ok=True)
        if any(args.work.iterdir()):
            raise SystemExit(f"{args.work} is not empty")
        lines = run_pipeline(args.work.resolve())
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
