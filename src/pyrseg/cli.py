"""Command-line entry point: train / eval / predict / ablate / gradcheck / synth."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import ablate as ablate_mod
from . import checkpoint as ckpt_mod
from . import gradcheck as gradcheck_mod
from .config import RunConfig, format_config, load_config, parse_value
from .data import class_palette, load_dataset, read_image, write_dataset
from .metrics import evaluate, mean_iou, multi_scale_infer, per_class_report, \
    pixel_accuracy
from .model import build_model, check_trainable
from .optim import SGD
from .pnm import write_pgm, write_ppm
from .synth import synth_generate
from .training import train_loop


def _resolve(args: argparse.Namespace) -> RunConfig:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "max_iter", None) is not None:
        overrides["max_iter"] = args.max_iter
    if getattr(args, "checkpoint", None) is not None:
        overrides["checkpoint"] = args.checkpoint
    if getattr(args, "scales", None) is not None:
        overrides["scales"] = parse_value("scales", args.scales)
    if args.out is not None:
        overrides["out_dir"] = args.out
    cfg = load_config(args.config, overrides)
    print(format_config(cfg), end="")
    return cfg


def _check_last_batch(mcfg, n: int, batch_size: int, crop_size: int) -> None:
    """An epoch's last batch holds n % batch_size samples; reject a config
    whose training step would fail on it."""
    short = n % batch_size
    if short:
        try:
            check_trainable(mcfg, short, crop_size)
        except ValueError as exc:
            raise ValueError(f"{n} samples at batch_size {batch_size} leave a last batch of "
                             f"{short}: {exc}") from None


def _class_names(num_classes: int) -> list[str]:
    return [f"class{i}" for i in range(num_classes)]


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    if not cfg.data_dir:
        raise ValueError("train needs data_dir (key=value config or a synth run first)")
    if cfg.resume and cfg.checkpoint and cfg.resume != cfg.checkpoint:
        raise ValueError(f"train got two checkpoints to resume from: resume={cfg.resume} "
                         f"and checkpoint={cfg.checkpoint}; set one")
    mcfg = cfg.to_model_config()
    ocfg = cfg.to_optim_config()
    acfg = cfg.to_augment_config()
    check_trainable(mcfg, cfg.batch_size, acfg.crop_size)
    samples = load_dataset(cfg.data_dir, cfg.num_classes)
    _check_last_batch(mcfg, len(samples), cfg.batch_size, acfg.crop_size)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    resume_from = cfg.resume or cfg.checkpoint
    if resume_from:
        model, velocity, start_iter = ckpt_mod.load(resume_from, mcfg)
        print(f"resumed iteration={start_iter} checkpoint={resume_from}")
    else:
        model, velocity, start_iter = build_model(mcfg, seed=cfg.seed), None, 0
    # a fresh run and a weights-only checkpoint have no velocities: they start at zero
    sgd = SGD(model, ocfg, velocity or None)

    final_path = out / "final.pspc"

    def on_iteration(stats) -> None:
        done = stats.iteration + 1
        if done % cfg.log_every == 0 or done == ocfg.max_iter:
            print(f"iter={stats.iteration} lr={stats.lr:.6f} "
                  f"main={stats.main_loss:.6f} aux={stats.aux_loss:.6f} "
                  f"total={stats.total_loss:.6f}")
        if cfg.ckpt_every > 0 and done % cfg.ckpt_every == 0 and done != ocfg.max_iter:
            ckpt_mod.save(str(out / f"iter{done:06d}.pspc"), model, sgd.velocity, done)

    train_loop(model, sgd, samples, acfg, ocfg,
               seed=cfg.seed, batch_size=cfg.batch_size, start_iter=start_iter,
               on_iteration=on_iteration)
    ckpt_mod.save(str(final_path), model, sgd.velocity, ocfg.max_iter)
    print(f"checkpoint={final_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    if not cfg.checkpoint:
        raise ValueError("eval needs --checkpoint")
    if not cfg.data_dir:
        raise ValueError("eval needs data_dir")
    model, _, _ = ckpt_mod.load(cfg.checkpoint, cfg.to_model_config(), inference=True)
    samples = load_dataset(cfg.data_dir, cfg.num_classes)
    cm = evaluate(model, samples, scales=cfg.scales, min_size=cfg.min_scale_size)
    text, csv = per_class_report(cm, _class_names(cfg.num_classes))
    print(f"pixel_acc={pixel_accuracy(cm):.6f}")
    print(f"mean_iou={mean_iou(cm):.6f}")
    print(text, end="")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(csv)
    print(f"metrics_csv={out / 'metrics.csv'}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    if not cfg.checkpoint:
        raise ValueError("predict needs --checkpoint")
    model, _, _ = ckpt_mod.load(cfg.checkpoint, cfg.to_model_config(), inference=True)
    prob = multi_scale_infer(model, read_image(args.image), cfg.scales, cfg.min_scale_size)
    labels = prob.argmax(axis=0).astype(np.uint8)  # ties go to the lowest class

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.image).stem
    label_path = out / f"{stem}_labels.pgm"
    color_path = out / f"{stem}_color.ppm"
    write_pgm(label_path, labels)
    write_ppm(color_path, class_palette(cfg.num_classes)[labels])
    print(f"labels={label_path}")
    print(f"color={color_path}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    base = cfg.to_model_config()
    ocfg = cfg.to_optim_config(max_iter=cfg.ablate_iters)
    acfg = cfg.to_augment_config()
    variant_cells = ablate_mod.variant_cells(base)
    cells = variant_cells + ablate_mod.alpha_cells(base)
    for _, cell in cells:
        check_trainable(cell, cfg.batch_size, acfg.crop_size)
        _check_last_batch(cell, cfg.ablate_train_n, cfg.batch_size, acfg.crop_size)
    scfg = ablate_mod.context_dataset_config(cfg.seed)
    corpus = synth_generate(scfg, cfg.ablate_train_n + cfg.ablate_test_n)
    train_samples = corpus[: cfg.ablate_train_n]
    test_samples = corpus[cfg.ablate_train_n :]
    seeds = range(cfg.seed, cfg.seed + cfg.ablate_seeds)

    def progress(row) -> None:
        print(f"run variant={row.name} seed={row.seed} "
              f"mean_iou={row.mean_iou:.4f} pixel_acc={row.pixel_acc:.4f}")

    rows = ablate_mod.run_cells(cells, train_samples, test_samples, ocfg, acfg,
                                seeds=seeds, batch_size=cfg.batch_size, progress=progress)
    split = len(variant_cells) * len(seeds)
    variant_rows, alpha_rows = rows[:split], rows[split:]

    print(ablate_mod.format_table(variant_rows, "pooling variants"), end="")
    print(ablate_mod.format_table(alpha_rows, "aux weight sweep"), end="")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ablation_variants.csv").write_text(ablate_mod.format_csv(variant_rows))
    (out / "ablation_alpha.csv").write_text(ablate_mod.format_csv(alpha_rows))
    print(f"variants_csv={out / 'ablation_variants.csv'}")
    print(f"alpha_csv={out / 'ablation_alpha.csv'}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    results = gradcheck_mod.run_suite()
    print(gradcheck_mod.format_report(results), end="")
    return 0 if all(r.ok for r in results) else 1


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    out = Path(cfg.out_dir)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise ValueError(f"{out} exists and is not empty; pass --force to overwrite")
    scfg = cfg.to_synth_config()
    samples = synth_generate(scfg, cfg.synth_n)
    write_dataset(out, samples)
    print(f"wrote {len(samples)} samples to {out} (classes={scfg.num_classes})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="key=value config file")
    config.add_argument("--seed", type=int)
    config.add_argument("--out", help="output directory")
    checkpoint = argparse.ArgumentParser(add_help=False)
    checkpoint.add_argument("--checkpoint")
    infer = argparse.ArgumentParser(add_help=False)
    infer.add_argument("--scales", help="comma-separated, e.g. 0.75,1.0,1.25")

    parser = argparse.ArgumentParser(prog="pyrseg",
                                     description="pyramid scene parsing at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("train", parents=[config, checkpoint])
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.set_defaults(fn=cmd_train)
    sub.add_parser("eval", parents=[config, checkpoint, infer]).set_defaults(fn=cmd_eval)
    p = sub.add_parser("predict", parents=[config, checkpoint, infer])
    p.add_argument("image", help="input PPM")
    p.set_defaults(fn=cmd_predict)
    sub.add_parser("ablate", parents=[config]).set_defaults(fn=cmd_ablate)
    sub.add_parser("gradcheck").set_defaults(fn=cmd_gradcheck)
    p = sub.add_parser("synth", parents=[config])
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
