"""End-to-end command flows in a temp directory, driven through main()."""

import argparse
import ast
import dataclasses
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pyrseg import checkpoint as ckpt
from pyrseg.cli import build_parser, main
from pyrseg.config import RunConfig, load_config
from pyrseg.metrics import multi_scale_infer
from pyrseg.model import build_model
from pyrseg.pnm import read_pgm, read_ppm, write_ppm


@pytest.fixture()
def ds_dir(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("synth_n = 6\n")
    out = tmp_path / "ds"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def _train_cfg(tmp_path, ds):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        f"data_dir = {ds}\n"
        "batch_size = 2\n"
        "log_every = 1\n"
    )
    return cfg


def test_synth_writes_dataset(ds_dir, capsys):
    assert (ds_dir / "manifest.txt").is_file()
    names = (ds_dir / "manifest.txt").read_text().split()
    assert len(names) == 6
    img = read_ppm(ds_dir / "images" / "0000.ppm")
    assert img.shape == (64, 64, 3)


@pytest.mark.parametrize("text, key", [
    ("synth_noise = -1", "synth_noise"),
    ("synth_count_min = 9\nsynth_count_max = 5", "synth_count_max"),
    ("synth_radius_min = 12\nsynth_radius_max = 6", "synth_radius_max"),
    ("synth_count_min = -2", "synth_count_min"),
    ("synth_radius_min = -3", "synth_radius_min"),
    ("synth_n = 0", "synth_n"),
])
def test_synth_rejects_bad_keys_before_writing(tmp_path, capsys, monkeypatch, text, key):
    import pyrseg.cli as cli_mod

    def no_corpus(*args):
        raise AssertionError("synth generated samples before checking the config")

    monkeypatch.setattr(cli_mod, "synth_generate", no_corpus)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"synth_n = 2\n{text}\n")
    out = tmp_path / "ds"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"error: config key {key} must be >= " in capsys.readouterr().err
    assert not out.exists()


def test_synth_refuses_overwrite_without_force(ds_dir, tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("synth_n = 2\n")
    assert main(["synth", "--config", str(cfg), "--out", str(ds_dir)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["synth", "--config", str(cfg), "--out", str(ds_dir), "--force"]) == 0
    assert len((ds_dir / "manifest.txt").read_text().split()) == 2


def test_train_eval_predict_round_trip(ds_dir, tmp_path, capsys):
    cfg = _train_cfg(tmp_path, ds_dir)
    run = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--max-iter", "3",
               "--seed", "1", "--out", str(run)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "config max_iter=3" in out       # flag beat the file default
    assert "iter=2" in out
    ckpt = run / "final.pspc"
    assert ckpt.is_file()

    rc = main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "ev")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pixel_acc=" in out
    assert "mean_iou=" in out
    csv = (tmp_path / "ev" / "metrics.csv").read_text()
    assert csv.startswith("class,iou")

    rc = main(["predict", "--config", str(cfg), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "pred"),
               str(ds_dir / "images" / "0000.ppm")])
    assert rc == 0
    labels = read_pgm(tmp_path / "pred" / "0000_labels.pgm")
    assert labels.shape == (64, 64)
    assert labels.max() < 4
    color = read_ppm(tmp_path / "pred" / "0000_color.ppm")
    assert color.shape == (64, 64, 3)


def test_predict_writes_the_label_map_eval_scores(ds_dir, tmp_path, capsys):
    # A side that is not a multiple of 8 is rounded to one at each scale,
    # as in eval, so predict's labels are the argmax eval would score.
    cfg = _train_cfg(tmp_path, ds_dir)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--max-iter", "1",
                 "--out", str(run)]) == 0
    capsys.readouterr()

    odd = tmp_path / "odd.ppm"
    rng = np.random.default_rng(0)
    write_ppm(odd, rng.integers(0, 256, size=(70, 67, 3)).astype(np.uint8))
    rc = main(["predict", "--config", str(cfg), "--scales", "1.0,1.25",
               "--checkpoint", str(run / "final.pspc"),
               "--out", str(tmp_path / "pred"), str(odd)])
    assert rc == 0
    assert "padded" not in capsys.readouterr().out
    labels = read_pgm(tmp_path / "pred" / "odd_labels.pgm")

    model, _, _ = ckpt.load(str(run / "final.pspc"), load_config(str(cfg)).to_model_config())
    img = np.ascontiguousarray((read_ppm(odd).astype(np.float32) / 255.0).transpose(2, 0, 1))
    expected = multi_scale_infer(model, img, (1.0, 1.25)).argmax(axis=0)
    assert labels.shape == (70, 67)
    assert np.array_equal(labels, expected)


def test_eval_and_predict_run_a_checkpoint_with_or_without_aux_under_either_config(
        ds_dir, tmp_path):
    # The aux branch is training-only: each output equals that of the config
    # the checkpoint was trained under.
    cfgs = {}
    for name, aux in (("aux", "0.4"), ("bare", "0")):
        cfgs[name] = tmp_path / f"{name}.cfg"
        cfgs[name].write_text(_train_cfg(tmp_path, ds_dir).read_text() + f"aux_weight = {aux}\n")
        assert main(["train", "--config", str(cfgs[name]), "--max-iter", "1",
                     "--out", str(tmp_path / name)]) == 0
    image = ds_dir / "images" / "0000.ppm"
    for trained in cfgs:
        outputs = {}
        for name, cfg in cfgs.items():
            out = tmp_path / f"{trained}-under-{name}"
            common = ["--config", str(cfg), "--checkpoint", str(tmp_path / trained / "final.pspc"),
                      "--scales", "1.0,1.25", "--out", str(out)]
            assert main(["eval", *common]) == 0
            assert main(["predict", *common, str(image)]) == 0
            outputs[name] = ((out / "metrics.csv").read_bytes(),
                             (out / "0000_labels.pgm").read_bytes())
        assert outputs["aux"] == outputs["bare"], trained


def test_eval_reads_the_checkpoint_before_the_dataset(ds_dir, tmp_path, capsys, monkeypatch):
    import pyrseg.cli as cli_mod

    def no_data(*args):
        raise AssertionError("eval read the dataset before the checkpoint")

    monkeypatch.setattr(cli_mod, "load_dataset", no_data)
    missing = tmp_path / "missing.pspc"
    assert main(["eval", "--config", str(_train_cfg(tmp_path, ds_dir)),
                 "--checkpoint", str(missing), "--out", str(tmp_path / "ev")]) == 1
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def test_multi_scale_eval_flag(ds_dir, tmp_path, capsys):
    cfg = _train_cfg(tmp_path, ds_dir)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--max-iter", "1",
                 "--out", str(run)]) == 0
    rc = main(["eval", "--config", str(cfg), "--checkpoint",
               str(run / "final.pspc"), "--scales", "1.0,1.5",
               "--out", str(tmp_path / "ev")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "config scales=1.0,1.5" in out


def test_resume_from_checkpoint(ds_dir, tmp_path, capsys):
    cfg = _train_cfg(tmp_path, ds_dir)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--max-iter", "2",
                 "--out", str(run)]) == 0
    capsys.readouterr()
    cfg2 = tmp_path / "resume.cfg"
    cfg2.write_text(cfg.read_text() + f"resume = {run / 'final.pspc'}\n")
    rc = main(["train", "--config", str(cfg2), "--max-iter", "4",
               "--out", str(run)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "resumed iteration=2" in out
    assert "iter=3" in out
    assert "iter=1" not in out  # continues, does not restart


def test_resume_past_schedule_end_exits_one(ds_dir, tmp_path, capsys):
    cfg = _train_cfg(tmp_path, ds_dir)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--max-iter", "4",
                 "--out", str(run)]) == 0
    late = run / "late.pspc"
    (run / "final.pspc").rename(late)
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg), "--max-iter", "2",
               "--checkpoint", str(late), "--out", str(run)])
    assert rc == 1
    assert "start iteration 4 outside the schedule [0, 2]" in capsys.readouterr().err
    assert not (run / "final.pspc").exists()


def test_train_whose_last_step_overflows_saves_no_checkpoint(tmp_path, capsys):
    # The loss check runs before each step, so only the save sees the state
    # that the last step leaves: here it overflows most weights to inf.
    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text("synth_n = 8\n")
    ds = tmp_path / "ds"
    assert main(["synth", "--config", str(synth_cfg), "--out", str(ds)]) == 0
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"data_dir = {ds}\nbatch_size = 2\nbase_lr = 3e38\nweight_decay = 10\n")
    run = tmp_path / "run"
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--config", str(cfg), "--max-iter", "1", "--out", str(run)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "iter=0" in captured.out
    assert re.search(r"refusing to save iteration 1: \S+/\w+ holds a non-finite value",
                     captured.err), captured.err
    assert not (run / "final.pspc").exists()
    assert sorted(f.name for f in run.iterdir()) == []


def test_train_rejects_resume_and_a_different_checkpoint(ds_dir, tmp_path, capsys):
    cfg = _train_cfg(tmp_path, ds_dir)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--max-iter", "2",
                 "--out", str(run)]) == 0
    first = run / "final.pspc"
    other = run / "other.pspc"
    other.write_bytes(first.read_bytes())
    cfg2 = tmp_path / "resume.cfg"
    cfg2.write_text(cfg.read_text() + f"resume = {first}\n")
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg2), "--max-iter", "4",
               "--checkpoint", str(other), "--out", str(tmp_path / "b")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert f"resume={first}" in err and f"checkpoint={other}" in err
    assert not re.search(r"^iter=", out, re.M)  # stopped before iteration 0
    assert not (tmp_path / "b" / "final.pspc").exists()
    # the same file twice is one request
    rc = main(["train", "--config", str(cfg2), "--max-iter", "4",
               "--checkpoint", str(first), "--out", str(tmp_path / "b")])
    assert rc == 0
    assert "resumed iteration=2" in capsys.readouterr().out


def test_zero_blur_sigma_exits_one_before_any_work(ds_dir, tmp_path, capsys, monkeypatch):
    import pyrseg.cli as cli_mod

    cfg = _train_cfg(tmp_path, ds_dir)
    cfg.write_text(cfg.read_text() + "blur_sigma_min = 0\nblur_sigma_max = 0\n")
    run = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--max-iter", "2", "--out", str(run)])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "error: blur_sigma" in err
    assert not re.search(r"^iter=", out, re.M)  # stopped before iteration 0
    assert not run.exists()

    def no_corpus(*args):
        raise AssertionError("ablate generated its corpus before checking the config")

    monkeypatch.setattr(cli_mod, "synth_generate", no_corpus)
    assert main(["ablate", "--config", str(cfg), "--out", str(run)]) == 1
    assert "error: blur_sigma" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("rotation_deg", -5), ("head_channels", -1)])
def test_negative_value_exits_one_before_any_data(tmp_path, capsys, monkeypatch, key, value):
    import pyrseg.cli as cli_mod

    def no_data(*args):
        raise AssertionError("data was touched before the config was checked")

    monkeypatch.setattr(cli_mod, "load_dataset", no_data)
    monkeypatch.setattr(cli_mod, "synth_generate", no_data)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"data_dir = /nonexistent\n{key} = {value}\n")
    run = tmp_path / "run"
    for command in ("train", "ablate"):
        assert main([command, "--config", str(cfg), "--out", str(run)]) == 1
        assert f"error: {key} must be >= " in capsys.readouterr().err
    assert not run.exists()


def test_a_negative_seed_exits_one_before_any_data(tmp_path, capsys, monkeypatch):
    import pyrseg.cli as cli_mod

    def no_data(*args):
        raise AssertionError("data was touched before the seed was checked")

    monkeypatch.setattr(cli_mod, "load_dataset", no_data)
    monkeypatch.setattr(cli_mod, "synth_generate", no_data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data_dir = /nonexistent\n")
    run = tmp_path / "run"
    for command in ("train", "ablate", "synth"):
        assert main([command, "--config", str(cfg), "--seed", "-1", "--out", str(run)]) == 1
        assert "config key seed must be >= 0, got -1" in capsys.readouterr().err
    assert not run.exists()


@pytest.mark.parametrize("text, message", [
    ("base_lr = nan", "config key base_lr expects a finite float"),
    ("weight_decay = inf", "config key weight_decay expects a finite float"),
    ("rotation_deg = nan", "config key rotation_deg expects a finite float"),
    ("pad_image_mean = nan", "config key pad_image_mean expects a finite float"),
    ("pad_image_mean = 1.5", "pad_value_image must be in [0, 1], got 1.5"),
], ids=["base_lr-nan", "weight_decay-inf", "rotation_deg-nan", "pad-nan", "pad-1.5"])
def test_non_finite_or_out_of_range_float_exits_one_before_any_data(
        tmp_path, capsys, monkeypatch, text, message):
    import pyrseg.cli as cli_mod

    def no_data(*args):
        raise AssertionError("data was touched before the config was checked")

    monkeypatch.setattr(cli_mod, "load_dataset", no_data)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"data_dir = /nonexistent\n{text}\n")
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}"), err
    assert not run.exists()


@pytest.mark.parametrize("text, keys", [
    ("batch_size = 1", ("batch_size", "psp_dim_reduce")),
    ("psp_enabled = false\ncrop_size = 8\nbatch_size = 1", ("batch_size", "crop_size")),
    ("crop_size = 16", ("psp_bins", "crop_size")),
])
def test_untrainable_config_exits_one_before_any_data(tmp_path, capsys, monkeypatch,
                                                       text, keys):
    import pyrseg.cli as cli_mod

    def no_data(*args):
        raise AssertionError("data was touched before the config was checked")

    monkeypatch.setattr(cli_mod, "load_dataset", no_data)
    monkeypatch.setattr(cli_mod, "synth_generate", no_data)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"data_dir = /nonexistent\n{text}\n")
    run = tmp_path / "run"
    for command in ("train", "ablate"):
        assert main([command, "--config", str(cfg), "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert all(key in err for key in keys), err
    assert not run.exists()


@pytest.mark.parametrize("command, text, flags, key", [
    ("train", "batch_size = 2.5", [], "batch_size"),
    ("train", "base_lr = fast", [], "base_lr"),
    ("train", "psp_bins = 1 x 3", [], "psp_bins"),
    ("eval", "", ["--scales", "1,x"], "scales"),
], ids=["int", "float", "list", "scales-flag"])
def test_a_value_that_does_not_parse_names_its_key(tmp_path, capsys, command, text, flags,
                                                    key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"data_dir = /nonexistent\n{text}\n")
    run = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(run), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key} expects "), err
    assert not run.exists()


@pytest.mark.parametrize("command, text", [
    ("train", "num_classes = 256"),
    ("synth", "synth_scenes = 200\nsynth_objects = 100"),
], ids=["train", "synth"])
def test_more_classes_than_uint8_labels_hold_exit_one_before_any_data(
        tmp_path, capsys, monkeypatch, command, text):
    import pyrseg.cli as cli_mod

    def no_data(*args):
        raise AssertionError("data was touched before the class count was checked")

    monkeypatch.setattr(cli_mod, "load_dataset", no_data)
    monkeypatch.setattr(cli_mod, "synth_generate", no_data)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"data_dir = /nonexistent\n{text}\n")
    run = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "255 is the ignore label" in err, err
    assert not run.exists()


def test_batch_of_one_trains_without_the_pyramid(ds_dir, tmp_path, capsys):
    cfg = _train_cfg(tmp_path, ds_dir)
    cfg.write_text(cfg.read_text() + "batch_size = 1\npsp_enabled = false\n")
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--max-iter", "2", "--out", str(run)]) == 0
    assert "iter=1" in capsys.readouterr().out
    assert (run / "final.pspc").is_file()


def test_a_set_smaller_than_one_batch_exits_one_before_training(tmp_path, capsys,
                                                                 monkeypatch):
    # 5 samples at batch_size 2 train on 2 full batches an epoch; 1 sample
    # fills no batch, and neither does an ablate_train_n of 1.
    import pyrseg.cli as cli_mod

    for n in (5, 1):
        synth = tmp_path / f"synth{n}.cfg"
        synth.write_text(f"synth_n = {n}\n")
        assert main(["synth", "--config", str(synth), "--out", str(tmp_path / f"ds{n}")]) == 0
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"data_dir = {tmp_path / 'ds5'}\nbatch_size = 2\n")
    assert main(["train", "--config", str(cfg), "--max-iter", "4",
                 "--out", str(tmp_path / "run5")]) == 0
    assert "iter=3" in capsys.readouterr().out

    def no_training(*args, **kwargs):
        raise AssertionError("training started before the set size was checked")

    monkeypatch.setattr(cli_mod, "train_loop", no_training)
    monkeypatch.setattr(cli_mod, "synth_generate", no_training)
    cfg.write_text(f"data_dir = {tmp_path / 'ds1'}\nbatch_size = 2\n"
                   "ablate_train_n = 1\nablate_test_n = 2\n")
    run = tmp_path / "run"
    for argv, keys in ((["train", "--max-iter", "4"], ("1 samples", "batch_size 2")),
                       (["ablate"], ("ablate_train_n 1", "batch_size 2"))):
        assert main([*argv, "--config", str(cfg), "--out", str(run)]) == 1
        err = capsys.readouterr().err
        for key in keys:
            assert key in err, err
    assert not run.exists()


def test_a_too_small_scale_exits_one_before_any_inference(tmp_path, capsys, monkeypatch):
    # Three 128-px images and one 64-px image at scales 0.5 and 1.0: the
    # 64-px image at 0.5 is 32 px, below min_scale_size.
    from pyrseg.data import write_dataset
    from pyrseg.model import PSPNet
    from pyrseg.synth import synth_generate

    rc = load_config(None, {"synth_canvas": 128})
    big = synth_generate(rc.to_synth_config(), 3)
    small = synth_generate(load_config(None).to_synth_config(), 1)
    write_dataset(tmp_path / "ds", big + small)
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"data_dir = {tmp_path / 'ds'}\n")
    ckpt.save(str(tmp_path / "m.pspc"), build_model(rc.to_model_config(), seed=0), None, 0)

    def no_inference(*args, **kwargs):
        raise AssertionError("inferred before every scale was checked")

    monkeypatch.setattr(PSPNet, "forward_infer", no_inference)
    common = ["--config", str(cfg), "--checkpoint", str(tmp_path / "m.pspc"),
              "--out", str(tmp_path / "out")]
    for argv in (["eval", "--scales", "0.5,1.0"],
                 ["predict", "--scales", "1.0,0.5", str(tmp_path / "ds" / "images" / "0003.ppm")]):
        assert main([*argv, *common]) == 1
        err = capsys.readouterr().err
        for key in ("64x64", "scale 0.5", "scales", "min_scale_size"):
            assert key in err, err
    assert not (tmp_path / "out").exists()


def _scale_check_run(tmp_path, monkeypatch, config_text, canvas):
    """A dataset of canvas-px images, an untrained checkpoint of the config's
    model and a forward_infer that fails; returns the common eval arguments."""
    from pyrseg.data import write_dataset
    from pyrseg.model import PSPNet
    from pyrseg.synth import synth_generate

    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"data_dir = {tmp_path / 'ds'}\n{config_text}")
    rc = load_config(str(cfg), {"synth_canvas": canvas})
    write_dataset(tmp_path / "ds", synth_generate(rc.to_synth_config(), 2))
    ckpt.save(str(tmp_path / "m.pspc"), build_model(rc.to_model_config(), seed=0), None, 0)

    def no_inference(*args, **kwargs):
        raise AssertionError("inferred before every scale was checked")

    monkeypatch.setattr(PSPNet, "forward_infer", no_inference)
    return ["--config", str(cfg), "--checkpoint", str(tmp_path / "m.pspc"),
            "--out", str(tmp_path / "out")]


def test_a_scale_below_the_largest_bin_exits_one_before_any_inference(tmp_path, capsys,
                                                                      monkeypatch):
    # 0.125 x 128 px clears min_scale_size 16, but its 2x2 stride-8 map cannot
    # be pooled into the default pyramid's 6x6 bin.
    common = _scale_check_run(tmp_path, monkeypatch, "min_scale_size = 16\n", 128)
    for argv in (["eval", "--scales", "1.0,0.125"],
                 ["predict", "--scales", "1.0,0.125",
                  str(tmp_path / "ds" / "images" / "0000.ppm")]):
        assert main([*argv, *common]) == 1
        err = capsys.readouterr().err
        for key in ("128x128", "scale 0.125", "psp_bins", "largest bin 6"):
            assert key in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config_text, flags, scale", [
    ("scales = 0, 1.0\n", [], "scale 0.0"),
    ("", ["--scales=-1.0,1.0"], "scale -1.0"),
], ids=["config", "flag"])
def test_a_non_positive_scale_exits_one_before_any_inference(tmp_path, capsys, monkeypatch,
                                                             config_text, flags, scale):
    # Without the pyramid and with min_scale_size 8, nothing else rejects the
    # 8x8 image that a scale of 0 or below rounds to.
    common = _scale_check_run(
        tmp_path, monkeypatch, f"psp_enabled = false\nmin_scale_size = 8\n{config_text}", 64)
    assert main(["eval", *flags, *common]) == 1
    err = capsys.readouterr().err
    assert scale in err and "not positive" in err, err
    assert not (tmp_path / "out").exists()


def test_non_finite_loss_exits_one_without_final_checkpoint(ds_dir, tmp_path, capsys):
    cfg = _train_cfg(tmp_path, ds_dir)
    run = tmp_path / "run"
    run.mkdir()
    model_cfg = load_config(str(cfg)).to_model_config()
    model = build_model(model_cfg, seed=0)
    next(p for _, p in model.named_parameters()).data[...] = np.nan
    bad = run / "nan.pspc"
    # save refuses non-finite state, so write the checkpoint bytes directly
    with open(bad, "wb") as f:
        ckpt._serialize_into(f, ckpt._state_entries(model, None), 0,
                             ckpt.config_hash(model_cfg))
    rc = main(["train", "--config", str(cfg), "--max-iter", "2",
               "--checkpoint", str(bad), "--out", str(run)])
    assert rc == 1
    assert "error: non-finite loss at iteration 0" in capsys.readouterr().err
    assert not (run / "final.pspc").exists()


def test_error_paths_exit_one(tmp_path, capsys):
    assert main(["eval", "--out", str(tmp_path)]) == 1
    assert "error: eval needs --checkpoint" in capsys.readouterr().err
    assert main(["train", "--out", str(tmp_path)]) == 1
    assert "error: train needs data_dir" in capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("definitely_not_a_key = 1\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_ablate_smoke(tmp_path, capsys):
    cfg = tmp_path / "ablate.cfg"
    cfg.write_text(
        "ablate_iters = 2\n"
        "ablate_seeds = 1\n"
        "ablate_train_n = 4\n"
        "ablate_test_n = 2\n"
        "batch_size = 2\n"
    )
    rc = main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pooling variants" in out
    assert "aux weight sweep" in out
    variants = (tmp_path / "ab" / "ablation_variants.csv").read_text()
    lines = variants.strip().splitlines()
    assert lines[0] == "variant,seed,mean_iou,pixel_acc,final_loss,loss_at_10"
    assert len(lines) == 1 + 9  # baseline plus the 2x2x2 grid, one seed each
    names = {line.split(",")[0] for line in lines[1:]}
    assert "baseline" in names
    assert "B1236+AVE+DR" in names
    assert "B1+MAX" in names
    alpha = (tmp_path / "ab" / "ablation_alpha.csv").read_text()
    alpha_names = [line.split(",")[0] for line in alpha.strip().splitlines()[1:]]
    assert alpha_names == ["alpha=0", "alpha=0.3", "alpha=0.4", "alpha=0.6", "alpha=0.9"]


def test_ablate_trains_each_distinct_cell_once(tmp_path, capsys, monkeypatch):
    import pyrseg.ablate as ablate_mod
    from pyrseg.synth import synth_generate

    cfg = tmp_path / "ablate.cfg"
    cfg.write_text("ablate_iters = 2\nablate_seeds = 1\nablate_train_n = 4\n"
                   "ablate_test_n = 2\nbatch_size = 2\n")
    calls = []
    real = ablate_mod.train_and_eval

    def counting(name, *args, **kwargs):
        calls.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(ablate_mod, "train_and_eval", counting)
    out = tmp_path / "ab"
    assert main(["ablate", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    printed = [line.split()[1] for line in capsys.readouterr().out.splitlines()
               if line.startswith("run variant=")]
    assert len(calls) == 13
    assert "alpha=0.4" not in calls  # the same config and seed as B1236+AVE+DR
    variants = (out / "ablation_variants.csv").read_text()
    alpha = (out / "ablation_alpha.csv").read_text()
    rows = variants.splitlines()[1:] + alpha.splitlines()[1:]
    assert len(rows) == 14
    assert printed == [f"variant={row.split(',')[0]}" for row in rows]
    by_name = {row.split(",")[0]: row.split(",")[1:] for row in rows}
    assert by_name["alpha=0.4"] == by_name["B1236+AVE+DR"]

    # byte-equal to the two grids run one after the other
    monkeypatch.setattr(ablate_mod, "train_and_eval", real)
    rc = load_config(str(cfg), {"seed": 3})
    corpus = synth_generate(ablate_mod.context_dataset_config(3), 6)
    args = (rc.to_model_config(), corpus[:4], corpus[4:],
            rc.to_optim_config(max_iter=2), rc.to_augment_config())
    assert variants == ablate_mod.format_csv(
        ablate_mod.run_variant_grid(*args, seeds=(3,), batch_size=2))
    assert alpha == ablate_mod.format_csv(
        ablate_mod.run_alpha_sweep(*args, seeds=(3,), batch_size=2))


def test_console_help_via_subprocess():
    proc = subprocess.run([sys.executable, "-m", "pyrseg.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("train", "eval", "predict", "ablate", "gradcheck", "synth"):
        assert sub in proc.stdout


def test_log_every_zero_exits_one_without_traceback(ds_dir, tmp_path):
    cfg = _train_cfg(tmp_path, ds_dir)
    cfg.write_text(cfg.read_text() + "log_every = 0\n")
    run = tmp_path / "run"
    proc = subprocess.run([sys.executable, "-m", "pyrseg.cli", "train", "--config", str(cfg),
                           "--max-iter", "1", "--out", str(run)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: config key log_every must be >= 1, got 0\n"
    assert proc.stdout == ""
    assert not run.exists()


def test_readme_quickstart_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Quickstart\n+```sh\n(.*?)```", readme, re.S).group(1)
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("pyrseg ")]
    assert [c[0] for c in commands] == ["synth", "train", "eval", "predict"]
    for argv in commands:
        build_parser().parse_args(argv)


# Every flag the parser knows, with a value it accepts.
_FLAG_ARGS = {"--config": ["run.cfg"], "--seed": ["1"], "--out": ["out"],
              "--max-iter": ["3"], "--checkpoint": ["c.pspc"], "--scales": ["1.0"],
              "--allow-prune": [], "--force": []}
_CONFIG_FLAGS = {"--config", "--seed", "--out"}
_COMMAND_FLAGS = {
    "train": _CONFIG_FLAGS | {"--max-iter", "--checkpoint"},
    "eval": _CONFIG_FLAGS | {"--checkpoint", "--scales"},
    "predict": _CONFIG_FLAGS | {"--checkpoint", "--scales"},
    "ablate": _CONFIG_FLAGS,
    "gradcheck": set(),
    "synth": _CONFIG_FLAGS | {"--force"},
}


@pytest.mark.parametrize("command,flag", [(c, f) for c in _COMMAND_FLAGS for f in _FLAG_ARGS])
def test_each_command_accepts_only_the_flags_it_reads(command, flag):
    argv = [command, flag, *_FLAG_ARGS[flag]] + (["img.ppm"] if command == "predict" else [])
    if flag in _COMMAND_FLAGS[command]:
        build_parser().parse_args(argv)
    else:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


def test_benchmark_command_lines_parse():
    # Each `bench.cli([...])` list in perfbench/workloads.py, with every
    # computed element (a path or a seed) stood in for by "1".
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
    argvs = [[e.value if isinstance(e, ast.Constant) else "1" for e in call.args[0].elts]
             for call in ast.walk(ast.parse(source))
             if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
             and call.func.attr == "cli" and isinstance(call.args[0], ast.List)]
    assert sorted({a[0] for a in argvs}) == ["ablate", "eval", "train"]
    for argv in argvs:
        build_parser().parse_args(argv)


def test_benchmark_config_keys_are_run_config_fields():
    # Every keyword of a `write_cfg(...)` or `dict(...)` call in
    # perfbench/workloads.py becomes a config-file key.
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
    keys = {kw.arg for call in ast.walk(ast.parse(source))
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id in ("write_cfg", "dict")
            for kw in call.keywords if kw.arg is not None}
    assert {"workers", "resume", "ablate_iters"} <= keys
    assert keys <= {f.name for f in dataclasses.fields(RunConfig)}


def test_benchmark_tracer_fits_the_package():
    # perfbench/tracer.py times the package by swapping its attributes; a
    # renamed attribute or a forward that bypasses one loses that span.
    from pyrseg import training
    from pyrseg.backbone import BackboneConfig
    from pyrseg.model import ModelConfig
    from pyrseg.optim import SGD, OptimConfig
    from pyrseg.pyramid import PyramidConfig
    from pyrseg.tensor import Graph, Tensor

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    cfg = ModelConfig(backbone=BackboneConfig(stage_blocks=(1, 1, 1, 1), base_channels=8),
                      pyramid=PyramidConfig(bin_sizes=(1, 2)), num_classes=3, head_channels=8)
    model = build_model(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(size=(2, 3, 16, 16)).astype(np.float32))
    labels = rng.integers(0, cfg.num_classes, size=(2, 16, 16))
    with tracer.Tracer().installed() as t:
        with Graph():
            total, _, _ = model.forward_train(x, labels)
            training.backward(total)
        SGD(model, OptimConfig(max_iter=1)).step(0.01)
        model.forward_infer(x)
    spans = set(t.name)
    assert {"model.forward", "model.infer", "model.backbone", "model.pyramid", "model.head",
            "tensor.backward", "optim.step"} <= spans
    assert {f"ops.{op}.{half}" for op in ("conv2d", "batch_norm", "add", "mul")
            for half in ("fwd", "bwd")} <= spans


def test_readme_cli_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.search(r"## CLI\n+\| command \| flags \| purpose \|\n\|[- |]+\|\n(.*?)\n\n",
                      readme, re.S).group(1)
    documented = {}
    for row in table.splitlines():
        command, flags = row.split("|")[1:3]
        documented[command.strip(" `").split()[0]] = set(re.findall(r"--[\w-]+", flags))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
              for name, p in sub.choices.items()}
    assert documented == parsed
