"""Config parsing, overrides, formatting, and AugmentConfig validation."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from pyrseg.config import RunConfig, format_config, load_config, parse_config_text
from pyrseg.data import AugmentConfig, _pad_to


def test_defaults_expose_toy_preset():
    cfg = RunConfig()
    assert cfg.preset == "toy"
    assert cfg.psp_bins == (1, 2, 3, 6)
    assert cfg.aux_weight == 0.4
    assert cfg.base_lr == 0.01
    assert cfg.crop_size == 64
    assert cfg.momentum == 0.9
    assert cfg.weight_decay == 0.0001
    assert cfg.power == 0.9


def test_parse_types_and_comments():
    cfg = parse_config_text(
        """
        # training budget
        max_iter = 50          # inline comment
        base_lr = 0.025
        preset = resnet50-layout
        psp_bins = 1,3,6
        psp_enabled = false
        mirror_prob = 0.25
        """
    )
    assert cfg.max_iter == 50 and isinstance(cfg.max_iter, int)
    assert cfg.base_lr == 0.025
    assert cfg.preset == "resnet50-layout"
    assert cfg.psp_bins == (1, 3, 6)
    assert cfg.psp_enabled is False
    assert cfg.mirror_prob == 0.25


def test_parse_bool_forms():
    assert parse_config_text("psp_enabled = true").psp_enabled is True
    assert parse_config_text("psp_enabled = 1").psp_enabled is True
    assert parse_config_text("psp_enabled = no").psp_enabled is False
    with pytest.raises(ValueError, match="boolean"):
        parse_config_text("psp_enabled = maybe")


def test_tuple_values_accept_commas_or_spaces():
    assert parse_config_text("scales = 0.5,1.0,1.5").scales == (0.5, 1.0, 1.5)
    assert parse_config_text("psp_bins = 1 2 3").psp_bins == (1, 2, 3)
    with pytest.raises(ValueError, match="list"):
        parse_config_text("psp_bins = ,")


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ValueError) as e:
        parse_config_text("max_iter = 5\nnot_a_key = 3\n")
    assert "not_a_key" in str(e.value)
    assert "line 2" in str(e.value)


def test_malformed_line_rejected():
    with pytest.raises(ValueError, match="line 1"):
        parse_config_text("just words no equals")


def test_base_config_is_not_mutated():
    base = RunConfig()
    out = parse_config_text("max_iter = 9", base)
    assert out.max_iter == 9
    assert base.max_iter == RunConfig().max_iter


def test_load_config_overrides_win_over_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("max_iter = 50\nbase_lr = 0.5\n")
    cfg = load_config(str(p), {"max_iter": 99, "seed": 3})
    assert cfg.max_iter == 99
    assert cfg.base_lr == 0.5
    assert cfg.seed == 3


def test_load_config_rejects_unknown_override():
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(None, {"not_a_key": 1})


def test_format_config_lists_every_field_once():
    cfg = RunConfig(max_iter=77, psp_bins=(2, 4))
    lines = format_config(cfg).splitlines()
    assert len(lines) == len(dataclasses.fields(RunConfig))
    assert all(line.startswith("config ") for line in lines)
    assert "config max_iter=77" in lines
    assert "config psp_bins=2,4" in lines


def test_readme_config_table_names_every_field_once():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.search(r"## Config files\n.*?\| group \| keys \|\n\|[- |]+\|\n(.*?)\n\n",
                      readme, re.S).group(1)
    documented = []
    for row in table.splitlines():
        # `a_min`/`max` is shorthand for `a_min`/`a_max`
        for key, alt in re.findall(r"`(\w+)`(?:/`(\w+)`)?", row.split("|")[2]):
            documented.append(key)
            if alt:
                documented.append(alt if "_" in alt else key.rsplit("_", 1)[0] + "_" + alt)
    assert sorted(documented) == sorted(f.name for f in dataclasses.fields(RunConfig))


def test_bad_value_type_rejected():
    with pytest.raises(ValueError):
        parse_config_text("max_iter = soon")


def test_augment_config_validation():
    with pytest.raises(ValueError, match="divisible by 8"):
        AugmentConfig(crop_size=30)
    for crop in (0, -8):
        with pytest.raises(ValueError, match="crop_size"):
            AugmentConfig(crop_size=crop)
    with pytest.raises(ValueError, match="ordered"):
        AugmentConfig(resize_range=(2.0, 0.5))
    with pytest.raises(ValueError, match="positive"):
        AugmentConfig(resize_range=(0.0, 1.0))
    for sigmas in ((0.0, 0.0), (-0.5, 1.0), (1.0, 0.5)):
        with pytest.raises(ValueError, match="blur_sigma_range"):
            AugmentConfig(blur_sigma_range=sigmas)
    for field in ("mirror_prob", "blur_prob"):
        for p in (-0.1, 1.5):
            with pytest.raises(ValueError, match=field):
                AugmentConfig(**{field: p})
    AugmentConfig(crop_size=8, blur_sigma_range=(0.5, 0.5), mirror_prob=0.0, blur_prob=1.0)
    cfg = AugmentConfig(pad_value_image=0.25, crop_size=16)
    img = np.zeros((3, 8, 8), dtype=np.float32)
    padded, _ = _pad_to(img, np.zeros((8, 8), dtype=np.uint8), 16, cfg)
    assert padded.dtype == np.float32
    assert (padded[:, 8:, :] == np.float32(0.25)).all()  # every channel
    assert (padded[:, :, 8:] == np.float32(0.25)).all()


def test_to_synth_config_carries_fields():
    cfg = RunConfig(synth_canvas=64, synth_noise=0.1, seed=5)
    s = cfg.to_synth_config()
    assert s.canvas == 64
    assert s.noise_sigma == 0.1
    assert s.seed == 5
    assert s.object_radius_range == (6, 12)
    assert dataclasses.replace(cfg, seed=11).to_synth_config().seed == 11


def test_to_model_config_head_default_tracks_preset():
    assert RunConfig(preset="toy").to_model_config().head_channels == 32
    assert RunConfig(preset="resnet50-layout").to_model_config().head_channels == 512
    assert RunConfig(head_channels=64).to_model_config().head_channels == 64
    off = RunConfig(psp_enabled=False).to_model_config()
    assert off.pyramid is None


def test_to_optim_config_max_iter_override():
    cfg = RunConfig(max_iter=500)
    assert cfg.to_optim_config().max_iter == 500
    assert cfg.to_optim_config(max_iter=120).max_iter == 120


@pytest.mark.parametrize("key,bad", [
    ("log_every", 0), ("ckpt_every", -1), ("workers", 0), ("batch_size", 0),
    ("ablate_iters", 0), ("ablate_seeds", 0), ("ablate_train_n", 0), ("ablate_test_n", 0),
    ("synth_n", 0), ("synth_count_min", -1), ("synth_radius_min", 0), ("synth_noise", -1),
])
def test_load_config_rejects_run_control_below_minimum(tmp_path, key, bad):
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {bad}\n")
    with pytest.raises(ValueError, match=f"config key {key} must be >= {bad + 1}"):
        load_config(str(path))
    with pytest.raises(ValueError, match=f"config key {key}"):
        load_config(None, {key: bad})
    assert getattr(load_config(None, {key: bad + 1}), key) == bad + 1
