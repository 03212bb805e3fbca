"""Ablation harness plumbing at a seconds-scale budget."""

from dataclasses import replace

from pyrseg.ablate import (
    ALPHA_SWEEP,
    context_dataset_config,
    format_csv,
    format_table,
    run_alpha_sweep,
    run_cells,
    run_variant_grid,
    summarize,
    train_and_eval,
    variant_config,
)
from pyrseg.backbone import BackboneConfig
from pyrseg.data import AugmentConfig
from pyrseg.model import ModelConfig
from pyrseg.optim import OptimConfig
from pyrseg.pyramid import AblationVariant, PyramidConfig
from pyrseg.synth import SynthConfig, synth_generate


def _base_cfg():
    return ModelConfig(
        backbone=BackboneConfig(stage_blocks=(1, 1, 1, 1), base_channels=8,
                                dilation_plan=(1, 1, 1, 1)),
        pyramid=PyramidConfig(bin_sizes=(1, 2), pool_mode="average", dim_reduce=True),
        num_classes=4,
        aux_weight=0.4,
        head_channels=8,
    )


def _tiny_setup():
    corpus = synth_generate(SynthConfig(canvas=64, object_count_range=(2, 4)), 8)
    aug = AugmentConfig(crop_size=16, resize_range=(0.75, 1.25),
                        rotation_deg=5.0, blur_prob=0.25)
    return corpus[:6], corpus[6:], OptimConfig(max_iter=4), aug


def test_train_and_eval_row_fields():
    train, test, ocfg, aug = _tiny_setup()
    row = train_and_eval("probe", _base_cfg(), train, test, ocfg, aug,
                         seed=0, batch_size=2)
    assert row.name == "probe"
    assert row.seed == 0
    assert 0.0 <= row.mean_iou <= 1.0
    assert 0.0 <= row.pixel_acc <= 1.0
    assert row.final_loss > 0.0
    # 4-iteration run: the 10-iteration probe clamps to the last entry
    assert row.loss_at_10 == row.final_loss


def test_variant_config_swaps_only_the_pyramid():
    base = _base_cfg()
    out = variant_config(base, AblationVariant("baseline", None))
    assert out.pyramid is None
    assert out.backbone == base.backbone
    assert out.aux_weight == base.aux_weight
    keep = variant_config(base, AblationVariant("x", PyramidConfig((1, 3), "max", False)))
    assert keep.pyramid.bin_sizes == (1, 3)


def test_run_variant_grid_rows_and_progress():
    train, test, ocfg, aug = _tiny_setup()
    variants = [AblationVariant("baseline", None),
                AblationVariant("B1+AVE+DR", PyramidConfig((1,), "average", True))]
    seen = []
    rows = run_variant_grid(_base_cfg(), train, test, ocfg, aug,
                            seeds=(0, 1), batch_size=2, variants=variants,
                            progress=seen.append)
    assert [(r.name, r.seed) for r in rows] == [
        ("baseline", 0), ("baseline", 1), ("B1+AVE+DR", 0), ("B1+AVE+DR", 1)]
    assert seen == rows
    # shared batches and seed-outermost order change no field of any row
    alone = [train_and_eval(v.name, variant_config(_base_cfg(), v), train, test,
                            ocfg, aug, seed=seed, batch_size=2)
             for v in variants for seed in (0, 1)]
    assert rows == alone


def test_run_cells_trains_a_repeated_cell_once(monkeypatch):
    import pyrseg.ablate as ablate_mod

    train, test, ocfg, aug = _tiny_setup()
    base = _base_cfg()
    calls = []
    real = ablate_mod.train_and_eval

    def counting(name, cfg, *args, **kwargs):
        calls.append((name, kwargs["seed"]))
        return real(name, cfg, *args, **kwargs)

    monkeypatch.setattr(ablate_mod, "train_and_eval", counting)
    cells = [("a", base), ("bare", replace(base, aux_weight=0.0)), ("a-again", base)]
    seen = []
    rows = run_cells(cells, train, test, ocfg, aug, seeds=(0, 1), batch_size=2,
                     progress=seen.append)
    assert calls == [("a", 0), ("bare", 0), ("a", 1), ("bare", 1)]
    assert [(r.name, r.seed) for r in rows] == [
        ("a", 0), ("a", 1), ("bare", 0), ("bare", 1), ("a-again", 0), ("a-again", 1)]
    assert seen == rows
    assert rows[4] == replace(rows[0], name="a-again")
    assert rows[5] == replace(rows[1], name="a-again")


def test_run_alpha_sweep_names_and_zero_alpha():
    train, test, ocfg, aug = _tiny_setup()
    rows = run_alpha_sweep(_base_cfg(), train, test, ocfg, aug,
                           seeds=(0,), batch_size=2, alphas=(0.0, 0.4))
    assert [r.name for r in rows] == ["alpha=0", "alpha=0.4"]
    assert ALPHA_SWEEP == (0.0, 0.3, 0.4, 0.6, 0.9)


def test_summarize_groups_in_input_order():
    from pyrseg.ablate import AblationRow

    rows = [
        AblationRow("b", 0, 0.5, 0.6, 1.0, 2.0),
        AblationRow("a", 0, 0.3, 0.4, 1.0, 2.0),
        AblationRow("b", 1, 0.7, 0.8, 1.0, 2.0),
    ]
    summary = summarize(rows)
    assert [s[0] for s in summary] == ["b", "a"]
    name, im, istd, am, astd = summary[0]
    assert im == 0.6
    assert abs(istd - 0.1) < 1e-12
    assert am == 0.7


def test_format_table_and_csv():
    from pyrseg.ablate import AblationRow

    rows = [AblationRow("B1236+AVE+DR", 0, 0.71234, 0.81234, 0.5, 1.5),
            AblationRow("B1236+AVE+DR", 1, 0.69, 0.79, 0.4, 1.4)]
    table = format_table(rows, "pooling variants")
    assert table.startswith("pooling variants\n")
    assert "B1236+AVE+DR" in table
    assert "+/-" in table
    csv = format_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == "variant,seed,mean_iou,pixel_acc,final_loss,loss_at_10"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "B1236+AVE+DR"
    assert float(first[2]) == 0.71234


def test_context_dataset_config_shape():
    cfg = context_dataset_config(9)
    assert cfg.canvas == 128
    assert cfg.seed == 9
    # crops have to be able to miss the band: band + objects stay renderable
    assert cfg.object_radius_range[1] * 2 < cfg.canvas
    samples = synth_generate(cfg, 2)
    assert samples[0].image.shape == (3, 128, 128)
