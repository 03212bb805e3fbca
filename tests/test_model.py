"""Model assembly: loss wiring, aux-branch semantics, init determinism."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from reference import he_init_naive

from pyrseg import layers
from pyrseg.backbone import BackboneConfig
from pyrseg.config import RunConfig
from pyrseg.model import ModelConfig, PSPNet, build_model
from pyrseg.pyramid import PyramidConfig
from pyrseg.tensor import Graph, Tensor, backward


def _tiny(pyramid=True, **overrides):
    return ModelConfig(
        backbone=BackboneConfig(stage_blocks=(1, 1, 1, 1), base_channels=8,
                                dilation_plan=(1, 1, 1, 1)),
        pyramid=PyramidConfig(bin_sizes=(1, 2)) if pyramid else None,
        num_classes=3,
        head_channels=8,
        **overrides,
    )


def _batch(rng, n=2, size=16, k=3):
    x = rng.uniform(size=(n, 3, size, size)).astype(np.float32)
    labels = rng.integers(0, k, size=(n, size, size)).astype(np.int64)
    return x, labels


def test_forward_train_losses_and_weighting():
    rng = np.random.default_rng(0)
    model = build_model(_tiny(aux_weight=0.4), seed=0).train(False)
    x, labels = _batch(rng)
    with Graph():
        total, main, aux = model.forward_train(Tensor(x), labels)
    assert all(m.training for _, m in model.named_modules())  # train flips back on
    assert total.shape == () and main.shape == () and aux.shape == ()
    assert abs(float(total.data) - (float(main.data) + 0.4 * float(aux.data))) < 1e-6
    assert float(main.data) > 0 and float(aux.data) > 0


def test_forward_train_without_aux():
    rng = np.random.default_rng(1)
    model = build_model(_tiny(aux_weight=0.0), seed=0)
    x, labels = _batch(rng)
    with Graph():
        total, main, aux = model.forward_train(Tensor(x), labels)
    assert float(aux.data) == 0.0
    assert float(total.data) == float(main.data)
    assert model.aux is None


def test_both_losses_reach_shared_backbone():
    rng = np.random.default_rng(2)
    model = build_model(_tiny(), seed=0)
    x, labels = _batch(rng)

    def stem_grad(aux_scale):
        for _, p in model.named_parameters():
            p.grad = None
        with Graph():
            total, main, aux = model.forward_train(Tensor(x), labels)
            backward(main if aux_scale == 0 else total)
        return dict(model.named_parameters())["backbone/stem_conv/weight"].grad.copy()

    g_main_only = stem_grad(0)
    g_total = stem_grad(1)
    assert not np.allclose(g_main_only, g_total)  # aux contributes to the trunk


def test_forward_infer_prediction_contract():
    rng = np.random.default_rng(3)
    model = build_model(_tiny(), seed=0)
    x, _ = _batch(rng)
    logits = model.forward_infer(Tensor(x))
    assert isinstance(logits, np.ndarray)
    assert logits.shape == (2, 3, 16, 16)  # upsampled back to the input extent
    assert logits.dtype == np.float32
    assert not model.training  # infer flips to eval mode


def test_infer_ignores_aux_branch():
    # Same seed, aux on vs off: inference logits must agree bitwise because
    # per-parameter init is keyed by name, and the aux head is never run.
    rng = np.random.default_rng(4)
    x, _ = _batch(rng)
    with_aux = build_model(_tiny(aux_weight=0.4), seed=7)
    without = build_model(_tiny(aux_weight=0.0), seed=7)
    a = with_aux.forward_infer(Tensor(x))
    b = without.forward_infer(Tensor(x))
    assert np.array_equal(a, b)


def test_init_deterministic_and_name_keyed():
    m1 = build_model(_tiny(), seed=5)
    m2 = build_model(_tiny(), seed=5)
    for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)
    m3 = build_model(_tiny(), seed=6)
    diffs = sum(
        not np.array_equal(p1.data, p3.data)
        for (_, p1), (_, p3) in zip(m1.named_parameters(), m3.named_parameters())
        if p1.data.std() > 0  # conv weights; BN gamma/beta are constant-initialized
    )
    assert diffs > 0


def _build_on_cores(monkeypatch, preset, cores, seed):
    """build_model with the init pool sized for `cores` cores; returns the
    model and the set of threads that drew a weight."""
    threads = set()
    name_rng = layers._name_rng

    def recorded(*args):
        threads.add(threading.get_ident())
        return name_rng(*args)

    monkeypatch.setattr(layers, "_cores", lambda: cores)
    monkeypatch.setattr(layers, "_name_rng", recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost job would show
    try:
        return build_model(RunConfig(preset=preset).to_model_config(), seed=seed), threads
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cores", [1, 3])
@pytest.mark.parametrize("preset", ["toy", "resnet50-layout"])
def test_conv_weights_equal_the_he_init_oracle_for_any_core_count(monkeypatch, preset, cores):
    model, threads = _build_on_cores(monkeypatch, preset, cores, seed=7)
    if preset == "toy" or cores == 1:
        assert threads == {threading.get_ident()}  # toy is too small to pay for a thread
    else:
        assert 2 <= len(threads) <= cores
    convs = [(name, p.data) for name, p in model.named_parameters() if p.data.ndim == 4]
    assert len(convs) == {"toy": 37, "resnet50-layout": 60}[preset]
    for name, w in convs:
        assert name.endswith("/weight"), name
        expected = he_init_naive(w.shape, 7, name)
        assert w.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("cores", [1, 3])
@pytest.mark.parametrize("preset", ["toy", "resnet50-layout"])
def test_init_leaves_everything_but_conv_weights_at_constructor_values(monkeypatch, preset,
                                                                        cores):
    model, _ = _build_on_cores(monkeypatch, preset, cores, seed=7)
    constant = {"gamma": 1.0, "beta": 0.0, "bias": 0.0, "running_mean": 0.0, "running_var": 1.0}
    tensors = [(n, p.data) for n, p in model.named_parameters() if not n.endswith("/weight")]
    tensors += list(model.named_buffers())
    assert {n.rsplit("/", 1)[1] for n, _ in tensors} == set(constant)
    for name, value in tensors:
        assert value.dtype == np.float32
        assert np.array_equal(value, np.full_like(value, constant[name.rsplit("/", 1)[1]])), name


def test_aux_parameters_live_under_aux_prefix():
    model = build_model(_tiny(), seed=0)
    names = [n for n, _ in model.named_parameters()]
    aux_names = [n for n in names if n.startswith("aux/")]
    assert aux_names  # present when enabled
    plain = build_model(_tiny(aux_weight=0.0), seed=0)
    assert all(not n.startswith("aux/") for n, _ in plain.named_parameters())
    # trunk namespaces identical either way
    trunk = [n for n in names if not n.startswith("aux/")]
    assert trunk == [n for n, _ in plain.named_parameters()]


def test_a_bundle_field_is_the_registered_and_saved_value(tmp_path):
    # The op bundle is the one store: a field assigned on it is what
    # named_parameters()/named_buffers() yield and what a checkpoint keeps.
    from pyrseg import checkpoint

    cfg = _tiny()
    model = build_model(cfg, seed=0)
    conv, bn = model.head.conv1, model.head.bn
    weight = Tensor(np.full(conv.weight.shape, 0.5, np.float32), requires_grad=True)
    mean = np.full(bn.running_mean.shape, 0.25, np.float32)
    conv.weight, bn.running_mean = weight, mean
    assert dict(model.named_parameters())["head/conv1/weight"] is weight
    assert dict(model.named_buffers())["head/bn/running_mean"] is mean
    checkpoint.save(str(tmp_path / "m.pspc"), model, None, 0)
    loaded, _, _ = checkpoint.load(str(tmp_path / "m.pspc"), cfg)
    saved = dict(loaded.named_parameters())["head/conv1/weight"].data
    assert saved.tobytes() == weight.data.tobytes()
    assert dict(loaded.named_buffers())["head/bn/running_mean"].tobytes() == mean.tobytes()


def test_a_dropped_or_replaced_child_is_gone_from_every_registry(tmp_path):
    # A module's attributes are its children: dropping one removes its
    # entries from named_parameters(), SGD and the checkpoint, and a bundle
    # assigned in place of another is what the forward reads and SGD steps.
    from pyrseg import checkpoint
    from pyrseg.optim import SGD, OptimConfig

    cfg = _tiny()
    model = build_model(cfg, seed=0)
    model.aux = None
    assert not [n for n, _ in model.named_parameters() if n.startswith("aux/")]
    assert not [n for n, _ in model.named_buffers() if n.startswith("aux/")]
    sgd = SGD(model, OptimConfig())
    assert not [n for n in sgd.velocity if n.startswith("aux/")]
    path = str(tmp_path / "m.pspc")
    checkpoint.save(path, model, sgd.velocity, 0)
    checkpoint.load(path, replace(cfg, aux_weight=0.0))  # exact census: no aux/ entry

    old = model.head.conv1
    new = layers.conv_params(old.weight.shape[1], old.weight.shape[0], 3, padding=1)
    new.weight.data[...] = old.weight.data * 0.5
    model.head.conv1 = new
    assert dict(model.named_parameters())["head/conv1/weight"] is new.weight
    x, labels = _batch(np.random.default_rng(5))
    with Graph():
        total, _, _ = model.forward_train(Tensor(x), labels)
        backward(total)
    assert old.weight.grad is None and new.weight.grad is not None
    before = old.weight.data.copy()
    sgd.step(0.01)
    assert np.array_equal(old.weight.data, before)
    assert not np.array_equal(new.weight.data, before * 0.5)
    assert sgd.velocity["head/conv1/weight"].any()


@pytest.mark.parametrize("preset", ["toy", "resnet50-layout"])
def test_no_module_holds_an_array_outside_its_bundle(preset):
    # An array a module holds outside a bundle is never named,
    # saved or updated by SGD.
    model = PSPNet(RunConfig(preset=preset).to_model_config())
    stray = [f"{name}.{attr}" for name, mod in model.named_modules()
             for attr, value in vars(mod).items() if isinstance(value, (Tensor, np.ndarray))]
    assert stray == []


def test_baseline_head_consumes_backbone_channels():
    model = PSPNet(_tiny(pyramid=False))
    assert model.psp is None
    assert model.head.conv1.weight.shape[1] == 64  # base 8 * 8


def test_num_classes_fit_uint8_labels_beside_the_ignore_label():
    assert ModelConfig(num_classes=255).num_classes == 255
    with pytest.raises(ValueError, match="255 is the ignore label"):
        ModelConfig(num_classes=256)


def test_config_validation():
    with pytest.raises(ValueError, match="aux_weight"):
        ModelConfig(aux_weight=1.5)
    with pytest.raises(ValueError, match="at least 2 classes"):
        ModelConfig(num_classes=1)
    with pytest.raises(ValueError, match="head_channels"):
        ModelConfig(head_channels=0)
    with pytest.raises(ValueError, match="head_channels"):
        RunConfig(head_channels=-1).to_model_config()


def test_toy_default_parameter_budget():
    model = build_model(RunConfig(preset="toy").to_model_config(), seed=0)
    assert model.count_parameters() <= 200_000


@pytest.mark.parametrize("preset", ["toy", "resnet50-layout"])
def test_module_count_parameters_counts_a_built_model(preset):
    model = build_model(RunConfig(preset=preset).to_model_config(), seed=0)
    expected = sum(p.size for _, p in model.named_parameters())
    assert model.count_parameters() == expected
