"""The finite-difference suite is itself under test: it must pass on the real
ops and fail loudly when a backward pass lies."""

import numpy as np

from pyrseg import gradcheck
from pyrseg.config import RunConfig
from pyrseg.model import build_model
from pyrseg.tensor import Graph, Tensor, finite_diff_check, record_op


def test_full_suite_passes_at_tolerance():
    results = [gradcheck.run_case(name, builder, 3) for name, builder in gradcheck.CASES]
    bad = [r for r in results if not r.ok]
    assert not bad, gradcheck.format_report(bad)


def test_suite_name_filter():
    # Case names are unique, so a report line names exactly one case.
    names = [name for name, _ in gradcheck.CASES]
    assert len(set(names)) == len(names)
    results = [gradcheck.run_case(name, builder, 2) for name, builder in gradcheck.CASES[:2]]
    assert [r.name for r in results] == ["add", "scale"]


def test_report_format_lines():
    results = [gradcheck.run_case("relu", gradcheck.case_relu, 1)]
    report = gradcheck.format_report(results)
    assert "relu" in report
    assert "pass" in report
    assert "worst_rel_err=" in report


def test_detects_sabotaged_backward():
    """An op whose recorded gradient is 3x the truth must blow the tolerance."""

    def crooked_double(x: Tensor) -> Tensor:
        # forward computes 2x, backward claims d/dx = 6 instead of 2
        return record_op(x.data * 2.0, [x], lambda g: (g * 6.0,))

    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    err = finite_diff_check(crooked_double, [x], rng)
    assert err > 0.1


def test_detects_biased_forward():
    """A forward kink at the probe point shows up as a large difference error."""

    def stepped(x: Tensor) -> Tensor:
        return record_op(np.where(x.data > 0, x.data, 0.0), [x],
                         lambda g: (g,))  # pretends to be identity

    rng = np.random.default_rng(1)
    x = Tensor(-np.abs(rng.normal(size=(4, 4))) - 0.5, requires_grad=True)
    err = finite_diff_check(stepped, [x], rng)
    assert err > 0.1  # claimed gradient 1, true gradient 0


def test_run_case_tracks_worst_seed():
    result = gradcheck.run_case("add", gradcheck.case_add, 5)
    assert result.seeds == 5
    assert 0 <= result.worst_seed < 5
    assert result.ok


def test_micro_model_case_builds_distinct_tensors():
    rng = np.random.default_rng(7)
    f, xs = gradcheck.case_micro_model(rng)
    assert len(xs) == 6
    assert all(t.requires_grad for t in xs)
    # the objective is a scalar and differentiable at the probe point
    out = f(*xs)
    assert out.data.shape == ()
    assert np.isfinite(out.data)


def _taped_ops(graph: Graph) -> set[str]:
    # Each op's backward closure is defined inside the op function, so the
    # first part of its qualified name is the op's name.
    return {node.backward_fn.__qualname__.split(".")[0] for node in graph.nodes}


def test_engine_and_checker_cover_the_same_ops():
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(0.0, 1.0, size=(2, 3, 64, 64)).astype(np.float32))
    labels = rng.integers(0, 4, size=(2, 64, 64)).astype(np.int64)
    training_ops = set()
    for preset in ("toy", "resnet50-layout"):
        for aux_weight in (0.4, 0.0):
            for mode in ("average", "max"):
                cfg = RunConfig(preset=preset, aux_weight=aux_weight, psp_mode=mode)
                model = build_model(cfg.to_model_config(), seed=0)
                with Graph() as g:
                    model.forward_train(x, labels)
                training_ops |= _taped_ops(g)
    checker_ops = set()
    for _, builder in gradcheck.CASES:
        f, xs = builder(np.random.default_rng(0))
        with Graph() as g:
            f(*xs)
        checker_ops |= _taped_ops(g)
    unchecked = training_ops - checker_ops
    assert not unchecked, f"training ops without a gradcheck case: {unchecked}"
    untrained = checker_ops - training_ops
    assert not untrained, f"checked ops no training tape records: {untrained}"
