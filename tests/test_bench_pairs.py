"""tools/bench_pairs.py's statistics on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# ablate-grid setup_s, parent side of BENCH_ablate-share.json (q1 0.0749, q3 0.1072)
PARENT = [0.1276, 0.1144, 0.0857, 0.0759, 0.089, 0.0746, 0.074, 0.069, 0.112, 0.0927]


def test_quartiles_are_inclusive_and_keep_the_runs():
    q = bench_pairs.quartiles(PARENT)
    assert q["q1"] == pytest.approx(0.074925)
    assert q["median"] == pytest.approx(0.08735)
    assert q["q3"] == pytest.approx(0.107175)
    assert q["runs"] == PARENT
    assert bench_pairs.quartiles([3.0]) == {"q1": 3.0, "median": 3.0, "q3": 3.0, "runs": [3.0]}


def test_claim_needs_nine_of_ten_pairs_and_medians_apart_by_more_than_the_iqr():
    far = [x - 0.05 for x in PARENT]  # every pair won, medians 0.05 apart > iqr 0.0323
    r = bench_pairs.compare(PARENT, far, "lower", 0.25)
    assert r["change_better"] == 10 and r["claim_resolves"]
    assert r["median_change_pct"] == pytest.approx(-100 * 0.05 / 0.08735)
    near = [x - 0.01 for x in PARENT]  # every pair won, but 0.01 < iqr
    assert not bench_pairs.compare(PARENT, near, "lower", 0.25)["claim_resolves"]
    eight = far[:8] + PARENT[8:]  # 8 of 10 pairs won (the last two tie)
    r = bench_pairs.compare(PARENT, eight, "lower", 0.25)
    assert r["change_better"] == 8 and not r["claim_resolves"]
    few = bench_pairs.compare(PARENT[:3], far[:3], "lower", 0.25)  # 3 of 3 won, too few pairs
    assert few["change_better"] == 3 and not few["claim_resolves"]
    # "higher is better" flips the sign of a win
    r = bench_pairs.compare(PARENT, [x + 0.05 for x in PARENT], "higher", 0.25)
    assert r["change_better"] == 10 and r["claim_resolves"]


def test_bound_verdict_ok_no_and_unresolved():
    tight = [10.0, 10.1, 10.2, 10.3]  # iqr 0.15, well inside a 0.25 bound
    assert bench_pairs.compare(tight, [x * 1.2 for x in tight], "lower", 0.25)[
        "within_bound"] == "ok"
    assert bench_pairs.compare(tight, [x * 1.3 for x in tight], "lower", 0.25)[
        "within_bound"] == "NO"
    wide = [5.0, 8.0, 12.0, 15.0]  # iqr 4.5 is wider than 0.25 x median 10
    assert bench_pairs.compare(wide, [x * 1.1 for x in wide], "lower", 0.25)[
        "within_bound"] == "unresolved"
    # within the bound, and every change run beats every parent run
    assert bench_pairs.compare(wide, [4.0, 4.1, 4.2, 4.3], "lower", 0.25)[
        "within_bound"] == "ok"
