"""tools/pipeline_digest.py: the fixed-seed pipeline gives the same bits twice."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _digest(work: Path) -> list[str]:
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "pipeline_digest.py"),
                           "--checkout", str(ROOT), "--work", str(work)],
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def test_pipeline_digest_repeats_in_one_tree(tmp_path):
    first = _digest(tmp_path / "a")
    second = _digest(tmp_path / "b")
    assert first == second
    files = sorted(p.relative_to(tmp_path / "a").as_posix()
                   for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert [re.fullmatch(r"sha256 (\S+) = [0-9a-f]{64}", line).group(1)
            for line in first] == files
    for output in ("train/iter000002.pspc", "resume/final.pspc", "train_r50/final.pspc",
                   "eval3/metrics.csv", "predict100/0000_labels.pgm",
                   "predict64/0000_labels.pgm", "ablate/ablation_alpha.csv", "logs/train.txt"):
        assert output in files
    # the resumed run ends on the straight run's bits
    digest = dict(line.split()[1::2] for line in first)
    assert digest["resume/final.pspc"] == digest["train/final.pspc"]
