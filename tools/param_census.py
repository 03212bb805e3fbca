"""Hash of every parameter's and buffer's name, order and shape, to compare two trees.

    python3 tools/param_census.py [--checkout DIR]

Imports `pyrseg` from `<checkout>/src` (default: this file's checkout) and
builds, without initialising it, the model of each of 24 configs: the three
backbone presets, with the aux branch on and off, the pyramid on and off, and
its dim reduction on and off. For each it prints the entry count and the
sha256 of one `<kind> <name> <shape>` line per parameter (in
`named_parameters()` order) and per buffer (in `named_buffers()` order); the
last line hashes the per-config lines together. Two trees that print the same
lines name, order and shape their checkpoint entries the same way.
Standard library and pyrseg only.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from pathlib import Path


def census_lines() -> list[str]:
    from pyrseg.config import load_config
    from pyrseg.model import PSPNet

    lines, total = [], 0
    for preset, aux, psp, dr in itertools.product(
            ("toy", "resnet50-layout", "resnet101-layout"), (0.4, 0.0), (True, False),
            (True, False)):
        cfg = load_config(None, {"preset": preset, "aux_weight": aux, "psp_enabled": psp,
                                 "psp_dim_reduce": dr})
        model = PSPNet(cfg.to_model_config())
        entries = [f"param {n} {tuple(p.shape)}" for n, p in model.named_parameters()]
        entries += [f"buffer {n} {tuple(b.shape)}" for n, b in model.named_buffers()]
        total += len(entries)
        digest = hashlib.sha256("\n".join(entries).encode()).hexdigest()
        lines.append(f"{preset} aux={aux} psp={psp} dim_reduce={dr} "
                     f"entries={len(entries)} sha256={digest}")
    everything = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    lines.append(f"all configs={len(lines)} entries={total} sha256={everything}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1],
                        help="tree whose src/pyrseg builds the models")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    print("\n".join(census_lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
