"""tools/param_census.py: the checkpoint namespace is pinned.

A change that renames, reorders or reshapes a parameter or buffer on purpose
updates PINNED and says so.
"""

import importlib.util
from pathlib import Path

_path = Path(__file__).resolve().parents[1] / "tools" / "param_census.py"
_spec = importlib.util.spec_from_file_location("param_census", _path)
param_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(param_census)

PINNED = ("all configs=24 entries=7732 "
          "sha256=9af828a81578f3dec715ecfe6d03e3ee6b29ba252b5257d5e75a75c47c04881f")


def test_census_pins_every_checkpoint_name_order_and_shape():
    lines = param_census.census_lines()
    assert len(lines) == 25
    assert lines[-1] == PINNED
    assert param_census.census_lines() == lines
