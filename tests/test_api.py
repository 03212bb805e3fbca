"""The package's public surface."""

import pyrseg


def test_every_exported_name_resolves():
    missing = [name for name in pyrseg.__all__ if not hasattr(pyrseg, name)]
    assert missing == []
