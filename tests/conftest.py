"""Test-session settings shared by every test module."""

import os
import tempfile

# One BLAS thread per process unless the caller chose otherwise. OpenBLAS
# reads this once, when numpy loads, so it is set before anything imports
# numpy. A busy machine makes multi-threaded OpenBLAS collapse (see the
# README's Testing section); alone, both settings take about the same time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Derandomized draws keep Tier-1 reproducible run to run; no deadline because
# the oracles in reference.py are plain Python loops whose cost varies with
# the draw.
settings.register_profile("pyrseg", derandomize=True, deadline=None, database=None)
settings.load_profile("pyrseg")


def pytest_configure(config):
    # Even without an example database hypothesis caches source constants on
    # disk; keep them in a directory removed at the end of the session, not
    # in a .hypothesis/ directory under the checkout.
    home = tempfile.TemporaryDirectory(prefix="pyrseg-hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)
