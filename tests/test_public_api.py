"""The package's public names: each one listed in ``m3ab.__all__`` and in
the ``__all__`` of its submodules exists."""

from __future__ import annotations

import os
import subprocess
import sys

import m3ab
import m3ab.cli
import m3ab.complexity
import m3ab.harness


def test_all_names_resolve_without_duplicates():
    for module in (m3ab, m3ab.complexity, m3ab.harness, m3ab.cli):
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone more than doubles the import time; the package takes
    # its normal quantile and cdf from scipy.special.
    src = os.path.dirname(os.path.dirname(m3ab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, m3ab, m3ab.cli; "
         "print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"
