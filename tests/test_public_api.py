"""The package's public names: each one listed in ``m3ab.__all__`` and in
the ``__all__`` of its submodules exists."""

from __future__ import annotations

import os
import subprocess
import sys

import importlib

import pytest

import m3ab
import m3ab.cli
import m3ab.complexity
import m3ab.harness

# One-row calls that the benchmark reads from their modules; the package
# itself no longer re-exports them.
ONE_ROW = {
    "m3ab.alloc": ["shrvar_allocation", "uniform_allocation",
                   "variance_allocation", "neyman_allocation"],
    "m3ab.halving": ["minz_eliminate", "mean_eliminate", "confidence_eliminate",
                     "run_exploration_adaptive"],
}


@pytest.mark.parametrize("name", [
    "StageAllocation", *ONE_ROW["m3ab.alloc"], *ONE_ROW["m3ab.halving"]])
def test_retired_names_are_not_in_the_package_namespace(name):
    assert name not in m3ab.__all__
    assert not hasattr(m3ab, name)


@pytest.mark.parametrize("module, name", [
    pytest.param(module, name, id=f"{module}.{name}")
    for module, names in ONE_ROW.items() for name in names])
def test_one_row_functions_stay_in_their_modules(module, name):
    function = getattr(importlib.import_module(module), name)
    assert callable(function) and function.__module__ == module


def test_stage_allocation_record_is_gone():
    import m3ab.alloc
    assert not hasattr(m3ab.alloc, "StageAllocation")


def test_all_names_resolve_without_duplicates():
    for module in (m3ab, m3ab.complexity, m3ab.harness, m3ab.cli):
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone more than doubles the import time; the package takes
    # its normal quantile and cdf from its own port of Cephes (m3ab.core).
    src = os.path.dirname(os.path.dirname(m3ab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, m3ab, m3ab.cli; "
         "print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"
