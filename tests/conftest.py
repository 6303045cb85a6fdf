"""Shared pytest hooks.

The acceptance tests record one verdict line per criterion; echo them in a
dedicated section of the terminal summary so every verdict is visible in the
run log regardless of output capture and of which assertions tripped.
Every test starts and ends with no worker pool kept by the harness, so the
pools a test counts are its own and none outlives it.
"""

import sys

import pytest


def _drop_warm_pool():
    harness = sys.modules.get("m3ab.harness")
    kept = harness._warm[:] if harness is not None else []
    if kept:
        harness._warm.clear()
        kept[1].shutdown()


@pytest.fixture(autouse=True)
def _cold_pool():
    _drop_warm_pool()
    yield
    _drop_warm_pool()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "VERDICT_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
