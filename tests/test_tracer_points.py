"""bench/tracer.py wraps public attributes of m3ab by name, so a rename in
the package would first show as a failed ``bench/run.py --trace 1``.  This
resolves every trace point against the package instead."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_trace_point_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, path, _ in tracer.TRACE_POINTS:
        owner = importlib.import_module(f"m3ab.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"m3ab.{module_name}.{path}")
    assert missing == []
