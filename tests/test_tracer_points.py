"""bench/tracer.py wraps public attributes of m3ab by name, and
bench/micro.py and bench/workloads.py call them off the modules they import,
so a rename in the package would first show as a failed ``bench/run.py``.
This resolves every trace point and every such read against the package
instead."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path
from types import ModuleType

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


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


def _module_reads(path: Path) -> list[tuple[str, str]]:
    """(module, attribute) for every name a bench file imports from an m3ab
    module and every attribute it reads off an m3ab module it imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({alias.asname: alias.name for alias in node.names
                            if alias.name.startswith("m3ab.") and alias.asname})
        elif isinstance(node, ast.ImportFrom) and str(node.module).startswith("m3ab"):
            for alias in node.names:
                target = getattr(importlib.import_module(node.module), alias.name, None)
                if isinstance(target, ModuleType):
                    modules[alias.asname or alias.name] = target.__name__
                reads.append((node.module, alias.name))
    reads += [(modules[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    return reads


@pytest.mark.parametrize("name, sample", [
    ("micro.py", ("m3ab.alloc", "shrvar_allocation")),
    ("workloads.py", ("m3ab.complexity", "h3")),
])
def test_every_bench_module_read_resolves(name, sample):
    reads = _module_reads(BENCH / name)
    assert sample in reads
    missing = [f"{module}.{attr}" for module, attr in reads
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
