"""Outside-in spans: wrap public module attributes of ``m3ab`` and time them.

Each wrapped call appends one span ``(name, parent, start_ns, end_ns)`` to an
in-memory list; ``parent`` is the index of the span that was open when the
call started (-1 for none), so the spans of one timed round share the round's
root span.  Nothing inside ``src/`` is modified: the wrappers are installed by
attribute assignment and removed by ``uninstall``.  Private names (``_allocate``,
``_stats_from_rows``) are never wrapped, so allocation and stage statistics
show up as self time of ``run_exploration``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, attribute path, span name).  A span's layer is the prefix of its
# name.  Names imported into a second module are wrapped where the caller
# looks them up (``harness.run_exploration``, ``cli.sweep``).
TRACE_POINTS = (
    ("cli", "main", "cli.main"),
    ("cli", "sweep", "harness.sweep"),
    ("cli", "preset", "instances.preset"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "run_exploration", "halving.run_exploration"),
    ("harness", "run_validation", "validate.run_validation"),
    ("harness", "best_treatment", "core.best_treatment"),
    ("harness", "z_profile", "core.z_profile"),
    ("halving", "run_exploration", "halving.run_exploration"),
    ("halving", "run_exploration_adaptive", "halving.run_exploration_adaptive"),
    ("halving", "GaussianStatSource.stage_means_batch", "halving.draw"),
    ("halving", "GaussianStatSource.mean_and_variance", "halving.phase0"),
    ("halving", "minz_eliminate", "halving.minz"),
    ("halving", "mean_eliminate", "halving.mean"),
    ("halving", "confidence_eliminate", "halving.confidence"),
    ("complexity", "h3", "complexity.h3"),
    ("complexity", "h3_tilde", "complexity.h3_tilde"),
    ("complexity", "h3_prime", "complexity.h3_prime"),
    ("complexity", "z_profile", "core.z_profile"),
    ("complexity", "best_treatment", "core.best_treatment"),
)

# alloc has no span: the engine reaches it only through private names.
LAYERS = ("harness", "halving", "validate", "core", "complexity", "instances",
          "cli", "bench")


class Tracer:
    """Collects spans while installed; one tracer per traced pass."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.stages = 0
        self.pulls = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, parent, start, end)

        return traced

    def install(self, modules: dict) -> None:
        for module_name, path, name in TRACE_POINTS:
            owner = modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.span(name, original)
            if (module_name, path) == ("harness", "run_exploration"):
                wrapped = self._counting(wrapped)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _counting(self, fn):
        """Count stages and pulls of every exploration the harness runs."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.stages += len(result.trail)
            self.pulls += result.total_pulls_used
            return result

        return counted

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time in seconds."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            name, parent, start, end = span
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, _, start, end), children in zip(self.spans, child_ns):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - children) / 1e9
        return dict(out)

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer; the benchmark's own round spans are ``bench``."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, entry in self.totals().items():
            out[name.split(".", 1)[0]] += entry["self_s"]
        return out

    def dump(self, path) -> None:
        """Write the spans as ``[name, parent, start_ns, end_ns]`` rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))
