"""Measurement of one workload; ``run.py`` calls it in its own process.

``measure(trace=False)`` times rounds for ``seconds`` and returns the
end-to-end values.  ``measure(trace=True)`` alternates untraced and traced
rounds and returns the per-layer values, the layer microbenchmarks and the
tracing overhead; the spans are written to ``bench/out``.  Run as a script,
``python3 bench/measure.py --setup WORKLOAD`` performs one set-up, which
``run.py`` times in a fresh interpreter.

Outputs are checked in both modes: against the golden outputs at the golden
seed, against the first round at any other seed, and the traced rounds (and,
for ``exp2-sweep``, a one-process ``--threads 1`` round) against the
untraced ones.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def _count_pools():
    """Make every ProcessPoolExecutor count itself.  Must run before m3ab is
    imported, because the harness binds the class at import time."""
    import concurrent.futures

    base = concurrent.futures.ProcessPoolExecutor

    class CountingPool(base):
        created = 0

        def __init__(self, *args, **kwargs):
            CountingPool.created += 1
            super().__init__(*args, **kwargs)

    concurrent.futures.ProcessPoolExecutor = CountingPool
    return CountingPool


class Checks:
    """Counts checked outputs and the ones that are wrong or raised."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)

    def compare(self, label: str, got: dict, want: dict) -> None:
        for key in sorted(set(got) | set(want)):
            self.attempted += 1
            ok = (key in got and key in want
                  and self.workload.check(key, got[key])
                  and _same(got[key], want[key]))
            if not ok:
                self.failed += 1
                self.errors.append(f"{label}: output {key!r} differs")


def _same(got, want) -> bool:
    """Exact equality, except floats agree to 1e-9 relative (h3 values)."""
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(got, want,
                                                       rel_tol=1e-9)
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    return got == want


def timed_rounds(run, seed, seconds, checks, label, reference=None,
                 min_rounds=1):
    """Closed loop: call ``run(seed)`` ``min_rounds`` times, and again while
    the next round is expected to end less than half a round past
    ``seconds``.  Each round is checked against ``reference`` or, without
    one, against the first round.  Returns ``[(wall seconds, Round)]``."""
    rounds, calls = [], 0
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        calls += 1
        try:
            result = run(seed)
        except Exception:
            checks.fail(f"{label}: {traceback.format_exc()}")
        else:
            rounds.append((time.perf_counter() - started, result))
            checks.compare(label, result.outputs,
                           rounds[0][1].outputs if reference is None
                           else reference)
        now = time.perf_counter()
        if calls >= min_rounds and now + (now - started) / 2 >= deadline:
            return rounds


def us_per_unit(rounds) -> float:
    """Wall time of all rounds over all their units.  The drift in the
    machine's speed outlasts a round, so averaging the whole run gives
    steadier figures than the median round does."""
    return sum(t for t, _ in rounds) / sum(r.units for _, r in rounds) * 1e6


def _median_part(rounds, key) -> float:
    values = [r.parts[key] for _, r in rounds if key in r.parts]
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """This process plus its largest finished pool worker (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def layer_metrics(tracer, rounds) -> dict[str, float]:
    """Per-layer values from one traced pass over ``rounds``."""
    from tracer import LAYERS

    totals = tracer.totals()
    units = sum(r.units for _, r in rounds)

    def field(name, key):
        return totals.get(name, {}).get(key, 0.0)

    def us_per_call(name):
        calls = field(name, "calls")
        return field(name, "total_s") / calls * 1e6 if calls else 0.0

    layers = tracer.layer_self_s()
    out = {f"self_us.{layer}": layers[layer] / units * 1e6
           for layer in LAYERS}
    out.update({
        "harness.self_us_per_rep": out.pop("self_us.harness"),
        "halving.explore_self_us_per_rep": 1e6 / units * (
            field("halving.run_exploration", "self_s")
            + field("halving.run_exploration_adaptive", "self_s")),
        "halving.draw_us_per_rep": field("halving.draw", "total_s") / units * 1e6,
        "halving.phase0_us_per_rep":
            field("halving.phase0", "total_s") / units * 1e6,
        "halving.stages_per_rep": tracer.stages / units,
        "halving.pulls_per_rep": tracer.pulls / units,
        "halving.eliminate_calls": sum(
            field(f"halving.{rule}", "calls")
            for rule in ("minz", "mean", "confidence")) / len(rounds),
        "validate.us_per_call": us_per_call("validate.run_validation"),
    })
    for rule in ("minz", "mean", "confidence"):
        out[f"halving.{rule}_us_per_call"] = us_per_call(f"halving.{rule}")
    return out


def measure_traced(workload, modules, seed, seconds, checks, pools,
                   reference):
    """Per-layer values: spans, counts, tracing overhead and the micro
    benchmarks.  Returns ``(metrics, untraced rounds, traced rounds)``."""
    from micro import run_micro
    from tracer import Tracer
    from workloads import ALGORITHMS, Enumeration, Sweep

    # Untraced and traced rounds alternate, so drift in the machine's speed
    # falls on both sides of trace.overhead_frac alike.
    tracer = Tracer()
    traced_run = tracer.span("bench.round", workload.run)
    untraced, traced, pools_created = [], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        started, created = time.perf_counter(), pools.created
        untraced += timed_rounds(workload.run, seed, 0, checks, "untraced",
                                 reference)
        pools_created += pools.created - created
        reference = reference or untraced[0][1].outputs
        tracer.install(modules)
        try:
            traced += timed_rounds(traced_run, seed, 0, checks, "traced",
                                   reference)
        finally:
            tracer.uninstall()
        now = time.perf_counter()
        if now + (now - started) / 2 >= deadline:
            break
    pools_per_round = pools_created / len(untraced)

    (BENCH / "out").mkdir(exist_ok=True)
    split, split_rounds = tracer, traced
    if isinstance(workload, Sweep):
        # Spans inside forked pool workers are lost: take the layer split
        # from a one-process run of the same command.
        split = Tracer()
        split.install(modules)
        try:
            split_rounds = timed_rounds(
                split.span("bench.round",
                           lambda s: workload.run(s, threads=1)),
                seed, 0, checks, "traced --threads 1", reference)
        finally:
            split.uninstall()
        split.dump(BENCH / "out" / f"{workload.name}-seed{seed}-spans-threads1.json")
    tracer.dump(BENCH / "out" / f"{workload.name}-seed{seed}-spans.json")

    out = layer_metrics(split, split_rounds)
    totals = tracer.totals()
    cli_calls = totals.get("cli.main", {}).get("calls", 0)
    out.update({
        "trace.overhead_frac": us_per_unit(traced) / us_per_unit(untraced) - 1,
        "harness.pools_created": pools_per_round,
        "cli.overhead_ms": (
            totals["cli.main"]["total_s"] - totals["harness.sweep"]["total_s"]
        ) / cli_calls * 1e3 if cli_calls else 0.0,
        "cli.stdout_bytes": untraced[0][1].stdout_bytes,
        "complexity.subsets": (untraced[0][1].units
                               if isinstance(workload, Enumeration) else 0),
    })
    for algo in ALGORITHMS:
        out[f"harness.cell_us_per_rep.{algo}"] = _median_part(untraced, algo)
    for call in ("h3_s.A16", "h3_tilde_s.A16", "h3_s.A20"):
        out[f"complexity.{call}"] = _median_part(untraced, call)
    out.update(run_micro())
    return out, untraced, traced


def setup(workload_name: str) -> None:
    """What a user pays before the first result: import m3ab (numpy and
    scipy with it), build the workload's instances, make one warm-up call."""
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    workload.build()
    workload.warmup()


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Build, warm up and check the workload, then time its rounds."""
    pools = _count_pools() if trace else None
    import numpy
    import scipy

    import m3ab
    from m3ab import cli, complexity, halving, harness
    from workloads import GOLDEN_SEED, WORKLOADS

    workload = WORKLOADS[workload_name]
    workload.build()
    workload.warmup()
    golden = json.loads((BENCH / "golden" / f"{workload.name}.json")
                        .read_text(encoding="utf-8"))
    checks = Checks(workload)
    reference = None
    if seed == GOLDEN_SEED or not workload.seeded:
        reference = golden["outputs"]
    else:
        run, expected = workload.golden_round(golden["outputs"])
        timed_rounds(run, GOLDEN_SEED, 0, checks, "golden", expected)

    if trace:
        modules = {"cli": cli, "complexity": complexity, "halving": halving,
                   "harness": harness}
        metrics, untraced, traced = measure_traced(
            workload, modules, seed, seconds, checks, pools, reference)
        rounds = {"untraced": untraced, "traced": traced}
    else:
        # Three rounds at least, so that the workloads whose rounds take
        # several seconds still average over more than one.
        untraced = timed_rounds(workload.run, seed, seconds, checks, "timed",
                                reference, min_rounds=3)
        rounds = {"timed": untraced}
        metrics = {"us_per_rep": us_per_unit(untraced),
                   "peak_rss_mb": peak_rss_mb()}
    metrics["check.failed_frac"] = checks.failed / checks.attempted
    return {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "errors": checks.errors[:20],
        "metrics": metrics,
        "rounds": {kind: [{"seconds": t, "units": r.units} for t, r in rs]
                   for kind, rs in rounds.items()},
        "unit": workload.unit,
        "versions": {"m3ab": m3ab.__version__, "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="one set-up of a workload")
    parser.add_argument("--setup", metavar="WORKLOAD", required=True)
    setup(parser.parse_args().setup)
