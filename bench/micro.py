"""Layer microbenchmarks on frozen inputs, one public function each.

The inputs are fixed (presets and generators seeded with 0), so a change in
these numbers is a change in the function, not in the workload.  Each value is
the median over seven batches of the per-call time, with the batch size
doubled until a batch takes at least ``BATCH_S``.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from m3ab import alloc, complexity, core, halving, instances, validate

BATCH_S = 0.004
BATCHES = 7


def per_call_s(fn) -> float:
    n = 1
    while True:
        started = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - started
        if elapsed >= BATCH_S:
            break
        n *= 2
    samples = [elapsed / n]
    for _ in range(BATCHES - 1):
        started = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - started) / n)
    return statistics.median(samples)


def _derive_streams():
    """The harness's per-repetition seeding: SeedSequence, spawn(2), and one
    generator for each of exploration and validation."""
    explore, check = np.random.SeedSequence([0, 0, 0, 0]).spawn(2)
    np.random.default_rng(explore)
    np.random.default_rng(check)


def _first_stage(instance, budget):
    """The stage-1 StageStats (every treatment active) of one exploration."""
    result = halving.run_exploration(instance, "shrvar", budget,
                                     reward_source="means",
                                     rng=np.random.default_rng(0))
    return result.trail[0]


def _samples(instance, n=8):
    rng = np.random.default_rng(0)
    return {arm: rng.normal(instance.means[arm], instance.stddevs[arm],
                            size=(n, instance.num_metrics))
            for arm in range(instance.num_treatments + 1)}


def run_micro() -> dict[str, float]:
    """Per-layer microbenchmark metrics, in the units their names carry."""
    exp1 = instances.preset("exp1")
    exp3 = instances.preset("exp3", seed=7)
    exp2_l5 = instances.preset("exp2", l=5)
    table1 = instances.table1()
    # The budgets of the exp1-minz and exp3-wide workloads.
    sized = {"A16": (exp1, 8000), "A128": (exp3, 120000)}
    rng = np.random.default_rng(0)

    timed = {"harness.seed_us": _derive_streams}
    for size, (inst, budget) in sized.items():
        active = list(inst.treatments)
        keep = math.ceil(len(active) / 2)
        stage_budget = budget // halving.num_stages(len(active))
        stats = _first_stage(inst, budget)
        samples = _samples(inst)
        timed.update({
            f"alloc.shrvar_us.{size}": lambda i=inst, a=active, b=stage_budget:
                alloc.shrvar_allocation(i, a, b),
            f"alloc.uniform_us.{size}": lambda a=active, b=stage_budget:
                alloc.uniform_allocation(a, b),
            f"alloc.variance_us.{size}": lambda i=inst, a=active, b=stage_budget:
                alloc.variance_allocation(i, a, b),
            f"alloc.neyman_us.{size}": lambda i=inst, a=active, b=stage_budget:
                alloc.neyman_allocation(i, a, b),
            f"halving.empirical_z_us.{size}": lambda s=samples, i=inst, a=active:
                halving.empirical_z(s, i, a),
            f"halving.minz_us.{size}": lambda s=stats, k=keep:
                halving.minz_eliminate(s, k),
            f"halving.mean_us.{size}": lambda s=stats, k=keep:
                halving.mean_eliminate(s, k),
            f"halving.confidence_us.{size}": lambda s=stats, k=keep:
                halving.confidence_eliminate(s, k),
        })
    timed.update({
        "alloc.starved_us": lambda: alloc.variance_allocation(
            exp2_l5, list(exp2_l5.treatments), 100),
        "validate.means_us": lambda: validate.run_validation(
            exp1, 1, rng, reward_source="means"),
        "validate.pulls_us": lambda: validate.run_validation(
            exp1, 1, rng, reward_source="pulls"),
        "validate.bayes_us": lambda: validate.run_validation(
            table1, 1, rng, reward_source="means"),
        "core.z_profile_us.A128": lambda: core.z_profile(exp3),
        "complexity.h3_prime_us.A128": lambda: complexity.h3_prime(exp3),
    })
    out = {name: per_call_s(fn) * 1e6 for name, fn in timed.items()}
    for name, factory in (("exp1", lambda: instances.preset("exp1")),
                          ("exp2", lambda: instances.preset("exp2", l=5)),
                          ("exp3", lambda: instances.preset("exp3", seed=7))):
        out[f"instances.preset_ms.{name}"] = per_call_s(factory) * 1e3
    return out
