"""Monte-Carlo harness: repeat exploration + validation, report event rates.

Event definitions (per repetition; a_hat is the recommended treatment,
a_star = best_treatment(instance), and min-z means min over metrics of the
true z-value):

* exploration_accuracy: fraction of repetitions with a_hat == a_star.
* joint_pass:           fraction where a_hat passed validation on every
                        metric (regardless of a_hat's quality).
* validation_success:   fraction where a_hat passed every metric AND has
                        min-z > 0: on every metric its effect clears the
                        validation margin -xi, so each per-metric pass
                        probability exceeds 1/2 — the launch decision was
                        correct.
* type1_error:          fraction where a_hat passed every metric but has
                        min-z <= 0 — a regrettable launch.

min-z > 0 is stricter than beating the control in mean: xi < 0 for the usual
delta < 1/2 (or q > 1/2), so a treatment with mu_a > mu_0 on every metric can
still have z <= 0 (on exp2 all 27 treatments do, but only 1..8 have z > 0).

validation_success and type1_error partition the joint_pass event, so their
counts sum to the joint_pass count exactly in every cell.

Reproducibility: repetition r of budget index b (and sweep value index v)
always consumes the random streams spawned from
``SeedSequence([master_seed, v, b, r])`` — exploration stream first, then
validation stream.  The derivation does not involve the algorithm identity,
so all algorithms in one experiment see identical reward randomness per
repetition (paired comparisons), and results are independent of the thread
count.  Repetitions run in blocks of BLOCK as arrays: each block derives its
streams once and every algorithm restarts from them (see ``_count_range``
and the README's "How repetitions run").
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from m3ab.core import Instance, best_treatment, z_profile
from m3ab.errors import InsufficientBudgetError
from m3ab.halving import (
    ALGORITHMS,
    AlgorithmSpec,
    get_reward_source,
    run_exploration,
    run_exploration_batch,
)
from m3ab.validate import run_validation, run_validation_batch

# run_exploration and run_validation are the one-repetition forms of what
# _count_range runs in blocks; they stay importable from here, where
# bench/tracer.py looks them up.

__all__ = [
    "METRICS",
    "SWEEP_PARAMETERS",
    "CellReport",
    "ExperimentConfig",
    "MonteCarloReport",
    "run_experiment",
    "sweep",
    "wilson_interval",
]

METRICS = ("exploration_accuracy", "validation_success", "type1_error",
           "joint_pass")

SWEEP_PARAMETERS = ("budget", "heterogeneity_l", "t_v")


def wilson_interval(successes: int, trials: int,
                    level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Never collapses to a point or escapes [0, 1]; at successes == 0 the lower
    endpoint is exactly 0, at successes == trials the upper endpoint is
    exactly 1.  trials must be >= 1.
    """
    successes = int(successes)
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, {trials}], got {successes}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    z = float(norm.ppf(0.5 + level / 2.0))
    n = float(trials)
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """What to run: instance (or a callable producing one), algorithm menu,
    budget grid, repetition count, and the master seed.

    ``instance`` may be an Instance, a zero-argument callable (resolved when
    the experiment runs), or — for heterogeneity sweeps — a one-argument
    callable mapping the swept parameter value to an Instance.

    ``reward_source`` is "means" (sufficient statistics drawn from their
    exact laws; the fast default), "pulls" (every reward drawn individually),
    or a source object from the halving module.
    """

    instance: Instance | Callable[..., Instance]
    algorithms: Sequence[AlgorithmSpec | str]
    budgets: Sequence[int]
    repetitions: int = 10_000
    master_seed: int = 0
    reward_source: object = "means"

    def __post_init__(self):
        if not isinstance(self.instance, Instance) and not callable(self.instance):
            raise TypeError("instance must be an Instance or a callable "
                            "returning one")
        specs = tuple(AlgorithmSpec.from_name(a) if isinstance(a, str) else a
                      for a in self.algorithms)
        if not specs:
            raise ValueError("algorithms must be non-empty")
        for spec in specs:
            if not isinstance(spec, AlgorithmSpec):
                raise TypeError(f"not an algorithm name or spec: {spec!r}")
        object.__setattr__(self, "algorithms", specs)
        budgets = tuple(int(b) for b in self.budgets)
        if not budgets:
            raise ValueError("budgets must be non-empty")
        if any(b != orig for b, orig in zip(budgets, self.budgets)):
            raise ValueError("budgets must be integers")
        if any(b < 1 for b in budgets):
            raise ValueError(f"budgets must be >= 1, got {budgets}")
        object.__setattr__(self, "budgets", budgets)
        if int(self.repetitions) != self.repetitions or self.repetitions < 1:
            raise ValueError(f"repetitions must be a positive integer, "
                             f"got {self.repetitions}")
        object.__setattr__(self, "repetitions", int(self.repetitions))
        if int(self.master_seed) != self.master_seed or self.master_seed < 0:
            raise ValueError(f"master_seed must be a non-negative integer, "
                             f"got {self.master_seed}")
        object.__setattr__(self, "master_seed", int(self.master_seed))
        get_reward_source(self.reward_source)  # rejects unknown names


@dataclass(frozen=True)
class CellReport:
    """Counts for one (algorithm, budget) cell; rates and Wilson intervals
    derive from them.  ``seconds`` is the time spent on the cell, summed
    over worker processes, with each block's seed derivation split evenly
    over the algorithms; it is excluded from equality so deterministic
    replays compare equal."""

    algorithm: str
    budget: int
    repetitions: int
    exploration_successes: int
    validation_successes: int
    type1_errors: int
    seconds: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if self.validation_successes + self.type1_errors > self.repetitions:
            raise ValueError("validation_successes + type1_errors cannot "
                             "exceed repetitions")

    @property
    def joint_passes(self) -> int:
        return self.validation_successes + self.type1_errors

    def successes(self, metric: str) -> int:
        counts = {
            "exploration_accuracy": self.exploration_successes,
            "validation_success": self.validation_successes,
            "type1_error": self.type1_errors,
            "joint_pass": self.joint_passes,
        }
        try:
            return counts[metric]
        except KeyError:
            raise ValueError(f"unknown metric {metric!r}; "
                             f"expected one of {METRICS}") from None

    def rate(self, metric: str) -> float:
        return self.successes(metric) / self.repetitions

    def interval(self, metric: str, level: float = 0.95) -> tuple[float, float]:
        return wilson_interval(self.successes(metric), self.repetitions, level)

    @property
    def exploration_accuracy(self) -> float:
        return self.rate("exploration_accuracy")

    @property
    def validation_success(self) -> float:
        return self.rate("validation_success")

    @property
    def type1_error(self) -> float:
        return self.rate("type1_error")

    @property
    def joint_pass(self) -> float:
        return self.rate("joint_pass")


@dataclass(frozen=True)
class MonteCarloReport:
    """All cells of one experiment; ``parameter``/``value`` are set on sweep
    reports to identify the swept point."""

    cells: tuple[CellReport, ...]
    parameter: str | None = None
    value: float | int | None = None

    def cell(self, algorithm: str, budget: int) -> CellReport:
        for c in self.cells:
            if c.algorithm == algorithm and c.budget == budget:
                return c
        raise KeyError(f"no cell for algorithm={algorithm!r}, budget={budget}")


def _validation_source(reward_source) -> str:
    """Validation draws are real even when exploration uses a synthetic
    source; only 'pulls' asks for the per-reward simulation."""
    return "pulls" if reward_source == "pulls" else "means"


# Repetitions per batched engine call: the arrays of one block at A=128
# stay a few MB, so memory is bounded at any repetition count.
BLOCK = 512


def _streams(key: tuple, reps: range):
    """Every repetition's exploration and validation generators with their
    start states.  SeedSequence([*key, rep], spawn_key=(i,)) is the state
    SeedSequence([*key, rep]).spawn(2)[i] gives, built directly."""
    gens = [[np.random.default_rng(np.random.SeedSequence([*key, rep],
                                                          spawn_key=(child,)))
             for rep in reps] for child in (0, 1)]
    return gens, [g.bit_generator.state for g in gens[0] + gens[1]]


def _count_range(instance: Instance, specs: Sequence[AlgorithmSpec],
                 budget: int, reward_source, key: tuple, start: int,
                 stop: int, star: int,
                 positive_min_z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exploration, validation, type1) counts (len(specs), 3) and seconds
    (len(specs),) of every algorithm over repetitions [start, stop), in
    blocks of BLOCK repetitions.

    Each block derives its generators once; every algorithm restarts them
    from the same states, so the menu sees paired draws.  The derivation
    time is split evenly over the menu.
    """
    validation_source = _validation_source(reward_source)
    counts = np.zeros((len(specs), 3), dtype=np.int64)
    seconds = np.zeros(len(specs))
    for lo in range(start, stop, BLOCK):
        started = time.perf_counter()
        gens, states = _streams(key, range(lo, min(lo + BLOCK, stop)))
        seconds += (time.perf_counter() - started) / len(specs)
        for idx, spec in enumerate(specs):
            started = time.perf_counter()
            for gen, state in zip(gens[0] + gens[1], states):
                gen.bit_generator.state = state
            try:
                recommended = run_exploration_batch(instance, spec, budget,
                                                    gens[0], reward_source)
            except InsufficientBudgetError as exc:
                raise InsufficientBudgetError(
                    f"cell (algorithm={spec.name}, budget={budget}): {exc}",
                    arm=exc.arm, cell=(spec.name, budget)) from exc
            passed = run_validation_batch(instance, recommended, gens[1],
                                          validation_source).all(axis=1)
            positive = positive_min_z[recommended - 1]
            counts[idx] += (np.count_nonzero(recommended == star),
                            np.count_nonzero(passed & positive),
                            np.count_nonzero(passed & ~positive))
            seconds[idx] += time.perf_counter() - started
    return counts, seconds


def _chunks(repetitions: int, parts: int) -> list[tuple[int, int]]:
    size = math.ceil(repetitions / parts)
    return [(lo, min(lo + size, repetitions))
            for lo in range(0, repetitions, size)]


def _worker_count(threads: int, repetitions: int) -> int:
    """Worker processes for one experiment: one per chunk of repetitions,
    so a thread count above the repetition count starts no idle worker."""
    return len(_chunks(repetitions, max(1, threads)))


def _pool(threads: int, repetitions: int):
    """One process pool for a whole experiment or sweep, or none when the
    work fits one process."""
    workers = _worker_count(threads, repetitions)
    if workers <= 1:
        return contextlib.nullcontext()
    return ProcessPoolExecutor(max_workers=workers)


def _run_cells(instance: Instance, config: ExperimentConfig, value_idx: int,
               threads: int, pool) -> tuple[CellReport, ...]:
    star = best_treatment(instance)
    positive_min_z = z_profile(instance).min_z > 0.0
    chunks = _chunks(config.repetitions, max(1, threads))
    tasks = [(instance, config.algorithms, budget, config.reward_source,
              (config.master_seed, value_idx, budget_idx), lo, hi, star,
              positive_min_z)
             for budget_idx, budget in enumerate(config.budgets)
             for lo, hi in chunks]
    columns = zip(*tasks)
    parts = list(map(_count_range, *columns) if pool is None
                 else pool.map(_count_range, *columns))
    cells = []
    for budget_idx, budget in enumerate(config.budgets):
        own = parts[budget_idx * len(chunks):(budget_idx + 1) * len(chunks)]
        counts, seconds = (sum(part) for part in zip(*own))
        for spec, (explore, vs, t1), secs in zip(config.algorithms,
                                                 counts.tolist(),
                                                 seconds.tolist()):
            cells.append(CellReport(
                algorithm=spec.name, budget=budget,
                repetitions=config.repetitions, exploration_successes=explore,
                validation_successes=vs, type1_errors=t1, seconds=secs))
    return tuple(cells)


def _resolve_instance(obj) -> Instance:
    inst = obj() if callable(obj) else obj
    if not isinstance(inst, Instance):
        raise TypeError(f"expected an Instance, got {type(inst).__name__}")
    return inst


def run_experiment(config: ExperimentConfig, threads: int = 1) -> MonteCarloReport:
    """Run every (algorithm, budget) cell for config.repetitions repetitions.

    Deterministic in config.master_seed and independent of ``threads``
    (repetitions are split across processes, but repetition r's streams
    depend only on its own index).  InsufficientBudgetError is re-raised
    with the offending cell attached.
    """
    instance = _resolve_instance(config.instance)
    with _pool(threads, config.repetitions) as pool:
        cells = _run_cells(instance, config, 0, threads, pool)
    return MonteCarloReport(cells=cells)


def sweep(config: ExperimentConfig, parameter: str, values: Iterable,
          threads: int = 1) -> list[MonteCarloReport]:
    """Run one report per value of the swept parameter.

    * "budget":          one single-budget report per value; a single-value
                         sweep equals run_experiment on that budget exactly.
    * "heterogeneity_l": config.instance must be a one-argument callable;
                         it is invoked once per value to build the instance.
    * "t_v":             the validation horizon is replaced per value on an
                         otherwise-identical instance (reward model fixed).

    Each value gets its own seed substream (the value's index enters the
    derivation), so draws are never shared across different instances.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r}; "
                         f"expected one of {SWEEP_PARAMETERS}")
    values = list(values)
    if not values:
        raise ValueError("values must be non-empty")
    reports = []
    with _pool(threads, config.repetitions) as pool:
        for value_idx, value in enumerate(values):
            cfg = config
            if parameter == "budget":
                cfg = dataclasses.replace(config, budgets=(int(value),))
                instance = _resolve_instance(cfg.instance)
            elif parameter == "heterogeneity_l":
                if not callable(config.instance):
                    raise TypeError("a heterogeneity_l sweep needs a callable "
                                    "instance generator, e.g. "
                                    "lambda l: preset('exp2', l=l)")
                instance = config.instance(value)
                if not isinstance(instance, Instance):
                    raise TypeError("instance generator must return an Instance")
            else:  # t_v
                base = _resolve_instance(config.instance)
                instance = dataclasses.replace(base, validation=dataclasses.replace(
                    base.validation, horizon=int(value)))
            cells = _run_cells(instance, cfg, value_idx, threads, pool)
            reports.append(MonteCarloReport(cells=cells, parameter=parameter,
                                            value=value))
    return reports
