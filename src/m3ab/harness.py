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
count.
"""

from __future__ import annotations

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
from m3ab.halving import ALGORITHMS, AlgorithmSpec, run_exploration
from m3ab.validate import run_validation

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
    metrics_to_report: Sequence[str] = METRICS
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
        metrics = tuple(m for m in METRICS if m in set(self.metrics_to_report))
        unknown = set(self.metrics_to_report) - set(METRICS)
        if unknown:
            raise ValueError(f"unknown metrics {sorted(unknown)}; "
                             f"expected a subset of {METRICS}")
        if not metrics:
            raise ValueError("metrics_to_report must be non-empty")
        object.__setattr__(self, "metrics_to_report", metrics)
        if isinstance(self.reward_source, str) and self.reward_source not in (
                "pulls", "means", "fixed"):
            raise ValueError(f"unknown reward source {self.reward_source!r}")


@dataclass(frozen=True)
class CellReport:
    """Counts for one (algorithm, budget) cell; rates and Wilson intervals
    derive from them.  ``seconds`` is wall time and is excluded from
    equality so deterministic replays compare equal."""

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
    metrics: tuple[str, ...] = METRICS
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


def _count_range(instance: Instance, spec: AlgorithmSpec, budget: int,
                 reward_source, master_seed: int, value_idx: int,
                 budget_idx: int, start: int, stop: int, star: int,
                 positive_min_z: np.ndarray) -> tuple[int, int, int]:
    """Accumulate event counts over repetitions [start, stop)."""
    validation_source = _validation_source(reward_source)
    explore = vs = t1 = 0
    for rep in range(start, stop):
        root = np.random.SeedSequence([master_seed, value_idx, budget_idx, rep])
        explore_ss, validate_ss = root.spawn(2)
        result = run_exploration(instance, spec, budget,
                                 reward_source=reward_source,
                                 rng=np.random.default_rng(explore_ss))
        outcome = run_validation(instance, result.recommended,
                                 np.random.default_rng(validate_ss),
                                 reward_source=validation_source)
        if result.recommended == star:
            explore += 1
        if outcome.pass_all:
            if positive_min_z[result.recommended - 1]:
                vs += 1
            else:
                t1 += 1
    return explore, vs, t1


def _chunks(repetitions: int, parts: int) -> list[tuple[int, int]]:
    size = math.ceil(repetitions / parts)
    return [(lo, min(lo + size, repetitions))
            for lo in range(0, repetitions, size)]


def _run_cells(instance: Instance, config: ExperimentConfig, value_idx: int,
               threads: int) -> tuple[CellReport, ...]:
    star = best_treatment(instance)
    positive_min_z = z_profile(instance).min_z > 0.0
    cells = []
    for budget_idx, budget in enumerate(config.budgets):
        for spec in config.algorithms:
            started = time.perf_counter()
            base = (instance, spec, budget, config.reward_source,
                    config.master_seed, value_idx, budget_idx)
            try:
                if threads <= 1:
                    counts = _count_range(*base, 0, config.repetitions,
                                          star, positive_min_z)
                else:
                    with ProcessPoolExecutor(max_workers=threads) as pool:
                        parts = pool.map(
                            _count_star,
                            [base + (lo, hi, star, positive_min_z)
                             for lo, hi in _chunks(config.repetitions, threads)])
                        counts = tuple(map(sum, zip(*parts)))
            except InsufficientBudgetError as exc:
                raise InsufficientBudgetError(
                    f"cell (algorithm={spec.name}, budget={budget}): {exc}",
                    arm=exc.arm, cell=(spec.name, budget)) from exc
            cells.append(CellReport(
                algorithm=spec.name, budget=budget,
                repetitions=config.repetitions,
                exploration_successes=counts[0],
                validation_successes=counts[1],
                type1_errors=counts[2],
                seconds=time.perf_counter() - started))
    return tuple(cells)


def _count_star(args: tuple) -> tuple[int, int, int]:
    """ProcessPoolExecutor.map helper: unpack one chunk's argument tuple."""
    return _count_range(*args)


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
    return MonteCarloReport(cells=_run_cells(instance, config, 0, threads),
                            metrics=config.metrics_to_report)


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
    for value_idx, value in enumerate(values):
        if parameter == "budget":
            cfg = dataclasses.replace(config, budgets=(int(value),))
            instance = _resolve_instance(cfg.instance)
            cells = _run_cells(instance, cfg, value_idx, threads)
        elif parameter == "heterogeneity_l":
            if not callable(config.instance):
                raise TypeError("a heterogeneity_l sweep needs a callable "
                                "instance generator, e.g. "
                                "lambda l: preset('exp2', l=l)")
            instance = config.instance(value)
            if not isinstance(instance, Instance):
                raise TypeError("instance generator must return an Instance")
            cells = _run_cells(instance, config, value_idx, threads)
        else:  # t_v
            base = _resolve_instance(config.instance)
            validation = dataclasses.replace(base.validation,
                                             horizon=int(value))
            instance = Instance(means=base.means, stddevs=base.stddevs,
                                validation=validation)
            cells = _run_cells(instance, config, value_idx, threads)
        reports.append(MonteCarloReport(
            cells=cells, metrics=config.metrics_to_report,
            parameter=parameter, value=value))
    return reports
