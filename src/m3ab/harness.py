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
streams' PCG64 start states at once (NumPy's SeedSequence hash and PCG64
seeding, redone over the repetition axis) into generators that each thread
reuses, draws once the normals every algorithm reads alike, and only an
algorithm that draws from a stream itself restarts it (see ``_streams``,
``_count_range`` and the README's "How repetitions run").
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import os
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from m3ab.core import Instance, best_treatment, z_profile
from m3ab.errors import InsufficientBudgetError
from m3ab.halving import (
    ALGORITHMS,
    AlgorithmSpec,
    _beliefs,
    _halve,
    _noise_rows,
    _standard_normals,
    get_reward_source,
    run_exploration,
)
from m3ab.validate import _standardized, run_validation

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
    z = float(ndtri(0.5 + level / 2.0))
    n = float(trials)
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def _is_whole(value) -> bool:
    """A whole number of any size: not a fraction, an infinity or a NaN."""
    return value == value and abs(value) != math.inf and int(value) == value


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
        if not all(map(_is_whole, self.budgets)):
            raise ValueError("budgets must be integers")
        budgets = tuple(int(b) for b in self.budgets)
        if not budgets:
            raise ValueError("budgets must be non-empty")
        if any(b < 1 for b in budgets):
            raise ValueError(f"budgets must be >= 1, got {budgets}")
        object.__setattr__(self, "budgets", budgets)
        if not _is_whole(self.repetitions) or self.repetitions < 1:
            raise ValueError(f"repetitions must be a positive integer, "
                             f"got {self.repetitions}")
        object.__setattr__(self, "repetitions", int(self.repetitions))
        if not _is_whole(self.master_seed) or self.master_seed < 0:
            raise ValueError(f"master_seed must be a non-negative integer, "
                             f"got {self.master_seed}")
        object.__setattr__(self, "master_seed", int(self.master_seed))
        get_reward_source(self.reward_source)  # rejects unknown names


@dataclass(frozen=True)
class CellReport:
    """Counts for one (algorithm, budget) cell; rates and Wilson intervals
    derive from them.  ``seconds`` is the time spent on the cell, summed
    over worker processes, with each block's seed derivation and shared
    draws split evenly over the algorithms; it is excluded from equality so
    deterministic replays compare equal."""

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


# Repetitions per batched engine call: the arrays of one block at A=128
# stay a few MB, so memory is bounded at any repetition count.
BLOCK = 512


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG step
_LOCAL = threading.local()  # each thread's generators, reused block to block


def _seed_words(words: list) -> np.ndarray:
    """(R, 4) uint64 SeedSequence(entropy).generate_state(4, np.uint64) of
    every row of the assembled entropy ``words`` (uint32 scalars or (R,)
    arrays): NumPy's pool hash, over all repetitions at once."""
    const = 0x43B0D7E5

    def hashmix(value, mult=0x931E8875):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> 16

    def mix(x, y):
        out = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
        return out ^ out >> 16

    with np.errstate(over="ignore"):
        pool = [hashmix(word) for word in words[:4]]
        for src, dst in itertools.permutations(range(4), 2):
            pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word, dst in itertools.product(words[4:], range(4)):
            pool[dst] = mix(pool[dst], hashmix(word))
        const = 0x8B51F9DD
        out = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    out = np.stack(out, axis=1).astype(np.uint64)
    return out[:, 0::2] | out[:, 1::2] << np.uint64(32)


def _restart(gens: list, states: list) -> list:
    for gen, state in zip(gens, states):
        gen.bit_generator.state = state
    return gens


def _streams(key: tuple, reps: range) -> tuple[list, list]:
    """This thread's reused generators for every repetition's exploration
    and validation streams, not yet started, and their start states: those
    of default_rng(SeedSequence([*key, rep], spawn_key=(i,))), which is
    SeedSequence([*key, rep]).spawn(2)[i], i = 0 and 1.  The words of key,
    (master_seed, value_idx, budget_idx) of any size, and the repetitions go
    through _seed_words as arrays (at least four words before the spawn
    word, so SeedSequence's zero padding never applies); repetition indices
    of 2**32 or more take SeedSequence itself.  PCG64 then seeds in Python
    integers: inc = 2 initseq + 1, state = (inc + initstate) * MULT + inc."""
    prefix = [np.uint32(k >> bit & 0xFFFFFFFF) for k in key
              for bit in range(0, max(k.bit_length(), 1), 32)]
    states = []
    for child in (0, 1):
        if reps.stop > 1 << 32:
            words = np.array([np.random.SeedSequence([*key, rep], spawn_key=(
                child,)).generate_state(4, np.uint64) for rep in reps])
        else:
            words = _seed_words([*prefix, np.arange(reps.start, reps.stop,
                                dtype=np.uint32), np.uint32(child)])
        s0, s1, s2, s3 = words.astype(object).T
        inc = ((s2 << 64 | s3) << 1 | 1) % (1 << 128)
        seeded = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) % (1 << 128)
        states.append([{"bit_generator": "PCG64", "has_uint32": 0,
                        "uinteger": 0, "state": {"state": s, "inc": i}}
                       for s, i in zip(seeded, inc)])
    pool = _LOCAL.__dict__.setdefault("generators", [])
    pool.extend(np.random.Generator(np.random.PCG64(0))
                for _ in range(2 * len(reps) - len(pool)))
    return [pool[:len(reps)], pool[len(reps):2 * len(reps)]], states


def _count_range(instance: Instance, specs: Sequence[AlgorithmSpec],
                 budget: int, reward_source, key: tuple, start: int,
                 stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(exploration, validation, type1) counts (len(specs), 3) and seconds
    (len(specs),) of every algorithm over repetitions [start, stop), in
    blocks of BLOCK repetitions.

    Each block derives its generators once and draws once what the whole
    menu reads alike: the (R, sum of k_s + 1, M) normals of every
    known-variance run under the "means" law, and the (R, 2, M) of a
    "means" validation.  An algorithm that draws from a stream itself (the
    adaptive engine, any "pulls" draw or source object) restarts that
    stream's generators from their start states; under "means" the
    adaptive engine draws its own exploration normals right after phase 0.
    Derivation and shared-draw time is split evenly over the menu.
    """
    source = get_reward_source(reward_source)
    star = best_treatment(instance)
    positive_min_z = z_profile(instance).min_z > 0.0
    # validation draws are real even when exploration uses a synthetic
    # source; only "pulls" asks for the per-reward simulation
    validation_source = "pulls" if reward_source == "pulls" else "means"
    tape = ((_noise_rows(instance.num_treatments), instance.num_metrics)
            if reward_source == "means" else None)
    known = any(spec.variance_knowledge == "known" for spec in specs)
    shapes = (tape if known else None,
              (2, instance.num_metrics) if validation_source == "means" else None)
    counts = np.zeros((len(specs), 3), dtype=np.int64)
    seconds = np.zeros(len(specs))
    for lo in range(start, stop, BLOCK):
        started = time.perf_counter()
        gens, states = _streams(key, range(lo, min(lo + BLOCK, stop)))
        shared = [None if shape is None
                  else _standard_normals(_restart(child, child_states), shape)
                  for child, child_states, shape in zip(gens, states, shapes)]
        seconds += (time.perf_counter() - started) / len(specs)
        for idx, spec in enumerate(specs):
            started = time.perf_counter()
            noise = [shared[0] if spec.variance_knowledge == "known" else None,
                     shared[1]]
            for child, child_states, drawn in zip(gens, states, noise):
                if drawn is None:
                    _restart(child, child_states)
            try:
                constants, loop_budget = _beliefs(instance, spec, budget,
                                                  source, gens[0])
                if noise[0] is None and tape is not None:
                    noise[0] = _standard_normals(gens[0], tape)
                recommended = _halve(instance, constants, spec, loop_budget,
                                     source, gens[0], noise=noise[0])
            except InsufficientBudgetError as exc:
                raise InsufficientBudgetError(
                    f"cell (algorithm={spec.name}, budget={budget}): {exc}",
                    arm=exc.arm, cell=(spec.name, budget)) from exc
            _, ratio, critical = _standardized(instance, recommended, gens[1],
                                               validation_source, noise[1])
            passed = (ratio >= critical).all(axis=1)
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


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool(threads: int, repetitions: int):
    """One process pool for a whole experiment or sweep, or none when the
    work fits one process.  Chunks follow ``threads``; workers stop at the
    CPU count, so a large ``threads`` queues chunks instead of processes."""
    workers = min(_worker_count(threads, repetitions), _cpu_count())
    if workers <= 1:
        return contextlib.nullcontext()
    return ProcessPoolExecutor(max_workers=workers)


def _run_cells(instance: Instance, config: ExperimentConfig, value_idx: int,
               threads: int, pool) -> tuple[CellReport, ...]:
    chunks = _chunks(config.repetitions, max(1, threads))
    tasks = [(instance, config.algorithms, budget, config.reward_source,
              (config.master_seed, value_idx, budget_idx), lo, hi)
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
    if parameter != "heterogeneity_l" and not all(map(_is_whole, values)):
        raise ValueError(f"{parameter} values must be integers, got {values}")
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
