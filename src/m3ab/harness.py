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
streams' seed words at once (NumPy's SeedSequence hash, redone over the
repetition axis), from which PCG64 seeds itself in C; it draws once the
normals every algorithm reads alike, and only an algorithm that draws from
a stream itself gets that stream's generators, rebuilt from the words (see
``_streams``, ``_count_range`` and the README's "How repetitions run").
A call maps all its (value, budget) units, split into repetition chunks
only as far as it takes to fill every worker equally, over a warm process pool.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import os
import sys
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from m3ab.alloc import fold
from m3ab.core import Instance, _whole, best_treatment, ndtri, z_profile
from m3ab.errors import InsufficientBudgetError
from m3ab.halving import (
    ALGORITHMS,
    AlgorithmSpec,
    _belief_constants,
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
    trials = _whole(trials, "trials", 1)
    successes = _whole(successes, "successes", 0, trials)
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


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """What to run: instance, algorithm menu, budget grid, repetition count,
    and the master seed.

    ``instance`` is an Instance or, for heterogeneity_l sweeps only, a
    one-argument callable mapping the swept parameter value to an Instance.

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
            raise TypeError("instance must be an Instance or a one-argument "
                            "callable returning one")
        specs = tuple(AlgorithmSpec.from_name(a) if isinstance(a, str) else a
                      for a in self.algorithms)
        if not specs:
            raise ValueError("algorithms must be non-empty")
        for spec in specs:
            if not isinstance(spec, AlgorithmSpec):
                raise TypeError(f"not an algorithm name or spec: {spec!r}")
        object.__setattr__(self, "algorithms", specs)
        budgets = tuple(_whole(b, "budgets", 1) for b in self.budgets)
        if not budgets:
            raise ValueError("budgets must be non-empty")
        object.__setattr__(self, "budgets", budgets)
        object.__setattr__(self, "repetitions",
                           _whole(self.repetitions, "repetitions", 1))
        object.__setattr__(self, "master_seed",
                           _whole(self.master_seed, "master_seed", 0))
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
        reps = _whole(self.repetitions, "repetitions", 1)
        left = reps - _whole(self.validation_successes, "validation_successes", 0, reps)
        bounds = dict(budget=(1, None), repetitions=(1, None), type1_errors=(0, left),
                      exploration_successes=(0, reps), validation_successes=(0, reps))
        for name, (low, high) in bounds.items():
            object.__setattr__(self, name, _whole(getattr(self, name), name, low, high))

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


class _Words(ISeedSequence):
    """One stream's seed: asked for generate_state(4, np.uint64), it returns
    its row of _seed_words, the words SeedSequence would return, so PCG64
    seeds itself from them in C.  The row is C-contiguous uint64, as PCG64
    reads its buffer directly."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"seed words give generate_state(4, uint64) only, "
                             f"not ({n_words}, {np.dtype(dtype)})")
        return self.row


def _streams(key: tuple, reps: range) -> list[list]:
    """For i = 0 (exploration) and 1 (validation), one seed per repetition
    from which PCG64 starts as default_rng(SeedSequence([*key, rep],
    spawn_key=(i,))) does, SeedSequence([*key, rep]).spawn(2)[i] of the
    contract.  The words of key, (master_seed, value_idx, budget_idx) of any
    size, and the repetitions go through _seed_words as arrays (at least four
    words before the spawn word, so SeedSequence's zero padding never
    applies); repetition indices of 2**32 or more take SeedSequence itself."""
    prefix = [np.uint32(k >> bit & 0xFFFFFFFF) for k in key
              for bit in range(0, max(k.bit_length(), 1), 32)]
    if reps.stop > 1 << 32:
        return [[np.random.SeedSequence([*key, rep], spawn_key=(child,))
                 for rep in reps] for child in (0, 1)]
    return [list(map(_Words, _seed_words([*prefix, np.arange(
        reps.start, reps.stop, dtype=np.uint32), np.uint32(child)])))
        for child in (0, 1)]


def _generators(seeds: list) -> list:
    """Generators at the start of the given streams."""
    return [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]


def _count_range(instance: Instance, specs: Sequence[AlgorithmSpec],
                 budget: int, reward_source, key: tuple, start: int,
                 stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(exploration, validation, type1) counts (len(specs), 3) and seconds
    (len(specs),) of every algorithm over repetitions [start, stop), in
    blocks of BLOCK repetitions.

    Each block derives its streams' seeds once and draws once what the whole
    menu reads alike: the normals of every known-variance run under the
    "means" law, transposed once to the stage loop's (M, sum of k_s + 1, R),
    and the (R, 2, M) of a "means" validation.  An algorithm that draws from
    a stream itself (the adaptive engine, any "pulls" draw or source object)
    gets that stream's generators rebuilt from the seeds, at their start;
    under "means" the adaptive engine draws its own exploration normals right
    after phase 0.  Derivation and shared-draw time is split evenly over the
    menu.
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
    beliefs = _belief_constants(instance.stddevs[None], instance.validation)
    shapes = (tape if known else None,
              (2, instance.num_metrics) if validation_source == "means" else None)
    counts = np.zeros((len(specs), 3), dtype=np.int64)
    seconds = np.zeros(len(specs))
    for lo in range(start, stop, BLOCK):
        started = time.perf_counter()
        seeds = _streams(key, range(lo, min(lo + BLOCK, stop)))
        shared = [None if shape is None
                  else _standard_normals(_generators(child), shape)
                  for child, shape in zip(seeds, shapes)]
        if shared[0] is not None:
            shared[0] = np.ascontiguousarray(shared[0].T)
        seconds += (time.perf_counter() - started) / len(specs)
        for idx, spec in enumerate(specs):
            started = time.perf_counter()
            noise = [shared[0] if spec.variance_knowledge == "known" else None,
                     shared[1]]
            # a stream read from the shared draws needs no generators
            explore, check = (_generators(child) if drawn is None else None
                              for child, drawn in zip(seeds, noise))
            try:
                constants, loop_budget = _beliefs(instance, spec, budget,
                                                  source, explore, beliefs)
                if noise[0] is None and tape is not None:
                    noise[0] = np.ascontiguousarray(_standard_normals(explore, tape).T)
                recommended = _halve(instance, constants, spec, loop_budget,
                                     source, explore, noise=noise[0])
            except InsufficientBudgetError as exc:
                raise InsufficientBudgetError(
                    f"cell (algorithm={spec.name}, budget={budget}): {exc}",
                    arm=exc.arm, cell=(spec.name, budget)) from exc
            _, ratio, critical = _standardized(instance, recommended, check,
                                               validation_source, noise[1])
            passed = fold(np.logical_and, (ratio >= critical).T)
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


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_warm, _warm_lock = [], threading.Lock()  # [key, pool, values pinning key's ids]


def _end_with_parent() -> None:
    """Worker initializer: end the worker once the process that forked it is
    gone (a parent killed by a signal never shuts its pool down)."""
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


@contextlib.contextmanager
def _pool(workers: int, ours: bool):
    """A pool of that many workers for a call, or None below two; kept for the
    next such call while only m3ab objects cross and the tasks' modules stay put."""
    if workers < 2:
        yield None
        return
    values = [v for name, m in sys.modules.copy().items() if ours and
              name.startswith("m3ab.") and name != "m3ab.cli" for v in vars(m).values()]
    key = (os.getpid(), workers, tuple(map(id, values)))
    with _warm_lock:  # held only to take the pool: calls run side by side
        kept, _warm[:] = _warm[:], []
    if kept and kept[0][0] == key[0] and kept[0] != key:
        kept[1].shutdown()  # a forked child leaves its parent's pool alone
    pool = kept[1] if kept and kept[0] == key else ProcessPoolExecutor(
        max_workers=workers, initializer=_end_with_parent)
    done = keep = False
    try:
        yield pool
        done = keep = True
    except Exception as exc:  # a task's own error keeps the pool
        keep = not isinstance(exc, BrokenExecutor)
        raise
    finally:
        with _warm_lock:  # a pool put back first by another call stays
            if ours and keep and not _warm:
                _warm[:], pool = [key, pool, values], None
        if pool is not None:
            pool.shutdown(wait=done, cancel_futures=True)


def _run(config: ExperimentConfig, points: list,
         threads: int) -> list[tuple[CellReport, ...]]:
    """The cells of every (instance, budgets) point, one tuple per point:
    budget b of point v runs on the seed key (master_seed, v, b).
    With w = min(threads, CPUs), each (v, b) unit splits into
    w / gcd(units, w) repetition chunks (fewer if the repetitions run out),
    so the tasks fill w workers equally and a unit stays whole when the
    units divide evenly over them; the pool has min(w, tasks) workers.  All
    tasks go through one map; the first failing task raises at once; its
    tasks in flight delay the next."""
    units = [(v, instance, b, budget)
             for v, (instance, budgets) in enumerate(points)
             for b, budget in enumerate(budgets)]
    workers = min(threads, _cpu_count())
    chunks = _chunks(config.repetitions, workers // math.gcd(len(units), workers))
    tasks = [(instance, config.algorithms, budget, config.reward_source,
              (config.master_seed, v, b), lo, hi)
             for v, instance, b, budget in units for lo, hi in chunks]
    ours = all(isinstance(o, str) or type(o).__module__.startswith("m3ab.") for o in
               (config.reward_source, *config.algorithms, *(p for p, _ in points)))
    with _pool(min(workers, len(tasks)), ours) as pool:
        parts = list((map if pool is None else pool.map)(_count_range, *zip(*tasks)))
    cells = [[] for _ in points]
    for at, (v, _, _, budget) in enumerate(units):
        own = parts[at * len(chunks):(at + 1) * len(chunks)]
        counts, seconds = (sum(part) for part in zip(*own))
        for spec, (explore, vs, t1), secs in zip(config.algorithms,
                                                 counts.tolist(),
                                                 seconds.tolist()):
            cells[v].append(CellReport(
                algorithm=spec.name, budget=budget,
                repetitions=config.repetitions, exploration_successes=explore,
                validation_successes=vs, type1_errors=t1, seconds=secs))
    return [tuple(own) for own in cells]


def _instance(obj) -> Instance:
    if not isinstance(obj, Instance):
        raise TypeError(f"expected an Instance, got {type(obj).__name__}; a "
                        "one-argument generator such as lambda l: "
                        "preset('exp2', l=l) runs only in a heterogeneity_l sweep")
    return obj


def run_experiment(config: ExperimentConfig, threads: int = 1) -> MonteCarloReport:
    """Run every (algorithm, budget) cell for config.repetitions repetitions.

    Deterministic in config.master_seed and independent of ``threads``
    (budgets and repetitions are spread over processes, but repetition r's
    streams depend only on its own indices).  InsufficientBudgetError is
    re-raised with the offending cell attached.  A ``threads`` of 0 or below
    means 1.
    """
    instance = _instance(config.instance)
    threads = max(1, _whole(threads, "threads"))
    cells, = _run(config, [(instance, config.budgets)], threads)
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
    threads = max(1, _whole(threads, "threads"))
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r}; "
                         f"expected one of {SWEEP_PARAMETERS}")
    values = list(values)
    if not values:
        raise ValueError("values must be non-empty")
    if parameter == "heterogeneity_l":
        if not callable(config.instance):
            raise TypeError("a heterogeneity_l sweep needs a callable instance "
                            "generator, e.g. lambda l: preset('exp2', l=l)")
        points = [(config.instance(value), config.budgets) for value in values]
        if not all(isinstance(instance, Instance) for instance, _ in points):
            raise TypeError("instance generator must return an Instance")
    else:
        base = _instance(config.instance)
        whole = [_whole(value, f"{parameter} values", 1) for value in values]
    if parameter == "budget":
        points = [(base, (value,)) for value in whole]
    elif parameter == "t_v":
        points = [(dataclasses.replace(base, validation=dataclasses.replace(
            base.validation, horizon=value)), config.budgets) for value in whole]
    return [MonteCarloReport(cells=cells, parameter=parameter, value=value)
            for cells, value in zip(_run(config, points, threads), values)]
