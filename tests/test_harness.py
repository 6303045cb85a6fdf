"""Monte-Carlo harness: seeding contract, event partition, Wilson intervals,
sweeps, and the variance-blind-baseline regression."""

import dataclasses
import math
import os
import pickle
import subprocess
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import count_range_reference
from m3ab import (
    AlgorithmSpec,
    Instance,
    InsufficientBudgetError,
    best_treatment,
    preset,
    run_exploration,
    run_validation,
    table1,
    z_profile,
)
from m3ab import harness
from m3ab.halving import ALGORITHMS, FixedMeanSource, GaussianStatSource
from m3ab.harness import (
    METRICS,
    SWEEP_PARAMETERS,
    CellReport,
    ExperimentConfig,
    MonteCarloReport,
    run_experiment,
    sweep,
    wilson_interval,
)

# --- wilson_interval ---------------------------------------------------------


def wilson_endpoints_by_roots(successes, trials, level):
    """Independent check: the Wilson endpoints are the roots p of
    (phat - p)^2 = z^2 p (1 - p) / n."""
    from scipy.stats import norm

    z2 = float(norm.ppf(0.5 + level / 2.0)) ** 2
    n = trials
    phat = successes / n
    roots = np.roots([1.0 + z2 / n, -(2.0 * phat + z2 / n), phat**2])
    return tuple(sorted(float(r) for r in roots))


def test_wilson_pinned_value():
    lo, hi = wilson_interval(50, 100, 0.95)
    assert lo == pytest.approx(0.4038, abs=5e-5)
    assert hi == pytest.approx(0.5962, abs=5e-5)


@pytest.mark.parametrize("successes,trials", [(17, 50), (1, 9), (999, 1000)])
def test_wilson_matches_quadratic_roots(monkeypatch, successes, trials):
    from scipy.stats import norm

    ours = wilson_interval(successes, trials, 0.9)
    oracle = wilson_endpoints_by_roots(successes, trials, 0.9)
    assert ours == pytest.approx(oracle, abs=1e-12)
    # scipy.special.ndtri is the quantile norm.ppf computes, bit for bit
    levels = (1e-9, 0.1, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1 - 1e-12)
    ours = [wilson_interval(successes, trials, level) for level in levels]
    monkeypatch.setattr(harness, "ndtri", norm.ppf)
    assert [wilson_interval(successes, trials, level)
            for level in levels] == ours


def test_wilson_edge_cases():
    lo, hi = wilson_interval(0, 7)
    assert lo == 0.0 and 0.0 < hi < 1.0
    lo, hi = wilson_interval(7, 7)
    assert hi == 1.0 and 0.0 < lo < 1.0


def test_wilson_level_monotone():
    narrow = wilson_interval(30, 80, 0.80)
    wide = wilson_interval(30, 80, 0.99)
    assert wide[0] < narrow[0] < narrow[1] < wide[1]


@pytest.mark.parametrize("successes,trials,level", [
    (1, 0, 0.95), (-1, 10, 0.95), (11, 10, 0.95),
    (5, 10, 0.0), (5, 10, 1.0), (5, 10, -0.3),
])
def test_wilson_invalid_arguments(successes, trials, level):
    with pytest.raises(ValueError):
        wilson_interval(successes, trials, level)


@settings(max_examples=60, deadline=None)
@given(trials=st.integers(1, 2000), frac=st.floats(0.0, 1.0),
       level=st.floats(0.01, 0.999))
def test_wilson_contains_point_estimate(trials, frac, level):
    successes = round(frac * trials)
    lo, hi = wilson_interval(successes, trials, level)
    assert 0.0 <= lo <= successes / trials <= hi <= 1.0
    assert lo < hi


# --- configuration and report plumbing --------------------------------------


def small_config(**overrides):
    defaults = dict(instance=preset("exp2", l=1.0), algorithms=["shrvar"],
                    budgets=[500], repetitions=50, master_seed=123)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_config_normalizes_algorithm_names():
    cfg = small_config(algorithms=["sh-z", AlgorithmSpec("uniform", "mean")])
    assert cfg.algorithms == (AlgorithmSpec("uniform", "min_z"),
                              AlgorithmSpec("uniform", "mean"))


def test_config_rejects_bad_arguments():
    with pytest.raises(ValueError):
        small_config(algorithms=["no-such-algo"])
    with pytest.raises(ValueError):
        small_config(algorithms=[])
    with pytest.raises(TypeError):
        small_config(algorithms=[42])
    with pytest.raises(ValueError):
        small_config(budgets=[])
    with pytest.raises(ValueError):
        small_config(budgets=[500.5])
    with pytest.raises(ValueError):
        small_config(budgets=[0])
    with pytest.raises(ValueError):
        small_config(repetitions=0)
    with pytest.raises(ValueError):
        small_config(master_seed=-1)
    with pytest.raises(ValueError):
        small_config(reward_source="bogus")
    with pytest.raises(TypeError):
        small_config(instance="exp2")


def test_cell_report_counts_and_rates():
    cell = CellReport(algorithm="shrvar", budget=500, repetitions=200,
                      exploration_successes=120, validation_successes=90,
                      type1_errors=10, seconds=1.5)
    assert cell.joint_passes == 100
    assert cell.exploration_accuracy == 0.6
    assert cell.validation_success == 0.45
    assert cell.type1_error == 0.05
    assert cell.joint_pass == 0.5
    assert cell.interval("joint_pass") == wilson_interval(100, 200)
    with pytest.raises(ValueError):
        cell.rate("nope")
    # wall time never participates in equality
    twin = dataclasses.replace(cell, seconds=99.0)
    assert twin == cell


def test_cell_report_rejects_impossible_partition():
    with pytest.raises(ValueError):
        CellReport(algorithm="shrvar", budget=500, repetitions=10,
                   exploration_successes=5, validation_successes=8,
                   type1_errors=3)


@pytest.mark.parametrize("counts, name", [
    ((8000, 10, -1, 0, 0), "exploration_successes"),
    ((8000, 10, 11, 0, 0), "exploration_successes"),  # accuracy read 1.1
    ((8000, 0, 0, 0, 0), "repetitions"),  # rate raised ZeroDivisionError
    ((8000, 10, 5, 2.5, 0), "validation_successes"),
    ((8000, 10, 5, 0, True), "type1_errors"),
    ((True, 10, 5, 0, 0), "budget"),
    ((0, 10, 5, 0, 0), "budget"),
])
def test_cell_report_refuses_impossible_counts(counts, name):
    with pytest.raises(ValueError, match=name):
        CellReport("shrvar", *counts)


def test_cell_report_stores_whole_counts_as_ints():
    cell = CellReport("shrvar", np.int64(8000), 10.0, np.int32(5), 4.0, 0)
    assert cell == CellReport("shrvar", 8000, 10, 5, 4, 0)
    assert all(type(getattr(cell, name)) is int for name in
               ("budget", "repetitions", "exploration_successes",
                "validation_successes", "type1_errors"))


def test_report_cell_lookup():
    report = run_experiment(small_config(algorithms=["shrvar", "sh-z"],
                                         budgets=[500, 800], repetitions=5))
    assert len(report.cells) == 4
    cell = report.cell("sh-z", 800)
    assert cell.algorithm == "sh-z" and cell.budget == 800
    with pytest.raises(KeyError):
        report.cell("shrvar", 999)


# --- run_experiment semantics ------------------------------------------------


def test_zero_noise_single_repetition():
    # With a noiseless reward source the empirical z equals the true z, so the
    # min-z engine always recommends the true best treatment.
    cfg = small_config(reward_source="fixed", repetitions=1)
    report = run_experiment(cfg)
    assert report.cell("shrvar", 500).exploration_accuracy == 1.0


def test_deterministic_replay():
    cfg = small_config(algorithms=["shrvar", "sh"], repetitions=40)
    assert run_experiment(cfg) == run_experiment(cfg)


def test_different_master_seed_changes_counts():
    a = run_experiment(small_config(repetitions=300, master_seed=1))
    b = run_experiment(small_config(repetitions=300, master_seed=2))
    assert a != b


def test_seed_derivation_contract():
    """The documented substream derivation reproduces the report exactly, and
    validation_success / type1_error partition the pass event."""
    instance = preset("exp2", l=2.0)
    cfg = ExperimentConfig(instance=instance, algorithms=["shvar-z"],
                           budgets=[400, 600], repetitions=120, master_seed=99)
    report = run_experiment(cfg)
    star = best_treatment(instance)
    better = z_profile(instance).min_z > 0.0
    for budget_idx, budget in enumerate(cfg.budgets):
        explore = vs = t1 = passes = 0
        for rep in range(cfg.repetitions):
            root = np.random.SeedSequence([99, 0, budget_idx, rep])
            explore_ss, validate_ss = root.spawn(2)
            result = run_exploration(instance, "shvar-z", budget,
                                     reward_source="means",
                                     rng=np.random.default_rng(explore_ss))
            outcome = run_validation(instance, result.recommended,
                                     np.random.default_rng(validate_ss),
                                     reward_source="means")
            explore += result.recommended == star
            passes += outcome.pass_all
            if outcome.pass_all:
                if better[result.recommended - 1]:
                    vs += 1
                else:
                    t1 += 1
        cell = report.cell("shvar-z", budget)
        assert cell.exploration_successes == explore
        assert cell.validation_successes == vs
        assert cell.type1_errors == t1
        assert cell.joint_passes == passes == vs + t1


# (exploration, validation, type1) counts of exp1 at B=8000, 40 reps, master
# seed 0, recorded before the allocation rules, reward draws and stage
# statistics became one array pipeline; any change to a draw, a count or an
# elimination moves at least one of them.
FROZEN_EXP1_COUNTS = {
    "means": {"shrvar": (33, 40, 0), "shrvar-c": (29, 40, 0),
              "shrvar-ada": (20, 40, 0), "sh-z": (24, 40, 0),
              "sh-c": (24, 40, 0), "shvar-z": (13, 40, 0),
              "shvar-c": (15, 40, 0), "neyman-z": (18, 40, 0),
              "sh": (0, 40, 0), "shvar": (0, 40, 0)},
    "pulls": {"shrvar": (34, 40, 0), "shrvar-c": (31, 40, 0),
              "shrvar-ada": (17, 40, 0), "sh-z": (27, 40, 0),
              "sh-c": (27, 40, 0), "shvar-z": (13, 40, 0),
              "shvar-c": (15, 40, 0), "neyman-z": (25, 40, 0),
              "sh": (0, 40, 0), "shvar": (0, 40, 0)},
}


@pytest.mark.parametrize("source", sorted(FROZEN_EXP1_COUNTS))
def test_frozen_seed_counts_exp1(source):
    want = FROZEN_EXP1_COUNTS[source]
    cfg = ExperimentConfig(instance=preset("exp1"), algorithms=list(want),
                           budgets=[8000], repetitions=40, master_seed=0,
                           reward_source=source)
    got = {c.algorithm: (c.exploration_successes, c.validation_successes,
                         c.type1_errors)
           for c in run_experiment(cfg).cells}
    assert got == want


def test_rewards_paired_across_algorithms():
    # The seed derivation excludes the algorithm, so adding an algorithm to
    # the menu never perturbs the other cells; uniform-sampling variants that
    # share the draw order produce identical trajectories per repetition.
    solo = run_experiment(small_config(algorithms=["shrvar"], repetitions=80))
    duo = run_experiment(small_config(algorithms=["shrvar", "sh-z"],
                                      repetitions=80))
    assert duo.cell("shrvar", 500) == solo.cell("shrvar", 500)


def test_budget_cells_stable_under_grid_extension():
    # A budget keeps its substream as long as its position in the grid is
    # unchanged, so extending the grid preserves earlier cells.
    short = run_experiment(small_config(budgets=[500], repetitions=60))
    longer = run_experiment(small_config(budgets=[500, 700], repetitions=60))
    assert longer.cell("shrvar", 500) == short.cell("shrvar", 500)


def test_thread_count_does_not_change_results():
    cfg = small_config(algorithms=["shrvar", "sh"], repetitions=30)
    assert run_experiment(cfg, threads=2) == run_experiment(cfg, threads=1)


# --- blocks of repetitions against the per-repetition loop ------------------


def _reference_cells(cfg, instance, value_idx=0):
    star = best_treatment(instance)
    positive = z_profile(instance).min_z > 0.0
    return {
        (spec.name, budget): count_range_reference(
            run_exploration, run_validation, instance, spec, budget,
            cfg.reward_source, (cfg.master_seed, value_idx, budget_idx),
            0, cfg.repetitions, star, positive)
        for budget_idx, budget in enumerate(cfg.budgets)
        for spec in cfg.algorithms}


def _cell_counts(report):
    return {(c.algorithm, c.budget): (c.exploration_successes,
                                      c.validation_successes, c.type1_errors)
            for c in report.cells}


@pytest.mark.parametrize("source", ["means", "pulls", "fixed"])
@pytest.mark.parametrize("name,knobs,budget", [
    ("exp1", {}, 8000),
    ("exp2", {"l": 5}, 500),  # starved-arm funding
    ("exp3", {"seed": 7}, 120000),
    ("table1", None, 400),  # Bayesian validation
])
def test_blocks_equal_per_repetition_reference(monkeypatch, name, knobs,
                                               budget, source):
    # Blocks of 4 over 10 repetitions (4, 4, 2): every block boundary and a
    # short last block.  The adaptive engine cannot run on two treatments
    # (its variance round leaves the single stage under one pull per arm).
    monkeypatch.setattr(harness, "BLOCK", 4)
    instance = table1() if name == "table1" else preset(name, **knobs)
    algorithms = [a for a in sorted(ALGORITHMS)
                  if instance.num_treatments > 2 or a != "shrvar-ada"]
    cfg = ExperimentConfig(instance=instance, algorithms=algorithms,
                           budgets=[budget], repetitions=10, master_seed=13,
                           reward_source=source)
    assert _cell_counts(run_experiment(cfg)) == _reference_cells(cfg, instance)


@pytest.mark.parametrize("threads", [1, 2])
def test_full_blocks_equal_per_repetition_reference(threads):
    # The real block size plus five: one full block and a partial one.
    instance = preset("exp1")
    cfg = ExperimentConfig(instance=instance, algorithms=["shrvar", "sh"],
                           budgets=[2000], repetitions=harness.BLOCK + 5,
                           master_seed=3)
    assert _cell_counts(run_experiment(cfg, threads=threads)) \
        == _reference_cells(cfg, instance)


@pytest.mark.parametrize("source,algorithms", [
    ("means", ["shrvar-ada", "shrvar", "sh-c"]),
    ("means", ["sh-z", "shrvar-ada", "shvar"]),
    ("means", ["shrvar-c", "neyman-z", "shrvar-ada"]),
    ("means", ["shrvar-ada"]),
    ("pulls", ["shvar-z", "shrvar-ada", "sh"]),
])
def test_menus_around_the_adaptive_engine_equal_reference(monkeypatch, source,
                                                          algorithms):
    # The adaptive engine draws its own exploration noise; the algorithms
    # before and after it must still see their paired draws.  Blocks of 4
    # over 10 repetitions, on an instance whose validation can fail.
    monkeypatch.setattr(harness, "BLOCK", 4)
    instance = preset("exp2", l=3)
    cfg = ExperimentConfig(instance=instance, algorithms=algorithms,
                           budgets=[500, 1500], repetitions=10, master_seed=5,
                           reward_source=source)
    assert _cell_counts(run_experiment(cfg)) == _reference_cells(cfg, instance)


def test_known_variance_tables_derived_once_per_call(monkeypatch):
    # Two blocks of a six-algorithm known-variance menu: one derivation.
    calls = []

    def counted(*args):
        calls.append(args)
        return constants(*args)

    constants = harness._belief_constants
    monkeypatch.setattr(harness, "BLOCK", 4)
    monkeypatch.setattr(harness, "_belief_constants", counted)
    cfg = ExperimentConfig(instance=preset("exp1"), budgets=[2000],
                           algorithms=["shrvar", "sh-z", "shvar-z", "neyman-z",
                                       "sh", "shvar"], repetitions=8)
    run_experiment(cfg)
    assert len(calls) == 1


class _OwnStageLawSource(GaussianStatSource):
    """The "means" law through its own stage method, counting calls."""

    def __init__(self):
        self.calls = 0

    def stage_means_batch(self, mu_rows, sigma_rows, counts, rngs):
        self.calls += 1
        return super().stage_means_batch(mu_rows, sigma_rows, counts, rngs)


def test_source_with_its_own_stage_method_is_called():
    # Only the name "means" is read off shared noise; a source object is
    # called once per stage and block, and here (same law, drawn stage by
    # stage) gives the same counts.
    source = _OwnStageLawSource()
    cfg = small_config(algorithms=["shrvar", "shrvar-ada", "sh"],
                       repetitions=6)
    report = run_experiment(dataclasses.replace(cfg, reward_source=source))
    assert source.calls == 3 * 5  # three algorithms, five stages at A=27
    assert _cell_counts(report) == _cell_counts(run_experiment(cfg))
    rng = np.random.default_rng(8)
    run_exploration(preset("exp1"), "sh-z", 8000, reward_source=source, rng=rng)
    assert source.calls == 3 * 5 + 4
    # so is a plain GaussianStatSource object, with the counts of "means"
    plain = dataclasses.replace(cfg, reward_source=GaussianStatSource())
    assert _cell_counts(run_experiment(plain)) == _cell_counts(run_experiment(cfg))


# The two identities the batched engine rests on, on the installed numpy.

@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=3),
       st.integers(1, 4), st.integers(-40, 40), st.integers(0, 2**63 - 1))
def test_normal_equals_loc_plus_scale_times_standard_normal(shape, n, scale_exp,
                                                             seed):
    params = np.random.default_rng(seed)
    mu = params.normal(size=shape) * 10.0 ** params.integers(-6, 7)
    sd = params.uniform(0.0, 2.0, size=shape) * 2.0**scale_exp
    noise = np.empty(shape)
    np.random.default_rng(seed).standard_normal(out=noise)
    assert (mu + sd * noise).tobytes() \
        == np.random.default_rng(seed).normal(mu, sd).tobytes()
    # the broadcast form with a leading size, as in per-pull draws
    noise = np.random.default_rng(seed).standard_normal((n, *shape))
    want = np.random.default_rng(seed).normal(mu, sd, size=(n, *shape))
    assert (mu + sd * noise).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=8), st.integers(1, 4),
       st.integers(0, 2**63 - 1))
def test_consecutive_fills_equal_one_fill_of_their_concatenation(rows, m, seed):
    # A run's stages fill (k_s+1, M) buffers one after another; one fill of
    # the (sum of k_s+1, M) concatenation gives the same normals and leaves
    # the generator in the same state, so a run's noise can be drawn ahead.
    parts_rng, whole_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    parts = [np.empty((k, m)) for k in rows]
    for part in parts:
        parts_rng.standard_normal(out=part)
    whole = np.empty((sum(rows), m))
    whole_rng.standard_normal(out=whole)
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    assert parts_rng.bit_generator.state == whole_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
def test_spawn_key_builds_the_spawned_child_state(key):
    children = np.random.SeedSequence(key).spawn(2)
    for i, child in enumerate(children):
        direct = np.random.SeedSequence(key, spawn_key=(i,))
        assert np.random.PCG64(direct).state == np.random.PCG64(child).state


# Entropy words of one, two and three 32-bit words, as SeedSequence splits them.
_WORDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                   st.integers(2**64, 2**96))


@settings(max_examples=80, deadline=None)
@given(key=st.tuples(_WORDS, _WORDS, _WORDS),
       start=st.one_of(st.integers(0, 10**6), st.integers(2**32 - 6, 2**32 + 6)),
       count=st.integers(1, 12))
@example(key=(2**32 + 5, 0, 0), start=0, count=3)
@example(key=(2**64 + 3, 1, 2**40), start=2**32 - 2, count=4)
def test_streams_equal_numpy_seed_sequence(key, start, count):
    # The array derivation against NumPy itself: a NumPy release that changes
    # SeedSequence or PCG64 seeding fails here, not silently in the counts.
    reps = range(start, start + count)
    seeds = harness._streams(key, reps)
    for child in (0, 1):
        gens = harness._generators(seeds[child])
        assert len(gens) == count
        for rep, gen in zip(reps, gens):
            want = np.random.default_rng(
                np.random.SeedSequence([*key, rep], spawn_key=(child,)))
            assert gen.bit_generator.state == want.bit_generator.state
            assert gen.standard_normal(3).tobytes() \
                == want.standard_normal(3).tobytes()
            assert gen.integers(2**63) == want.integers(2**63)


@pytest.mark.parametrize("n_words,dtype", [
    (4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.int64),
])
def test_seed_words_serve_only_pcg64s_request(n_words, dtype):
    # A seed derived for PCG64 cannot stand in for a SeedSequence elsewhere:
    # any other request than PCG64's (4, uint64) is refused, not answered
    # with words that would seed a different generator.
    seed = harness._streams((1, 2, 3), range(5, 6))[0][0]
    assert seed.generate_state(4, np.uint64).tobytes() == np.random.SeedSequence(
        [1, 2, 3, 5], spawn_key=(0,)).generate_state(4, np.uint64).tobytes()
    with pytest.raises(ValueError, match="generate_state"):
        seed.generate_state(n_words, dtype)
    with pytest.raises(ValueError, match="generate_state"):
        np.random.Philox(seed)


_FRESH_RUN = ("import pickle, sys; from m3ab.harness import run_experiment; "
              "pickle.dump(run_experiment(pickle.load(sys.stdin.buffer)), "
              "sys.stdout.buffer)")


def test_generator_pool_isolation():
    # Nothing carries over from one run or thread to another.
    cfg = small_config(algorithms=["shrvar", "shrvar-ada", "sh"],
                       budgets=[500, 1500], repetitions=30, master_seed=21)
    other = small_config(algorithms=["sh-z", "shrvar-ada"], repetitions=60,
                         master_seed=22, reward_source="pulls")
    serial, other_serial = run_experiment(cfg), run_experiment(other)
    # in a fresh process
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN],
                          input=pickle.dumps(cfg), capture_output=True,
                          env=env, check=True)
    assert pickle.loads(proc.stdout) == serial
    # right after runs of more than one block that draw from their streams
    for source, algorithms in (("means", ["shrvar-ada"]), ("pulls", ["sh"])):
        run_experiment(small_config(algorithms=algorithms, reward_source=source,
                                    repetitions=harness.BLOCK + 3))
    assert run_experiment(cfg) == serial
    # in three threads at once, switching often
    barrier = threading.Barrier(3)

    def twice(config):
        barrier.wait(timeout=60)
        return [run_experiment(config) for _ in range(2)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as threads:
            runs = [threads.submit(twice, c) for c in (cfg, other, cfg)]
            results = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert results == [[serial] * 2, [other_serial] * 2, [serial] * 2]


@pytest.mark.parametrize("master_seed", [2**32 + 5, 2**64 + 3])
def test_multi_word_master_seeds_equal_reference(master_seed):
    instance = preset("exp2", l=3)
    cfg = ExperimentConfig(instance=instance, algorithms=["shrvar", "shrvar-ada"],
                           budgets=[500], repetitions=20, master_seed=master_seed)
    assert _cell_counts(run_experiment(cfg)) == _reference_cells(cfg, instance)


# --- process pools ------------------------------------------------------------


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size and its
    shutdowns (size, wait, cancel_futures), maps in-process and runs no
    worker initializer."""

    sizes: list[int] = []
    shutdowns: list[tuple[int, bool, bool]] = []

    def __init__(self, max_workers, initializer=None):
        self.max_workers = max_workers
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append((self.max_workers, wait, cancel_futures))


def test_one_pool_per_process_and_size(monkeypatch):
    # A pool is sized by the work and kept for the next call of the same
    # size; a call of another size shuts it down, joining it, first.
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(_SerialPool, "shutdowns", [])
    monkeypatch.setattr(harness, "_cpu_count", lambda: 8)
    cfg = small_config(instance=lambda l: preset("exp2", l=l), repetitions=3)
    sweep(cfg, "heterogeneity_l", [0, 1, 2], threads=8)
    assert _SerialPool.sizes == [8]  # one pool for three values, 9 tasks
    run_experiment(small_config(repetitions=1), threads=4)
    assert _SerialPool.sizes == [8]  # one repetition: no pool at all
    sweep(cfg, "heterogeneity_l", [3, 4, 5], threads=8)
    assert _SerialPool.sizes == [8] and _SerialPool.shutdowns == []
    run_experiment(small_config(budgets=[500, 600], repetitions=4), threads=2)
    assert _SerialPool.sizes == [8, 2]
    assert _SerialPool.shutdowns == [(8, True, False)]
    run_experiment(small_config(budgets=[700, 800], repetitions=6), threads=2)
    assert _SerialPool.sizes == [8, 2] and _SerialPool.shutdowns == [(8, True, False)]


def test_warm_pool_keeps_its_workers(monkeypatch):
    # Two real two-worker calls run on the same worker processes, and each
    # gives the counts of its one-process run.
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    first = small_config(algorithms=["shrvar", "sh"], budgets=[500, 600],
                         repetitions=20)
    second = small_config(instance=preset("exp2", l=3.0), budgets=[700],
                          repetitions=30, master_seed=5)
    assert run_experiment(first, threads=2) == run_experiment(first)
    executor = harness._warm[1]
    workers = sorted(executor._processes)
    assert len(workers) == 2
    assert run_experiment(second, threads=2) == run_experiment(second)
    assert harness._warm[1] is executor and sorted(executor._processes) == workers


def test_warm_pool_outlives_a_failing_task(monkeypatch):
    # A task's own error keeps the pool: the next call runs on it and still
    # gives its one-process counts, behind any task left in flight.
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    with pytest.raises(InsufficientBudgetError):
        sweep(small_config(), "budget", [3, 500, 600, 700], threads=2)
    executor = harness._warm[1]
    cfg = small_config(algorithms=["shrvar", "sh"], budgets=[500, 600],
                       repetitions=40)
    assert run_experiment(cfg, threads=2) == run_experiment(cfg)
    assert harness._warm[1] is executor


@pytest.mark.parametrize("error", [BrokenProcessPool("a worker died"),
                                   KeyboardInterrupt()])
def test_broken_or_interrupted_pool_is_discarded(monkeypatch, error):
    # A pool that broke, or was interrupted with tasks in flight, is shut
    # down without waiting, its queued tasks cancelled; the next call makes
    # a new one.
    class Pool(_SerialPool):
        def map(self, fn, *iterables):
            if len(self.sizes) == 1:
                raise error
            return super().map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(_SerialPool, "shutdowns", [])
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    cfg = small_config(repetitions=10)
    with pytest.raises(type(error)):
        run_experiment(cfg, threads=2)
    assert harness._warm == [] and _SerialPool.shutdowns == [(2, False, True)]
    assert run_experiment(cfg, threads=2) == run_experiment(cfg)
    assert _SerialPool.sizes == [2, 2] and len(_SerialPool.shutdowns) == 1


def test_forked_child_drops_the_inherited_pool(monkeypatch):
    # In a forked child (another pid) the parent's pool is neither reused
    # nor shut down: its workers and queues belong to the parent.
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(_SerialPool, "shutdowns", [])
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    cfg = small_config(repetitions=10)
    run_experiment(cfg, threads=2)
    inherited, parent = harness._warm[1], os.getpid()
    monkeypatch.setattr(os, "getpid", lambda: parent + 1)
    assert run_experiment(cfg, threads=2) == run_experiment(cfg)
    assert _SerialPool.sizes == [2, 2] and harness._warm[1] is not inherited
    assert _SerialPool.shutdowns == []


def test_a_rebound_module_value_reaches_the_workers(monkeypatch):
    # Workers hold the m3ab module values of their fork.  A value rebound
    # after the pool was kept (here a patched function the tasks call) makes
    # the next call fork a fresh pool, so threads=2 still equals threads=1.
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    cfg = small_config(algorithms=["shrvar", "sh"], budgets=[500, 600],
                       repetitions=40)
    plain = run_experiment(cfg, threads=2)
    shifted = run_experiment(dataclasses.replace(cfg, master_seed=124))
    assert plain == run_experiment(cfg) and plain != shifted
    kept, streams = harness._warm[1], harness._streams
    monkeypatch.setattr(harness, "_streams", lambda key, reps: streams(
        (key[0] + 1, *key[1:]), reps))
    assert run_experiment(cfg, threads=2) == shifted
    assert harness._warm[1] is not kept


def test_user_source_runs_as_last_defined(monkeypatch):
    # A source class from a user's namespace crosses to the workers by
    # reference, so its call joins the kept pool and runs on one forked
    # after the class's latest definition: a class defined after an earlier
    # pooled call, and then redefined, runs as threads=1 runs it.
    module = types.ModuleType("_user_sources")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    cfg = small_config(algorithms=["shrvar", "sh"], budgets=[500, 600],
                       repetitions=40)
    assert run_experiment(cfg, threads=2) == run_experiment(cfg)
    reports = []
    for base in (FixedMeanSource, GaussianStatSource):
        module.Source = type("Source", (base,), {"__module__": module.__name__})
        user = dataclasses.replace(cfg, reward_source=module.Source())
        reports.append(run_experiment(user, threads=2))
        assert reports[-1] == run_experiment(user)
        assert harness._warm == []
    assert reports[0] != reports[1]


def test_pooled_calls_from_threads_run_side_by_side(monkeypatch):
    # The kept pool is taken for a call and put back after it.  A call from
    # another thread that finds none kept makes its own and maps at the
    # same time; the pool put back first stays, and the later one is shut
    # down.
    mapping, other_done = threading.Event(), threading.Event()
    overlapped = []

    class Pool(_SerialPool):
        def map(self, fn, *iterables):
            if self.max_workers == 2:
                mapping.set()
                overlapped.append(other_done.wait(60))
            return super().map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(_SerialPool, "shutdowns", [])
    monkeypatch.setattr(harness, "_cpu_count", lambda: 3)
    two, three = (small_config(budgets=[500 + 100 * b for b in range(units)],
                               repetitions=6) for units in (2, 3))

    def other():
        mapping.wait(60)
        report = run_experiment(three, threads=3)
        other_done.set()
        return report

    with ThreadPoolExecutor(1) as thread:
        later = thread.submit(other)
        assert run_experiment(two, threads=2) == run_experiment(two)
        assert later.result() == run_experiment(three)
    assert overlapped == [True] and _SerialPool.sizes == [2, 3]
    assert _SerialPool.shutdowns == [(2, True, True)]
    assert harness._warm[1].max_workers == 3


class _TaskPool(_SerialPool):
    """A _SerialPool that also records each task's repetition range."""

    ranges: list[tuple[int, int]] = []

    def map(self, fn, *iterables):
        columns = [list(column) for column in iterables]
        self.ranges.extend(zip(columns[-2], columns[-1]))  # start, stop
        return super().map(fn, *columns)


@pytest.mark.parametrize("threads,budgets,repetitions,workers,chunks", [
    (1, 1, 100, 1, 1), (2, 1, 500, 2, 2), (4, 1, 1, 1, 1), (3, 1, 7, 3, 3),
    (4, 1, 6, 3, 3), (2, 6, 500, 2, 1), (8, 3, 3, 8, 3), (3, 2, 1, 2, 1),
    (5, 2, 10, 5, 5), (2, 3, 10, 2, 2), (4, 5, 8, 4, 4), (4, 6, 12, 4, 2),
    (16, 2, 40, 8, 4),
])
def test_worker_count_never_exceeds_chunks(monkeypatch, threads, budgets,
                                           repetitions, workers, chunks):
    # With w = min(threads, CPUs), each (value, budget) unit splits into
    # w / gcd(units, w) chunks of repetitions, so the task count is a
    # multiple of w: 3 units on 2 threads run as 6 half units, not as 3
    # whole ones of which one worker gets two.  Units stay whole when they
    # divide evenly over w.  The pool has min(threads, tasks, CPUs) workers,
    # and none is made for one.
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _TaskPool)
    monkeypatch.setattr(_TaskPool, "sizes", [])
    monkeypatch.setattr(_TaskPool, "ranges", [])
    monkeypatch.setattr(harness, "_cpu_count", lambda: 8)
    cfg = small_config(budgets=[500 + 50 * b for b in range(budgets)],
                       repetitions=repetitions)
    assert run_experiment(cfg, threads=threads) == run_experiment(cfg)
    assert _TaskPool.sizes == ([workers] if workers > 1 else [])
    if workers > 1:
        assert len(_TaskPool.ranges) == budgets * chunks
        assert _TaskPool.ranges[:chunks] == harness._chunks(repetitions, chunks)


def test_pool_workers_stop_at_the_cpu_count(monkeypatch):
    # Chunks still follow threads, so the counts do not move; only the
    # number of worker processes is capped.  No process is started.
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    cfg = small_config(algorithms=["shrvar", "sh"], repetitions=12)
    assert run_experiment(cfg, threads=5000) == run_experiment(cfg, threads=1)
    assert _SerialPool.sizes == [2]
    monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
    assert run_experiment(cfg, threads=5000) == run_experiment(cfg, threads=1)
    assert _SerialPool.sizes == [2]  # one CPU: no pool at all


def test_threads_of_zero_or_below_mean_one(monkeypatch):
    # run_experiment and sweep normalise threads once; the helpers below
    # them take a positive count.
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(harness, "_cpu_count", lambda: 8)
    cfg = small_config(repetitions=10)
    for threads in (0, -3, np.int64(0), -2.0):
        assert run_experiment(cfg, threads=threads) == run_experiment(cfg)
        assert sweep(cfg, "budget", [500], threads=threads) == sweep(cfg, "budget", [500])
    assert _SerialPool.sizes == []


def test_cpu_count_is_positive():
    assert harness._cpu_count() >= 1


def test_insufficient_budget_identifies_cell():
    cfg = small_config(algorithms=["shrvar", "sh-z"], budgets=[500, 3])
    with pytest.raises(InsufficientBudgetError) as excinfo:
        run_experiment(cfg)
    assert excinfo.value.cell == ("shrvar", 3)
    assert "shrvar" in str(excinfo.value) and "budget=3" in str(excinfo.value)


def test_first_failing_task_raises_without_waiting_for_tasks_in_flight(monkeypatch):
    # A budget sweep on two workers whose first unit fails at once while the
    # next ones run: the first unit's error comes out before any other task
    # ends, and tasks not yet started never start.  Threads stand in for the
    # worker processes, so the patched task function reaches them.
    pools, started, finished, release = [], [], [], threading.Event()

    def pool(max_workers, initializer=None):  # a thread has no parent to watch
        pools.append(ThreadPoolExecutor(max_workers))
        return pools[-1]

    def task(instance, specs, budget, source, key, start, stop):
        if budget == 3:
            raise InsufficientBudgetError("cell (algorithm=shrvar, budget=3): too small",
                                          arm=0, cell=("shrvar", 3))
        started.append(budget)
        release.wait(5.0)
        finished.append(budget)
        return np.zeros((len(specs), 3), dtype=np.int64), np.zeros(len(specs))

    monkeypatch.setattr(harness, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(harness, "_count_range", task)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    try:
        with pytest.raises(InsufficientBudgetError) as excinfo:
            sweep(small_config(), "budget", [3, 500, 600, 700, 800, 900], threads=2)
        assert finished == []
    finally:
        release.set()
        for executor in pools:
            executor.shutdown()
    assert (excinfo.value.arm, excinfo.value.cell) == (0, ("shrvar", 3))
    assert str(excinfo.value) == "cell (algorithm=shrvar, budget=3): too small"
    assert len(pools) == 1 and len(started) <= 2 and set(started) <= {500, 600}


def test_starved_stage_error_names_arm_and_cell():
    # exp2's 28 arms at B=100 over 5 stages: 20 pulls a stage.  The first
    # repetition's relative-variance floors starve treatment 1 first.
    cfg = small_config(instance=preset("exp2", l=5.0), budgets=[100],
                       repetitions=4)
    with pytest.raises(InsufficientBudgetError) as excinfo:
        run_experiment(cfg)
    assert (excinfo.value.arm, excinfo.value.cell) == (1, ("shrvar", 100))
    assert str(excinfo.value) == ("cell (algorithm=shrvar, budget=100): "
                                  "stage budget 20 cannot cover 28 arms")


def test_disjoint_seeds_agree_within_intervals():
    cells = [
        run_experiment(small_config(repetitions=2000, master_seed=s))
        .cell("shrvar", 500)
        for s in (101, 202)
    ]
    (a_lo, a_hi), (b_lo, b_hi) = (c.interval("exploration_accuracy")
                                  for c in cells)
    assert a_lo < b_hi and b_lo < a_hi


# --- sweep -------------------------------------------------------------------


def test_callable_instance_runs_only_in_a_heterogeneity_l_sweep():
    generator = small_config(instance=lambda l: preset("exp2", l=l))
    for run in (lambda: run_experiment(generator),
                lambda: sweep(generator, "budget", [500]),
                lambda: sweep(generator, "t_v", [100]),
                lambda: run_experiment(small_config(instance=lambda: preset("exp1")))):
        with pytest.raises(TypeError, match="heterogeneity_l"):
            run()
    l_sweep, = sweep(small_config(instance=lambda l: preset("exp2", l=l),
                                  repetitions=20), "heterogeneity_l", [1.0])
    assert l_sweep.cells == run_experiment(small_config(repetitions=20)).cells


def test_sweep_rejects_bad_arguments():
    cfg = small_config()
    with pytest.raises(ValueError):
        sweep(cfg, "delta", [0.1])
    with pytest.raises(ValueError):
        sweep(cfg, "budget", [])
    with pytest.raises(TypeError):
        sweep(cfg, "heterogeneity_l", [1.0])  # instance is not a generator


def test_sweep_single_budget_equals_run_experiment():
    cfg = small_config(repetitions=80)
    report = sweep(cfg, "budget", [500])[0]
    assert report.cells == run_experiment(cfg).cells
    assert report.parameter == "budget" and report.value == 500


def test_sweep_budget_accuracy_increases():
    cfg = ExperimentConfig(instance=preset("exp1"), algorithms=["shrvar"],
                           budgets=[2000], repetitions=400, master_seed=5)
    reports = sweep(cfg, "budget", [500, 2000, 8000])
    accs = [r.cells[0].exploration_accuracy for r in reports]
    assert accs[0] < accs[1] < accs[2]


def test_sweep_heterogeneity_crossover():
    """At strong variance heterogeneity the relative-variance learner keeps
    its validation-success rate while the variance-blind baselines collapse
    (they chase big raw means straight into hard-to-validate arms); the
    variance-aware baseline still beats uniform sampling."""
    cfg = ExperimentConfig(instance=lambda l: preset("exp2", l=l),
                           algorithms=["shrvar", "shvar", "sh"],
                           budgets=[500], repetitions=6000, master_seed=31)
    (report,) = sweep(cfg, "heterogeneity_l", [3.0])
    shrvar = report.cell("shrvar", 500)
    shvar = report.cell("shvar", 500)
    sh = report.cell("sh", 500)
    # non-overlapping intervals: shrvar far above both baselines
    assert shrvar.interval("validation_success")[0] > \
        shvar.interval("validation_success")[1]
    assert shrvar.validation_success > 0.5
    # variance-aware beats variance-blind among the baselines
    assert shvar.validation_successes > sh.validation_successes


def test_sweep_heterogeneity_annotates_reports():
    cfg = ExperimentConfig(instance=lambda l: preset("exp2", l=l),
                           algorithms=["shrvar"], budgets=[500],
                           repetitions=10, master_seed=1)
    reports = sweep(cfg, "heterogeneity_l", [0.5, 2.0])
    assert [r.value for r in reports] == [0.5, 2.0]
    assert all(r.parameter == "heterogeneity_l" for r in reports)
    assert reports[0].cells != reports[1].cells  # different instances


def test_sweep_validation_horizon():
    # Longer validation horizons make every pass test stronger for a
    # uniformly-better recommendation: the joint pass rate rises.
    cfg = ExperimentConfig(instance=preset("exp1"), algorithms=["shrvar"],
                           budgets=[2000], repetitions=300, master_seed=17)
    reports = sweep(cfg, "t_v", [10, 1000])
    low, high = (r.cells[0].joint_pass for r in reports)
    assert low < high
    assert reports[0].parameter == "t_v" and reports[0].value == 10
    # the reward model is untouched; only the validation changed
    assert reports[0].cells[0].repetitions == 300


def test_sweep_rejects_non_integer_budget():
    with pytest.raises(ValueError, match="budget values must be a whole number"):
        sweep(small_config(), "budget", [8000.7])


def test_sweep_rejects_non_integer_t_v():
    with pytest.raises(ValueError, match="t_v values must be a whole number"):
        sweep(small_config(), "t_v", [1000.9])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_counts_are_value_errors(value):
    for field, message in (("budgets", "budgets must be a whole number"),
                           ("repetitions", "repetitions must be a whole number >= 1"),
                           ("master_seed", "master_seed must be a whole number >= 0")):
        with pytest.raises(ValueError, match=message):
            small_config(**{field: [value] if field == "budgets" else value})
    for parameter in ("budget", "t_v"):
        with pytest.raises(ValueError, match=f"{parameter} values must be a whole number"):
            sweep(small_config(), parameter, [value])


def test_sweep_t_v_equals_freshly_built_instances():
    """Each swept horizon runs on a new instance with its own tables, never
    on tables cached on the base instance."""
    base = preset("exp2", l=2.0)  # t_v = 100; validation is borderline
    z_profile(base)  # the base instance's tables exist before the sweep
    cfg = ExperimentConfig(instance=base, algorithms=["shrvar", "sh"],
                           budgets=[500], repetitions=200, master_seed=4)
    reports = sweep(cfg, "t_v", [200, 1000])
    for value_idx, (report, t_v) in enumerate(zip(reports, [200, 1000])):
        old = base.validation
        fresh = Instance(means=base.means.copy(), stddevs=base.stddevs.copy(),
                         validation=type(old)(old.variant, t_v, delta=old.delta,
                                              q=old.q, tau=old.tau))
        direct = dataclasses.replace(cfg, instance=fresh)
        want = harness._run(direct, [(fresh, direct.budgets)] * 2, 1)[value_idx]
        if value_idx == 0:
            assert want == run_experiment(direct).cells
        assert report.cells == want
    assert reports[0].cells != reports[1].cells


def test_pooled_sweep_equals_per_value_runs():
    # One map over every (value, budget) unit, here in a process pool with
    # whole units, gives each value the counts it gets run on its own.
    levels = [1, 4, 0]
    cfg = small_config(instance=lambda l: preset("exp2", l=l),
                       algorithms=["shrvar", "sh"], budgets=[500, 700],
                       repetitions=10, master_seed=9)
    reports = sweep(cfg, "heterogeneity_l", levels, threads=3)
    assert [r.value for r in reports] == levels
    for value_idx, (report, level) in enumerate(zip(reports, levels)):
        alone = dataclasses.replace(cfg, instance=preset("exp2", l=level))
        assert _cell_counts(report) == _reference_cells(alone, alone.instance,
                                                        value_idx)
        if value_idx == 0:
            assert report.cells == run_experiment(alone).cells


def test_sweep_t_v_rejects_odd_horizon():
    cfg = small_config()
    with pytest.raises(ValueError):
        sweep(cfg, "t_v", [101])
