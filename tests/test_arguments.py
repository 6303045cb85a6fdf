"""One rule for whole-number and treatment-id arguments, at every entry point.

Python ints, NumPy integers and whole floats are accepted and give the
result of the int call; a bool, a fraction, NaN, +-inf or a value out of
range is a ValueError that names the argument."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from m3ab import (
    ExperimentConfig,
    ValidationConfig,
    empirical_z,
    error_bound,
    h3,
    joint_pass_probability,
    num_stages,
    pass_probability,
    preset,
    run_experiment,
    run_exploration,
    run_validation,
    sweep,
    table1,
    wilson_interval,
)
from m3ab.alloc import (
    neyman_allocation,
    shrvar_allocation,
    uniform_allocation,
    variance_allocation,
)
from m3ab.halving import (
    confidence_eliminate,
    mean_eliminate,
    minz_eliminate,
    run_exploration_adaptive,
)

EXP1 = preset("exp1")  # 16 treatments, 3 metrics
SMALL = preset("exp3", num_treatments=4)
SAMPLES = {0: np.zeros((2, 3)), 1: np.ones((2, 3)), 2: np.ones((3, 3)),
           3: np.full((2, 3), 2.0)}
STATS = empirical_z(SAMPLES, EXP1, [1, 2, 3])


def _config(**overrides):
    fields = dict(instance=preset("exp2", l=1.0), algorithms=["shrvar"],
                  budgets=[500], repetitions=5, master_seed=3)
    return ExperimentConfig(**{**fields, **overrides})


def _outcome(result):
    return (result.recommended, result.total_pulls_used,
            [stats.counts.tolist() for stats in result.trail])


def _explore(algorithm):
    def run(budget):
        return _outcome(run_exploration(EXP1, algorithm, budget, "means",
                                        np.random.default_rng(0)))
    return run


def _validate(treatment):
    out = run_validation(table1(), treatment, np.random.default_rng(0), "means")
    return (out.per_metric_pass.tolist(), out.ate_estimates.tolist(),
            out.posterior, out.p.tolist())


# (id, call with the argument under test, name in the message, a valid int,
#  an out-of-range int or None when the argument has no range)
ENTRY_POINTS = [
    ("ExperimentConfig.budgets", lambda v: run_experiment(_config(budgets=[v])),
     "budgets", 500, 0),
    ("ExperimentConfig.repetitions",
     lambda v: run_experiment(_config(repetitions=v)), "repetitions", 5, 0),
    ("ExperimentConfig.master_seed",
     lambda v: run_experiment(_config(master_seed=v)), "master_seed", 3, -1),
    ("sweep.budget", lambda v: sweep(_config(), "budget", [v]), "budget values",
     500, 0),
    ("sweep.t_v", lambda v: sweep(_config(), "t_v", [v]), "t_v values", 100, 0),
    ("h3.max_enumeration", lambda v: h3(SMALL, max_enumeration=v),
     "max_enumeration", 4, None),
    ("shrvar_allocation.active", lambda v: shrvar_allocation(EXP1, [v, 2], 100),
     "active set", 1, 17),
    ("uniform_allocation.active", lambda v: uniform_allocation([v, 2], 100),
     "active set", 1, 0),
    ("variance_allocation.active",
     lambda v: variance_allocation(EXP1, [v, 2], 100), "active set", 1, 17),
    ("neyman_allocation.active", lambda v: neyman_allocation(EXP1, [v, 2], 100),
     "active set", 1, 17),
    ("empirical_z.active",
     lambda v: empirical_z(SAMPLES, EXP1, [v, 2]).z.tolist(), "active set", 1, 0),
    ("uniform_allocation.stage_budget", lambda v: uniform_allocation([1, 2], v),
     "stage_budget", 30, 2**40 + 1),
    ("shrvar_allocation.stage_budget",
     lambda v: shrvar_allocation(EXP1, [1, 2], v), "stage_budget", 30, 2**40 + 1),
    ("variance_allocation.stage_budget",
     lambda v: variance_allocation(EXP1, [1, 2], v), "stage_budget", 30, 2**40 + 1),
    ("neyman_allocation.stage_budget",
     lambda v: neyman_allocation(EXP1, [1, 2], v), "stage_budget", 30, 2**40 + 1),
    ("ValidationConfig.horizon",
     lambda v: ValidationConfig.non_bayesian([0.05], v), "horizon", 100, 0),
    ("wilson_interval.successes", lambda v: wilson_interval(v, 10), "successes",
     3, 11),
    ("wilson_interval.trials", lambda v: wilson_interval(3, v), "trials", 10, 0),
    ("pass_probability.treatment", lambda v: pass_probability(EXP1, v, 0),
     "treatment", 1, 17),
    ("pass_probability.metric", lambda v: pass_probability(EXP1, 1, v), "metric",
     0, 3),
    ("joint_pass_probability.treatment",
     lambda v: joint_pass_probability(EXP1, v), "treatment", 2, 0),
    ("error_bound.num_treatments", lambda v: error_bound(8000, v, 3, 10.0),
     "num_treatments", 16, 0),
    ("error_bound.num_metrics", lambda v: error_bound(8000, 16, v, 10.0),
     "num_metrics", 3, 0),
    ("preset.num_treatments", lambda v: preset("exp3", num_treatments=v),
     "num_treatments", 4, 1),
    ("preset.num_small", lambda v: preset("neyman_gap", num_small=v), "num_small",
     3, 0),
    ("run_exploration.budget", _explore("shrvar"), "budget", 8000, -1),
    ("run_exploration.budget (adaptive)", _explore("shrvar-ada"), "budget", 8000,
     -1),
    ("run_exploration_adaptive.budget",
     lambda v: _outcome(run_exploration_adaptive(EXP1, v, np.random.default_rng(0),
                                                 "means")), "budget", 8000, -1),
    ("run_validation.treatment", _validate, "treatment", 2, 3),
    ("minz_eliminate.keep", lambda v: minz_eliminate(STATS, v), "keep", 2, 4),
    ("mean_eliminate.keep", lambda v: mean_eliminate(STATS, v), "keep", 2, 0),
    ("confidence_eliminate.keep", lambda v: confidence_eliminate(STATS, v), "keep",
     2, 4),
    ("run_experiment.threads", lambda v: run_experiment(_config(), threads=v),
     "threads", 1, None),
    ("sweep.threads", lambda v: sweep(_config(), "budget", [500], threads=v),
     "threads", 1, None),
    ("num_stages.num_treatments", num_stages, "num_treatments", 16, 0),
]
BAD_VALUES = {"bool": True, "fraction": 1.5, "nan": math.nan, "inf": math.inf,
              "-inf": -math.inf}
ROWS = [pytest.param(call, name, bad, id=f"{entry}-{kind}")
        for entry, call, name, _, out_of_range in ENTRY_POINTS
        for kind, bad in [*BAD_VALUES.items(), ("out-of-range", out_of_range)]
        if bad is not None]


@pytest.mark.parametrize("call, name, bad", ROWS)
def test_bad_whole_number_is_a_value_error_naming_the_argument(call, name, bad):
    # Once budgets=[True] ran at budget 1, wilson_interval(1.5, 2) truncated,
    # run_exploration(..., 8000.0) failed inside stage_counts or with a
    # TypeError, pass_probability(exp1, 1.5, 0) with an IndexError,
    # minz_eliminate(stats, True) kept one arm, run_experiment(cfg,
    # threads=2.5) started a pool and num_stages(0) raised "math domain error".
    with pytest.raises(ValueError, match=re.escape(name) + " must be a whole number"):
        call(bad)


@pytest.mark.parametrize("call, good", [
    pytest.param(call, good, id=entry)
    for entry, call, _, good, _ in ENTRY_POINTS])
def test_whole_floats_and_numpy_integers_equal_the_int_call(call, good):
    want = call(good)
    assert call(float(good)) == want
    assert call(np.int64(good)) == want
    assert call(np.int32(good)) == want


def test_sweep_reports_keep_the_callers_value():
    report, = sweep(_config(), "budget", [500.0])
    assert type(report.value) is float and report.value == 500.0
    assert report.cells == run_experiment(_config()).cells


@pytest.mark.parametrize("call", [
    pytest.param(lambda: shrvar_allocation(EXP1, [1, 1, 2], 100), id="alloc"),
    pytest.param(lambda: variance_allocation(EXP1, [1, 2, 2], 100),
                 id="variance_allocation"),
    pytest.param(lambda: neyman_allocation(EXP1, [2, 1, 2], 100),
                 id="neyman_allocation"),
    pytest.param(lambda: uniform_allocation([], 100), id="empty"),
])
def test_treatment_sets_must_be_nonempty_and_distinct(call):
    with pytest.raises(ValueError, match="nonempty and distinct"):
        call()


def test_treatment_ids_stay_inside_intp_without_an_instance():
    with pytest.raises(ValueError, match=r"active set must be .* \[1, 2\^62\]"):
        uniform_allocation([2**70, 1], 100)


def test_multi_word_master_seeds_stay_exact():
    seed = 2**64 + 1  # float(seed) would round to 2**64
    assert _config(master_seed=seed).master_seed == seed
