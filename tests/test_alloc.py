"""Stage allocation rules: closed form vs oracle, floor rounding, and baselines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import _oracles as oracle
from _gen import random_instance
from _kernels import set_scales, shrvar_shares
from m3ab import alloc, halving
from m3ab.alloc import (
    StageAllocation,
    _fund_starved,
    arm_weights,
    neyman_allocation,
    shrvar_allocation,
    stage_counts,
    uniform_allocation,
    variance_allocation,
)
from m3ab.core import Instance, ValidationConfig
from m3ab.errors import InsufficientBudgetError
from m3ab.halving import SAMPLING_RULES, empirical_z, run_exploration
from m3ab.harness import ExperimentConfig, run_experiment
from m3ab.instances import preset


def instance_from_stddevs(stddevs) -> Instance:
    """M from the row length; means all zero; validation irrelevant here."""
    sd = np.atleast_2d(np.asarray(stddevs, dtype=float))
    cfg = ValidationConfig.non_bayesian([0.05] * sd.shape[1], 100)
    return Instance(means=np.zeros_like(sd), stddevs=sd, validation=cfg)


# --- relative variances ----------------------------------------------------

def _split(stddevs) -> tuple[np.ndarray, np.ndarray]:
    """arm_weights' (M, B, A+1) rho_sq and lambda_sq of (B, A+1, M) stddevs."""
    w = arm_weights(np.asarray(stddevs, dtype=float))
    return w.rho_sq, w.lambda_sq


def test_relative_variance_equal_split():
    rho, lam = _split([[[1.0], [1.0]]])
    assert rho.tolist() == lam.tolist() == [[[0.5, 0.5]]]


def test_relative_variance_ratio():
    rho, lam = _split([[[10.0], [30.0]]])
    assert rho[0, 0, 1] == pytest.approx(0.9, abs=1e-15)
    assert lam[0, 0, 1] == pytest.approx(0.1, abs=1e-15)


def test_relative_variance_degenerate_treatment():
    rho, lam = _split([[[5.0], [0.0]]])
    assert (rho[0, 0, 1], lam[0, 0, 1]) == (0.0, 1.0)


@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 6), st.integers(1, 3)),
              elements=st.floats(min_value=0.0, max_value=1e6)))
def test_relative_variance_sums_to_one(stddevs):
    # a table of B belief rows: each row's split is the split of that row alone
    stddevs[:, 0] = np.maximum(stddevs[:, 0], 1e-6)  # the control's is > 0
    rho, lam = _split(stddevs)
    assert np.all((0.0 <= rho) & (rho <= 1.0) & (0.0 <= lam) & (lam <= 1.0))
    assert np.all(np.abs(rho + lam - 1.0) < 1e-12)
    for b in range(len(stddevs)):
        assert [t.tobytes() for t in _split(stddevs[b:b + 1])] == \
            [rho[:, b:b + 1].tobytes(), lam[:, b:b + 1].tobytes()]


# --- set scales ------------------------------------------------------------

def test_set_variances_two_even_treatments():
    inst = instance_from_stddevs([[1.0], [1.0], [1.0]])
    sv = set_scales(inst, {1, 2})
    assert sv.rho_sigma == pytest.approx(1.0, abs=1e-12)
    assert sv.lambda_sigma == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_set_variances_single_even_treatment():
    inst = instance_from_stddevs([[2.0], [2.0]])
    sv = set_scales(inst, [1])
    assert sv.rho_sigma == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert sv.lambda_sigma == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_set_variances_empty_set():
    inst = instance_from_stddevs([[1.0], [1.0]])
    with pytest.raises(ValueError):
        set_scales(inst, set())


def test_set_variances_uses_row_maxima():
    # per-treatment max over metrics for rho; global max for lambda
    inst = instance_from_stddevs([[1.0, 1.0], [1.0, 3.0], [0.5, 1.0]])
    sv = set_scales(inst, [1, 2])
    rho1 = 9.0 / 10.0   # metric 2 of treatment 1
    rho2 = 0.5          # metric 2 of treatment 2
    lam = 1.0 / 1.25    # metric 1 of treatment 2 (sigma 0.5 vs control 1)
    assert sv.rho_sigma == pytest.approx(np.sqrt(rho1 + rho2), abs=1e-12)
    assert sv.lambda_sigma == pytest.approx(np.sqrt(lam), abs=1e-12)


# --- shrvar_allocation ------------------------------------------------------

def test_shrvar_reference_split():
    inst = instance_from_stddevs([[1.0], [1.0], [1.0]])
    got = shrvar_allocation(inst, {1, 2}, 100)
    assert got.control_pulls == 41
    assert got.treatment_pulls == {1: 29, 2: 29}


def test_shrvar_homogeneous_equal_pulls():
    inst = instance_from_stddevs([[2.0]] + [[2.0]] * 5)
    got = shrvar_allocation(inst, range(1, 6), 200)
    assert len(set(got.treatment_pulls.values())) == 1


def test_shrvar_insufficient_budget():
    inst = instance_from_stddevs([[1.0]] + [[1.0]] * 3)
    with pytest.raises(InsufficientBudgetError):
        shrvar_allocation(inst, [1, 2, 3], 3)


def test_shrvar_funds_floored_to_zero_arm():
    # one treatment with tiny relative variance gets floored to zero pulls;
    # it receives one pull from the discarded remainder, the rest keep their
    # exact floors and the total stays within budget
    inst = instance_from_stddevs([[1.0], [0.001], [1.0]])
    got = shrvar_allocation(inst, [1, 2], 20)
    assert got.treatment_pulls[1] == 1
    assert got.total_pulls <= 20
    unrounded_control, unrounded = shrvar_shares(inst, [1, 2], 20)
    assert got.control_pulls == int(unrounded_control)
    assert got.treatment_pulls[2] == int(unrounded[2])


def test_shrvar_funding_never_exceeds_budget():
    # extreme variance spread with a budget exactly at the arm count: every
    # arm still gets >= 1 pull and the total equals the budget
    inst = instance_from_stddevs([[1.0], [1e-4], [1e4], [1.0]])
    got = shrvar_allocation(inst, [1, 2, 3], 4)
    pulls = [got.control_pulls, *got.treatment_pulls.values()]
    assert min(pulls) >= 1
    assert got.total_pulls <= 4


def test_shrvar_unrounded_shares_sum_to_budget():
    rng = np.random.default_rng(7)
    for _ in range(25):
        inst = random_instance(rng)
        control, per_arm = shrvar_shares(
            inst, list(inst.treatments), 173
        )
        assert control + sum(per_arm.values()) == pytest.approx(173.0, abs=1e-9)


def test_shrvar_variance_equalization():
    # max_i rho2/N(a) + lambda_sigma^2/N(0) identical across treatments, M=1
    rng = np.random.default_rng(13)
    for _ in range(50):
        inst = random_instance(rng, max_metrics=1, max_treatments=6)
        arms = list(inst.treatments)
        control, per_arm = shrvar_shares(inst, arms, 500)
        sv = set_scales(inst, arms)
        rho2 = (inst.stddevs[1:, 0] ** 2) / (inst.stddevs[1:, 0] ** 2 + inst.stddevs[0, 0] ** 2)
        values = [
            rho2[a - 1] / per_arm[a] + sv.lambda_sigma**2 / control for a in arms
        ]
        assert max(values) - min(values) < 1e-9
        assert values[0] == pytest.approx(
            (sv.rho_sigma + sv.lambda_sigma) ** 2 / 500, rel=1e-9
        )


def test_shrvar_matches_minmax_oracle():
    # 30 random single-metric instances here; acceptance runs 100.
    rng = np.random.default_rng(17)
    for _ in range(30):
        inst = random_instance(rng, max_metrics=1, max_treatments=4)
        arms = list(inst.treatments)
        budget = int(rng.integers(50, 400))
        control, per_arm = shrvar_shares(inst, arms, budget)
        sd = inst.stddevs[:, 0]
        rho2 = sd[1:] ** 2 / (sd[1:] ** 2 + sd[0] ** 2)
        lam2 = float(np.max(sd[0] ** 2 / (sd[1:] ** 2 + sd[0] ** 2)))
        want_control, want_arms = oracle.minmax_allocation(rho2, lam2, budget)
        assert control == pytest.approx(want_control, rel=1e-3)
        for a, want in zip(arms, want_arms):
            assert per_arm[a] == pytest.approx(want, rel=1e-3)


# --- baselines --------------------------------------------------------------

def test_uniform_examples():
    got = uniform_allocation([1, 2, 3], 40)
    assert got.control_pulls == 10
    assert got.treatment_pulls == {1: 10, 2: 10, 3: 10}
    got = uniform_allocation([1], 2)
    assert (got.control_pulls, got.treatment_pulls[1]) == (1, 1)
    with pytest.raises(InsufficientBudgetError):
        uniform_allocation([1, 2, 3], 3)


def test_variance_equal_is_uniform():
    inst = instance_from_stddevs([[3.0], [3.0], [3.0], [3.0]])
    got = variance_allocation(inst, [1, 2, 3], 40)
    assert got.control_pulls == 10
    assert set(got.treatment_pulls.values()) == {10}


def test_variance_exact_ratio():
    inst = instance_from_stddevs([[1.0], [np.sqrt(3.0)]])
    got = variance_allocation(inst, [1], 40)
    assert got.control_pulls == 10
    assert got.treatment_pulls == {1: 30}


def test_variance_row_maxima():
    inst = instance_from_stddevs([[2.0, 2.0], [1.0, 2.0], [2.0, 1.0]])
    got = variance_allocation(inst, [1, 2], 30)
    assert got.control_pulls == got.treatment_pulls[1] == got.treatment_pulls[2] == 10


def test_neyman_examples():
    inst = instance_from_stddevs([[1.0], [3.0]])
    got = neyman_allocation(inst, [1], 40)
    assert (got.control_pulls, got.treatment_pulls[1]) == (10, 30)

    inst = instance_from_stddevs([[2.0], [2.0], [2.0]])
    got = neyman_allocation(inst, [1, 2], 30)
    assert got.control_pulls == 10 and set(got.treatment_pulls.values()) == {10}

    inst = instance_from_stddevs([[1.0], [4.0], [9.0]])
    got = neyman_allocation(inst, [1, 2], 140)
    assert got.control_pulls == 10
    assert got.treatment_pulls == {1: 40, 2: 90}


def test_proportional_guard_keeps_every_arm_alive():
    # sigma^2 ratios of 1e8: a plain floor would starve the small arms.
    inst = instance_from_stddevs([[1.0], [10000.0], [1.0], [1.0]])
    got = variance_allocation(inst, [1, 2, 3], 100)
    assert min(got.treatment_pulls.values()) >= 1
    assert got.control_pulls >= 1
    assert got.total_pulls <= 100
    # the big arm pays for the bumps
    assert got.treatment_pulls[1] == 100 - 3
    with pytest.raises(InsufficientBudgetError):
        variance_allocation(inst, [1, 2, 3], 3)


def test_stage_allocation_invariants():
    with pytest.raises(ValueError):
        StageAllocation(control_pulls=5, treatment_pulls={1: 6}, stage_budget=10)
    with pytest.raises(ValueError):
        StageAllocation(control_pulls=-1, treatment_pulls={1: 2}, stage_budget=10)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=30, max_value=2000),
)
def test_all_rules_respect_budget(seed, budget):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, max_treatments=6)
    arms = list(inst.treatments)
    rules = [
        lambda: shrvar_allocation(inst, arms, budget),
        lambda: uniform_allocation(arms, budget),
        lambda: variance_allocation(inst, arms, budget),
        lambda: neyman_allocation(inst, arms, budget),
    ]
    for rule in rules:
        try:
            got = rule()
        except InsufficientBudgetError:
            continue
        assert got.total_pulls <= budget
        assert got.control_pulls >= 0
        assert set(got.treatment_pulls) == set(arms)
        assert all(n >= 0 for n in got.treatment_pulls.values())


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**40),
)
def test_stage_counts_fund_every_arm_within_budget_up_to_bound(seed, rows,
                                                               stage_budget):
    # Extreme variance ratios, every rule, stage budgets up to the 2^40
    # bound: above about 2^52 the float shares overspent the stage.
    rng = np.random.default_rng(seed)
    a_count, m = int(rng.integers(1, 40)), int(rng.integers(1, 4))
    stddevs = np.exp(rng.uniform(-4.0, 4.0, size=(a_count + 1, m)))
    k = int(rng.integers(1, a_count + 1))
    active = np.sort(np.stack([rng.choice(np.arange(1, a_count + 1), k,
                                          replace=False)
                               for _ in range(rows)]), axis=1)
    stage_budget = max(stage_budget, k + 1)
    for rule in SAMPLING_RULES:
        counts = stage_counts(rule, arm_weights(stddevs[None]), active,
                              stage_budget)
        assert counts.shape == (rows, k + 1)
        assert counts.min() >= 1, rule
        assert (counts.sum(axis=1) <= stage_budget).all(), rule


@st.composite
def count_blocks(draw):
    """(rows, stage budget): 1-4 rows of n in 2..9 counts, budget >= n.  A
    row's bumped total overspends the budget by at most min(budget, 64)
    pulls: up to the whole budget when it is small, and few enough for the
    oracle's one-pull steps at budgets up to 2^40."""
    n = draw(st.integers(2, 9))
    budget = draw(st.integers(n, 4 * n) | st.integers(n, 2**40))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.lists(st.integers(0, budget), min_size=n, max_size=n))
        cap = budget - n + draw(st.integers(0, min(budget, 64)))
        total = sum(row)
        rows.append([c * cap // total for c in row] if total > cap else row)
    return rows, budget


@settings(max_examples=300, deadline=None)
@given(count_blocks())
@example(([[0, 0, 5, 0, 3]], 8))                  # several zeros
@example(([[0, 4, 4, 4, 1]], 10))                 # ties at the clip level 3
@example(([[0, 3, 2], [0, 0, 1]], 10))            # bumps fit the remainder
@example(([[0, 9, 10], [0, 20, 0]], 10))          # overspend = the budget
@example(([[0, 7, 0, 2], [1, 1, 1, 1]], 4))       # budget = arm count
@example(([[3, 3, 4], [0, 5, 5], [2, 2, 2], [0, 0, 10]], 10))  # mixed rows
@example(([[0, 2**40 - 1, 0], [2**39, 0, 2**39]], 2**40))
def test_fund_starved_equals_one_pull_at_a_time_oracle(block):
    rows, budget = block
    active = np.tile(np.arange(1, len(rows[0])), (len(rows), 1))
    want = [oracle.fund_starved_reference(row, budget) if 0 in row else row
            for row in rows]
    assert _fund_starved(np.array(rows), active, budget).tolist() == want


@pytest.mark.parametrize("sampling,active,arm", [
    ("uniform", [[2, 3], [1, 2]], 0),
    ("relative_variance", [[3, 4], [1, 2]], 3),
    ("variance", [[1, 4], [3, 4]], 1),
    ("neyman", [[1, 4], [3, 4]], 1),
])
def test_stage_budget_below_arm_count_names_first_starved_rows_arm(
        sampling, active, arm):
    # Two pulls for three arms starve every row; the error names the first
    # row's first smallest count (0 = control).  Alone, the second row would
    # name another arm, except under the uniform rule (all zeros).
    w = arm_weights(np.array([[[10.0], [1.0], [1.0], [10.0], [0.1]]]))
    with pytest.raises(InsufficientBudgetError,
                       match="^stage budget 2 cannot cover 3 arms$") as excinfo:
        stage_counts(sampling, w, np.array(active), 2)
    assert excinfo.value.arm == arm


def test_block_counts_equal_row_by_row_counts(monkeypatch):
    # Every active set met in 64 repetitions on exp2 at l=5 and B=500, where
    # stage 1 starves arms, funded as one (R, k) block and one row at a time:
    # no row's counts depend on its neighbours.
    calls, starved = [], []

    def record(sampling, w, active, stage_budget):
        calls.append((sampling, w, active, stage_budget))
        return stage_counts(sampling, w, active, stage_budget)

    def count_starved(counts, active, stage_budget):
        starved.append(int((counts == 0).any(axis=1).sum()))
        return fund_starved(counts, active, stage_budget)

    monkeypatch.setattr(halving, "stage_counts", record)
    run_experiment(ExperimentConfig(instance=preset("exp2", l=5.0),
                                    algorithms=["shrvar", "shvar", "sh"],
                                    budgets=[500], repetitions=64))
    fund_starved = alloc._fund_starved
    monkeypatch.setattr(alloc, "_fund_starved", count_starved)
    for sampling, w, active, stage_budget in calls:
        rows = [stage_counts(sampling, w, row[None], stage_budget)
                for row in active]
        assert np.array_equal(stage_counts(sampling, w, active, stage_budget),
                              np.concatenate(rows))
    assert {call[0] for call in calls} == {"relative_variance", "variance",
                                           "uniform"}
    assert any(len(np.unique(active, axis=0)) > 1 for _, _, active, _ in calls)
    assert sum(starved) > 0


def test_stage_budgets_above_bound_are_refused_where_they_enter():
    # The public allocations check their stage budget, the stage loop the
    # budget / stages of each run; the stage_counts kernel checks nothing.
    inst = preset("exp1")
    for call in (lambda b: shrvar_allocation(inst, [1, 2], b),
                 lambda b: uniform_allocation([1, 2], b),
                 lambda b: variance_allocation(inst, [1, 2], b),
                 lambda b: neyman_allocation(inst, [1, 2], b)):
        with pytest.raises(ValueError, match="stage_budget .*2\\^40"):
            call(2**40 + 1)
        assert call(2**40).stage_budget == 2**40
    with pytest.raises(ValueError, match="stage_budget .*2\\^40"):
        StageAllocation(0, {}, 2**40 + 1)
    assert StageAllocation(0, {}, 2**40).stage_budget == 2**40
    with pytest.raises(ValueError, match="stage_budget .*2\\^40"):
        run_exploration(inst, "shrvar", 2**62, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="stage_budget .*2\\^40"):
        run_experiment(ExperimentConfig(instance=inst, algorithms=["sh-z"],
                                        budgets=[2**62], repetitions=1))


_ENTRY_POINTS = {
    "shrvar": lambda inst, act: shrvar_allocation(inst, act, 100),
    "uniform": lambda inst, act: uniform_allocation(act, 100),
    "variance": lambda inst, act: variance_allocation(inst, act, 100),
    "neyman": lambda inst, act: neyman_allocation(inst, act, 100),
    "empirical_z": lambda inst, act: empirical_z(
        {arm: np.zeros((2, inst.num_metrics)) for arm in {0, *act}}, inst, act),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_entry_points_reject_bad_active_sets(entry):
    # The control, a negative index, a repeated treatment, a non-integer and
    # (where the instance fixes A = 16) a treatment past A; all used to be
    # served silently or to fail with a bare IndexError.
    inst = preset("exp1")
    bad = [[], [0, 1], [-1, 2], [1, 1, 2], [1.5]]
    if entry != "uniform":
        bad += [[17], [99]]
    for active in bad:
        with pytest.raises(ValueError):
            _ENTRY_POINTS[entry](inst, active)


# --- metric-axis kernels ---------------------------------------------------

# Ties, signed zeros, infinities and NaN next to ordinary floats.
_KERNEL_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]) \
    | st.floats(-4.0, 4.0)


@st.composite
def kernel_blocks(draw):
    """A (B, A+1, M) table, B = 1 or one row per repetition, M in 1..5, and
    an (R, k) array of ascending arms in 1..A."""
    a_count, reps, m = draw(st.integers(1, 6)), draw(st.integers(1, 4)), \
        draw(st.integers(1, 5))
    k = draw(st.integers(1, a_count))
    belief_rows = draw(st.sampled_from([1, reps]))
    table = draw(arrays(float, (belief_rows, a_count + 1, m),
                        elements=_KERNEL_FLOATS))
    active = np.array([sorted(draw(st.permutations(range(1, a_count + 1)))[:k])
                       for _ in range(reps)])
    return table, active


@settings(max_examples=200, deadline=None)
@given(kernel_blocks())
@example((np.array([[[-0.0], [0.0], [np.nan]]]), np.array([[1], [2]])))
@example((np.array([[[1.0, 1.0, np.inf]], [[-np.inf, -0.0, 0.0]]]).repeat(3, 1),
          np.array([[2], [1]])))
def test_folds_and_gathers_equal_numpy_reference(block):
    """alloc.fold and alloc.gather equal NumPy's reductions and fancy
    indexing: NaN in the same places, zeros of the same sign, and gathers
    bit for bit."""
    table, active = block
    planes = np.moveaxis(table, -1, 0)  # metric-major, as the stage loop folds
    for ufunc, name, x in ((np.minimum, "min", planes), (np.maximum, "max", planes),
                           (np.logical_and, "all", planes > 0.0)):
        got, want = alloc.fold(ufunc, x), oracle.metric_reduce_reference(name, x)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=x.dtype.kind == "f")
        assert np.array_equal(np.signbit(got) | np.isnan(want),
                              np.signbit(want) | np.isnan(want))
    for tab in (table, table[..., 0]):
        got, want = alloc.gather(tab, active), oracle.gather_reference(tab, active)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
