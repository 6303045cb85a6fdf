"""Exploration engines: stage statistics, elimination rules, full runs."""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _gen import random_instance
from _oracles import (
    confidence_bonus,
    confidence_level_bisection,
    confidence_levels_broadcast,
    halving_reference,
    halving_stage_count,
    phase0_reference,
)
from m3ab import halving
from m3ab.alloc import (
    arm_weights,
    neyman_allocation,
    shrvar_allocation,
    stage_counts,
    uniform_allocation,
    variance_allocation,
)
from m3ab.core import (
    Instance,
    ValidationConfig,
    best_treatment,
    validation_terms,
    z_profile,
)
from m3ab.errors import DegenerateVarianceError, InsufficientBudgetError
from m3ab.halving import (
    ALGORITHMS,
    AlgorithmSpec,
    FixedMeanSource,
    GaussianPullSource,
    GaussianStatSource,
    StageStats,
    _beliefs,
    _confidence_levels,
    _halve,
    _noise_rows,
    _standard_normals,
    confidence_eliminate,
    empirical_z,
    get_reward_source,
    mean_eliminate,
    minz_eliminate,
    num_stages,
    run_exploration,
    run_exploration_adaptive,
)
from m3ab.instances import preset, table1


def explore_block(instance, name, budget, rngs, reward_source="pulls", tape=False):
    """One run per generator, called the way the harness calls the engine:
    with ``tape``, on a "means" tape drawn after phase 0, one C-order fill
    per generator, transposed to (M, rows, R)."""
    spec, source = ALGORITHMS[name], get_reward_source(reward_source)
    constants, loop_budget = _beliefs(instance, spec, budget, source, rngs)
    noise = np.ascontiguousarray(_standard_normals(rngs, (
        _noise_rows(instance.num_treatments), instance.num_metrics)).T) if tape else None
    return _halve(instance, constants, spec, loop_budget, source, rngs, noise=noise)


def confidence_level(stats, treatment):
    """delta_s(a) of one active treatment, read off the stage's levels."""
    levels = _confidence_levels(stats.z.T, stats.z_var.T)
    return float(levels[stats.active == treatment][0])


def unit_instance(num_treatments: int, delta: float = 0.5) -> Instance:
    """Unit stddevs, zero means, M=1; delta=0.5 makes xi = 0."""
    rows = num_treatments + 1
    return Instance(
        means=np.zeros((rows, 1)),
        stddevs=np.ones((rows, 1)),
        validation=ValidationConfig.non_bayesian([delta], 100),
    )


def stats_from_zv(z: dict[int, np.ndarray], v: dict[int, np.ndarray]) -> StageStats:
    """Hand-built StageStats with the given zhat rows and their variances."""
    arms = sorted(z)
    m = len(z[arms[0]])
    return StageStats(
        active=np.array(arms), means=np.zeros((len(arms) + 1, m)),
        counts=np.full(len(arms) + 1, 10),
        z=np.array([z[a] for a in arms], dtype=float),
        z_var=np.array([v[a] for a in arms], dtype=float),
    )


def stats_with_z(zhat: dict[int, float], variance: float = 0.01) -> StageStats:
    """Hand-built single-metric StageStats for elimination tests."""
    return stats_from_zv({a: [v] for a, v in zhat.items()},
                         {a: [variance] for a in zhat})


# --- empirical_z ------------------------------------------------------------

def test_empirical_z_zero_noise_recovers_z():
    rng = np.random.default_rng(2)
    inst = random_instance(rng, max_treatments=5)
    samples = {
        arm: np.tile(inst.means[arm], (7, 1)) for arm in range(inst.num_treatments + 1)
    }
    stats = empirical_z(samples, inst, list(inst.treatments))
    want = z_profile(inst)
    for a in inst.treatments:
        assert np.allclose(stats.z[a - 1], want.z[a - 1], atol=1e-12)


def test_empirical_z_equal_means_zero_xi():
    inst = unit_instance(2)
    samples = {arm: np.full((5, 1), 3.3) for arm in (0, 1, 2)}
    stats = empirical_z(samples, inst, [1, 2])
    assert stats.z[0][0] == pytest.approx(0.0, abs=1e-12)


def test_empirical_z_variance_matches_formula():
    # Monte-Carlo variance oracle: Var(zhat) = rho2/N(a) + lambda2/N(0).
    inst = Instance(
        means=np.array([[0.0], [0.4]]),
        stddevs=np.array([[1.0], [2.0]]),
        validation=ValidationConfig.non_bayesian([0.5], 100),
    )
    n_a, n_0, reps = 20, 30, 30_000
    rng = np.random.default_rng(99)
    vals = np.empty(reps)
    for r in range(reps):
        samples = {
            0: rng.normal(0.0, 1.0, size=(n_0, 1)),
            1: rng.normal(0.4, 2.0, size=(n_a, 1)),
        }
        vals[r] = empirical_z(samples, inst, [1]).z[0][0]
    want = (4.0 / 5.0) / n_a + (1.0 / 5.0) / n_0
    se = want * math.sqrt(2.0 / reps)
    assert abs(vals.var() - want) < 3 * se


def test_empirical_z_missing_samples():
    inst = unit_instance(2)
    with pytest.raises(ValueError):
        empirical_z({0: np.zeros((3, 1)), 1: np.zeros((3, 1))}, inst, [1, 2])
    with pytest.raises(ValueError):
        empirical_z(
            {0: np.zeros((3, 2)), 1: np.zeros((3, 1)), 2: np.zeros((3, 1))},
            inst, [1, 2],
        )


# --- min-z elimination ------------------------------------------------------

def test_minz_eliminate_keeps_largest():
    stats = stats_with_z({1: 3.0, 2: 1.0, 3: 2.0, 4: 0.0})
    assert minz_eliminate(stats, 2) == [1, 3]


def test_minz_eliminate_identity():
    stats = stats_with_z({1: 3.0, 2: 1.0, 3: 2.0})
    assert minz_eliminate(stats, 3) == [1, 2, 3]


def test_minz_eliminate_tie_lowest_index():
    stats = stats_with_z({1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0})
    assert minz_eliminate(stats, 2) == [1, 2]


def test_minz_uses_bottleneck_metric():
    stats = StageStats(
        active=np.array([1, 2]), means=np.zeros((3, 2)), counts=np.full(3, 5),
        z=np.array([[5.0, -1.0], [0.5, 0.5]]), z_var=np.full((2, 2), 0.01),
    )
    assert minz_eliminate(stats, 1) == [2]  # treatment 1's bottleneck is -1


def stats_with_means(means: dict[int, list[float]]) -> StageStats:
    arms = sorted(a for a in means if a != 0)
    m = len(next(iter(means.values())))
    return StageStats(
        active=np.array(arms),
        means=np.array([means[a] for a in [0, *arms]], dtype=float),
        counts=np.full(len(arms) + 1, 10),
        z=np.zeros((len(arms), m)), z_var=np.full((len(arms), m), 0.01),
    )


def test_mean_eliminate_keeps_largest_mean():
    stats = stats_with_means({0: [0.0], 1: [3.0], 2: [1.0], 3: [2.0], 4: [0.5]})
    assert mean_eliminate(stats, 2) == [1, 3]


def test_mean_eliminate_ignores_z():
    # z ranks 2 above 1, raw means rank 1 above 2: the rules must disagree.
    stats = stats_with_means({0: [0.0], 1: [9.0], 2: [1.0]})
    stats = dataclasses.replace(stats, z=np.array([[-1.0], [2.0]]))
    assert mean_eliminate(stats, 1) == [1]
    assert minz_eliminate(stats, 1) == [2]


def test_mean_eliminate_bottleneck_metric():
    stats = stats_with_means({0: [0.0, 0.0], 1: [5.0, -1.0], 2: [0.5, 0.5]})
    assert mean_eliminate(stats, 1) == [2]


def test_mean_eliminate_tie_lowest_index():
    stats = stats_with_means({0: [0.0], 1: [1.0], 2: [1.0], 3: [1.0]})
    assert mean_eliminate(stats, 2) == [1, 2]


# --- confidence machinery ---------------------------------------------------

def test_confidence_bonus_at_cap_is_zero():
    assert confidence_bonus(8.0, 0.5, 0.5, 10, 10, 4, 2) == 0.0


def test_confidence_bonus_reference_value():
    got = confidence_bonus(8.0 / math.e, 0.5, 0.5, 50, 50, 4, 2)
    assert got == pytest.approx(2.0 * math.sqrt(0.02), abs=1e-12)
    assert got == pytest.approx(0.28284, abs=5e-6)


def test_confidence_bonus_scaling_in_n():
    b1 = confidence_bonus(1.0, 0.3, 0.7, 10, 20, 4, 2)
    b2 = confidence_bonus(1.0, 0.3, 0.7, 20, 40, 4, 2)
    assert b2 == pytest.approx(b1 / math.sqrt(2.0), rel=1e-12)


def test_confidence_bonus_rejects_bad_delta():
    with pytest.raises(ValueError):
        confidence_bonus(9.0, 0.5, 0.5, 10, 10, 4, 2)
    with pytest.raises(ValueError):
        confidence_bonus(0.0, 0.5, 0.5, 10, 10, 4, 2)
    with pytest.raises(ValueError):
        confidence_bonus(1.0, 0.5, 0.5, 0, 10, 4, 2)


def test_confidence_level_best_arm_capped():
    stats = stats_with_z({1: 1.0, 2: 0.0})
    assert confidence_level(stats, 1) == 2.0  # |A_s| * M = 2


def test_confidence_level_closed_form_crossing():
    # equal variance terms v: UCB/LCB cross where 4 c sqrt(v) = gap; with
    # v = 1/16 and gap 1 this is c* = 1, delta = 2 exp(-1).
    stats = stats_with_z({1: 1.0, 2: 0.0}, variance=1.0 / 16.0)
    assert confidence_level(stats, 2) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-8)


def test_confidence_level_variance_shrink_doubles_c():
    stats = stats_with_z({1: 1.0, 2: 0.0}, variance=1.0 / 64.0)
    assert confidence_level(stats, 2) == pytest.approx(2.0 * math.exp(-4.0), rel=1e-8)


def test_confidence_level_matches_scalar_bisection():
    # independent scalar re-implementation on random multi-metric stats
    rng = np.random.default_rng(41)
    for _ in range(10):
        arms = list(range(1, 5))
        z = {a: rng.normal(size=2) for a in arms}
        v = {a: rng.uniform(0.005, 0.1, size=2) for a in arms}
        stats = stats_from_zv(z, v)
        for a in arms:
            want = confidence_level_bisection(z, v, a)
            assert confidence_level(stats, a) == pytest.approx(want, rel=1e-6)


@st.composite
def confidence_stages(draw):
    """Random stages: 1-6 arms, 1-3 metrics, optionally a copied zhat row,
    one variance shared by every cell, or a best arm so far ahead that every
    other arm's exp(-c*^2) underflows to 0."""
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    cell = st.floats(-5.0, 5.0)
    z = [draw(st.lists(cell, min_size=m, max_size=m)) for _ in range(k)]
    if k > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(k)))[:2]
        z[dst] = list(z[src])
    if draw(st.booleans()):
        var = draw(st.floats(1e-4, 1.0))
        v = [[var] * m for _ in range(k)]
    else:
        v = [draw(st.lists(st.floats(1e-4, 1.0), min_size=m, max_size=m))
             for _ in range(k)]
    if draw(st.booleans()):
        lead = draw(st.integers(0, k - 1))
        z[lead] = [x + 1e3 for x in z[lead]]
    return ({a + 1: row for a, row in enumerate(z)},
            {a + 1: row for a, row in enumerate(v)})


# Named cases: M = 1; two tied rows with one shared variance; a leader so
# far ahead that the three trailing arms all underflow to delta = 0 and the
# lowest indices survive.
@example(({1: [0.3], 2: [-0.1], 3: [0.3]}, {1: [0.02], 2: [0.05], 3: [0.01]}))
@example(({1: [0.5, -0.2], 2: [0.1, 0.4], 3: [0.5, -0.2]},
          {a: [0.03, 0.03] for a in (1, 2, 3)}))
@example(({1: [0.0, 0.1], 2: [0.2, 0.0], 3: [1e3, 1e3], 4: [0.1, 0.3]},
          {a: [0.01, 0.02] for a in (1, 2, 3, 4)}))
@settings(max_examples=150, deadline=None)
@given(confidence_stages())
def test_confidence_closed_form_matches_bisection_oracle(stage):
    z, v = stage
    stats = stats_from_zv(z, v)
    arms = sorted(z)
    want = {a: confidence_level_bisection(z, v, a) for a in arms}
    got = {a: confidence_level(stats, a) for a in arms}
    for a in arms:
        # below the normal range a float carries too few bits for rel 1e-9
        assert math.isclose(got[a], want[a], rel_tol=1e-9,
                            abs_tol=sys.float_info.min), (a, got[a], want[a])
    for keep in range(1, len(arms) + 1):
        kept = confidence_eliminate(stats, keep)
        assert len(kept) == keep
        for k in kept:
            for d in set(arms) - set(kept):
                if math.isclose(want[k], want[d], rel_tol=1e-9):
                    # a tie to the oracle's precision: only an exact tie
                    # (capped, or both underflowed to 0) pins the order
                    assert got[k] != got[d] or k < d
                else:
                    assert want[k] > want[d]


@st.composite
def confidence_blocks(draw):
    """Random blocks (R, k, M) of stages with the same optional twists as
    confidence_stages (a copied zhat row, one shared variance, a leader that
    underflows every other arm), plus a chunk size for _CROSSING_CELLS
    (None keeps the default) small enough to split a block of several rows."""
    r, k, m = draw(st.integers(1, 6)), draw(st.integers(1, 40)), draw(st.integers(1, 4))
    z = draw(arrays(float, (r, k, m), elements=st.floats(-5.0, 5.0)))
    if k > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(k)))[:2]
        z[:, dst] = z[:, src]
    if draw(st.booleans()):
        z_var = np.full((r, k, m), draw(st.floats(1e-4, 1.0)))
    else:
        z_var = draw(arrays(float, (r, k, m), elements=st.floats(1e-4, 1.0)))
    if draw(st.booleans()):
        z[:, draw(st.integers(0, k - 1))] += 1e3
    cells = draw(st.none() | st.integers(1, max(1, r * k * k - 1)))
    return z, z_var, cells


def named_block(r, k, m, cells=None, *, tied=False, leader=None):
    """A seeded block for the named cases: optionally arm 0's zhat row copied
    into arm k-1 with one variance shared by every cell, or arm `leader`
    lifted by 1e3 on every metric."""
    rng = np.random.default_rng(r * 100 + k)
    z, z_var = rng.uniform(-5.0, 5.0, (r, k, m)), rng.uniform(1e-4, 1.0, (r, k, m))
    if tied:
        z[:, -1], z_var[:] = z[:, 0], 0.03
    if leader is not None:
        z[:, leader] += 1e3
    return z, z_var, cells


# Named cases: tied rows with one shared variance; a leader that underflows
# every other arm to delta = 0; k = 1; blocks split into single rows and
# into chunks of two rows.
@example(named_block(2, 4, 3, tied=True))
@example(named_block(3, 8, 2, leader=5))
@example(named_block(4, 1, 3))
@example(named_block(6, 40, 4, cells=1000))
@example(named_block(5, 20, 3, cells=800))
@settings(max_examples=150, deadline=None)
@given(confidence_blocks())
def test_confidence_levels_equal_broadcast_oracle_bit_for_bit(block):
    z, z_var, cells = block
    want = confidence_levels_broadcast(z, z_var)
    with pytest.MonkeyPatch.context() as patch:
        if cells is not None:
            patch.setattr(halving, "_CROSSING_CELLS", cells)
        got = _confidence_levels(z.T, z_var.T)  # metric-major (M, k, R)
        # a repetition-free z_var broadcasts over the repetitions
        shared = _confidence_levels(z.T, z_var[:1].T)
    assert np.array_equal(got.T, want)
    assert np.array_equal(shared.T, confidence_levels_broadcast(
        z, np.broadcast_to(z_var[:1], z.shape)))
    for row in range(len(z)):  # one stage, no repetition axis
        assert np.array_equal(_confidence_levels(z[row].T, z_var[row].T), want[row])


def test_confidence_level_monotone_in_own_z():
    rng = np.random.default_rng(43)
    for _ in range(20):
        zvals = {a: float(rng.normal()) for a in (1, 2, 3, 4)}
        stats = stats_with_z(zvals, variance=float(rng.uniform(0.01, 0.2)))
        a = int(rng.integers(1, 5))
        bumped = dict(zvals)
        bumped[a] += 0.3
        stats2 = stats_with_z(bumped, variance=float(stats.z_var[0, 0]))
        assert confidence_level(stats2, a) >= confidence_level(stats, a) - 1e-12


def test_confidence_eliminate_keeps_largest_delta():
    # equal variance terms make delta ordering follow min-zhat ordering
    stats = stats_with_z({1: 3.0, 2: 0.1, 3: 2.0, 4: -1.0})
    assert confidence_eliminate(stats, 2) == [1, 3]
    assert confidence_eliminate(stats, 4) == [1, 2, 3, 4]


def test_confidence_eliminate_best_always_survives():
    rng = np.random.default_rng(47)
    for _ in range(20):
        zvals = {a: float(rng.normal()) for a in (1, 2, 3, 4, 5)}
        stats = stats_with_z(zvals, variance=float(rng.uniform(0.001, 0.5)))
        best = min(zvals, key=lambda a: (-zvals[a], a))
        assert best in confidence_eliminate(stats, 2)


def test_coupling_minz_equals_confidence_under_equal_variances():
    rng = np.random.default_rng(53)
    for _ in range(20):
        zvals = {a: float(rng.normal()) for a in range(1, 7)}
        stats = stats_with_z(zvals, variance=0.04)
        keep = int(rng.integers(1, 7))
        assert minz_eliminate(stats, keep) == confidence_eliminate(stats, keep)


# --- run_exploration --------------------------------------------------------

def test_single_treatment_recommended_without_elimination():
    inst = unit_instance(1)
    res = run_exploration(inst, "shrvar", 100, rng=np.random.default_rng(0))
    assert res.recommended == 1
    assert len(res.trail) == 1


def test_zero_noise_recovers_best_treatment():
    rng = np.random.default_rng(61)
    for _ in range(20):
        inst = random_instance(rng, max_treatments=8)
        res = run_exploration(inst, "shrvar", 5000, reward_source=FixedMeanSource(),
                              rng=np.random.default_rng(0))
        assert res.recommended == best_treatment(inst)


@pytest.mark.parametrize("name,knobs,budget", [
    ("exp1", {}, 8000),
    *[("exp2", {"l": l}, 500) for l in range(6)],
    ("exp3", {"seed": 7}, 120000),
])
def test_engine_allocation_equals_public_allocators(name, knobs, budget):
    # Every stage the engine draws must be funded with exactly the counts the
    # public allocators give that stage's active set.
    inst = preset(name, **knobs)
    stage_budget = budget // num_stages(inst.num_treatments)
    public = {
        "shrvar": lambda act: shrvar_allocation(inst, act, stage_budget),
        "sh-z": lambda act: uniform_allocation(act, stage_budget),
        "shvar-z": lambda act: variance_allocation(inst, act, stage_budget),
        "neyman-z": lambda act: neyman_allocation(inst, act, stage_budget),
    }
    for algo, allocate in public.items():
        for seed in range(3):
            res = run_exploration(inst, algo, budget, reward_source="means",
                                  rng=np.random.default_rng(seed))
            for s, stats in enumerate(res.trail):
                want = allocate(stats.active)
                assert stats.counts.tolist() == list(want.values()), (algo, seed, s)


@pytest.mark.parametrize("name", sorted(
    name for name, spec in ALGORITHMS.items()
    if spec.elimination != "confidence" and spec.variance_knowledge == "known"))
def test_trail_carries_z_variance_under_ranking_rules(name):
    # min_z and mean elimination never read z_var, but a kept trail does.
    inst = preset("exp1")
    res = run_exploration(inst, name, 8000, reward_source="means",
                          rng=np.random.default_rng(3))
    var = inst.stddevs**2
    for stats in res.trail:
        for row, (arm, n_a) in enumerate(zip(stats.active, stats.counts[1:])):
            for i in range(inst.num_metrics):
                total = var[arm, i] + var[0, i]
                want = var[arm, i] / total / n_a + var[0, i] / total / stats.counts[0]
                assert stats.z_var[row, i] == pytest.approx(want, rel=1e-12)


# --- the stage loop against its repetition-major reference ---------------------

class OwnStageSource(GaussianStatSource):
    """A source object: the "means" law through a stage method of its own,
    which asserts the (R, k+1, M) rows of the source protocol."""

    def stage_means_batch(self, mu_rows, sigma_rows, counts, rngs):
        assert mu_rows.shape == sigma_rows.shape == (*counts.shape, mu_rows.shape[2])
        assert len(counts) == len(rngs)
        return super().stage_means_batch(mu_rows, sigma_rows, counts, rngs)


LOOP_INSTANCES = {  # budgets: exp2 at l=5 starves stage-1 arms; table1 is Bayesian
    "exp1": (lambda: preset("exp1"), 8000),
    "exp2-l5": (lambda: preset("exp2", l=5), 500),
    "exp3": (lambda: preset("exp3", seed=7), 120000),
    "table1": (table1, 400),
}


# Every algorithm on every instance and source in blocks of 1, 4 and 512
# repetitions, except at 512: "pulls" only on table1 (elsewhere its per-arm
# draws take seconds; blocks of 4 cover them), and no confidence rule on
# exp3 (the reference's crossing array would be 512 x 128^2 x 9).
@pytest.mark.parametrize("name,source,reps", [
    (name, source, reps) for name in LOOP_INSTANCES
    for source in ("tape", "pulls", "fixed", "object") for reps in (1, 4, 512)
    if not (source == "pulls" and reps == 512 and name != "table1")])
def test_stage_loop_equals_repetition_major_reference(name, source, reps):
    instance, budget = LOOP_INSTANCES[name][0](), LOOP_INSTANCES[name][1]
    law = {"tape": "means", "object": OwnStageSource()}.get(source, source)
    for algo, spec in sorted(ALGORITHMS.items()):
        if instance.num_treatments <= 2 and spec.variance_knowledge == "adaptive":
            continue  # phase 0 leaves a single stage less than one pull per arm
        if reps == 512 and name == "exp3" and spec.elimination == "confidence":
            continue
        got = explore_block(instance, algo, budget,
                            [np.random.default_rng([reps, r]) for r in range(reps)],
                            law, tape=source == "tape")
        want = halving_reference(
            instance, spec, budget, get_reward_source(law),
            [np.random.default_rng([reps, r]) for r in range(reps)],
            stage_counts=stage_counts, validation_terms=validation_terms,
            tape=source == "tape")
        assert got.tolist() == want.tolist(), algo


@pytest.mark.parametrize("reps", [1, 4])
def test_stage_loop_breaks_exact_ties_like_reference(reps):
    # 128 treatments in three repeating groups of equal rows: under the
    # "fixed" source every key ties within its group, and the halving cuts
    # straddle groups, so every stage's survivors follow the lowest-index
    # rule (an unstable sort keeps other arms).
    levels = np.array([[0.1, 0.2, 0.3], [0.2, 0.3, 0.25], [0.3, 0.35, 0.4]])
    rows = levels[np.arange(128) % 3]
    instance = Instance(means=np.vstack([np.zeros(3), rows]),
                        stddevs=np.vstack([np.ones(3), 1.0 + rows]),
                        validation=ValidationConfig.non_bayesian([0.05] * 3, 2000))
    for algo, spec in sorted(ALGORITHMS.items()):
        rngs, source = [np.random.default_rng(r) for r in range(reps)], FixedMeanSource()
        constants, loop_budget = _beliefs(instance, spec, 120000, source, rngs)
        trail, want = [], []
        got = _halve(instance, constants, spec, loop_budget, source, rngs, trail)
        assert got.tolist() == halving_reference(
            instance, spec, 120000, source, rngs, stage_counts=stage_counts,
            validation_terms=validation_terms, trail=want).tolist(), algo
        assert [stats.active.tolist() for stats in trail] \
            == [fields[0].tolist() for fields in want], algo


@pytest.mark.parametrize("name", sorted(LOOP_INSTANCES))
def test_trail_equals_reference_field_by_field(name):
    instance, budget = LOOP_INSTANCES[name][0](), LOOP_INSTANCES[name][1]
    for algo, spec in sorted(ALGORITHMS.items()):
        if instance.num_treatments <= 2 and spec.variance_knowledge == "adaptive":
            continue
        for source in ("means", "pulls"):
            result = run_exploration(instance, algo, budget, reward_source=source,
                                     rng=np.random.default_rng(11))
            want: list = []
            recommended = halving_reference(
                instance, spec, budget, get_reward_source(source),
                [np.random.default_rng(11)], stage_counts=stage_counts,
                validation_terms=validation_terms, trail=want)
            assert result.recommended == recommended[0]
            assert len(result.trail) == len(want)
            for stats, fields in zip(result.trail, want):
                for field, value in zip(("active", "means", "counts", "z", "z_var"),
                                        fields):
                    got = getattr(stats, field)
                    assert got.shape == value.shape and got.dtype == value.dtype
                    assert got.tobytes() == value.tobytes(), (algo, source, field)


@pytest.mark.parametrize("name", sorted(LOOP_INSTANCES))
def test_stage_one_counts_from_one_row_equal_every_row(name):
    # With one belief row, stage 1's active set is 1..A in every repetition,
    # so the loop funds one row and broadcasts it.
    instance, budget = LOOP_INSTANCES[name][0](), LOOP_INSTANCES[name][1]
    weights = arm_weights(instance.stddevs[None])
    arms = np.arange(1, instance.num_treatments + 1)
    stage_budget = budget // num_stages(instance.num_treatments)
    for rule in halving.SAMPLING_RULES:
        one = stage_counts(rule, weights, arms[None], stage_budget)
        every = stage_counts(rule, weights, np.tile(arms, (512, 1)), stage_budget)
        assert one.shape == (1, arms.size + 1)
        assert np.array_equal(every, np.broadcast_to(one, every.shape)), rule


def test_stage_structure_and_budget_accounting():
    rng = np.random.default_rng(67)
    for a_count in (2, 5, 9, 16):
        inst = Instance(
            means=rng.normal(size=(a_count + 1, 2)),
            stddevs=rng.uniform(0.5, 2.0, size=(a_count + 1, 2)),
            validation=ValidationConfig.non_bayesian([0.05, 0.05], 100),
        )
        budget = 600 * a_count
        res = run_exploration(inst, "shrvar", budget, rng=np.random.default_rng(5))
        stages = max(1, math.ceil(math.log2(a_count)))
        assert len(res.trail) == stages
        sizes = [len(s.active) for s in res.trail]
        assert sizes[0] == a_count
        for prev, nxt in zip(sizes, sizes[1:]):
            assert nxt == math.ceil(prev / 2)
        assert math.ceil(sizes[-1] / 2) == 1
        assert res.total_pulls_used == sum(int(s.counts.sum()) for s in res.trail)
        assert res.total_pulls_used <= budget
        assert [res.recommended] == sorted(
            minz_eliminate(res.trail[-1], 1)
        )


def test_run_exploration_deterministic():
    inst = random_instance(np.random.default_rng(71), max_treatments=6)
    a = run_exploration(inst, "shrvar-c", 3000, rng=np.random.default_rng(9))
    b = run_exploration(inst, "shrvar-c", 3000, rng=np.random.default_rng(9))
    assert a.recommended == b.recommended
    for sa, sb in zip(a.trail, b.trail):
        assert np.array_equal(sa.active, sb.active)
        assert np.array_equal(sa.means, sb.means)


def test_confidence_elimination_with_more_than_1024_arm_metric_pairs():
    # 342 arms x 3 metrics, more than 1024 arm-metric pairs: each row's
    # (342, 342) crossing planes are folded over the 9 metric pairs, and the
    # block must agree with the row-by-row runs.
    inst = preset("exp3", seed=7, num_treatments=342)
    seeds = (3, 4)
    rows = [run_exploration(inst, "shrvar-c", 120000, reward_source="means",
                            rng=np.random.default_rng(s)).recommended
            for s in seeds]
    batch = explore_block(inst, "shrvar-c", 120000,
                          [np.random.default_rng(s) for s in seeds],
                          reward_source="means")
    assert batch.tolist() == rows


def test_all_algorithm_names_run():
    inst = Instance(
        means=np.arange(10, dtype=float).reshape(5, 2),
        stddevs=np.full((5, 2), 1.5),
        validation=ValidationConfig.non_bayesian([0.05, 0.05], 100),
    )
    for name in ALGORITHMS:
        res = run_exploration(inst, name, 2000, rng=np.random.default_rng(3))
        assert res.recommended in inst.treatments


def test_insufficient_budget_propagates():
    inst = unit_instance(8)
    with pytest.raises(InsufficientBudgetError):
        run_exploration(inst, "shrvar", 20, rng=np.random.default_rng(0))
    with pytest.raises(InsufficientBudgetError):
        run_exploration(inst, "sh-z", 2, rng=np.random.default_rng(0))


def test_algorithm_spec_validation():
    with pytest.raises(ValueError):
        AlgorithmSpec("uniform", "min_z", "adaptive")
    with pytest.raises(ValueError):
        AlgorithmSpec("magic", "min_z")
    with pytest.raises(ValueError):
        AlgorithmSpec.from_name("shrvarx")
    assert AlgorithmSpec.from_name("sh-c").elimination == "confidence"
    assert ALGORITHMS["shrvar-ada"].variance_knowledge == "adaptive"
    assert AlgorithmSpec("uniform", "min_z").name == "sh-z"
    assert ALGORITHMS["sh"] == AlgorithmSpec("uniform", "mean")
    assert ALGORITHMS["shvar"] == AlgorithmSpec("variance", "mean")
    with pytest.raises(ValueError):
        AlgorithmSpec("relative_variance", "mean", "adaptive")


def test_vanilla_baselines_chase_raw_means():
    # Treatment 2 has the larger raw mean but a huge variance, so its z value
    # is worse than treatment 1's.  With noise-free stage means, the vanilla
    # mean-ranking baselines recommend 2 while every z-ranking variant picks 1.
    inst = Instance(
        means=np.array([[0.0], [1.0], [5.0]]),
        stddevs=np.array([[1.0], [1.0], [100.0]]),
        validation=ValidationConfig.non_bayesian([0.05], 100),
    )
    assert best_treatment(inst) == 1
    source = FixedMeanSource()
    for name in ("sh", "shvar"):
        res = run_exploration(inst, name, 400, reward_source=source,
                              rng=np.random.default_rng(0))
        assert res.recommended == 2
    for name in ("sh-z", "shvar-z", "shrvar"):
        res = run_exploration(inst, name, 400, reward_source=source,
                              rng=np.random.default_rng(0))
        assert res.recommended == 1


# --- adaptive engine --------------------------------------------------------

class _OracleVariancePullSource(GaussianPullSource):
    """Phase 0 reports the exact stddevs without consuming randomness."""

    def mean_and_variance(self, mu, sigma, n, rngs):
        return np.tile(mu, (len(rngs), 1, 1)), np.tile(sigma**2, (len(rngs), 1, 1))


def test_adaptive_with_oracle_variances_equals_known_variance_run():
    inst = random_instance(np.random.default_rng(73), max_treatments=8)
    a_count = inst.num_treatments
    stages = max(1, math.ceil(math.log2(a_count)))
    budget = 4000
    n0 = budget // ((a_count + 1) * stages)
    ada = run_exploration_adaptive(
        inst, budget, rng=np.random.default_rng(17),
        reward_source=_OracleVariancePullSource(),
    )
    known = run_exploration(
        inst, "shrvar", budget - (a_count + 1) * n0,
        reward_source="pulls", rng=np.random.default_rng(17),
    )
    assert ada.recommended == known.recommended
    assert ada.total_pulls_used == known.total_pulls_used + (a_count + 1) * n0
    for sa, sb in zip(ada.trail, known.trail):
        assert np.array_equal(sa.means, sb.means)


class _ZeroVarianceSource(FixedMeanSource):
    def mean_and_variance(self, mu, sigma, n, rngs):
        return super().mean_and_variance(mu, np.zeros_like(sigma), n, rngs)


def test_adaptive_constant_rewards_degenerate_variance():
    inst = unit_instance(4)
    with pytest.raises(DegenerateVarianceError):
        run_exploration_adaptive(
            inst, 1000, rng=np.random.default_rng(0),
            reward_source=_ZeroVarianceSource(),
        )


class _PoisonedVarianceSource(GaussianStatSource):
    """Phase 0 as drawn, with one variance overwritten in rows 1 and 2."""

    def __init__(self, value):
        self.value = value

    def mean_and_variance(self, mu, sigma, n, rngs):
        mean, var = super().mean_and_variance(mu, sigma, n, rngs)
        var[1, 3, -1] = self.value
        var[2, 1, 0] = 0.0
        return mean, var


@pytest.mark.parametrize("value, kind", [(math.nan, "non-finite"),
                                         (math.inf, "non-finite"),
                                         (0.0, "zero")])
def test_adaptive_rejects_bad_phase0_variances(value, kind):
    # The first bad row in repetition order names its arm (row 1, arm 3),
    # although row 2 has a bad arm with a lower index.
    rngs = [np.random.default_rng(r) for r in range(3)]
    with pytest.raises(DegenerateVarianceError,
                       match=f"^arm 3 has a {kind} sample variance; "
                             "z-values are undefined$"):
        explore_block(unit_instance(4), "shrvar-ada", 1000, rngs,
                      _PoisonedVarianceSource(value))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("fixed", "means", "pulls")), st.integers(1, 4),
       st.integers(1, 8), st.integers(1, 3), st.integers(2, 30),
       st.integers(0, 2**32 - 1))
def test_mean_and_variance_equals_per_arm_phase0_reference(source, reps,
                                                           a_count, m, n, seed):
    params = np.random.default_rng(seed)
    mu = params.normal(size=(a_count + 1, m))
    sigma = params.uniform(0.1, 3.0, size=(a_count + 1, m))
    got_rngs = [np.random.default_rng([seed, r]) for r in range(reps)]
    want_rngs = [np.random.default_rng([seed, r]) for r in range(reps)]
    got = get_reward_source(source).mean_and_variance(mu, sigma, n, got_rngs)
    want = [np.array(part) for part in zip(*(
        phase0_reference(source, mu, sigma, n, rng) for rng in want_rngs))]
    for g, w in zip(got, want):
        assert g.shape == w.shape == (reps, a_count + 1, m)
        assert g.tobytes() == w.tobytes()
    assert [g.bit_generator.state for g in got_rngs] == \
        [g.bit_generator.state for g in want_rngs]


# shrvar-ada's recommendations on exp3 (seed 7) under "means", repetitions
# 0-19 of budget index b at master seed 0, recorded while phase 0 still ran
# one arm and one repetition at a time.
FROZEN_ADA_EXP3 = {
    30000: [71, 1, 1, 1, 1, 84, 127, 13, 1, 48, 1, 1, 36, 1, 1, 1, 87, 109,
            122, 1],
    120000: [1, 7, 1, 1, 1, 122, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
}


@pytest.mark.parametrize("b, budget", enumerate(FROZEN_ADA_EXP3))
def test_adaptive_frozen_recommendations_exp3(b, budget):
    rngs = [np.random.default_rng(np.random.SeedSequence([0, 0, b, r]).spawn(2)[0])
            for r in range(20)]
    got = explore_block(preset("exp3", seed=7), "shrvar-ada", budget, rngs,
                        "means")
    assert got.tolist() == FROZEN_ADA_EXP3[budget]


def test_adaptive_budget_floor():
    inst = unit_instance(8)
    # N0 = floor(T / (9 * 3)) must be >= 2  ->  T >= 54
    with pytest.raises(InsufficientBudgetError):
        run_exploration_adaptive(inst, 40, rng=np.random.default_rng(0))


def test_adaptive_runs_with_stat_source():
    rng = np.random.default_rng(79)
    inst = Instance(
        means=rng.normal(size=(7, 2)),
        stddevs=rng.uniform(0.5, 2.0, size=(7, 2)),
        validation=ValidationConfig.non_bayesian([0.05, 0.05], 100),
    )
    res = run_exploration(inst, "shrvar-ada", 3000, reward_source="means",
                          rng=np.random.default_rng(4))
    assert res.recommended in inst.treatments


def test_adaptive_two_treatments_starves_engine():
    # With one stage (A <= 2), phase 0 leaves budget mod (A+1) < A+1 pulls at
    # every budget: refused before drawing, naming the caller's budget.  The
    # budgets are those that failed elsewhere before (phase 0's pulls per arm,
    # the leftover stage, a stage too small for the arms).
    for inst in (unit_instance(1), table1()):
        a_count = inst.num_treatments
        for budget in (5, 6000, 6001):
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            with pytest.raises(InsufficientBudgetError,
                               match=rf"^budget {budget} cannot fund the adaptive engine "
                                     rf"at A = {a_count}: .* leaves "
                                     rf"{budget % (a_count + 1)} "):
                run_exploration_adaptive(inst, budget, rng, "means")
            assert rng.bit_generator.state == state


# --- reward-source agreement ------------------------------------------------

def test_pull_and_stat_sources_statistically_agree():
    # Same instance, same algorithm: accuracy under the per-pull simulator
    # and the sufficient-statistic simulator must agree within Monte-Carlo
    # noise (they induce identical trajectory distributions).
    means = np.array([[0.0], [0.5], [0.25], [0.0], [-0.25]])
    inst = Instance(
        means=means, stddevs=np.full((5, 1), 1.0),
        validation=ValidationConfig.non_bayesian([0.05], 100),
    )
    reps = 4000
    rates = {}
    for seed, source in enumerate(("pulls", "means")):
        hits = 0
        for r in range(reps):
            res = run_exploration(inst, "shrvar", 120, reward_source=source,
                                  rng=np.random.default_rng((seed, r)))
            hits += res.recommended == 1
        rates[source] = hits / reps
    p = 0.5 * (rates["pulls"] + rates["means"])
    se = math.sqrt(2.0 * p * (1.0 - p) / reps)
    assert abs(rates["pulls"] - rates["means"]) < 4 * se, rates


# The draw contract: each source draws each repetition's row arm by arm in
# row order from that repetition's own generator, exactly as one reference
# call per arm on the same generator would.
_REFERENCE_DRAWS = {
    "pulls": lambda mu, sigma, n, rng:
        rng.normal(mu, sigma, size=(n, mu.size)).mean(axis=0),
    "means": lambda mu, sigma, n, rng: rng.normal(mu, sigma / math.sqrt(n)),
    "fixed": lambda mu, sigma, n, rng: mu.copy(),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_REFERENCE_DRAWS)), st.integers(1, 3),
       st.lists(st.integers(1, 30), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_stage_means_batch_equals_per_arm_reference_draws(source, m, counts,
                                                          seed, reps):
    # Rows get different counts (rotations) and parameters.
    counts = np.array([np.roll(counts, r) for r in range(reps)])
    params = np.random.default_rng(seed)
    mu = params.normal(size=(*counts.shape, m))
    sigma = params.uniform(0.1, 3.0, size=(*counts.shape, m))
    got_rngs = [np.random.default_rng([seed, r]) for r in range(reps)]
    want_rngs = [np.random.default_rng([seed, r]) for r in range(reps)]
    got = get_reward_source(source).stage_means_batch(mu, sigma, counts, got_rngs)
    want = np.stack([
        np.stack([_REFERENCE_DRAWS[source](mu[r, a], sigma[r, a], n, rng)
                  for a, n in enumerate(counts[r])])
        for r, rng in enumerate(want_rngs)])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert [g.bit_generator.state for g in got_rngs] == \
        [g.bit_generator.state for g in want_rngs]


def test_means_stages_read_consecutive_rows_of_one_fill():
    # Under "means" stage s reads one standard normal per arm and metric, so
    # its rows [control, *active] are rows offset_s .. offset_s + k_s of one
    # fill of (sum of k_t+1, M) normals, offset_s = sum over t < s of
    # k_t+1 (k_1 = A, k_{t+1} = ceil(k_t / 2)), and the run leaves its
    # generator where that fill does.
    params = np.random.default_rng(2024)
    for a_count in range(1, 131):
        inst = Instance(means=params.normal(size=(a_count + 1, 2)),
                        stddevs=params.uniform(0.2, 4.0, size=(a_count + 1, 2)),
                        validation=ValidationConfig.non_bayesian([0.1, 0.2], 100))
        stages = halving_stage_count(a_count)
        sizes, k = [], a_count
        for _ in range(stages):
            sizes.append(k + 1)
            k = (k + 1) // 2
        rng = np.random.default_rng(a_count)
        result = run_exploration(inst, "shrvar", stages * (a_count + 1) * 3,
                                 reward_source="means", rng=rng)
        tape_rng = np.random.default_rng(a_count)
        noise = tape_rng.standard_normal((sum(sizes), 2))
        offset = 0
        assert len(result.trail) == len(sizes)
        for stats, size in zip(result.trail, sizes):
            rows = [0, *stats.active.tolist()]
            assert len(rows) == size
            want = inst.means[rows] + inst.stddevs[rows] \
                / np.sqrt(stats.counts)[:, None] * noise[offset:offset + size]
            assert stats.means.tobytes() == want.tobytes(), (a_count, offset)
            offset += size
        assert rng.bit_generator.state == tape_rng.bit_generator.state
