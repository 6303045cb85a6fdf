"""Hardness diagnostics: kappa weights and effective gaps (one-row calls of
the subset kernel), subset minima, bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv

from _gen import homogeneous_single_metric, random_instance
from _kernels import relative_variances, subset_gaps
from _oracles import (
    KAPPA_UNITS,
    UNIT,
    drop_smallest_gaps_ranked,
    exact_gap_sq,
    exact_kappas,
    h3_reference,
    kappa_reference,
    subset_sweep,
)
from m3ab import complexity
from m3ab.complexity import (
    _subset_kernel,
    delta_min,
    error_bound,
    h3,
    h3_prime,
    h3_tilde,
)
from m3ab.core import (
    Instance,
    ValidationConfig,
    best_treatment,
    z_profile,
)
from m3ab.errors import TooLargeError
from m3ab.instances import from_z_parameterization, preset


def _rho2_rows(inst: Instance) -> list[list[float]]:
    return [[float(v) for v in row] for row in relative_variances(inst)[0]]


def _gap(inst: Instance, subset, a: int, budget: float | None = None) -> float:
    """D(S, a), or the corrected gap at a budget: the root of the kernel's D^2."""
    return math.sqrt(subset_gaps(inst, subset, budget).gap_sq[a - 1])


def _z_rows(inst: Instance) -> list[list[float]]:
    return [[float(v) for v in row] for row in z_profile(inst).z]


def single_metric_instance(means, stddevs, delta=0.05) -> Instance:
    return Instance(
        means=np.asarray(means, dtype=float).reshape(-1, 1),
        stddevs=np.asarray(stddevs, dtype=float).reshape(-1, 1),
        validation=ValidationConfig.non_bayesian([delta], 100),
    )


# --- kappa -------------------------------------------------------------------

def test_kappa_homogeneous_single_metric_is_one():
    inst = single_metric_instance([0, 1.0, 0.5, 0.2], [1, 1, 1, 1])
    kap = subset_gaps(inst, [1, 2, 3]).kappa
    for a in (1, 2, 3):
        assert kap[a - 1, 0] == pytest.approx(1.0, abs=1e-12)


def test_kappa_metric_with_both_maxima_is_one():
    # treatment 1 has a flat relative-variance row (0.5, 0.5), so either of
    # its metrics attains the row max; treatment 2 (sigma 2 and 3) has
    # lambda2 <= 0.2 < 0.5, so treatment 1 also attains the set max.
    inst = Instance(
        means=np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]),
        stddevs=np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 3.0]]),
        validation=ValidationConfig.non_bayesian([0.05, 0.05], 100),
    )
    kap = subset_gaps(inst, [1, 2]).kappa
    assert kap[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert kap[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert kap[1, 0] < 1.0


def test_kappa_matches_reference_and_stays_in_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(30):
        inst = random_instance(rng, max_treatments=6, max_metrics=3)
        a_count = inst.num_treatments
        subset = sorted(rng.choice(np.arange(1, a_count + 1),
                                   size=rng.integers(1, a_count + 1),
                                   replace=False).tolist())
        rho2 = _rho2_rows(inst)
        kap = subset_gaps(inst, subset).kappa
        for a in subset:
            for i in range(inst.num_metrics):
                got = kap[a - 1, i]
                want = kappa_reference(rho2, [s - 1 for s in subset], a - 1, i)
                assert got == pytest.approx(want, rel=1e-12)
                assert 0.0 < got <= 1.0 + 1e-12


# --- effective gap -----------------------------------------------------------

def test_effective_gap_single_metric_homogeneous_is_half_gap():
    inst = single_metric_instance([0, 2.0, 1.0, 0.5], [1, 1, 1, 1])
    z = z_profile(inst).z[:, 0]
    for a in (2, 3):
        want = (z[0] - z[a - 1]) / 2.0
        assert _gap(inst, [1, 2, 3], a) == pytest.approx(want, rel=1e-12)


def test_effective_gap_duplicate_row_is_zero():
    inst = Instance(
        means=np.array([[0.0, 0.0], [1.0, 2.0], [1.0, 2.0]]),
        stddevs=np.ones((3, 2)),
        validation=ValidationConfig.non_bayesian([0.05, 0.1], 100),
    )
    assert best_treatment(inst) == 1
    assert _gap(inst, [1, 2], 2) == 0.0


def test_effective_gap_never_below_half_bottleneck_gap():
    # kappa <= 1 always, so every denominator is <= 2
    rng = np.random.default_rng(11)
    for _ in range(25):
        inst = random_instance(rng, max_treatments=6, max_metrics=3)
        if inst.num_treatments < 2:
            continue
        star = best_treatment(inst)
        minz = z_profile(inst).z.min(axis=1)
        subset = list(inst.treatments)
        one = subset_gaps(inst, subset)
        for a in subset:
            if a == star:
                continue
            bottleneck_gap = minz[star - 1] - minz[a - 1]
            gap = math.sqrt(one.gap_sq[a - 1])
            assert gap >= bottleneck_gap / 2 - 1e-12
            # and the full gap whenever the involved weights allow it
            if max(one.kappa[a - 1].max(), one.kappa[star - 1].max()) <= 0.5:
                assert gap >= bottleneck_gap - 1e-12


# --- h3 ---------------------------------------------------------------------

def test_h3_two_treatments_hand_enumeration():
    inst = single_metric_instance([0.0, 1.0, 0.0], [1, 1, 1])
    gap = (1.0 / math.sqrt(2.0)) / 2.0  # half the z gap
    rho_sigma = 1.0  # sqrt(0.5 + 0.5)
    lambda_sigma = math.sqrt(0.5)
    want = (rho_sigma + lambda_sigma) ** 2 / gap**2
    report = h3(inst)
    assert report.h3 == pytest.approx(want, rel=1e-12)
    assert report.argmin_subset == (1, 2)
    assert report.rho_sigma == pytest.approx(rho_sigma, rel=1e-12)
    assert report.lambda_sigma == pytest.approx(lambda_sigma, rel=1e-12)


def test_h3_matches_pure_python_enumerator():
    rng = np.random.default_rng(17)
    for _ in range(12):
        inst = random_instance(rng, max_treatments=7, max_metrics=3)
        if inst.num_treatments < 2:
            continue
        want, subset = h3_reference(_z_rows(inst), _rho2_rows(inst))
        report = h3(inst)
        assert report.h3 == pytest.approx(want, rel=1e-9)
        assert report.argmin_subset == tuple(a + 1 for a in subset)
        budget = float(rng.integers(50, 5000))
        want_tilde, _ = h3_reference(_z_rows(inst), _rho2_rows(inst), budget=budget)
        assert h3_tilde(inst, budget) == pytest.approx(want_tilde, rel=1e-9)


def _ranked_sweep(inst: Instance, correction: float | None):
    """(h, subset, rho_sigma, lambda_sigma) from one subset-kernel call over
    every mask, in the search's bitmask order, with the ranked drop oracle."""
    star, gaps, _ = _subset_kernel(inst, correction)
    others = [a for a in range(inst.num_treatments) if a != star - 1]
    masks = np.arange(2 ** len(others))
    member = np.zeros((len(masks), inst.num_treatments), dtype=bool)
    member[:, others] = (masks[:, None] >> np.arange(len(others))) & 1
    member[:, star - 1] = True
    gap_sq, _, rho_sigma, lambda_sigma = gaps(member)
    candidate = (drop_smallest_gaps_ranked(gap_sq, member, star - 1)
                 / (rho_sigma + lambda_sigma) ** 2)
    j = int(np.argmin(candidate))
    h = 1.0 / float(candidate[j]) if candidate[j] > 0 else math.inf
    return h, tuple(np.flatnonzero(member[j]) + 1), rho_sigma[j], lambda_sigma[j]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([1e-3, 1.0, 50.0, 500.0, 5000.0, 1e6]),
)
def test_subset_search_equals_ranked_drop_oracle(seed, a_count, m, copies, budget):
    """h3 and h3_tilde equal, bit for bit, a sweep over every mask that drops
    the floor(|S|/4) smallest gaps by ranking.  Copied treatment rows tie
    gaps; the smallest budgets clip corrected gaps at 0."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(-1.0, 1.0, size=(a_count + 1, m))
    stddevs = rng.uniform(0.3, 3.0, size=(a_count + 1, m))
    for _ in range(copies):
        src, dst = rng.integers(1, a_count + 1, size=2)
        means[dst], stddevs[dst] = means[src], stddevs[src]
    validation = (ValidationConfig.non_bayesian(rng.uniform(0.05, 0.5, size=m), 100)
                  if rng.random() < 0.5 else
                  ValidationConfig.bayesian(rng.uniform(0.1, 0.9, size=m),
                                            rng.uniform(0.5, 20.0, size=m), 100))
    inst = Instance(means=means, stddevs=stddevs, validation=validation)
    report = h3(inst)
    assert (report.h3, report.argmin_subset, report.rho_sigma,
            report.lambda_sigma) == _ranked_sweep(inst, None)
    correction = 8.0 * a_count * math.log2(a_count) ** 2 / budget
    assert h3_tilde(inst, budget) == _ranked_sweep(inst, correction)[0]


def _sweep(inst: Instance, correction: float | None):
    """(h, subset, rho_sigma, lambda_sigma) of the exhaustive sweep oracle."""
    h, members, scales = subset_sweep(*_subset_kernel(inst, correction)[:2],
                                      inst.num_treatments)
    return (h, tuple(int(a) for a in members), *scales)


def _assert_search_equals_sweep(inst: Instance, budget: float):
    report = h3(inst)
    assert (report.h3, report.argmin_subset, report.rho_sigma,
            report.lambda_sigma) == _sweep(inst, None)
    correction = 8.0 * inst.num_treatments * math.log2(inst.num_treatments) ** 2 / budget
    assert h3_tilde(inst, budget) == _sweep(inst, correction)[0]


@pytest.mark.parametrize("leaf", [0, 2])
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    a_count=st.integers(min_value=2, max_value=12),
    m=st.integers(min_value=1, max_value=3),
    copies=st.integers(min_value=0, max_value=3),
    ties=st.integers(min_value=0, max_value=2),
    bayesian=st.booleans(),
    budget=st.sampled_from([1e-3, 1.0, 500.0, 1e6, math.inf]),
    relative=st.sampled_from([None, 0.5, 1.5, 4.0, 20.0, 100.0, 500.0]),
)
# copies of the best row give zero gaps: h3 = inf, reached first by the full
# set, and the lowest mask among the zero subsets must win
@example(seed=5, a_count=5, m=2, copies=0, ties=2, bayesian=False, budget=500.0,
         relative=None)
@example(seed=8, a_count=12, m=3, copies=1, ties=1, bayesian=True, budget=math.inf,
         relative=None)
# a tiny budget drives every corrected cell below 0, so corrected gaps clip at 0
@example(seed=2, a_count=9, m=3, copies=0, ties=0, bayesian=False, budget=1e-3,
         relative=None)
# corrections of 20 to 500 times delta_min^2: the floor's negative corrected
# term must take the node's smallest rho_sigma + lambda_sigma, and its kappa
# difference the largest corner of the node's box
@example(seed=69, a_count=10, m=1, copies=0, ties=0, bayesian=False, budget=1.0,
         relative=20.0)
@example(seed=821, a_count=10, m=3, copies=0, ties=0, bayesian=False, budget=1.0,
         relative=100.0)
@example(seed=291, a_count=8, m=1, copies=0, ties=0, bayesian=False, budget=1.0,
         relative=100.0)
@example(seed=23, a_count=12, m=3, copies=0, ties=0, bayesian=False, budget=1.0,
         relative=500.0)
def test_branch_and_bound_equals_sweep_oracle(leaf, seed, a_count, m, copies, ties,
                                              bayesian, budget, relative):
    """h3 (value, subset, scales) and h3_tilde equal, with ==, the chunked
    sweep over every mask; leaves of 0 or 2 free arms make the search branch
    and prune deep in the tree.  A relative budget sets the correction to
    that multiple of delta_min^2, where corrected cells change sign."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(-1.0, 1.0, size=(a_count + 1, m))
    stddevs = rng.uniform(0.3, 3.0, size=(a_count + 1, m))
    for _ in range(copies):
        src, dst = rng.integers(1, a_count + 1, size=2)
        means[dst], stddevs[dst] = means[src], stddevs[src]
    validation = (ValidationConfig.bayesian(rng.uniform(0.1, 0.9, size=m),
                                            rng.uniform(0.5, 20.0, size=m), 100)
                  if bayesian else
                  ValidationConfig.non_bayesian(rng.uniform(0.05, 0.5, size=m), 100))
    inst = Instance(means=means, stddevs=stddevs, validation=validation)
    star = best_treatment(inst)
    for dst in [a for a in range(1, a_count + 1) if a != star][:ties]:
        means[dst], stddevs[dst] = means[star], stddevs[star]
    inst = Instance(means=means, stddevs=stddevs, validation=validation)
    if relative is not None and delta_min(inst) > 0:
        budget = 8.0 * a_count * math.log2(a_count) ** 2 / (relative * delta_min(inst) ** 2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexity, "_LEAF", leaf)
        _assert_search_equals_sweep(inst, budget)
        if ties:
            assert h3(inst).h3 == math.inf


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    a_count=st.integers(min_value=2, max_value=8),
    m=st.integers(min_value=1, max_value=3),
    relative=st.sampled_from([None, 0.3, 1.0, 1.5, 4.0, 30.0]),
)
def test_subset_floor_bounds_every_subset_of_its_node(seed, a_count, m, relative):
    """The kernel's floor never exceeds any arm's scaled gap
    D(S, a)^2 / (rho_sigma + lambda_sigma)^2 over the subsets S between the
    node's two sets, beyond the search's rounding margin."""
    inst = random_instance(np.random.default_rng(seed), max_treatments=a_count,
                           max_metrics=m)
    if inst.num_treatments < 2 or delta_min(inst) == 0:
        return
    correction = None if relative is None else relative * delta_min(inst) ** 2
    star, gaps, floor = _subset_kernel(inst, correction)
    rng = np.random.default_rng(seed + 1)
    a_count = inst.num_treatments
    inside = rng.random(a_count) < 0.3
    reach = inside | (rng.random(a_count) < 0.6)
    inside[star - 1] = reach[star - 1] = True
    free = np.flatnonzero(reach & ~inside)
    member = np.repeat(inside[None], 2 ** len(free), axis=0)
    member[:, free] = (np.arange(2 ** len(free))[:, None] >> np.arange(len(free))) & 1
    gap_sq, _, rho_sigma, lambda_sigma = gaps(member)
    scaled = gap_sq / ((rho_sigma + lambda_sigma) ** 2)[:, None]
    bound = floor(inside[None], reach[None])[0]
    assert np.all((bound <= scaled * (1.0 + complexity._MARGIN)) | ~member)


@pytest.mark.parametrize("name, seed, a_count", [
    ("exp1", 0, None), ("exp3", 7, 16), ("exp3", 11, 16), ("exp3", 13, 16)])
def test_branch_and_bound_equals_sweep_oracle_on_presets(name, seed, a_count):
    knobs = {"num_treatments": a_count} if a_count else {}
    inst = preset(name, seed=seed, **knobs)
    for budget in (8000.0, 64000.0):
        _assert_search_equals_sweep(inst, budget)


@pytest.mark.parametrize("budget", [None, 64000.0])
def test_subset_kernel_rows_do_not_depend_on_the_batch(budget):
    """Every output row of the kernel is that mask's own: a 1024-mask batch
    equals its rows computed one at a time."""
    inst = preset("exp3", seed=7, num_treatments=20)
    correction = None if budget is None else 8.0 * 20 * math.log2(20) ** 2 / budget
    star, gaps, _ = _subset_kernel(inst, correction)
    member = np.random.default_rng(5).random((1024, 20)) < 0.5
    member[:, star - 1] = True
    batch = gaps(member)
    rows = [gaps(member[r:r + 1]) for r in range(len(member))]
    for k, got in enumerate(batch):
        assert np.array_equal(got, np.concatenate([row[k] for row in rows]))


def test_h3_gap_doubling_quarters_complexity():
    rng = np.random.default_rng(23)
    for metrics, delta in ((1, 0.17), (3, 0.5)):  # delta=0.5 makes xi zero
        means = rng.normal(size=(5, metrics))
        stddevs = rng.uniform(0.5, 2.0, size=(5, metrics))
        inst = Instance(means=means, stddevs=stddevs,
                        validation=ValidationConfig.non_bayesian([delta] * metrics, 100))
        doubled = Instance(
            means=means[0] + 2.0 * (means - means[0]),
            stddevs=stddevs,
            validation=inst.validation,
        )
        assert h3(doubled).h3 == pytest.approx(h3(inst).h3 / 4.0, rel=1e-9)
        assert h3_prime(doubled) == pytest.approx(h3_prime(inst) / 4.0, rel=1e-9)


def test_h3_invariant_under_treatment_permutation():
    rng = np.random.default_rng(29)
    inst = random_instance(rng, max_treatments=7, max_metrics=2)
    while inst.num_treatments < 2:
        inst = random_instance(rng, max_treatments=7, max_metrics=2)
    perm = rng.permutation(inst.num_treatments)
    shuffled = Instance(
        means=np.vstack([inst.means[0], inst.means[1:][perm]]),
        stddevs=np.vstack([inst.stddevs[0], inst.stddevs[1:][perm]]),
        validation=inst.validation,
    )
    assert h3(shuffled).h3 == pytest.approx(h3(inst).h3, rel=1e-9)
    assert h3_prime(shuffled) == pytest.approx(h3_prime(inst), rel=1e-9)
    assert delta_min(shuffled) == pytest.approx(delta_min(inst), rel=1e-9)


def test_h3_near_h2_for_single_metric_homogeneous():
    rng = np.random.default_rng(31)
    for _ in range(10):
        inst = homogeneous_single_metric(rng, num_treatments=int(rng.integers(2, 7)))
        z = np.sort(z_profile(inst).z[:, 0])[::-1]
        h2 = max((r + 1) / (z[0] - z[r]) ** 2 for r in range(1, len(z)))
        ratio = h3(inst).h3 / h2
        assert 1.0 / 8.0 <= ratio <= 8.0, ratio


def test_h3_report_sanity():
    rng = np.random.default_rng(37)
    inst = random_instance(rng, max_treatments=6)
    while inst.num_treatments < 2:
        inst = random_instance(rng, max_treatments=6)
    report = h3(inst)
    assert 0 < report.h3 < math.inf
    assert 0 < h3_prime(inst) < math.inf
    assert h3_tilde(inst, 500.0) >= report.h3 - 1e-12
    assert best_treatment(inst) in report.argmin_subset
    assert delta_min(inst) > 0


def test_h3_enumeration_cap():
    inst = single_metric_instance(
        np.linspace(0.0, 1.0, 7).tolist(), [1.0] * 7
    )
    with pytest.raises(TooLargeError) as err:
        h3(inst, max_enumeration=5)
    # h3' lies below h3, so the hint offers no stand-in
    assert str(err.value).endswith("raise max_enumeration (currently 5)")
    with pytest.raises(TooLargeError):
        h3_tilde(inst, 100.0, max_enumeration=5)
    assert h3(inst, max_enumeration=6).h3 > 0


def _tied_to_best(a_count: int, tied) -> Instance:
    """One metric, z = 1 for treatment 1 and the tied ones, -1 elsewhere: the
    gap to a tied arm is 0, so h3 is inf, attained first by {1, min(tied)}."""
    z = np.full((a_count, 1), -1.0)
    z[[0, *(a - 1 for a in tied)]] = 1.0
    return from_z_parameterization(z, np.full_like(z, 0.5), [0.0], [1.0],
                                   ValidationConfig.non_bayesian([0.05], 100))


@pytest.mark.parametrize("a_count, tied", [(65, [64, 65]), (66, [66]), (70, [70])],
                         ids=["A65", "A66", "A70"])
def test_h3_refuses_more_treatments_than_mask_bits(a_count, tied):
    # int64 masks overflowed past 64 treatments: arm 66 got no bit, so h3 was
    # finite, and (1, 65) was reported over the lower mask (1, 64)
    inst = _tied_to_best(a_count, tied)
    with pytest.raises(TooLargeError, match="63-bit subset mask"):
        h3(inst, max_enumeration=200)
    with pytest.raises(TooLargeError, match="63-bit subset mask"):
        h3_tilde(inst, 1e6, max_enumeration=200)


def test_h3_at_the_mask_limit_of_64_treatments():
    report = h3(_tied_to_best(64, [63, 64]), max_enumeration=64)
    assert (report.h3, report.argmin_subset) == (math.inf, (1, 63))


@pytest.mark.parametrize("cap", [math.nan, math.inf, 20.5, True])
def test_enumeration_cap_must_be_a_whole_number(cap):
    # a NaN cap used to pass the size check and run
    inst = single_metric_instance([0.0, 1.0, 0.5], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="max_enumeration"):
        h3(inst, max_enumeration=cap)
    with pytest.raises(ValueError, match="max_enumeration"):
        h3_tilde(inst, 100.0, max_enumeration=cap)
    assert h3(inst, max_enumeration=2.0).h3 == h3(inst).h3


@pytest.mark.parametrize("budget", [math.nan, 1e-310, 0.0, -1.0])
def test_tilde_functions_refuse_nan_and_overflowing_budgets(budget):
    # A NaN budget used to give h3_tilde = 0, and 1e-310 an infinite
    # correction that computed inf - inf inside the subset kernel.
    with pytest.raises(ValueError, match="budget"):
        h3_tilde(preset("exp1"), budget)


# --- h3_prime ----------------------------------------------------------------

def test_h3_prime_unit_relative_variance():
    # sigma_t = sigma_0 = 1 -> rho2 = lambda2 = 1/2 everywhere
    inst = single_metric_instance([0, 1.0, 0.2, 0.1, 0.05], [1, 1, 1, 1, 1])
    minz = z_profile(inst).z[:, 0]
    dmin = minz[0] - np.delete(minz, 0).max()
    want = (4 / 2 + 0.5) / dmin**2
    assert h3_prime(inst) == pytest.approx(want, rel=1e-12)


def test_h3_prime_single_metric_collapse():
    rng = np.random.default_rng(41)
    inst = homogeneous_single_metric(rng, num_treatments=6, sigma=1.7)
    rho2, lam2 = (v[:, 0] for v in relative_variances(inst))
    minz = z_profile(inst).z[:, 0]
    dmin = minz.max() - np.sort(minz)[-2]
    want = (rho2.sum() + lam2.max()) / dmin**2
    assert h3_prime(inst) == pytest.approx(want, rel=1e-12)


def test_h3_prime_degenerate_gap_is_infinite():
    inst = single_metric_instance([0.0, 1.0, 1.0], [1, 1, 1])
    assert h3_prime(inst) == math.inf


# --- budget-corrected variant --------------------------------------------------

def test_tilde_gap_never_exceeds_plain_gap():
    rng = np.random.default_rng(43)
    for _ in range(15):
        inst = random_instance(rng, max_treatments=6, max_metrics=3)
        if inst.num_treatments < 2:
            continue
        star = best_treatment(inst)
        subset = list(inst.treatments)
        budget = float(rng.integers(10, 10_000))
        for a in subset:
            if a == star:
                continue
            assert _gap(inst, subset, a, budget) <= _gap(inst, subset, a) + 1e-12
        assert h3_tilde(inst, budget) >= h3(inst).h3 - 1e-9


def test_tilde_equals_plain_at_large_budget():
    rng = np.random.default_rng(47)
    for _ in range(10):
        inst = random_instance(rng, max_treatments=6, max_metrics=3)
        if inst.num_treatments < 2:
            continue
        report = h3(inst)
        assert h3_tilde(inst, math.inf) == report.h3
        a_count = inst.num_treatments
        threshold = 8.0 * a_count * math.log2(a_count) ** 2 / delta_min(inst)**2
        assert h3_tilde(inst, 2.0 * threshold + 1.0) == pytest.approx(
            report.h3, rel=1e-12
        )


def test_tilde_equals_plain_when_best_has_largest_weights():
    # best treatment also has the smallest stddev -> largest lambda2 -> its
    # kappa dominates, so the corrected branch never activates (M=1)
    inst = single_metric_instance([0.0, 2.0, 1.0, 0.5], [1.0, 0.4, 1.0, 1.5])
    assert best_treatment(inst) == 1
    report = h3(inst)
    for budget in (1.0, 10.0, 1000.0):
        assert h3_tilde(inst, budget) == report.h3


def _assert_encloses(got: float, exact, bound, what: str) -> None:
    """got lies in the rounding enclosure bound of the exact value."""
    assert bound.a <= got <= bound.b, (
        f"{what}: {got!r} outside [{float(bound.a)!r}, {float(bound.b)!r}], "
        f"exact {float(exact.mid)!r}")


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.05, max_value=0.95),
)
# corrected cells that cancel: a one-ulp change in how kappa rounds moves the
# gap by about 10^-9 (the first) to 10^-6 (the last) relative
@example(2019, 0.125)
@example(1649, 0.5)
@example(1036045502, 0.24238666703758593)
def test_tilde_oracle_found_gap_reference_agreement(seed, frac):
    """One-mask calls of the subset kernel against the exact oracle: kappa on
    a random subset that omits the best arm, and both gaps on a random subset
    that holds it, each inside the enclosure of its float evaluation around
    the exact value (tests/_oracles.py), whose width follows the cell's
    condition number."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, max_treatments=6, max_metrics=3)
    a_count, star = inst.num_treatments, best_treatment(inst)
    z, rho2 = _z_rows(inst), _rho2_rows(inst)
    others = [a for a in inst.treatments if a != star]
    if not others:
        return
    without_best = [a for a in others if rng.random() < 0.5] or others[:1]
    kappas = exact_kappas(inst.stddevs, [a - 1 for a in without_best])
    kap = subset_gaps(inst, without_best).kappa
    for a in without_best:
        for i in range(inst.num_metrics):
            want = kappas[a - 1, i]
            _assert_encloses(kap[a - 1, i], want,
                             want * iv.mpf([1 - KAPPA_UNITS * UNIT, 1 + KAPPA_UNITS * UNIT]),
                             f"kappa({without_best}, {a}, {i})")
    picked = [a for a in others if rng.random() < 0.5] or others[:1]
    members = sorted(s - 1 for s in [star, *picked])
    minz = [min(r) for r in z]
    dm2 = (minz[star - 1] - max(m for i, m in enumerate(minz)
                                if i != star - 1)) ** 2
    # Place the correction where the corrected term of one (i, j) cell of the
    # first picked arm is the smaller one and still positive: frac of the
    # plain term.  With M = 1 that cell is the gap.
    i, j = rng.integers(inst.num_metrics, size=2)
    k_a = kappa_reference(rho2, members, picked[0] - 1, j)
    k_star = kappa_reference(rho2, members, star - 1, i)
    g = max(z[star - 1][i] - z[picked[0] - 1][j], 0.0) ** 2
    target = dm2 + g / (k_a - k_star) ** 2 - frac * g / (k_a + k_star) ** 2 \
        if k_a > k_star else dm2
    budget = 8.0 * a_count * math.log2(a_count) ** 2 / target
    corr = 8.0 * a_count * math.log2(a_count) ** 2 / budget
    subset = [m + 1 for m in members]
    kappas = exact_kappas(inst.stddevs, members)
    for a in picked:
        for name, got, terms in (
                ("D^2", _gap(inst, subset, a), {}),
                ("corrected D^2", _gap(inst, subset, a, budget),
                 {"delta_min_sq": dm2, "correction": corr})):
            exact, bound = (exact_gap_sq(z, kappas, star - 1, a - 1, rounding=r, **terms)
                            for r in (0.0, UNIT))
            # the package's gap is the float root of its D^2
            root = iv.sqrt(bound) * iv.mpf([1 - UNIT, 1 + UNIT])
            _assert_encloses(got, iv.sqrt(exact), root, f"{name}({subset}, {a})")


# --- error bound ---------------------------------------------------------------

def test_error_bound_zero_budget():
    got = error_bound(0, 16, 3, 100.0)
    assert got.value == pytest.approx(6 * 3 * 4.0)
    assert got.vacuous


def test_error_bound_doubling_identity():
    a_count, m_count, h = 8, 2, 40.0
    t = 900.0
    one = error_bound(t, a_count, m_count, h).value
    two = error_bound(2 * t, a_count, m_count, h).value
    assert two == pytest.approx(one**2 / (6 * m_count * math.log2(a_count)),
                                rel=1e-12)


def test_error_bound_variants_ordered():
    one = error_bound(500.0, 8, 1, 20.0, variant="theorem1")
    two = error_bound(500.0, 8, 1, 20.0, variant="theorem2")
    assert one.value < two.value
    assert one.value == pytest.approx(
        6 * math.log2(8) * math.exp(-500.0 / (2 * 20.0 * math.log2(8)))
    )
    assert two.value == pytest.approx(
        6 * math.log2(8) * math.exp(-500.0 / (8 * 20.0 * math.log2(8)))
    )


def test_error_bound_flags_and_errors():
    assert error_bound(10_000.0, 4, 1, 5.0).vacuous is False
    assert error_bound(1.0, 4, 1, 5.0).vacuous is True
    assert error_bound(100.0, 1, 3, 5.0) == (0.0, False)
    with pytest.raises(ValueError):
        error_bound(100.0, 4, 1, 5.0, variant="theorem3")
    with pytest.raises(ValueError):
        error_bound(-1.0, 4, 1, 5.0)
    with pytest.raises(ValueError):
        error_bound(100.0, 4, 1, 0.0)
    with pytest.raises(ValueError, match="budget"):  # was ErrorBound(nan, False)
        error_bound(math.nan, 16, 3, 3000.0)
