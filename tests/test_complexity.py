"""Hardness diagnostics: kappa weights, effective gaps, subset minima, bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import homogeneous_single_metric, random_instance
from _oracles import (
    drop_smallest_gaps_ranked,
    effective_gap_sq_reference,
    h3_reference,
    kappa_reference,
)
from m3ab.complexity import (
    _subset_kernel,
    delta_min,
    effective_gap,
    effective_gap_tilde,
    error_bound,
    h3,
    h3_prime,
    h3_tilde,
    kappa,
)
from m3ab.core import (
    Instance,
    ValidationConfig,
    best_treatment,
    relative_variance,
    z_profile,
)
from m3ab.errors import TooLargeError


def _rho2_rows(inst: Instance) -> list[list[float]]:
    rows, _ = relative_variance(inst.stddevs[1:], inst.stddevs[0])
    return [[float(v) for v in row] for row in rows]


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
    for a in (1, 2, 3):
        assert kappa(inst, [1, 2, 3], a, 0) == pytest.approx(1.0, abs=1e-12)


def test_kappa_metric_with_both_maxima_is_one():
    # treatment 1 has a flat relative-variance row (0.5, 0.5), so either of
    # its metrics attains the row max; treatment 2 (sigma 2 and 3) has
    # lambda2 <= 0.2 < 0.5, so treatment 1 also attains the set max.
    inst = Instance(
        means=np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]),
        stddevs=np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 3.0]]),
        validation=ValidationConfig.non_bayesian([0.05, 0.05], 100),
    )
    assert kappa(inst, [1, 2], 1, 0) == pytest.approx(1.0, abs=1e-12)
    assert kappa(inst, [1, 2], 1, 1) == pytest.approx(1.0, abs=1e-12)
    assert kappa(inst, [1, 2], 2, 0) < 1.0


def test_kappa_matches_reference_and_stays_in_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(30):
        inst = random_instance(rng, max_treatments=6, max_metrics=3)
        a_count = inst.num_treatments
        subset = sorted(rng.choice(np.arange(1, a_count + 1),
                                   size=rng.integers(1, a_count + 1),
                                   replace=False).tolist())
        rho2 = _rho2_rows(inst)
        for a in subset:
            for i in range(inst.num_metrics):
                got = kappa(inst, subset, a, i)
                want = kappa_reference(rho2, [s - 1 for s in subset], a - 1, i)
                assert got == pytest.approx(want, rel=1e-12)
                assert 0.0 < got <= 1.0 + 1e-12


def test_kappa_rejects_outsiders():
    inst = single_metric_instance([0, 1, 0.5], [1, 1, 1])
    with pytest.raises(ValueError):
        kappa(inst, [1], 2, 0)
    with pytest.raises(ValueError):
        kappa(inst, [1, 2], 1, 3)
    with pytest.raises(ValueError):
        kappa(inst, [1, 5], 1, 0)


# --- effective gap -----------------------------------------------------------

def test_effective_gap_single_metric_homogeneous_is_half_gap():
    inst = single_metric_instance([0, 2.0, 1.0, 0.5], [1, 1, 1, 1])
    z = z_profile(inst).z[:, 0]
    for a in (2, 3):
        want = (z[0] - z[a - 1]) / 2.0
        assert effective_gap(inst, [1, 2, 3], a) == pytest.approx(want, rel=1e-12)


def test_effective_gap_duplicate_row_is_zero():
    inst = Instance(
        means=np.array([[0.0, 0.0], [1.0, 2.0], [1.0, 2.0]]),
        stddevs=np.ones((3, 2)),
        validation=ValidationConfig.non_bayesian([0.05, 0.1], 100),
    )
    assert best_treatment(inst) == 1
    assert effective_gap(inst, [1, 2], 2) == 0.0


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
        for a in subset:
            if a == star:
                continue
            bottleneck_gap = minz[star - 1] - minz[a - 1]
            assert effective_gap(inst, subset, a) >= bottleneck_gap / 2 - 1e-12
            # and the full gap whenever the involved weights allow it
            kappas = [kappa(inst, subset, a, j) for j in range(inst.num_metrics)]
            kappas += [kappa(inst, subset, star, i) for i in range(inst.num_metrics)]
            if max(kappas) <= 0.5:
                assert effective_gap(inst, subset, a) >= bottleneck_gap - 1e-12


def test_effective_gap_argument_errors():
    inst = single_metric_instance([0, 1, 0.5], [1, 1, 1])
    with pytest.raises(ValueError):
        effective_gap(inst, [1, 2], 1)  # best treatment
    with pytest.raises(ValueError):
        effective_gap(inst, [2], 2)  # subset must include the best
    with pytest.raises(ValueError):
        effective_gap(inst, [1], 2)  # treatment not in subset


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
    star, gaps = _subset_kernel(inst, correction)
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
    rho2 = relative_variance(inst.stddevs[1:], inst.stddevs[0])[0][:, 0]
    lam2 = 1.0 - rho2
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
            assert (effective_gap_tilde(inst, subset, a, budget)
                    <= effective_gap(inst, subset, a) + 1e-12)
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


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_tilde_oracle_found_gap_reference_agreement(seed, frac):
    """One-mask calls of the subset kernel against the scalar oracles: both
    gaps on a random subset that holds the best arm, and kappa on a random
    subset that omits it."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, max_treatments=6, max_metrics=3)
    a_count, star = inst.num_treatments, best_treatment(inst)
    z, rho2 = _z_rows(inst), _rho2_rows(inst)
    others = [a for a in inst.treatments if a != star]
    without_best = [a for a in others if rng.random() < 0.5] or others[:1]
    for a in without_best:
        for i in range(inst.num_metrics):
            want = kappa_reference(rho2, [s - 1 for s in without_best], a - 1, i)
            assert kappa(inst, without_best, a, i) == pytest.approx(want, rel=1e-12)
    picked = [a for a in others if rng.random() < 0.5] or others[:1]
    if not picked:
        return
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
    for a in picked:
        want = effective_gap_sq_reference(z, rho2, members, star - 1, a - 1)
        assert effective_gap(inst, subset, a) ** 2 == pytest.approx(
            want, rel=1e-9, abs=1e-12)
        want = effective_gap_sq_reference(
            z, rho2, members, star - 1, a - 1,
            delta_min_sq=dm2, correction=corr,
        )
        got = effective_gap_tilde(inst, subset, a, budget)
        assert got**2 == pytest.approx(want, rel=1e-9, abs=1e-12)


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
