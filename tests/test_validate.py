"""Validation A/B test simulation against the analytic pass probabilities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from _gen import random_instance
from m3ab.core import (
    Instance,
    ValidationConfig,
    pass_probability,
    posterior,
    validation_terms,
)
from m3ab.validate import ValidationOutcome, _standardized, run_validation


def validate_block(instance, treatments, rngs, reward_source="pulls"):
    """Per-metric passes (R, M) of one run per generator, as the harness
    decides them."""
    _, ratio, critical = _standardized(instance, treatments, rngs, reward_source)
    return ratio >= critical


def table_instance() -> Instance:
    return Instance(
        means=np.array(oracle.TABLE_MEANS),
        stddevs=np.array(oracle.TABLE_STDDEVS),
        validation=ValidationConfig.bayesian(
            [oracle.TABLE_Q] * 2, [oracle.TABLE_TAU] * 2, oracle.TABLE_HORIZON
        ),
    )


# --- posterior --------------------------------------------------------------

def test_posterior_reference_values():
    delta_hat, sigma_hat_sq = posterior(0.6, 10.0, 10.0, 10.0, 100)
    assert sigma_hat_sq == pytest.approx(1.0 / (0.25 + 0.01), abs=1e-12)
    assert sigma_hat_sq == pytest.approx(3.84615, abs=5e-6)
    assert delta_hat == pytest.approx(0.25 * sigma_hat_sq * 0.6, abs=1e-12)
    assert delta_hat == pytest.approx(0.576923, abs=5e-7)


def test_posterior_flat_prior_limit():
    delta_hat, sigma_hat_sq = posterior(0.37, 2.0, 1.0, 1e9, 80)
    assert sigma_hat_sq == pytest.approx(2.0 * 5.0 / 80.0, rel=1e-6)
    assert delta_hat == pytest.approx(0.37, rel=1e-6)


def test_posterior_zero_diff():
    delta_hat, _ = posterior(0.0, 2.0, 1.0, 3.0, 80)
    assert delta_hat == 0.0


@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.05, max_value=50.0),
    st.integers(min_value=1, max_value=500),
)
def test_posterior_shrinks_toward_zero(diff, sigma_a, sigma_0, tau, half):
    delta_hat, sigma_hat_sq = posterior(diff, sigma_a, sigma_0, tau, 2 * half)
    assert abs(delta_hat) <= abs(diff) + 1e-12
    assert sigma_hat_sq > 0.0


# --- run_validation ---------------------------------------------------------

def test_empirical_pass_rate_matches_analytic():
    # 2e4 reps per treatment here; the acceptance suite runs 1e5.
    inst = table_instance()
    reps = 20_000
    for t in (1, 2):
        rng = np.random.default_rng(100 + t)
        hits = np.zeros(inst.num_metrics)
        for _ in range(reps):
            hits += run_validation(inst, t, rng).per_metric_pass
        for i in range(inst.num_metrics):
            p = pass_probability(inst, t, i)
            se = math.sqrt(p * (1 - p) / reps)
            assert abs(hits[i] / reps - p) < 3 * se, (t, i, hits[i] / reps, p)


def test_delta_near_one_always_passes():
    cfg = ValidationConfig.non_bayesian([0.999999], 50)
    inst = Instance(
        means=np.array([[0.0], [0.0]]), stddevs=np.ones((2, 1)), validation=cfg
    )
    rng = np.random.default_rng(0)
    assert all(run_validation(inst, 1, rng).pass_all for _ in range(100))


def test_non_bayesian_decision_shift_invariant():
    rng = np.random.default_rng(8)
    for _ in range(25):
        inst = random_instance(rng, variant="non_bayesian")
        shifted = Instance(
            means=inst.means + 17.5, stddevs=inst.stddevs, validation=inst.validation
        )
        t = int(rng.integers(1, inst.num_treatments + 1))
        seed = int(rng.integers(2**32))
        a = run_validation(inst, t, np.random.default_rng(seed))
        b = run_validation(shifted, t, np.random.default_rng(seed))
        assert np.array_equal(a.per_metric_pass, b.per_metric_pass)
        assert np.allclose(a.ate_estimates, b.ate_estimates, atol=1e-9)


def test_bayesian_outcome_is_recomputable():
    inst = table_instance()
    rng = np.random.default_rng(77)
    out = run_validation(inst, 2, rng)
    assert out.posterior is not None and out.p is not None
    for i, (delta_hat, sigma_hat_sq) in enumerate(out.posterior):
        want = posterior(
            out.ate_estimates[i], inst.stddevs[2, i], inst.stddevs[0, i],
            inst.validation.tau[i], inst.validation.horizon,
        )
        assert delta_hat == pytest.approx(want[0], rel=1e-12)
        assert sigma_hat_sq == pytest.approx(want[1], rel=1e-12)
        assert out.p[i] == pytest.approx(
            oracle.phi(delta_hat / math.sqrt(sigma_hat_sq)), abs=1e-12
        )
        assert out.per_metric_pass[i] == (out.p[i] >= inst.validation.q[i])


def test_validation_deterministic_under_seed():
    inst = table_instance()
    a = run_validation(inst, 1, np.random.default_rng(42))
    b = run_validation(inst, 1, np.random.default_rng(42))
    assert np.array_equal(a.per_metric_pass, b.per_metric_pass)
    assert np.array_equal(a.ate_estimates, b.ate_estimates)


def test_pass_all_is_conjunction():
    out = ValidationOutcome(
        per_metric_pass=np.array([True, False]), ate_estimates=np.zeros(2)
    )
    assert not out.pass_all
    out = ValidationOutcome(
        per_metric_pass=np.array([True, True]), ate_estimates=np.zeros(2)
    )
    assert out.pass_all


# --- draws against the per-arm oracle ---------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["bayesian", "non_bayesian"]),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["pulls", "means"]),
)
def test_validation_draws_match_per_arm_oracle(seed, variant, rows, source):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, variant=variant)
    treatments = rng.integers(1, inst.num_treatments + 1, size=rows)
    seeds = rng.integers(2**32, size=rows)
    outcomes = []
    for t, s in zip(treatments, seeds):
        ref_rng, rng_r = np.random.default_rng(s), np.random.default_rng(s)
        want = oracle.validation_reference_ate(
            source, inst.means, inst.stddevs, int(t), inst.validation.horizon,
            ref_rng)
        out = run_validation(inst, int(t), rng_r, reward_source=source)
        assert np.array_equal(out.ate_estimates, want)
        assert rng_r.bit_generator.state == ref_rng.bit_generator.state
        outcomes.append((out, rng_r.bit_generator.state))
    rngs = [np.random.default_rng(s) for s in seeds]
    passed = validate_block(inst, treatments, rngs, reward_source=source)
    assert passed.shape == (rows, inst.num_metrics)
    for row, rng_r, (out, state) in zip(passed, rngs, outcomes):
        assert np.array_equal(row, out.per_metric_pass)
        assert rng_r.bit_generator.state == state


@pytest.mark.parametrize("source", ["fixed", "bogus"])
def test_validation_rejects_sources_without_a_draw_law(source):
    inst = table_instance()
    # run_validation checks the name; the harness only ever passes one of
    # the two, so the block kernel _standardized checks nothing.
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError) as single:
        run_validation(inst, 1, rng, reward_source=source)
    assert str(single.value) == (f"unknown reward source {source!r}; "
                                 "expected 'pulls' or 'means'")
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("treatment", [0, 3])
def test_validation_rejects_treatment_out_of_range(treatment):
    inst = table_instance()
    with pytest.raises(ValueError, match=r"^treatment must be a whole number "
                                         rf"in \[1, 2\], got {treatment}$"):
        run_validation(inst, treatment, np.random.default_rng(0))


def test_validation_rejects_non_integer_treatments():
    inst = table_instance()
    for treatment in (1.5, True, math.nan):
        with pytest.raises(ValueError, match="^treatment must be a whole number"):
            run_validation(inst, treatment, np.random.default_rng(0))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_posterior_equals_per_call_formula(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, variant="bayesian")
    t = int(rng.integers(1, inst.num_treatments + 1))
    out = run_validation(inst, t, rng, reward_source="means")
    delta_hat, sigma_hat_sq = oracle.posterior_reference(
        out.ate_estimates, inst.stddevs[t], inst.stddevs[0],
        inst.validation.tau, inst.validation.horizon)
    assert out.posterior == list(zip(delta_hat.tolist(), sigma_hat_sq.tolist()))


def test_validation_terms_called_once_per_instance(monkeypatch):
    import m3ab.core as core

    calls = []

    def counted(*args):
        calls.append(args)
        return validation_terms(*args)

    monkeypatch.setattr(core, "validation_terms", counted)
    inst = table_instance()
    rng = np.random.default_rng(5)
    for _ in range(100):
        run_validation(inst, 2, rng, reward_source="means")
    assert len(calls) == 1
