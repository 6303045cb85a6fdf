"""Core analytic machinery: z-values, validation constants, pass probabilities.

Derived reference values are recomputed by the stdlib-based oracles in
_oracles.py (a numeric route independent of scipy) before being asserted
against the package.
"""

from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from _gen import random_instance
from m3ab.core import (
    Instance,
    ValidationConfig,
    best_treatment,
    joint_pass_probability,
    pass_probability,
    validation_terms,
    z_profile,
)
from m3ab.instances import preset, table1


def table_instance() -> Instance:
    return Instance(
        means=np.array(oracle.TABLE_MEANS),
        stddevs=np.array(oracle.TABLE_STDDEVS),
        validation=ValidationConfig.bayesian(
            [oracle.TABLE_Q] * 2, [oracle.TABLE_TAU] * 2, oracle.TABLE_HORIZON
        ),
    )


# --- xi, the first of validation_terms --------------------------------------


def xi_of(cfg, sigma_a, sigma_0, metric):
    return float(validation_terms(cfg, sigma_a**2 + sigma_0**2)[0][metric])


def test_xi_non_bayesian_half_is_zero():
    cfg = ValidationConfig.non_bayesian([0.5], 100)
    assert xi_of(cfg, 3.0, 1.0, 0) == pytest.approx(0.0, abs=1e-12)


def test_xi_bayesian_half_is_zero():
    cfg = ValidationConfig.bayesian([0.5], [2.0], 100)
    assert xi_of(cfg, 3.0, 1.0, 0) == pytest.approx(0.0, abs=1e-12)


def test_xi_bayesian_reference_value():
    cfg = ValidationConfig.bayesian([0.67], [10.0], 100)
    got = xi_of(cfg, 10.0, 10.0, 0)
    want = oracle.xi_value("bayesian", 100, q=0.67, tau=10.0, sigma_a=10.0, sigma_0=10.0)
    assert got == pytest.approx(want, abs=1e-9)
    assert got == pytest.approx(-0.06345, abs=5e-6)


def test_xi_non_bayesian_ignores_stddevs():
    cfg = ValidationConfig.non_bayesian([0.1, 0.3], 50)
    for metric in range(2):
        vals = {xi_of(cfg, sa, s0, metric)
                for sa, s0 in [(1.0, 1.0), (9.0, 0.1), (0.5, 7.0)]}
        assert len(vals) == 1
        want = oracle.xi_value("non_bayesian", 50, delta=[0.1, 0.3][metric])
        assert vals.pop() == pytest.approx(want, abs=1e-9)


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.2, max_value=5.0),
)
def test_xi_bayesian_monotone_in_sigma_with_quantile_sign(q, tau, sigma_lo):
    # d(xi)/d(sigma_a) carries the sign of Phi^-1(1-q): the prior inflation
    # factor grows with reward noise and multiplies that quantile.
    cfg = ValidationConfig.bayesian([q], [tau], 100)
    lo = xi_of(cfg, sigma_lo, 1.0, 0)
    hi = xi_of(cfg, sigma_lo * 2.0, 1.0, 0)
    sign = oracle.phi_inv(1.0 - q)
    if abs(sign) > 1e-12:
        assert (hi - lo) * sign > 0.0


# --- z_profile / best_treatment --------------------------------------------

def test_z_profile_zero_effect_zero_xi():
    cfg = ValidationConfig.non_bayesian([0.5, 0.5], 100)
    inst = Instance(
        means=np.array([[1.0, -2.0], [1.0, -2.0]]),
        stddevs=np.full((2, 2), 3.0),
        validation=cfg,
    )
    prof = z_profile(inst)
    assert np.allclose(prof.z, 0.0, atol=1e-12)


def test_z_profile_table_entry():
    prof = z_profile(table_instance())
    want = oracle.snr_value(0.6, 0.0, 10.0, 10.0) + oracle.xi_value(
        "bayesian", 100, q=0.67, tau=10.0, sigma_a=10.0, sigma_0=10.0
    )
    assert prof.z[0, 0] == pytest.approx(want, abs=1e-9)
    assert prof.z[0, 0] == pytest.approx(-0.02102, abs=5e-6)


def test_z_profile_single_metric_bottleneck():
    rng = np.random.default_rng(3)
    inst = random_instance(rng, max_metrics=1)
    assert np.all(z_profile(inst).bottleneck == 0)


def test_z_profile_bottleneck_tie_lowest_metric():
    cfg = ValidationConfig.non_bayesian([0.5, 0.5, 0.5], 100)
    inst = Instance(
        means=np.array([[0.0, 0.0, 0.0], [0.5, 0.2, 0.2]]),
        stddevs=np.ones((2, 3)),
        validation=cfg,
    )
    assert z_profile(inst).bottleneck[0] == 1  # metrics 1 and 2 tie at the min


def test_best_treatment_table():
    assert best_treatment(table_instance()) == 1


def test_best_treatment_single():
    rng = np.random.default_rng(5)
    inst = random_instance(rng, max_treatments=1)
    assert best_treatment(inst) == 1


def test_best_treatment_sqrt_profile():
    # z_a = 0.3 - 0.1*sqrt(a) with xi = 0 and unit stddevs -> treatment 1 wins.
    z = 0.3 - 0.1 * np.sqrt(np.arange(1, 28))
    means = np.concatenate([[0.0], z * math.sqrt(2.0)])
    inst = Instance(
        means=means[:, None],
        stddevs=np.ones((28, 1)),
        validation=ValidationConfig.non_bayesian([0.5], 100),
    )
    assert best_treatment(inst) == 1
    assert np.allclose(z_profile(inst).min_z, z, atol=1e-12)


def test_best_treatment_tie_lowest_index():
    cfg = ValidationConfig.non_bayesian([0.5], 100)
    inst = Instance(
        means=np.array([[0.0], [0.7], [0.7], [0.1]]),
        stddevs=np.ones((4, 1)),
        validation=cfg,
    )
    assert best_treatment(inst) == 1


# --- pass probabilities -----------------------------------------------------

def test_pass_probability_table_values():
    inst = table_instance()
    for (t, i), rounded in oracle.TABLE_ROUNDED.items():
        got = pass_probability(inst, t, i)
        assert got == pytest.approx(oracle.table_pass_prob(t, i), abs=1e-12)
        assert got == pytest.approx(rounded, abs=0.005)


def test_pass_probability_centered_test():
    cfg = ValidationConfig.non_bayesian([0.5], 100)
    inst = Instance(
        means=np.array([[0.3], [0.3]]), stddevs=np.ones((2, 1)), validation=cfg
    )
    assert pass_probability(inst, 1, 0) == pytest.approx(0.5, abs=1e-12)


def test_joint_pass_probability_table():
    inst = table_instance()
    for t, rounded in oracle.TABLE_JOINT_ROUNDED.items():
        want = oracle.table_pass_prob(t, 0) * oracle.table_pass_prob(t, 1)
        got = joint_pass_probability(inst, t)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(rounded, abs=0.01)


def test_joint_equals_single_when_one_metric():
    rng = np.random.default_rng(11)
    for _ in range(20):
        inst = random_instance(rng, max_metrics=1)
        for t in inst.treatments:
            assert joint_pass_probability(inst, t) == pytest.approx(
                pass_probability(inst, t, 0), abs=1e-15
            )


def test_pass_probability_equals_phi_of_scaled_z():
    # Independent route: the acceptance-region computation must agree with
    # Phi(sqrt(t_v/2) * z) for both validation variants.
    rng = np.random.default_rng(23)
    for _ in range(200):
        inst = random_instance(rng)
        prof = z_profile(inst)
        scale = math.sqrt(inst.validation.horizon / 2.0)
        for t in inst.treatments:
            for i in range(inst.num_metrics):
                assert pass_probability(inst, t, i) == pytest.approx(
                    oracle.phi(scale * prof.z[t - 1, i]), abs=1e-12
                )


def test_pass_probability_strictly_increasing_in_mean():
    rng = np.random.default_rng(31)
    for _ in range(50):
        inst = random_instance(rng)
        t = int(rng.integers(1, inst.num_treatments + 1))
        i = int(rng.integers(0, inst.num_metrics))
        base = pass_probability(inst, t, i)
        means = np.array(inst.means)
        means[t, i] += 0.01
        bumped = Instance(means=means, stddevs=inst.stddevs, validation=inst.validation)
        assert pass_probability(bumped, t, i) > base


def test_argmax_min_pass_matches_best_treatment():
    # Quick version of the equivalence property (the acceptance suite runs
    # >= 1000 instances); unique max-min at 1e-9 separation required.
    rng = np.random.default_rng(47)
    checked = 0
    for _ in range(300):
        inst = random_instance(rng)
        if inst.num_treatments < 2:
            continue
        min_pass = np.array(
            [min(pass_probability(inst, t, i) for i in range(inst.num_metrics))
             for t in inst.treatments]
        )
        top = np.sort(min_pass)[::-1]
        if top[0] - top[1] <= 1e-9:
            continue
        assert int(np.argmax(min_pass)) + 1 == best_treatment(inst)
        checked += 1
    assert checked > 150


def test_maxmin_equals_joint_argmax_for_large_horizon():
    # When the best treatment beats control on every metric, ranking by the
    # worst metric and ranking by the joint product agree once the validation
    # horizon is large.  Agreement is asserted at t_v = 1e5 and the smallest
    # horizon in a coarse grid where agreement holds is reported.
    rng = np.random.default_rng(59)
    grid = [10, 100, 1000, 10000, 100000]
    thresholds = []
    checked = 0
    while checked < 40:
        inst = random_instance(rng, variant="non_bayesian")
        if inst.num_treatments < 2:
            continue
        if z_profile(inst).min_z.max() <= 0.05:  # want a clear all-metric winner
            continue
        agree_at = None
        for horizon in grid:
            cfg = ValidationConfig.non_bayesian(inst.validation.delta, 2 * (horizon // 2))
            probe = Instance(means=inst.means, stddevs=inst.stddevs, validation=cfg)
            per = np.array(
                [[pass_probability(probe, t, i) for i in range(probe.num_metrics)]
                 for t in probe.treatments]
            )
            maxmin = int(np.argmax(per.min(axis=1)))
            joint = int(np.argmax(per.prod(axis=1)))
            if maxmin == joint:
                if agree_at is None:
                    agree_at = horizon
            else:
                agree_at = None
        assert agree_at is not None, "no agreement even at t_v = 1e5"
        thresholds.append(agree_at)
        checked += 1
    print(f"max-min vs joint agreement threshold: t_v <= {max(thresholds)} "
          f"(median {sorted(thresholds)[len(thresholds) // 2]}) over {checked} instances")


# --- type invariants --------------------------------------------------------

def test_validation_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ValidationConfig.non_bayesian([0.05], 101)  # odd horizon
    with pytest.raises(ValueError):
        ValidationConfig.non_bayesian([0.0], 100)  # delta on the boundary
    with pytest.raises(ValueError):
        ValidationConfig.bayesian([0.5], [0.0], 100)  # tau must be positive
    with pytest.raises(ValueError):
        ValidationConfig.bayesian([0.5], [1.0, 2.0], 100)  # tau length mismatch
    with pytest.raises(ValueError):
        ValidationConfig("weird", 100)


def test_instance_rejects_bad_matrices():
    cfg = ValidationConfig.non_bayesian([0.05, 0.1], 100)
    with pytest.raises(ValueError):
        Instance(means=np.zeros((2, 2)), stddevs=np.zeros((2, 2)), validation=cfg)
    with pytest.raises(ValueError):
        Instance(means=np.zeros((2, 3)), stddevs=np.ones((2, 3)), validation=cfg)
    with pytest.raises(ValueError):
        Instance(means=np.zeros((1, 2)), stddevs=np.ones((1, 2)), validation=cfg)
    with pytest.raises(ValueError):
        Instance(
            means=np.array([[0.0, np.nan], [0.0, 0.0]]),
            stddevs=np.ones((2, 2)),
            validation=cfg,
        )


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_instances_satisfy_invariants(seed):
    inst = random_instance(np.random.default_rng(seed))
    prof = z_profile(inst)
    assert prof.z.shape == (inst.num_treatments, inst.num_metrics)
    assert np.all(prof.bottleneck == np.argmin(prof.z, axis=1))
    for t in inst.treatments:
        joint = joint_pass_probability(inst, t)
        per = [pass_probability(inst, t, i) for i in range(inst.num_metrics)]
        assert 0.0 <= joint <= min(per) <= 1.0


# --- the instance's tables ---------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(["bayesian", "non_bayesian"]))
def test_tables_equal_per_row_reference(seed, variant):
    inst = random_instance(np.random.default_rng(seed), variant=variant)
    prof = z_profile(inst)
    want = oracle.instance_tables_reference(validation_terms, inst)
    for name, table in want.items():
        got = getattr(prof, name)
        if table is None:
            assert got is None, name
        else:
            assert got.shape == table.shape and np.array_equal(got, table), name
    assert np.array_equal(prof.min_z, want["z"].min(axis=1))
    assert np.array_equal(prof.bottleneck, np.argmin(want["z"], axis=1))
    assert prof.best == best_treatment(inst) == int(np.argmax(prof.min_z)) + 1
    for t in inst.treatments:
        assert joint_pass_probability(inst, t) == float(
            np.prod(want["pass_probabilities"][t - 1]))


def test_tables_are_read_only_and_built_once():
    inst = table_instance()
    prof = z_profile(inst)
    assert z_profile(inst) is prof
    for name in ("z", "min_z", "bottleneck", "critical", "scale",
                 "pass_probabilities", "posterior_variance", "shrink"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(prof, name)[0] = 0.0


def test_unpickled_instance_is_read_only_with_equal_tables():
    # Process-pool tasks receive their instance pickled; its arrays, its
    # config's and its derived tables must come back read-only, the tables
    # equal to the sender's.
    inst = table_instance()
    sent = z_profile(inst)
    back = pickle.loads(pickle.dumps(inst))
    assert back == inst and back.validation == inst.validation
    prof = z_profile(back)
    assert prof is not sent
    tables = {name: value for name, value in vars(prof).items()
              if isinstance(value, np.ndarray)}
    assert len(tables) == 8  # every table of a Bayesian instance
    for name, value in {"means": back.means, "stddevs": back.stddevs,
                        "q": back.validation.q, "tau": back.validation.tau,
                        **tables}.items():
        assert not value.flags.writeable, name
    assert np.array_equal(back.means, inst.means)
    assert np.array_equal(back.stddevs, inst.stddevs)
    for name, value in vars(sent).items():
        assert np.array_equal(getattr(prof, name), value), name


def test_validation_arrays_are_read_only():
    bayes = table_instance().validation
    for name, cfg in (("delta", preset("exp1").validation), ("q", bayes),
                      ("tau", bayes)):
        with pytest.raises(ValueError, match="read-only"):
            getattr(cfg, name)[0] = 0.5


def test_validation_config_keeps_a_copy_of_its_inputs():
    delta = np.array([0.1, 0.2])
    cfg = ValidationConfig.non_bayesian(delta, 100)
    cached = z_profile(Instance(np.zeros((2, 2)), np.ones((2, 2)), cfg))
    delta[0] = 0.5
    assert cfg.delta.tolist() == [0.1, 0.2]
    # the tables cached before the write still match the config
    again = z_profile(Instance(np.zeros((2, 2)), np.ones((2, 2)), cfg))
    for name in ("critical", "pass_probabilities"):
        assert np.array_equal(getattr(again, name), getattr(cached, name)), name
    q, tau = np.array([0.9, 0.8]), np.array([1.0, 2.0])
    bayes = ValidationConfig.bayesian(q, tau, 100)
    q[0], tau[0] = 0.5, 9.0
    assert bayes.q.tolist() == [0.9, 0.8] and bayes.tau.tolist() == [1.0, 2.0]


def test_instance_copies_the_callers_arrays():
    means, stddevs = np.zeros((3, 2)), np.ones((3, 2))
    inst = Instance(means, stddevs, ValidationConfig.non_bayesian([0.1, 0.1], 100))
    assert inst.means is not means and inst.stddevs is not stddevs
    assert means.flags.writeable and stddevs.flags.writeable
    means[1, 0], stddevs[1, 0] = 5.0, 3.0
    assert not inst.means.any() and (inst.stddevs == 1.0).all()


def test_instance_from_views_ignores_writes_to_their_base():
    base = np.ones((4, 2))
    inst = Instance(base[:3], base[1:],
                    ValidationConfig.non_bayesian([0.1, 0.1], 100))
    base[:] = 7.0
    assert (inst.means == 1.0).all() and (inst.stddevs == 1.0).all()


def test_equality_compares_fields_by_value():
    inst = preset("exp1")
    assert inst == preset("exp1") and inst.validation == preset("exp1").validation
    longer = dataclasses.replace(inst.validation, horizon=inst.validation.horizon + 2)
    assert longer != inst.validation
    assert dataclasses.replace(inst, validation=longer) != inst
    assert ValidationConfig.non_bayesian([0.1, 0.1], 100) \
        != ValidationConfig.bayesian([0.9, 0.9], [1.0, 1.0], 100)
    assert inst != inst.validation and inst.validation != inst
    for value in (inst, inst.validation):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


def test_z_profile_compares_by_value():
    prof = z_profile(preset("exp1"))
    assert prof == z_profile(preset("exp1"))
    assert z_profile(table1()) == z_profile(table1())  # Bayesian tables too
    inst = preset("exp1")
    longer = dataclasses.replace(inst.validation, horizon=inst.validation.horizon + 2)
    assert z_profile(dataclasses.replace(inst, validation=longer)) != prof
    bayes = z_profile(table1())
    back = pickle.loads(pickle.dumps(bayes))
    assert back == bayes
    for name, value in vars(back).items():
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, name
    with pytest.raises(TypeError, match="unhashable"):
        hash(prof)
