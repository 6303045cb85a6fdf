"""Tests for instance presets, the z-parameterization constructor, and JSON I/O."""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np
import pytest

from m3ab.core import (
    Instance,
    ValidationConfig,
    best_treatment,
    validation_terms,
    z_profile,
)
from m3ab.errors import SchemaError
from m3ab.instances import (
    FORMAT_VERSION,
    from_z_parameterization,
    load,
    preset,
    save,
    table1,
)

from _gen import random_instance
from _kernels import relative_variances


def _random_validation(rng: np.random.Generator, m: int) -> ValidationConfig:
    horizon = 2 * int(rng.integers(20, 400))
    if rng.random() < 0.5:
        return ValidationConfig.non_bayesian(rng.uniform(0.02, 0.4, size=m), horizon)
    return ValidationConfig.bayesian(
        rng.uniform(0.55, 0.95, size=m), rng.uniform(0.5, 20.0, size=m), horizon
    )


# ---------------------------------------------------------------------------
# from_z_parameterization
# ---------------------------------------------------------------------------


def test_from_z_round_trips_z_and_rho():
    rng = np.random.default_rng(31)
    for _ in range(40):
        a = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        z = rng.uniform(-1.5, 1.5, size=(a, m))
        rho_sq = rng.uniform(0.05, 0.95, size=(a, m))
        mu0 = rng.uniform(-2.0, 2.0, size=m)
        s0 = rng.uniform(0.3, 4.0, size=m)
        cfg = _random_validation(rng, m)
        inst = from_z_parameterization(z, rho_sq, mu0, s0, cfg)
        assert np.allclose(z_profile(inst).z, z, atol=1e-9)
        got_rho, got_lam = relative_variances(inst)
        assert np.allclose(got_rho, rho_sq, atol=1e-12)
        assert np.allclose(got_lam, 1.0 - rho_sq, atol=1e-12)
        assert np.array_equal(inst.means[0], mu0)
        assert np.array_equal(inst.stddevs[0], s0)


def test_from_z_at_xi_reproduces_control_means():
    # With rho_sq = 0.5 and sigma_0 = 1, treatment stddevs equal 1; a z-value
    # exactly equal to the validation constant means zero SNR.
    cfg = ValidationConfig.non_bayesian([0.1, 0.3], 200)
    xi = validation_terms(cfg, 2.0)[0].tolist()
    inst = from_z_parameterization(
        [xi, xi], np.full((2, 2), 0.5), [0.7, -0.2], [1.0, 1.0], cfg
    )
    assert np.allclose(inst.stddevs[1:], 1.0, atol=1e-12)
    assert np.allclose(inst.means[1:], inst.means[0], atol=1e-12)


def test_from_z_half_rho_copies_control_stddev():
    cfg = ValidationConfig.non_bayesian([0.05], 100)
    inst = from_z_parameterization(
        [[0.2]], [[0.5]], [0.0], [2.5], cfg
    )
    assert inst.stddevs[1, 0] == pytest.approx(2.5, abs=1e-12)


def test_from_z_rejects_rho_outside_open_unit_interval():
    cfg = ValidationConfig.non_bayesian([0.05], 100)
    with pytest.raises(ValueError, match="infinite"):
        from_z_parameterization([[0.1]], [[1.0]], [0.0], [1.0], cfg)
    for bad in (0.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            from_z_parameterization([[0.1]], [[bad]], [0.0], [1.0], cfg)


def test_from_z_shape_mismatches_rejected():
    cfg = ValidationConfig.non_bayesian([0.05, 0.05], 100)
    with pytest.raises(ValueError):
        from_z_parameterization([[0.1, 0.2]], [[0.5]], [0.0, 0.0], [1.0, 1.0], cfg)
    with pytest.raises(ValueError):
        from_z_parameterization([[0.1, 0.2]], [[0.5, 0.5]], [0.0], [1.0, 1.0], cfg)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_exp1_matches_published_parameters():
    inst = preset("exp1")
    assert inst.num_treatments == 16
    assert inst.num_metrics == 3
    assert np.array_equal(inst.means[0], [0.0, 0.0, 0.0])
    assert np.array_equal(inst.stddevs[0], [1.0, 1.0, 1.0])
    assert np.array_equal(inst.means[1], [2.4697, 1.5556, 1.1180])
    for a in range(2, 17):
        assert np.array_equal(inst.means[a], [2.0125, 1.6971, 1.3416])
    assert np.allclose(inst.stddevs[1:] ** 2, np.tile([4.0, 1.0, 0.25], (16, 1)))
    assert inst.validation.variant == "non_bayesian"
    assert inst.validation.horizon == 1000
    assert np.allclose(inst.validation.delta, 0.05)
    assert best_treatment(inst) == 1


def test_exp1_knobs_change_only_validation():
    inst = preset("exp1", delta=0.01, t_v=500)
    assert inst.validation.horizon == 500
    assert np.allclose(inst.validation.delta, 0.01)
    assert np.array_equal(inst.means, preset("exp1").means)
    # a common shift xi leaves the argmax over min-z unchanged
    assert best_treatment(inst) == 1


def test_exp2_z_values_and_stddevs():
    arms = np.arange(1, 28)
    for level in (0.0, 0.5, 1.0, 3.0, 5.0):
        inst = preset("exp2", l=level)
        assert inst.num_treatments == 27
        assert inst.num_metrics == 1
        assert inst.means[0, 0] == 0.0
        assert inst.stddevs[0, 0] == 1.0
        assert np.allclose(inst.stddevs[1:, 0], 1.0 + arms**level, rtol=1e-15)
        want_z = 0.3 - 0.1 * np.sqrt(arms)
        assert np.allclose(z_profile(inst).z[:, 0], want_z, atol=1e-9)
        assert best_treatment(inst) == 1
    assert np.allclose(preset("exp2", l=0).stddevs[1:, 0], 2.0)


def test_exp2_requires_l_in_range():
    with pytest.raises(ValueError):
        preset("exp2")
    for bad in (-0.1, 5.1):
        with pytest.raises(ValueError):
            preset("exp2", l=bad)


@pytest.mark.parametrize("name, knobs, takes", [
    ("exp1", {"l": 2}, "delta, t_v"),
    ("exp3", {"l": 2}, "num_treatments, delta, t_v"),
    ("neyman_gap", {"sigma_big": 4.0, "num_treatments": 8},
     "num_small, sigma_big, sigma_small, mean_gap, delta, t_v"),
])
def test_preset_names_the_knobs_it_takes(name, knobs, takes):
    unknown = sorted(set(knobs) - set(takes.split(", ")))[0]
    with pytest.raises(ValueError) as excinfo:
        preset(name, **knobs)
    assert str(excinfo.value) == (f"preset {name!r} takes no knob {unknown!r}; "
                                  f"its knobs are {takes}")


def test_preset_seed_reaches_only_random_presets():
    assert np.array_equal(preset("exp1", seed=5).means, preset("exp1").means)
    assert not np.array_equal(preset("exp3", seed=5, num_treatments=4).stddevs,
                              preset("exp3", seed=6, num_treatments=4).stddevs)


def test_exp2_validation_defaults():
    inst = preset("exp2", l=2)
    assert inst.validation.variant == "non_bayesian"
    assert inst.validation.horizon == 100
    assert np.allclose(inst.validation.delta, 0.05)
    # the implied additive validation constant
    xi = float(validation_terms(inst.validation, 2.0)[0][0])
    assert xi == pytest.approx(-0.23262, abs=5e-6)


def test_exp3_structure_and_reproducibility():
    inst = preset("exp3", seed=11)
    assert inst.num_treatments == 128
    assert inst.num_metrics == 3
    z = z_profile(inst).z
    assert np.allclose(z[0], [0.15, 0.15, 0.05], atol=1e-9)
    assert np.allclose(z[1:], np.tile([-0.05, 0.25, 0.25], (127, 1)), atol=1e-9)
    rho_sq, _ = relative_variances(inst)
    base = np.array([0.8, 0.5, 0.2])
    assert np.all(np.abs(rho_sq - base) <= 0.1 + 1e-12)
    assert np.all((rho_sq >= 0.05) & (rho_sq <= 0.95))
    assert inst.validation.horizon == 2000
    # treatment 1 is the unique best and the only one positive in every metric
    assert best_treatment(inst) == 1
    assert np.all(z[0] > 0.0)
    assert not np.any(np.all(z[1:] > 0.0, axis=1))
    again = preset("exp3", seed=11)
    assert np.array_equal(inst.means, again.means)
    assert np.array_equal(inst.stddevs, again.stddevs)
    other = preset("exp3", seed=12)
    assert not np.array_equal(inst.stddevs, other.stddevs)


@pytest.mark.parametrize("name", ["exp3", "exp3_null"])
def test_random_presets_default_to_seed_zero(name):
    default, zero = preset(name), preset(name, seed=0)
    assert np.array_equal(default.means, zero.means)
    assert np.array_equal(default.stddevs, zero.stddevs)


def test_exp3_num_treatments_knob():
    inst = preset("exp3", seed=3, num_treatments=32)
    assert inst.num_treatments == 32
    z = z_profile(inst).z
    assert np.allclose(z[0], [0.15, 0.15, 0.05], atol=1e-9)
    assert np.allclose(z[1:], np.tile([-0.05, 0.25, 0.25], (31, 1)), atol=1e-9)


def test_exp3_null_no_treatment_beats_control_everywhere():
    inst = preset("exp3_null", seed=11)
    z = z_profile(inst).z
    assert np.allclose(z[0], [-0.05, 0.05, 0.05], atol=1e-9)
    assert np.allclose(z[1:], np.tile([-0.15, 0.15, 0.15], (127, 1)), atol=1e-9)
    assert not np.any(np.all(z > 0.0, axis=1))
    assert best_treatment(inst) == 1
    # same seed -> same relative-variance draw as exp3
    assert np.allclose(relative_variances(inst)[0],
                       relative_variances(preset("exp3", seed=11))[0], atol=1e-12)


def test_neyman_gap_structure():
    inst = preset("neyman_gap", num_small=6, sigma_big=4.0, sigma_small=0.5,
                  mean_gap=2.0)
    # control plus num_small + 1 treatments: the best and its large-variance
    # rival, then num_small - 1 small-variance treatments
    assert inst.num_treatments == 7
    assert inst.num_metrics == 1
    assert inst.means[0, 0] == 0.0 and inst.stddevs[0, 0] == 0.5
    assert inst.means[1, 0] == 2.0 and inst.stddevs[1, 0] == 4.0
    assert inst.means[2, 0] == 0.0 and inst.stddevs[2, 0] == 4.0
    assert np.all(inst.means[3:, 0] == 0.0)
    assert np.all(inst.stddevs[3:, 0] == 0.5)
    assert best_treatment(inst) == 1


def test_neyman_gap_defaults_and_validation():
    inst = preset("neyman_gap")
    assert inst.num_treatments == 21
    assert inst.validation.variant == "non_bayesian"
    assert inst.validation.horizon == 100


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        preset("exp9")


def test_table1_reproduces_documented_pass_probabilities():
    from m3ab.core import joint_pass_probability, pass_probability

    inst = table1()
    assert inst.validation.variant == "bayesian"
    assert inst.validation.horizon == 100
    grid = {
        (1, 0): 0.44, (1, 1): 0.44,
        (2, 0): 0.30, (2, 1): 0.99,
    }
    for (a, i), want in grid.items():
        assert pass_probability(inst, a, i) == pytest.approx(want, abs=0.005)
    assert joint_pass_probability(inst, 1) == pytest.approx(0.19, abs=0.005)
    assert joint_pass_probability(inst, 2) == pytest.approx(0.30, abs=0.005)
    assert best_treatment(inst) == 1


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_save_load_round_trip_both_variants(tmp_path):
    rng = np.random.default_rng(7)
    for k in range(12):
        inst = random_instance(rng)
        path = tmp_path / f"inst{k}.json"
        save(inst, path)
        back = load(path)
        assert np.array_equal(back.means, inst.means)
        assert np.array_equal(back.stddevs, inst.stddevs)
        v0, v1 = inst.validation, back.validation
        assert v1.variant == v0.variant and v1.horizon == v0.horizon
        if v0.variant == "non_bayesian":
            assert np.array_equal(v1.delta, v0.delta)
        else:
            assert np.array_equal(v1.q, v0.q)
            assert np.array_equal(v1.tau, v0.tau)


def test_saved_document_schema(tmp_path):
    path = tmp_path / "inst.json"
    save(preset("exp1"), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["format"] == FORMAT_VERSION == 1
    assert doc["num_treatments"] == 16
    assert doc["num_metrics"] == 3
    assert len(doc["means"]) == 17 and len(doc["means"][0]) == 3
    assert doc["validation"]["variant"] == "non_bayesian"
    assert doc["validation"]["horizon"] == 1000


def _valid_doc() -> dict:
    return {
        "format": 1,
        "num_treatments": 1,
        "num_metrics": 2,
        "means": [[0.0, 0.0], [0.5, 0.25]],
        "stddevs": [[1.0, 1.0], [2.0, 0.5]],
        "validation": {"variant": "non_bayesian", "delta": [0.05, 0.1],
                       "horizon": 100},
    }


def _expect_schema_error(tmp_path, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load(path)
    assert err.value.field == field
    return err.value


def test_load_accepts_valid_document(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(_valid_doc()), encoding="utf-8")
    inst = load(path)
    assert inst.num_treatments == 1 and inst.num_metrics == 2


def test_load_reports_field_paths(tmp_path):
    doc = _valid_doc()
    del doc["stddevs"]
    _expect_schema_error(tmp_path, doc, "stddevs")

    doc = _valid_doc()
    del doc["validation"]
    _expect_schema_error(tmp_path, doc, "validation")

    doc = _valid_doc()
    doc["format"] = 99
    _expect_schema_error(tmp_path, doc, "format")

    doc = _valid_doc()
    doc["num_treatments"] = 5
    _expect_schema_error(tmp_path, doc, "num_treatments")

    doc = _valid_doc()
    doc["means"] = [[0.0, 0.0], [0.5]]
    _expect_schema_error(tmp_path, doc, "means[1]")

    doc = _valid_doc()
    doc["means"][1][0] = "high"
    _expect_schema_error(tmp_path, doc, "means[1][0]")

    doc = _valid_doc()
    del doc["validation"]["horizon"]
    _expect_schema_error(tmp_path, doc, "validation.horizon")

    doc = _valid_doc()
    doc["validation"]["variant"] = "frequentist"
    _expect_schema_error(tmp_path, doc, "validation.variant")

    doc = _valid_doc()
    del doc["validation"]["delta"]
    _expect_schema_error(tmp_path, doc, "validation.delta")

    doc = _valid_doc()
    doc["validation"]["variant"] = "bayesian"
    doc["validation"]["q"] = [0.6, 0.7]
    del doc["validation"]["delta"]
    _expect_schema_error(tmp_path, doc, "validation.tau")

    doc = _valid_doc()
    doc["stddevs"][1][1] = -1.0
    _expect_schema_error(tmp_path, doc, "stddevs")


def test_load_rejects_non_object_document(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(SchemaError):
        load(path)


def test_shipped_exp1_fixture_matches_preset():
    ref = resources.files("m3ab").joinpath("data/exp1.json")
    with resources.as_file(ref) as path:
        inst = load(path)
    want = preset("exp1")
    assert np.array_equal(inst.means, want.means)
    assert np.array_equal(inst.stddevs, want.stddevs)
    assert inst.validation.horizon == want.validation.horizon
    assert np.array_equal(inst.validation.delta, want.validation.delta)


# ---------------------------------------------------------------------------
# complexity diagnostics of the A=16 preset, locked from a verified run to
# guard against silent drift in either module
# ---------------------------------------------------------------------------


def test_exp1_complexity_golden_values():
    from m3ab.complexity import delta_min, h3, h3_prime

    report = h3(preset("exp1"))
    assert math.isfinite(report.h3) and report.h3 > 0
    assert report.h3 == pytest.approx(3127.987228, rel=1e-6)
    assert h3_prime(preset("exp1")) == pytest.approx(1361.300042, rel=1e-6)
    assert delta_min(preset("exp1")) == pytest.approx(0.0999519, rel=1e-4)
