"""Phi and Phi^-1: the package's Cephes port equals scipy.special's ndtr and
ndtri bit for bit (==, never approx), on a grid over every branch edge and on
Hypothesis draws, and every preset's tables equal the tables built with
scipy's functions."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from m3ab import core
from m3ab.core import ValidationConfig, ndtr, ndtri, z_profile
from m3ab.instances import PRESET_NAMES, preset, table1


def _around(points, ulps: int) -> np.ndarray:
    """Each point and its ulps neighbours on either side."""
    out = []
    for point in points:
        for direction in (-np.inf, np.inf):
            x = np.float64(point)
            for _ in range(ulps + 1):
                out.append(x)
                x = np.nextafter(x, direction)
    return np.array(out)


def _assert_equal(port, scipy_function, x):
    got, want = port(x), scipy_function(x)
    assert got.shape == want.shape
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    assert same.all(), (x[~same][:5], got[~same][:5], want[~same][:5])


NDTRI_GRID = np.concatenate([
    np.random.default_rng(1).random(20_000),
    np.logspace(-300, 0, 5_000),
    1.0 - np.logspace(-16, 0, 5_000),
    np.random.default_rng(2).random(2_000) * np.finfo(float).tiny,  # subnormal
    # both sides of exp(-2) and 1 - exp(-2) (P0/Q0 or the tails), exp(-32)
    # and 1 - exp(-32) (P1/Q1 or P2/Q2), and of 1/2, 1 - 2^-53 and 2^-1074
    _around([math.exp(-2), 1 - math.exp(-2), math.exp(-32), 1 - math.exp(-32),
             0.5, 1 - 2.0**-53, 5e-324, np.finfo(float).tiny], 64).clip(0.0, 1.0),
    [0.0, 1.0, -0.5, 1.5, np.nan, -np.inf, np.inf],
])

NDTR_GRID = np.concatenate([
    np.random.default_rng(3).standard_normal(20_000) * 3.0,
    np.linspace(-40.0, 40.0, 20_001),
    # both sides of |a| = 1 (erf or erfc), sqrt(2) (erfc's 1 - erf), 8 sqrt(2)
    # (P/Q or R/S) and sqrt(2 MAXLOG) (0 past MAXLOG), either sign, and of 0
    _around([s * c for c in (1.0, math.sqrt(2), 8 * math.sqrt(2),
                             math.sqrt(2 * 7.09782712893383996843E2))
             for s in (1, -1)] + [0.0], 64),
    [np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -5e-324, -0.0],
])


def test_ndtri_equals_scipy_on_every_branch_edge():
    _assert_equal(ndtri, special.ndtri, NDTRI_GRID)


def test_ndtr_equals_scipy_on_every_branch_edge():
    _assert_equal(ndtr, special.ndtr, NDTR_GRID)


@settings(max_examples=2000, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True,
                 allow_subnormal=True))
def test_ndtri_equals_scipy_inside_the_unit_interval(y):
    assert ndtri(y) == special.ndtri(y)


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=False))
def test_ndtr_equals_scipy_on_every_float(x):
    assert ndtr(x) == special.ndtr(x)


@pytest.mark.parametrize("shape", [(), (0,), (3,), (2, 3)])
def test_shapes_follow_the_argument(shape):
    x = np.full(shape, 0.25)
    for port, scipy_function in ((ndtr, special.ndtr), (ndtri, special.ndtri)):
        got = port(x)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == shape and np.array_equal(got, scipy_function(x))


def _instances():
    bayesian = ValidationConfig.bayesian([0.9, 0.8, 0.95], [0.5, 2.0, 10.0], 1000)
    for name in PRESET_NAMES:
        yield name, preset(name, l=3.0) if name == "exp2" else preset(name)
    yield "table1", table1()
    for name in ("exp1", "exp3"):
        base = preset(name)
        yield f"{name}-bayesian", dataclasses.replace(base, validation=bayesian)


@pytest.mark.parametrize("name, instance", list(_instances()),
                         ids=[name for name, _ in _instances()])
def test_preset_tables_equal_the_tables_built_with_scipy(name, instance):
    ours = z_profile(instance)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "ndtr", special.ndtr)
        patch.setattr(core, "ndtri", special.ndtri)
        theirs = z_profile(dataclasses.replace(instance))
    assert theirs is not ours
    for field in ("z", "critical", "scale", "pass_probabilities",
                  "posterior_variance", "shrink"):
        got, want = getattr(ours, field), getattr(theirs, field)
        assert (got is None and want is None) or np.array_equal(got, want), field
    assert ours == theirs
