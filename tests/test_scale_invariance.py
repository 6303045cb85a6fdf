"""Exact scale invariance across the pipeline.

Multiplying a metric's means and stddevs (and, under the Bayesian test, its
prior stddev tau) by 2^k changes no float rounding: the products are exact
and sqrt is correctly rounded, so sqrt(4^k v) = 2^k sqrt(v).  Every z-value,
relative variance, zhat and decision of a z-ranked algorithm is then the
same to the bit.  The variance-blind rules (mean elimination, variance or
stddev sampling) are exact only when every metric shares the scale."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _gen import random_instance
from _kernels import subset_gaps
from m3ab import (
    BAYESIAN,
    ExperimentConfig,
    Instance,
    h3,
    h3_tilde,
    preset,
    run_experiment,
    run_validation,
    save,
    table1,
    z_profile,
)
from m3ab.alloc import arm_weights, stage_counts
from m3ab.cli import main

Z_RANKED = ["shrvar", "shrvar-c", "shrvar-ada", "sh-z", "sh-c"]
VARIANCE_BLIND = ["sh", "shvar", "shvar-z", "neyman-z"]


def _scaled(inst: Instance, metrics, k: int) -> Instance:
    factor = np.ones(inst.num_metrics)
    factor[list(metrics)] = 2.0**k
    cfg = inst.validation
    if cfg.variant == BAYESIAN:
        cfg = dataclasses.replace(cfg, tau=cfg.tau * factor)
    return Instance(inst.means * factor, inst.stddevs * factor, cfg)


def _bits(*arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


def _counts(inst: Instance, algorithms, source: str, seed: int):
    return run_experiment(ExperimentConfig(inst, algorithms, [600], 6, seed,
                                           source)).cells


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(-8, 8))
@example(14, 0b101, 3)  # A = 2, M = 3, Bayesian: one stage
def test_power_of_two_metric_scales_change_no_bit(seed, mask, k):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, max_treatments=8)
    assume(inst.num_treatments >= 2)  # h3 needs a treatment besides the best
    metrics = [i for i in range(inst.num_metrics) if mask >> i & 1] or [0]
    scaled = _scaled(inst, metrics, k)

    want, got = z_profile(inst), z_profile(scaled)
    assert got.best == want.best
    fields = ("z", "min_z", "bottleneck", "critical", "pass_probabilities",
              "shrink")
    assert _bits(*(getattr(got, f) for f in fields)) == \
        _bits(*(getattr(want, f) for f in fields))

    subset = list(inst.treatments)
    for fn in (lambda i: h3(i).h3, lambda i: h3_tilde(i, 5000.0),
               lambda i: subset_gaps(i, subset).kappa,
               lambda i: subset_gaps(i, subset).gap_sq):
        assert _bits(fn(scaled)) == _bits(fn(inst))

    active = np.array([subset])
    assert np.array_equal(
        stage_counts("relative_variance", arm_weights(scaled.stddevs[None]),
                     active, 300),
        stage_counts("relative_variance", arm_weights(inst.stddevs[None]),
                     active, 300))

    for source in ("means", "pulls"):
        for treatment in inst.treatments:
            decide = [run_validation(i, treatment, np.random.default_rng(seed),
                                     source).per_metric_pass
                      for i in (inst, scaled)]
            assert np.array_equal(*decide)
        # One stage (A <= 2) leaves shrvar-ada no budget after phase 0.
        menu = [a for a in Z_RANKED if inst.num_treatments > 2 or a != "shrvar-ada"]
        menu += VARIANCE_BLIND if len(metrics) == inst.num_metrics else []
        assert _counts(scaled, menu, source, seed) == _counts(inst, menu, source,
                                                              seed)


def test_scaling_one_metric_moves_the_variance_blind_rules():
    # On exp1 the best treatment's bottleneck mean is metric 2; a quarter of
    # metric 0 makes metric 0 every treatment's minimum and turns sh and
    # shvar from never right to sometimes right, while z changes no bit.
    inst = preset("exp1")
    scaled = _scaled(inst, [0], -2)
    before, after = ([c.exploration_successes
                      for c in _counts(i, ["sh", "shvar"], "means", 0)]
                     for i in (inst, scaled))
    assert before == [0, 0] and min(after) > 0
    assert _counts(scaled, Z_RANKED, "means", 0) == _counts(inst, Z_RANKED,
                                                            "means", 0)


@pytest.mark.parametrize("name", ["exp1", "exp3", "table1"])
def test_complexity_command_prints_the_same_for_scaled_instances(tmp_path, capsys,
                                                                 name):
    # The saved file round-trips every float, so the command reads the scaled
    # instance exactly; exp3 (A = 128) is above the enumeration cap and
    # table1 scales its Bayesian prior tau too.
    inst = table1() if name == "table1" else preset(name, seed=7)
    last = inst.num_metrics - 1
    outputs = []
    for metrics, k in (((), 0), ((0,), -2), ((last,), 5), (range(last + 1), 3)):
        path = tmp_path / f"{name}-{k}.json"
        save(_scaled(inst, metrics, k), str(path))
        code = main(["complexity", "--instance", str(path),
                     "--budget", "8000", "--budget", "64000"])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0][0] == 0 and "H3" in outputs[0][1]
    assert outputs == [outputs[0]] * 4
