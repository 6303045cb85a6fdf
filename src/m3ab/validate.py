"""Simulation of the validation A/B test.

The recommended treatment and the control are each pulled t_v/2 times,
drawn through the exploration's reward sources (``halving``'s "pulls" or
"means") as one stage of rows [treatment, control]: the treatment side is
drawn first, then the control side — fixed order so a seeded run is
reproducible.  Per metric, one-sided "treatment beats control" tests:

* non-Bayesian: pass iff  mean_diff >= Phi^-1(1-delta_i) * sqrt(2(sigma_a^2 +
  sigma_0^2) / t_v)  — the level-delta_i z-test;
* Bayesian: with prior N(0, tau_i^2) on the effect, the posterior is normal
  with  sigma_hat^2 = (t_v/(2(sigma_a^2+sigma_0^2)) + 1/tau_i^2)^-1  and mean
  delta_hat = t_v * sigma_hat^2 / (2(sigma_a^2+sigma_0^2)) * mean_diff; pass
  iff the posterior probability of a positive effect p_i = Phi(delta_hat /
  sigma_hat) reaches q_i.

Both are one rule: pass iff the standardized effect estimate mean_diff /
(inflation * sqrt(2(sigma_a^2 + sigma_0^2) / t_v)) reaches the critical value,
both from ``core.validation_terms`` (for the Bayesian test that ratio is
delta_hat / sigma_hat, so p_i is its Phi).  ``run_validation`` and
``run_validation_batch`` both take it from ``_standardized``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from m3ab.core import BAYESIAN, Instance, validation_terms
from m3ab.halving import get_reward_source


@dataclass(frozen=True)
class ValidationOutcome:
    """One validation run; posterior and p are None for non-Bayesian tests."""

    per_metric_pass: np.ndarray
    ate_estimates: np.ndarray
    posterior: list[tuple[float, float]] | None = None
    p: np.ndarray | None = None

    @property
    def pass_all(self) -> bool:
        return bool(np.all(self.per_metric_pass))


def posterior(sample_mean_diff, sigma_a, sigma_0, tau, t_v: int):
    """Posterior (mean, variance) of the treatment effect; scalars or
    arrays of one entry per metric."""
    var_sum = sigma_a**2 + sigma_0**2
    sigma_hat_sq = 1.0 / (t_v / (2.0 * var_sum) + 1.0 / tau**2)
    delta_hat = t_v * sigma_hat_sq / (2.0 * var_sum) * sample_mean_diff
    return delta_hat, sigma_hat_sq


def _standardized(instance: Instance, treatments, rngs,
                  reward_source: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ate, ratio, critical) of one validation run per generator: the
    (R, M) effects mean_t - mean_c, run r drawing from rngs[r] through the
    reward source as rows [treatment, control] of t_v/2 pulls each (its
    treatment side first); each effect in units of the test's scale
    inflation * sqrt(2 var_sum / t_v); and the (M,) value that ratio must
    reach for the metric to pass."""
    treatments = np.asarray(treatments)
    if treatments.dtype.kind not in "iu":
        raise ValueError(f"treatments must be integers, got {treatments.dtype}")
    bad = treatments[(treatments < 1) | (treatments > instance.num_treatments)]
    if bad.size:
        raise ValueError(f"treatment {bad[0]} out of range")
    if reward_source not in ("pulls", "means"):
        raise ValueError(f"unknown reward source {reward_source!r}; "
                         "expected 'pulls' or 'means'")
    rows = np.stack((treatments, np.zeros_like(treatments)), axis=1)
    counts = np.full(rows.shape, instance.validation.horizon // 2)
    means = get_reward_source(reward_source).stage_means_batch(
        instance.means[rows], instance.stddevs[rows], counts, rngs)
    ate = means[:, 0] - means[:, 1]
    cfg = instance.validation
    var_sum = instance.variance_sums()[treatments - 1]
    _, critical, inflation = validation_terms(cfg, var_sum)
    return ate, ate / (inflation * np.sqrt(2.0 * var_sum / cfg.horizon)), critical


def run_validation(instance: Instance, treatment: int,
                   rng: np.random.Generator,
                   reward_source: str = "pulls") -> ValidationOutcome:
    """Draw both sides of the A/B test and apply the per-metric decisions.

    reward_source names the source that draws both sides, treatment first:
    "pulls" or "means" (identically distributed outcomes; "means" keeps
    large validation horizons cheap).
    """
    ate, ratio, critical = _standardized(instance, [treatment], [rng], reward_source)
    ate, ratio = ate[0], ratio[0]
    cfg = instance.validation
    if cfg.variant != BAYESIAN:
        return ValidationOutcome(per_metric_pass=ratio >= critical,
                                 ate_estimates=ate)
    delta_hat, sigma_hat_sq = posterior(ate, instance.stddevs[treatment],
                                        instance.stddevs[0], cfg.tau,
                                        cfg.horizon)
    return ValidationOutcome(
        per_metric_pass=ratio >= critical,
        ate_estimates=ate,
        posterior=list(zip(delta_hat.tolist(), sigma_hat_sq.tolist())),
        p=ndtr(ratio),
    )


def run_validation_batch(instance: Instance, treatments, rngs,
                         reward_source: str = "pulls") -> np.ndarray:
    """Per-metric pass decisions (R, M) of one validation run per generator:
    row r equals ``run_validation(instance, treatments[r], rngs[r],
    reward_source).per_metric_pass`` and leaves rngs[r] in the same state."""
    _, ratio, critical = _standardized(instance, treatments, rngs, reward_source)
    return ratio >= critical
