"""Simulation of the validation A/B test.

The recommended treatment and the control are each pulled t_v/2 times (the
treatment side is drawn first, then the control side — fixed order so a seeded
run is reproducible).  Per metric, one-sided "treatment beats control" tests:

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

from m3ab.core import BAYESIAN, Instance, norm_cdf, validation_terms


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


def _check_source(reward_source: str) -> None:
    if reward_source not in ("pulls", "means"):
        raise ValueError(
            f"unknown reward source {reward_source!r}; expected 'pulls' or 'means'"
        )


def _effect_estimates(instance: Instance, treatments: np.ndarray, rngs,
                      reward_source: str) -> np.ndarray:
    """(R, M) estimated effects mean_t - mean_c, run r drawing from rngs[r]:
    its treatment side first, then its control side.  Each draw is
    mu + sd * standard_normal, bit for bit what rng.normal(mu, sd) gives."""
    half = instance.validation.horizon // 2
    mu, sd = instance.means, instance.stddevs
    m = instance.num_metrics
    if reward_source == "means":
        noise = np.empty((len(rngs), 2, m))
        for rng, out in zip(rngs, noise):
            rng.standard_normal(out=out)
        scale = sd / np.sqrt(half)
        return mu[treatments] + scale[treatments] * noise[:, 0] \
            - (mu[0] + scale[0] * noise[:, 1])
    ate = np.empty((len(rngs), m))
    for row, (t, rng) in enumerate(zip(treatments, rngs)):
        noise = rng.standard_normal((2, half, m))
        ate[row] = (mu[t] + sd[t] * noise[0]).mean(axis=0) \
            - (mu[0] + sd[0] * noise[1]).mean(axis=0)
    return ate


def _standardized(instance: Instance, treatments,
                  ate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ratio, critical), (..., M): each effect estimate in units of the
    test's scale inflation * sqrt(2 var_sum / t_v), and the value it must
    reach for the metric to pass."""
    cfg = instance.validation
    var_sum = instance.variance_sums()[np.asarray(treatments) - 1]
    _, critical, inflation = validation_terms(cfg, var_sum)
    return ate / (inflation * np.sqrt(2.0 * var_sum / cfg.horizon)), critical


def run_validation(instance: Instance, treatment: int,
                   rng: np.random.Generator,
                   reward_source: str = "pulls") -> ValidationOutcome:
    """Draw both sides of the A/B test and apply the per-metric decisions.

    reward_source "pulls" draws every individual reward; "means" draws each
    side's sample mean from its exact law N(mu, sigma^2 / (t_v/2)) — the two
    produce identically distributed outcomes, and "means" keeps large
    validation horizons cheap.  Treatment side first, then control.
    """
    if not 1 <= treatment <= instance.num_treatments:
        raise ValueError(f"treatment {treatment} out of range")
    _check_source(reward_source)
    ate = _effect_estimates(instance, np.array([treatment]), [rng],
                            reward_source)[0]
    ratio, critical = _standardized(instance, treatment, ate)
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
        p=norm_cdf(ratio),
    )


def run_validation_batch(instance: Instance, treatments, rngs,
                         reward_source: str = "pulls") -> np.ndarray:
    """Per-metric pass decisions (R, M) of one validation run per generator:
    row r equals ``run_validation(instance, treatments[r], rngs[r],
    reward_source).per_metric_pass`` and leaves rngs[r] in the same state."""
    treatments = np.asarray(treatments, dtype=np.intp)
    bad = treatments[(treatments < 1) | (treatments > instance.num_treatments)]
    if bad.size:
        raise ValueError(f"treatment {bad[0]} out of range")
    _check_source(reward_source)
    ratio, critical = _standardized(
        instance, treatments,
        _effect_estimates(instance, treatments, rngs, reward_source))
    return ratio >= critical
