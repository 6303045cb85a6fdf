"""Simulation of the validation A/B test.

The recommended treatment and the control are each pulled t_v/2 times,
drawn with the exploration's reward laws (``halving``'s "pulls" or
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
(inflation * sqrt(2(sigma_a^2 + sigma_0^2) / t_v)) reaches the critical value
(for the Bayesian test that ratio is delta_hat / sigma_hat, so p_i is its
Phi).  The scale, the critical values and the posterior factors are the
instance's tables (``core.z_profile``); ``run_validation`` (one run) and
the harness (a block of runs) both read them in ``_standardized``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from m3ab.core import BAYESIAN, Instance, _whole, ndtr, z_profile
from m3ab.halving import GaussianPullSource, _standard_normals, _stat_means


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


def _standardized(instance: Instance, treatments, rngs, reward_source: str,
                  noise=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ate, ratio, critical) of one validation run per generator: the
    (R, M) effects mean_t - mean_c, run r drawing from rngs[r] through the
    reward source as rows [treatment, control] of t_v/2 pulls each (its
    treatment side first); each effect in units of the test's scale
    inflation * sqrt(2 var_sum / t_v); and the (M,) value that ratio must
    reach for the metric to pass.  Under "means" the draws are (R, 2, M)
    standard normals, one fill per generator, or ``noise`` when the caller
    drew them ahead.  The callers check the treatments and the source."""
    treatments = np.asarray(treatments)
    cfg = instance.validation
    rows = np.zeros((treatments.size, 2), dtype=int)
    rows[:, 0] = treatments
    mu_rows, sigma_rows = instance.means[rows], instance.stddevs[rows]
    if reward_source == "pulls":
        means = GaussianPullSource().stage_means_batch(
            mu_rows, sigma_rows, np.full(rows.shape, cfg.horizon // 2), rngs)
    else:
        if noise is None:
            noise = _standard_normals(rngs, mu_rows.shape[1:])
        means = _stat_means(mu_rows, sigma_rows, cfg.horizon // 2, noise)
    ate = means[:, 0] - means[:, 1]
    profile = z_profile(instance)
    return ate, ate / profile.scale[treatments - 1], profile.critical


def run_validation(instance: Instance, treatment: int,
                   rng: np.random.Generator,
                   reward_source: str = "pulls") -> ValidationOutcome:
    """Draw both sides of the A/B test and apply the per-metric decisions.

    reward_source names the source that draws both sides, treatment first:
    "pulls" or "means" (identically distributed outcomes; "means" keeps
    large validation horizons cheap).
    """
    treatment = _whole(treatment, "treatment", 1, instance.num_treatments)
    if reward_source not in ("pulls", "means"):
        raise ValueError(f"unknown reward source {reward_source!r}; "
                         "expected 'pulls' or 'means'")
    ate, ratio, critical = _standardized(instance, [treatment], [rng], reward_source)
    ate, ratio = ate[0], ratio[0]
    if instance.validation.variant != BAYESIAN:
        return ValidationOutcome(per_metric_pass=ratio >= critical,
                                 ate_estimates=ate)
    profile = z_profile(instance)
    posterior = zip((profile.shrink[treatment - 1] * ate).tolist(),
                    profile.posterior_variance[treatment - 1].tolist())
    return ValidationOutcome(per_metric_pass=ratio >= critical, ate_estimates=ate,
                             posterior=list(posterior), p=ndtr(ratio))

