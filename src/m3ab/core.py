"""Domain types and the analytic z-value / pass-probability machinery.

The model: one control arm (row 0) plus A treatment arms, each emitting an
M-dimensional Gaussian reward with independent coordinates and known stddevs.
After an exploration phase recommends a treatment, a validation A/B test pulls
the recommendation and the control ``t_v/2`` times each and runs a one-sided
per-metric test of "treatment beats control":

* non-Bayesian: reject at level ``delta_i`` when the observed mean difference
  clears the z-test threshold;
* Bayesian: place a ``N(0, tau_i^2)`` prior on the effect and pass when the
  posterior probability of a positive effect reaches ``q_i``.

Both tests admit the same characterization: with the signal-to-noise ratio

    snr[a,i] = (mu[a,i] - mu[0,i]) / sqrt(sigma[a,i]^2 + sigma[0,i]^2)

and a validation constant ``xi[a,i]`` determined by the test configuration,

    z[a,i] = snr[a,i] + xi[a,i],
    P(pass metric i | validating a) = Phi(sqrt(t_v/2) * z[a,i]),

so the treatment with the best worst-case validation chance is the argmax over
treatments of ``min_i z[a,i]``.  This module keeps everything analytic; no
random sampling happens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

NON_BAYESIAN = "non_bayesian"
BAYESIAN = "bayesian"


def norm_cdf(x):
    """Standard normal CDF (vectorized, abs error well below 1e-9)."""
    return ndtr(x)


def norm_ppf(p):
    """Standard normal quantile (vectorized, abs error well below 1e-9)."""
    return ndtri(p)


def _as_prob_vector(x, m: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape != (m,):
        raise ValueError(f"{name} must have length {m}, got shape {v.shape}")
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0) or np.any(v >= 1.0):
        raise ValueError(f"{name} entries must lie strictly inside (0, 1)")
    return v


@dataclass(frozen=True)
class ValidationConfig:
    """Configuration of the downstream validation A/B test.

    variant: "non_bayesian" (per-metric level delta) or "bayesian"
             (per-metric posterior threshold q and prior stddev tau).
    horizon: total validation budget t_v; each side is pulled t_v/2 times,
             so it must be a positive even integer.
    """

    variant: str
    horizon: int
    delta: np.ndarray | None = None
    q: np.ndarray | None = None
    tau: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in (NON_BAYESIAN, BAYESIAN):
            raise ValueError(f"unknown validation variant {self.variant!r}")
        if not isinstance(self.horizon, (int, np.integer)) or self.horizon <= 0:
            raise ValueError("horizon must be a positive integer")
        if self.horizon % 2 != 0:
            raise ValueError("horizon must be even (each side pulled t_v/2 times)")
        object.__setattr__(self, "horizon", int(self.horizon))
        if self.variant == NON_BAYESIAN:
            if self.delta is None:
                raise ValueError("non-Bayesian validation requires delta")
            m = np.asarray(self.delta).size
            object.__setattr__(self, "delta", _as_prob_vector(self.delta, m, "delta"))
            if self.q is not None or self.tau is not None:
                raise ValueError("q/tau are Bayesian-only fields")
        else:
            if self.q is None or self.tau is None:
                raise ValueError("Bayesian validation requires q and tau")
            m = np.asarray(self.q).size
            object.__setattr__(self, "q", _as_prob_vector(self.q, m, "q"))
            tau = np.asarray(self.tau, dtype=float).reshape(-1)
            if tau.shape != (m,):
                raise ValueError(f"tau must have length {m}, got shape {tau.shape}")
            if not np.all(np.isfinite(tau)) or np.any(tau <= 0.0):
                raise ValueError("tau entries must be strictly positive")
            object.__setattr__(self, "tau", tau)
            if self.delta is not None:
                raise ValueError("delta is a non-Bayesian-only field")

    @property
    def num_metrics(self) -> int:
        v = self.delta if self.variant == NON_BAYESIAN else self.q
        return int(v.size)

    @staticmethod
    def non_bayesian(delta, horizon: int) -> "ValidationConfig":
        return ValidationConfig(NON_BAYESIAN, horizon, delta=np.asarray(delta, dtype=float))

    @staticmethod
    def bayesian(q, tau, horizon: int) -> "ValidationConfig":
        return ValidationConfig(
            BAYESIAN, horizon, q=np.asarray(q, dtype=float), tau=np.asarray(tau, dtype=float)
        )


@dataclass(frozen=True)
class Instance:
    """A full problem instance: reward model plus validation configuration.

    means, stddevs: (A+1) x M arrays; row 0 is the control, row a is
    treatment a.  All stddevs strictly positive, everything finite.
    """

    means: np.ndarray
    stddevs: np.ndarray
    validation: ValidationConfig

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        stddevs = np.atleast_2d(np.asarray(self.stddevs, dtype=float))
        if means.shape != stddevs.shape:
            raise ValueError(
                f"means shape {means.shape} != stddevs shape {stddevs.shape}"
            )
        if means.shape[0] < 2:
            raise ValueError("need at least one treatment row besides the control")
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        if not np.all(np.isfinite(stddevs)) or np.any(stddevs <= 0.0):
            raise ValueError("stddevs must be strictly positive and finite")
        if means.shape[1] != self.validation.num_metrics:
            raise ValueError(
                f"validation config has {self.validation.num_metrics} metrics, "
                f"reward matrices have {means.shape[1]}"
            )
        means.setflags(write=False)
        stddevs.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stddevs", stddevs)

    @property
    def num_treatments(self) -> int:
        return self.means.shape[0] - 1

    @property
    def num_metrics(self) -> int:
        return self.means.shape[1]

    @property
    def treatments(self) -> range:
        """Treatment arm indices (1..A); arm 0 is the control."""
        return range(1, self.num_treatments + 1)

    def variance_sums(self) -> np.ndarray:
        """(A, M) array of sigma[a,i]^2 + sigma[0,i]^2, row a-1 <-> treatment a."""
        return self.stddevs[1:] ** 2 + self.stddevs[0] ** 2

    def snr(self) -> np.ndarray:
        """(A, M) signal-to-noise ratios, row a-1 <-> treatment a."""
        return (self.means[1:] - self.means[0]) / np.sqrt(self.variance_sums())


@dataclass(frozen=True)
class ZProfile:
    """Per-(treatment, metric) z-values; row a-1 corresponds to treatment a.

    bottleneck[a-1] is the metric attaining min_i z[a,i] (ties -> lowest
    metric index).
    """

    z: np.ndarray
    xi: np.ndarray
    bottleneck: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "bottleneck", np.argmin(self.z, axis=1))

    @property
    def min_z(self) -> np.ndarray:
        """(A,) bottleneck z-value per treatment."""
        return self.z.min(axis=1)


def relative_variance(sigma_a, sigma_0):
    """Split of z-estimator noise between a treatment and the control.

    Args:
        sigma_a: treatment reward stddev(s), >= 0.
        sigma_0: control reward stddev(s), > 0.

    Returns:
        (rho_sq, lambda_sq) with rho_sq = sigma_a^2/(sigma_a^2+sigma_0^2) and
        lambda_sq = 1 - rho_sq; elementwise for array inputs.
    """
    sa = np.asarray(sigma_a, dtype=float)
    s0 = np.asarray(sigma_0, dtype=float)
    if not (np.all(np.isfinite(sa)) and np.all(np.isfinite(s0))):
        raise ValueError("stddevs must be finite")
    if np.any(sa < 0.0) or np.any(s0 <= 0.0):
        raise ValueError("need sigma_a >= 0 and sigma_0 > 0")
    total = sa**2 + s0**2
    rho_sq = sa**2 / total
    lambda_sq = s0**2 / total
    if np.isscalar(sigma_a) and np.isscalar(sigma_0):
        return float(rho_sq), float(lambda_sq)
    return rho_sq, lambda_sq


def validation_terms(config: ValidationConfig,
                     var_sum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-metric terms (xi, critical, inflation) of the validation test
    at reward variance sums var_sum = sigma_a^2 + sigma_0^2, an (..., M)
    array; each term broadcasts against var_sum (the non-Bayesian ones are
    (M,) vectors or 1.0, independent of the stddevs).  Every formula of the
    test is written here once.

    inflation: 1 (non-Bayesian), or sqrt(1 + 2 var_sum / (tau_i^2 t_v))
    (Bayesian: the N(0, tau_i^2) prior shrinks the posterior toward zero
    effect, so larger reward noise makes the test harder to pass).

    critical: the value that the standardized effect estimate
    ate / (inflation * sqrt(2 var_sum / t_v)) must reach for the metric to
    pass: Phi^-1(1-delta_i), or Phi^-1(q_i) (Bayesian; the standardized
    estimate is then the posterior ratio delta_hat / sigma_hat, whose Phi is
    the posterior probability p_i).  Hence P(pass) = 1 - Phi(critical *
    inflation - snr * sqrt(t_v/2)).

    xi: the additive shift the test contributes to z, -critical * inflation
    / sqrt(t_v/2), taken from the lower quantile: Phi^-1(delta_i) /
    sqrt(t_v/2), or Phi^-1(1-q_i) / sqrt(t_v/2) times the inflation.
    """
    half = math.sqrt(config.horizon / 2.0)
    if config.variant == NON_BAYESIAN:
        lower, upper = norm_ppf(config.delta), norm_ppf(1.0 - config.delta)
        inflation = 1.0
    else:
        lower, upper = norm_ppf(1.0 - config.q), norm_ppf(config.q)
        inflation = np.sqrt(1.0 + 2.0 * var_sum / (config.tau**2 * config.horizon))
    return lower / half * inflation, upper, inflation


def validation_constant(
    config: ValidationConfig, sigma_a: float, sigma_0: float, metric: int
) -> float:
    """The additive shift xi[a,i] that the validation test contributes to z
    (see validation_terms).  Non-Bayesian: Phi^-1(delta_i) / sqrt(t_v/2),
    independent of the stddevs; Bayesian: Phi^-1(1-q_i) / sqrt(t_v/2) *
    sqrt(1 + 2(sigma_a^2+sigma_0^2) / (tau_i^2 t_v)).
    """
    if not 0 <= metric < config.num_metrics:
        raise ValueError(f"metric {metric} out of range")
    xi, _, _ = validation_terms(config, sigma_a**2 + sigma_0**2)
    return float(xi[metric])


def xi_matrix(config: ValidationConfig, stddevs: np.ndarray) -> np.ndarray:
    """(A, M) matrix of validation constants for the given reward stddevs.

    ``stddevs`` is the full (A+1) x M matrix including the control row; this
    lives here (rather than on Instance) so that engines running with
    *estimated* stddevs can reuse it.
    """
    var_sum = stddevs[1:] ** 2 + stddevs[0] ** 2
    return np.broadcast_to(validation_terms(config, var_sum)[0],
                           var_sum.shape).copy()


def z_profile(instance: Instance) -> ZProfile:
    """All z-values of an instance: z = snr + xi, rows are treatments 1..A."""
    xi = xi_matrix(instance.validation, instance.stddevs)
    return ZProfile(z=instance.snr() + xi, xi=xi)


def best_treatment(instance: Instance) -> int:
    """argmax over treatments of min_i z[a,i]; ties -> lowest treatment index."""
    return int(np.argmax(z_profile(instance).min_z)) + 1


def pass_probability(instance: Instance, treatment: int, metric: int) -> float:
    """Exact probability that `treatment` passes validation on `metric`.

    Computed from the test's acceptance region directly (not via the z-value
    shortcut, which the test suite uses as an independent cross-check).
    """
    if not 1 <= treatment <= instance.num_treatments:
        raise ValueError(f"treatment {treatment} out of range")
    if not 0 <= metric < instance.num_metrics:
        raise ValueError(f"metric {metric} out of range")
    return float(_pass_probabilities(instance, treatment)[metric])


def _pass_probabilities(instance: Instance, treatment: int) -> np.ndarray:
    """(M,) vector of per-metric pass probabilities for one treatment."""
    cfg = instance.validation
    snr = instance.snr()[treatment - 1]
    _, critical, inflation = validation_terms(
        cfg, instance.variance_sums()[treatment - 1])
    # Pass iff ate / sqrt(2 var_sum / t_v), ~ N(snr sqrt(t_v/2), 1), reaches
    # critical * inflation.
    return 1.0 - norm_cdf(critical * inflation - snr * math.sqrt(cfg.horizon / 2.0))


def joint_pass_probability(instance: Instance, treatment: int) -> float:
    """Probability of passing every metric (product across independent metrics)."""
    if not 1 <= treatment <= instance.num_treatments:
        raise ValueError(f"treatment {treatment} out of range")
    return float(np.prod(_pass_probabilities(instance, treatment)))
