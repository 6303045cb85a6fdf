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

Each instance derives these numbers once, as the ZProfile that every reader
takes from ``z_profile``; ``validation_terms`` and ``posterior`` hold each
formula of the test once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri

NON_BAYESIAN = "non_bayesian"
BAYESIAN = "bayesian"


class _ArrayFields:
    """Frozen dataclasses of arrays: value equality (arrays by np.array_equal,
    None equal only to None; no hash) and unpickling through __post_init__."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(x is y if x is None or y is None else
                   np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
                   for x, y in zip(self.__reduce__()[1], other.__reduce__()[1]))

    def __reduce__(self):  # read-only arrays, no stale cached tables
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _whole(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """value as an int: ints of any size (never through float: seeds are
    multi-word), NumPy integers and whole floats.  A bool, a fraction, NaN,
    +-inf, another type or a value outside [low, high] (either end optional; a
    high end from 2^32 up is a power of two) is a ValueError naming ``what``."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer() \
            or isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        number = int(value)
        if (low is None or low <= number) and (high is None or number <= high):
            return number
    top = f"2^{high.bit_length() - 1}" if high and high >= 2**32 else high
    span = f" in [{low}, {top}]" if high is not None else "" if low is None else f" >= {low}"
    raise ValueError(f"{what} must be a whole number{span}, got {value!r}")


def _treatment_ids(values, num_treatments: int | None = None,
                   what: str = "treatments") -> np.ndarray:
    """The treatment ids in ``values`` as an ascending intp array, after
    checking that they are nonempty, distinct and each ``_whole`` in
    1..num_treatments (1..2^62, inside intp, when None)."""
    ids = sorted(values)
    for a in ids[:1] + ids[-1:] if set(map(type, ids)) == {int} else ids:  # ends suffice
        _whole(a, f"treatment in {what}", 1, num_treatments or 2**62)
    if not ids or len(set(ids)) < len(ids):
        raise ValueError(f"{what} {ids} must be nonempty and distinct")
    return np.array(ids, dtype=np.intp)


def _as_prob_vector(x, m: int, name: str) -> np.ndarray:
    v = np.array(x, dtype=float).reshape(-1)
    if v.shape != (m,):
        raise ValueError(f"{name} must have length {m}, got shape {v.shape}")
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0) or np.any(v >= 1.0):
        raise ValueError(f"{name} entries must lie strictly inside (0, 1)")
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class ValidationConfig(_ArrayFields):
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
        object.__setattr__(self, "horizon", _whole(self.horizon, "horizon", 1))
        if self.horizon % 2 != 0:
            raise ValueError("horizon must be even (each side pulled t_v/2 times)")
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
            tau = np.array(self.tau, dtype=float).reshape(-1)
            if tau.shape != (m,):
                raise ValueError(f"tau must have length {m}, got shape {tau.shape}")
            if not np.all(np.isfinite(tau)) or np.any(tau <= 0.0):
                raise ValueError("tau entries must be strictly positive")
            tau.setflags(write=False)
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


@dataclass(frozen=True, eq=False)
class Instance(_ArrayFields):
    """A full problem instance: reward model plus validation configuration.

    means, stddevs: (A+1) x M arrays; row 0 is the control, row a is
    treatment a.  All stddevs strictly positive, everything finite, and
    the squares and z within the domain rule of ``_profile``.
    """

    means: np.ndarray
    stddevs: np.ndarray
    validation: ValidationConfig

    def __post_init__(self):
        means = np.atleast_2d(np.array(self.means, dtype=float))
        stddevs = np.atleast_2d(np.array(self.stddevs, dtype=float))
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
        with np.errstate(all="ignore"):  # the domain rule reads what overflows
            self._profile

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

    @cached_property
    def _profile(self) -> ZProfile:
        """The tables of ``z_profile``, derived at construction, where they
        hold the domain rule: every sigma^2 finite and positive, every
        sigma_a^2 + sigma_0^2 finite, every z finite and the squared range of
        z (a bound on every squared gap) finite; posterior(1.0, ...) is the
        shrink factor exactly (x * 1.0 = x)."""
        cfg, sd = self.validation, self.stddevs
        var = sd**2
        var_sum = var[1:] + var[0]
        if not (np.isfinite(var_sum).all() and var.min() > 0.0):
            raise ValueError("stddevs must have finite, positive squares "
                             "whose sums sigma_a^2 + sigma_0^2 are finite")
        snr = (self.means[1:] - self.means[0]) / np.sqrt(var_sum)
        xi, critical, inflation = validation_terms(cfg, var_sum)
        z = snr + xi
        if not (np.isfinite(z).all() and np.isfinite(np.ptp(z) ** 2)):
            raise ValueError("means must give finite z = snr + xi whose "
                             "squared range is finite")
        min_z = z.min(axis=1)
        shrink, variance = (posterior(1.0, sd[1:], sd[0], cfg.tau, cfg.horizon)
                            if cfg.variant == BAYESIAN else (None, None))
        return ZProfile(
            z=z, min_z=min_z, bottleneck=np.argmin(z, axis=1),
            best=int(np.argmax(min_z)) + 1, critical=critical,
            scale=inflation * np.sqrt(2.0 * var_sum / cfg.horizon),
            # Pass iff ate / sqrt(2 var_sum / t_v), ~ N(snr sqrt(t_v/2), 1),
            # reaches critical * inflation.
            pass_probabilities=1.0 - ndtr(critical * inflation
                                          - snr * math.sqrt(cfg.horizon / 2.0)),
            posterior_variance=variance, shrink=shrink)


@dataclass(frozen=True, eq=False)
class ZProfile(_ArrayFields):
    """The tables of one instance; row a-1 is treatment a, arrays read-only.
    z = snr + xi, min_z its minimum over metrics, attained at metric
    bottleneck[a-1] (ties -> lowest metric); best, the treatment with the
    largest min_z (ties -> lowest index).  Validating a passes metric i when
    ate / scale[a-1, i] reaches critical[i] (scale = inflation * sqrt(2
    var_sum / t_v)), with probability pass_probabilities[a-1, i].  Bayesian
    only (else None): the posterior given ate is N(shrink * ate,
    posterior_variance)."""

    z: np.ndarray
    min_z: np.ndarray
    bottleneck: np.ndarray
    best: int
    critical: np.ndarray
    scale: np.ndarray
    pass_probabilities: np.ndarray
    posterior_variance: np.ndarray | None = None
    shrink: np.ndarray | None = None

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


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
        lower, upper = ndtri(config.delta), ndtri(1.0 - config.delta)
        inflation = 1.0
    else:
        lower, upper = ndtri(1.0 - config.q), ndtri(config.q)
        inflation = np.sqrt(1.0 + 2.0 * var_sum / (config.tau**2 * config.horizon))
    return lower / half * inflation, upper, inflation


def posterior(sample_mean_diff, sigma_a, sigma_0, tau, t_v: int):
    """Posterior (mean, variance) of the treatment effect under the Bayesian
    test's N(0, tau^2) prior, given the estimate sample_mean_diff; scalars
    or arrays of one entry per metric."""
    var_sum = sigma_a**2 + sigma_0**2
    sigma_hat_sq = 1.0 / (t_v / (2.0 * var_sum) + 1.0 / tau**2)
    delta_hat = t_v * sigma_hat_sq / (2.0 * var_sum) * sample_mean_diff
    return delta_hat, sigma_hat_sq


def z_profile(instance: Instance) -> ZProfile:
    """The instance's tables (z = snr + xi, the best treatment, the
    validation test's), derived on the first call and then cached."""
    return instance._profile


def best_treatment(instance: Instance) -> int:
    """argmax over treatments of min_i z[a,i]; ties -> lowest treatment index."""
    return z_profile(instance).best


def pass_probability(instance: Instance, treatment: int, metric: int) -> float:
    """Exact probability that `treatment` passes validation on `metric`.

    Computed from the test's acceptance region directly (not via the z-value
    shortcut, which the test suite uses as an independent cross-check).
    """
    probabilities = _pass_probabilities(instance, treatment)
    return float(probabilities[_whole(metric, "metric", 0, instance.num_metrics - 1)])


def _pass_probabilities(instance: Instance, treatment: int) -> np.ndarray:
    """(M,) vector of per-metric pass probabilities for one treatment."""
    treatment = _whole(treatment, "treatment", 1, instance.num_treatments)
    return z_profile(instance).pass_probabilities[treatment - 1]


def joint_pass_probability(instance: Instance, treatment: int) -> float:
    """Probability of passing every metric (product across independent metrics)."""
    return float(np.prod(_pass_probabilities(instance, treatment)))
