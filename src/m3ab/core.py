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
formula of the test once.  Phi and Phi^-1 are ``ndtr`` and ``ndtri``, ported
bit for bit from the Cephes routines that scipy.special evaluates: no result
depends on whether or which scipy is installed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, wraps

import numpy as np

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


# Cephes ndtri (P0/Q0 for |y - 1/2| <= 1/2 - exp(-2), else P1/Q1 below
# sqrt(-2 log y) = 8, P2/Q2 above) and erf/erfc (T/U; P/Q below 8, R/S above, 0
# past MAXLOG).  A Q, U or S opens with p1evl's implicit 1: 1 * x + c, same bits.
_S2PI, _EXP_M2 = 2.50662827463100050242E0, 0.13533528323661269189  # sqrt(2 pi), exp(-2)
_MAXLOG = 7.09782712893383996843E2  # log(2^1024)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)


def _poly(x: float, coef) -> float:
    """Cephes polevl: Horner's rule in the C order, in floats that round as C's."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _each(f):
    """f over each element, in a list: a ufunc would turn f's FPU flags into warnings."""
    return wraps(f)(lambda x: np.array([f(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x)))


@_each
def ndtri(y: float) -> float:
    """Phi^-1, the standard normal quantile, element by element."""
    if not 0.0 < y < 1.0:
        return -math.inf if y == 0.0 else math.inf if y == 1.0 else math.nan
    upper, y = (True, 1.0 - y) if y > 1.0 - _EXP_M2 else (False, y)
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _poly(y2, _P0) / _poly(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _poly(z, p) / _poly(z, q)
    return x if upper else -x


@_each
def ndtr(a: float) -> float:
    """Phi, the standard normal cdf, element by element; Cephes ndtr with erf(x) =
    x T(x^2) / U(x^2) (odd: either sign) and erfc(|x|) inlined."""
    x = a * math.sqrt(0.5)
    z = abs(x)
    if z < 1.0:
        erf = x * _poly(x * x, _T) / _poly(x * x, _U)
        if z < math.sqrt(0.5):
            return 0.5 + 0.5 * erf
        y = 0.5 * (1.0 - abs(erf))
    else:
        p, q = (_P, _Q) if z < 8.0 else (_R, _S)
        y = 0.0 if -z * z < -_MAXLOG else 0.5 * (math.exp(-z * z) * _poly(z, p) / _poly(z, q))
    return 1.0 - y if x > 0 else y


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
