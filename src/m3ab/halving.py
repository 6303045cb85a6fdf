"""Staged exploration: sequential halving with pluggable sampling/elimination.

One run spends its budget over max(1, ceil(log2 A)) stages.  Each stage
allocates a budget of T / stages across the control and the currently active
treatments (per the sampling rule), draws rewards, forms empirical z-values

    zhat[a,i] = (mean[a,i] - mean[0,i]) / sqrt(sigma[a,i]^2 + sigma[0,i]^2) + xi[a,i],

and keeps the better half — the arms with the largest bottleneck min_i zhat
(min_z), those with the largest elimination confidence level delta_s(a)
(confidence), or those with the largest bottleneck raw reward mean
min_i mean[a,i] (mean — the classic variance-blind ranking used by the
vanilla sequential-halving baselines, which take no account of how hard a
noisy treatment is to validate).  The adaptive-variance engine first spends
a uniform round estimating every stddev, then runs the relative-variance
engine on the estimates.

Each stage is one array pipeline over a leading repetition axis: halving
sizes do not depend on the data, so R repetitions of one algorithm run as
arrays, and ``run_exploration`` is the one-row call of the same loop.
``alloc.stage_counts`` gives the pull counts [control, *active] of every
row, the reward source draws the stage means, and a StageStats holds one
row's stage as arrays: ``active`` (k,), the treatments ascending; ``means``
(k+1, M) and ``counts`` (k+1,), rows [control, *active]; ``z`` and
``z_var`` (k, M), where z_var[a,i] = rho2[a,i]/N(a) + lambda2[a,i]/N(0) is
the exact variance of zhat[a,i].  Its ``empirical_means``,
``empirical_z``, ``z_variances`` and ``pulls`` key the same rows by arm.

Reward sources decouple "what the algorithm sees" from "how it is sampled".
A source's ``stage_means_batch(mu_rows, sigma_rows, counts, rngs)`` takes
(R, k+1, M) parameter rows, (R, k+1) counts and one generator per
repetition, and returns the (R, k+1, M) stage means; repetition r draws
from rngs[r] only, arm by arm in row order (control first, then the active
treatments ascending).  Its ``mean_and_variance(mu, sigma, n, rngs)``, the
same protocol for the adaptive engine's phase 0, takes the (A+1, M) arm
rows and returns the (R, A+1, M) means and unbiased sample variances of n
pulls per arm, row r drawn from rngs[r] arm by arm.  The engines consume
nothing else, so drawing each pull ("pulls") and drawing the sufficient
statistics from their exact laws ("means": mean ~ N(mu, sigma^2/n), sample
variance ~ sigma^2 * chi2_{n-1}/(n-1)) induce identical distributions over
trajectories.  "means" makes very large budgets cheap to simulate; the
validation A/B test (``validate``) draws through the same two laws.  Under
"means" a stage reads one standard normal per arm and metric whatever its
counts, so a run reads sum_s (k_s + 1) * M of them; the harness draws them
as one tape per repetition, and the stage loop handed a tape reads stage s
at row offset sum over t < s of k_t + 1 instead of calling the source.
The believed sigma comes as tables with a leading belief axis: one row for
the known-variance engines, one per repetition for the adaptive engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from m3ab.alloc import active_index, arm_weights, gather, stage_counts
from m3ab.core import Instance, validation_terms
from m3ab.errors import DegenerateVarianceError, InsufficientBudgetError

SAMPLING_RULES = ("relative_variance", "uniform", "variance", "neyman")
ELIMINATION_RULES = ("min_z", "confidence", "mean")
VARIANCE_KNOWLEDGE = ("known", "adaptive")


@dataclass(frozen=True)
class AlgorithmSpec:
    """A point in the algorithm family: sampling x elimination x knowledge."""

    sampling: str
    elimination: str
    variance_knowledge: str = "known"

    def __post_init__(self):
        if self.sampling not in SAMPLING_RULES:
            raise ValueError(f"unknown sampling rule {self.sampling!r}")
        if self.elimination not in ELIMINATION_RULES:
            raise ValueError(f"unknown elimination rule {self.elimination!r}")
        if self.variance_knowledge not in VARIANCE_KNOWLEDGE:
            raise ValueError(f"unknown variance knowledge {self.variance_knowledge!r}")
        if self.variance_knowledge == "adaptive" and (
            self.sampling != "relative_variance" or self.elimination != "min_z"
        ):
            raise ValueError(
                "the adaptive-variance engine is defined for "
                "relative_variance sampling with min_z elimination only"
            )

    @property
    def name(self) -> str:
        for name, spec in ALGORITHMS.items():
            if spec == self:
                return name
        return f"{self.sampling}/{self.elimination}/{self.variance_knowledge}"

    @staticmethod
    def from_name(name: str) -> "AlgorithmSpec":
        try:
            return ALGORITHMS[name]
        except KeyError:
            raise ValueError(
                f"unknown algorithm {name!r}; expected one of {sorted(ALGORITHMS)}"
            ) from None


ALGORITHMS = {
    "shrvar": AlgorithmSpec("relative_variance", "min_z"),
    "shrvar-c": AlgorithmSpec("relative_variance", "confidence"),
    "shrvar-ada": AlgorithmSpec("relative_variance", "min_z", "adaptive"),
    "sh-z": AlgorithmSpec("uniform", "min_z"),
    "sh-c": AlgorithmSpec("uniform", "confidence"),
    "shvar-z": AlgorithmSpec("variance", "min_z"),
    "shvar-c": AlgorithmSpec("variance", "confidence"),
    "neyman-z": AlgorithmSpec("neyman", "min_z"),
    # Vanilla baselines: rank survivors on raw reward means, exactly the
    # classic homogeneous-variance and variance-aware halving algorithms.
    "sh": AlgorithmSpec("uniform", "mean"),
    "shvar": AlgorithmSpec("variance", "mean"),
}


# --- reward sources ---------------------------------------------------------

class GaussianPullSource:
    """Draws every reward: bit for bit rng.normal(mu, sigma, (n, M)).mean(axis=0)."""

    def stage_means_batch(self, mu_rows, sigma_rows, counts, rngs):
        out = np.empty(mu_rows.shape)
        for row, mus, sigmas, ns, rng in zip(out, mu_rows, sigma_rows, counts, rngs):
            for arm, (mu, sigma, n) in enumerate(zip(mus, sigmas, ns)):
                row[arm] = (mu + sigma * rng.standard_normal((n, mu.size))).sum(axis=0) / n
        return out

    def mean_and_variance(self, mu, sigma, n, rngs):
        out = np.empty((2, len(rngs), *mu.shape))
        for rng, means, variances in zip(rngs, *out):
            for arm, (m, sd) in enumerate(zip(mu, sigma)):
                x = rng.normal(m, sd, size=(n, m.size))
                means[arm], variances[arm] = x.mean(axis=0), x.var(axis=0, ddof=1)
        return out[0], out[1]


def _standard_normals(rngs, shape) -> np.ndarray:
    """(R, *shape) standard normals, row r one C-order fill from rngs[r]
    (the same numbers as consecutive fills of its slices)."""
    noise = np.empty((len(rngs), *shape))
    for rng, row in zip(rngs, noise):
        rng.standard_normal(out=row)
    return noise


def _stat_means(mu_rows, sigma_rows, counts, noise):
    """The "means" law: rng.normal(mu, sd / sqrt(n)) is mu + sd / sqrt(n) *
    standard_normal bit for bit, one normal per arm and metric whatever n."""
    return mu_rows + sigma_rows / np.sqrt(counts)[..., None] * noise


class GaussianStatSource:
    """Draws per-stage means (and phase-0 variances) from their exact laws."""

    def stage_means_batch(self, mu_rows, sigma_rows, counts, rngs):
        return _stat_means(mu_rows, sigma_rows, counts,
                           _standard_normals(rngs, mu_rows.shape[1:]))

    def mean_and_variance(self, mu, sigma, n, rngs):
        # Row r draws arm by arm from rngs[r] as rng.normal(mu, sd / sqrt(n))
        # and then rng.chisquare(n - 1, M) would: those are mu + sd / sqrt(n)
        # * standard_normal and 2 * standard_gamma((n - 1) / 2), bit for bit.
        noise = np.empty((len(rngs), *mu.shape))
        gamma, shape = np.empty_like(noise), (n - 1) / 2
        for rng, noise_row, gamma_row in zip(rngs, noise, gamma):
            normal, standard_gamma = rng.standard_normal, rng.standard_gamma
            for arm_noise, arm_gamma in zip(noise_row, gamma_row):
                normal(out=arm_noise)
                standard_gamma(shape, out=arm_gamma)
        return _stat_means(mu, sigma, n, noise), sigma**2 * (2.0 * gamma) / (n - 1)


class FixedMeanSource:
    """Zero-noise source: stage means equal the true means exactly, and
    phase 0 reports the true variances."""

    def stage_means_batch(self, mu_rows, sigma_rows, counts, rngs):
        return mu_rows.copy()

    def mean_and_variance(self, mu, sigma, n, rngs):
        return np.tile(mu, (len(rngs), 1, 1)), np.tile(sigma**2, (len(rngs), 1, 1))


_SOURCES = {"pulls": GaussianPullSource, "means": GaussianStatSource,
            "fixed": FixedMeanSource}


def get_reward_source(source):
    """Accepts a source object or one of the names 'pulls'/'means'/'fixed'."""
    if isinstance(source, str):
        try:
            return _SOURCES[source]()
        except KeyError:
            raise ValueError(
                f"unknown reward source {source!r}; expected one of {sorted(_SOURCES)}"
            ) from None
    return source


# --- stage statistics -------------------------------------------------------

@dataclass(frozen=True)
class StageStats:
    """Everything one stage observed, as arrays (see the module docstring)."""

    active: np.ndarray
    means: np.ndarray
    counts: np.ndarray
    z: np.ndarray
    z_var: np.ndarray

    @property
    def empirical_means(self) -> dict[int, np.ndarray]:
        return dict(zip([0, *self.active.tolist()], self.means))

    @property
    def empirical_z(self) -> dict[int, np.ndarray]:
        return dict(zip(self.active.tolist(), self.z))

    @property
    def z_variances(self) -> dict[int, np.ndarray]:
        return dict(zip(self.active.tolist(), self.z_var))

    @property
    def pulls(self) -> dict[int, int]:
        return dict(zip([0, *self.active.tolist()], self.counts.tolist()))


def _belief_constants(stddevs: np.ndarray, validation):
    """What the stage pipeline derives once from believed stddevs
    (B, A+1, M), B = 1 or one belief per repetition: the allocation weights,
    xi and the zhat scale sqrt(sigma_a^2 + sigma_0^2), as (B, A+1, ...)
    tables indexed by arm (row 0 unread).  A non-Bayesian xi does not
    depend on sigma and stays an (M,) vector."""
    var_sum = stddevs**2 + stddevs[:, :1] ** 2
    return (arm_weights(stddevs), validation_terms(validation, var_sum)[0],
            np.sqrt(var_sum))


def _z_stats(constants, active: np.ndarray, means: np.ndarray,
             counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """zhat and its variance (R, k, M) from an (R, k) active array and the
    mean rows and counts [control, *active] of every repetition."""
    weights, xi, scale = constants
    if xi.ndim > 1:  # a Bayesian xi depends on the believed sigma
        xi = gather(xi, active)
    z = (means[:, 1:] - means[:, :1]) / gather(scale, active) + xi
    z_var = gather(weights.rho_sq, active) / counts[:, 1:, None] \
        + gather(weights.lambda_sq, active) / counts[:, :1, None]
    return z, z_var


def empirical_z(samples: dict[int, np.ndarray], instance: Instance, active) -> StageStats:
    """Build StageStats from raw per-arm sample matrices of shape (n, M).

    A 1-D array is accepted for single-metric instances and read as n samples.
    """
    arms = active_index(active, instance.num_treatments)
    m = instance.num_metrics
    means, counts = [], []
    for arm in [0, *arms.tolist()]:
        if arm not in samples:
            raise ValueError(f"arm {arm} has no samples")
        arr = np.asarray(samples[arm], dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[1] != m or arr.shape[0] < 1:
            raise ValueError(
                f"arm {arm}: expected an (n, {m}) sample matrix, got shape {arr.shape}"
            )
        counts.append(arr.shape[0])
        means.append(arr.mean(axis=0))
    means, counts = np.stack(means), np.array(counts)
    constants = _belief_constants(instance.stddevs[None], instance.validation)
    z, z_var = _z_stats(constants, arms[None], means[None], counts[None])
    return StageStats(active=arms, means=means, counts=counts, z=z[0], z_var=z_var[0])


# --- elimination ------------------------------------------------------------

def _keep_largest(active: np.ndarray, key: np.ndarray, keep: int) -> np.ndarray:
    """Row-wise, the `keep` treatments with the largest key, ascending; ties
    -> lowest index.  Rows of ``active`` ascend, so a stable sort of -key
    breaks ties by position, which is by index."""
    if not 1 <= keep <= active.shape[-1]:
        raise ValueError(f"keep must be in [1, {active.shape[-1]}]")
    ranked = np.argsort(-key, axis=-1, kind="stable")[..., :keep]
    return np.take_along_axis(active, np.sort(ranked, axis=-1), axis=-1)


def _elimination_key(rule: str, z: np.ndarray, z_var: np.ndarray,
                     means: np.ndarray) -> np.ndarray:
    """The ranking key (..., k) of every active treatment under a rule."""
    if rule == "min_z":
        return z.min(axis=-1)
    if rule == "mean":
        return means[..., 1:, :].min(axis=-1)
    return _confidence_levels(z, z_var)


def _eliminate(rule: str, stats: StageStats, keep: int) -> list[int]:
    key = _elimination_key(rule, stats.z, stats.z_var, stats.means)
    return _keep_largest(stats.active, key, keep).tolist()


def minz_eliminate(stats: StageStats, keep: int) -> list[int]:
    """Keep the `keep` treatments with largest min_i zhat; ties -> lowest index."""
    return _eliminate("min_z", stats, keep)


def mean_eliminate(stats: StageStats, keep: int) -> list[int]:
    """Keep the `keep` treatments with largest min_i mean; ties -> lowest index.

    The variance-blind ranking of the vanilla halving baselines: raw reward
    means, no z normalization (single-metric problems reduce min_i to the
    plain empirical mean).
    """
    return _eliminate("mean", stats, keep)


# Elements of one (rows, k, k, M, M) crossing array; larger blocks of
# repetitions are split into row chunks of at most this size (8 MB), down to
# single rows, which are computed whole whatever their size.
_CROSSING_CELLS = 2**20


def _confidence_levels(z: np.ndarray, z_var: np.ndarray) -> np.ndarray:
    """delta_s(a) = |A_s| M exp(-c*_a^2) for every active treatment, over
    any leading repetition axes of z and z_var (..., k, M).

    With c = sqrt(log(|A_s|M/delta)) and s = 2 sqrt(v), arm a's UCB
    min_i(zhat[a,i] + c s[a,i]) and a rival's LCB min_j(zhat[a',j] - c s[a',j])
    are minima of terms linear in c, so the point where the UCB clears every
    rival LCB has the closed form

        c*_a = max_a' max_i min_j (zhat[a',j] - zhat[a,i]) / (s[a,i] + s[a',j]).

    "For every metric i some rival metric j lies below" and "some rival
    metric j lies below every i" are the same predicate (the rival's
    minimizing j serves all i), so max_i min_j here equals min_j max_i.
    The term a' = a is exactly 0 (take i = j = argmin zhat[a]), so c* >= 0
    with no clip, and the empirical-best arm (and any arm tied with it)
    gets c* = 0, hence the cap.
    """
    k, m = z.shape[-2:]
    if z.ndim == 3 and len(z) > 1 and z.size * k * m > _CROSSING_CELLS:
        step = max(1, _CROSSING_CELLS // (k * m) ** 2)
        return np.concatenate([
            _confidence_levels(z[lo:lo + step], z_var[lo:lo + step])
            for lo in range(0, len(z), step)])
    s = 2.0 * np.sqrt(z_var)
    # crossing[..., a, b, i, j]: the c at which a's metric-i UCB term meets
    # rival b's metric-j LCB term
    crossing = (z[..., None, :, None, :] - z[..., :, None, :, None]) \
        / (s[..., :, None, :, None] + s[..., None, :, None, :])
    c_star = crossing.min(axis=-1).max(axis=(-2, -1))
    return k * m * np.exp(-c_star**2)  # k * m = |A_s| * M, the cap


def confidence_level(stats: StageStats, treatment: int) -> float:
    """The elimination confidence level delta_s(a) of one treatment: the
    delta at which its UCB meets the best rival LCB, from the closed-form
    crossing point c*_a (see _confidence_levels)."""
    if treatment not in stats.active:
        raise ValueError(f"treatment {treatment} is not active")
    levels = _confidence_levels(stats.z, stats.z_var)
    return float(levels[stats.active == treatment][0])


def confidence_eliminate(stats: StageStats, keep: int) -> list[int]:
    """Keep the `keep` treatments with largest delta_s(a); ties -> lowest index.

    The key is delta, not c*: where exp(-c*^2) underflows to 0, arms with
    different c* tie at 0 and the lowest index wins.
    """
    return _eliminate("confidence", stats, keep)


# --- engines ----------------------------------------------------------------

@dataclass(frozen=True)
class ExplorationResult:
    recommended: int
    trail: list[StageStats]
    total_pulls_used: int


def num_stages(num_treatments: int) -> int:
    return max(1, math.ceil(math.log2(num_treatments)))


def _noise_rows(num_treatments: int) -> int:
    """Sum over the stages of k_s + 1: k_{s+1} = ceil(k_s / 2) from k_1 = A
    makes k_s = ceil(A / 2^(s-1))."""
    return sum(math.ceil(num_treatments / 2**s) + 1
               for s in range(num_stages(num_treatments)))


def _halve(instance: Instance, constants, spec: AlgorithmSpec, budget: int,
           source, rngs, trail: list | None = None, noise=None) -> np.ndarray:
    """The stage loop: one halving run per generator in ``rngs``, with
    (R, k_s) active index arrays, every row ascending, on the belief tables
    ``constants``.  Returns the R recommended treatments; with ``trail``,
    appends row 0's StageStats of every stage to it.  Each stage calls the
    source once, or, handed a "means" tape ``noise`` of shape
    (R, _noise_rows(A), M), reads rows offset_s .. offset_s + k_s of it."""
    stages = num_stages(instance.num_treatments)
    stage_budget = budget // stages
    if stage_budget < 1:
        raise InsufficientBudgetError(
            f"budget {budget} cannot fund {stages} stages", arm=0
        )
    active = np.tile(np.arange(1, instance.num_treatments + 1), (len(rngs), 1))
    offset = 0
    for _ in range(stages):
        counts = stage_counts(spec.sampling, constants[0], active, stage_budget)
        rows = np.concatenate((np.zeros_like(active[:, :1]), active), axis=1)
        mu_rows, sigma_rows = instance.means[rows], instance.stddevs[rows]
        if noise is None:
            means = source.stage_means_batch(mu_rows, sigma_rows, counts, rngs)
        else:
            means = _stat_means(mu_rows, sigma_rows, counts,
                                noise[:, offset:offset + rows.shape[1]])
        offset += rows.shape[1]
        z, z_var = _z_stats(constants, active, means, counts)
        if trail is not None:
            trail.append(StageStats(active=active[0], means=means[0],
                                    counts=counts[0], z=z[0], z_var=z_var[0]))
        key = _elimination_key(spec.elimination, z, z_var, means)
        active = _keep_largest(active, key, math.ceil(active.shape[1] / 2))
    assert active.shape[1] == 1, "halving must end with a single survivor"
    return active[:, 0]


def _beliefs(instance: Instance, spec: AlgorithmSpec, budget: int, source,
             rngs) -> tuple[tuple, int]:
    """The stage loop's belief tables and budget for one run per generator:
    the instance's stddevs and the whole budget, or (adaptive, phase 0) the
    unbiased estimates from N0 = floor(T / ((A+1) * ceil(log2 A))) >= 2
    pulls per arm and repetition, and what is left of the budget."""
    if spec.variance_knowledge == "known":
        return _belief_constants(instance.stddevs[None], instance.validation), budget
    a_count = instance.num_treatments
    n0 = budget // ((a_count + 1) * num_stages(a_count))
    if n0 < 2:
        raise InsufficientBudgetError(
            f"budget {budget} gives the variance-estimation round only {n0} "
            f"pulls per arm (need >= 2)", arm=0,
        )
    _, var = source.mean_and_variance(instance.means, instance.stddevs, n0, rngs)
    bad = ~(np.isfinite(var) & (var > 0.0)).all(axis=-1)
    if bad.any():
        row, arm = np.argwhere(bad)[0]
        kind = "non-finite" if not np.isfinite(var[row, arm]).all() else "zero"
        raise DegenerateVarianceError(
            f"arm {arm} has a {kind} sample variance; z-values are undefined"
        )
    return (_belief_constants(np.sqrt(var), instance.validation),
            budget - (a_count + 1) * n0)


def run_exploration(instance: Instance, spec: AlgorithmSpec | str, budget: int,
                    reward_source="pulls",
                    rng: np.random.Generator | None = None) -> ExplorationResult:
    """Run one exploration phase and return the recommended treatment: the
    one-row call of the stage loop the harness runs over blocks of
    repetitions.  Draw order per stage: control first, then active
    treatments ascending; ``total_pulls_used`` includes phase 0."""
    if isinstance(spec, str):
        spec = AlgorithmSpec.from_name(spec)
    source = get_reward_source(reward_source)
    if rng is None:
        rng = np.random.default_rng()
    constants, loop_budget = _beliefs(instance, spec, budget, source, [rng])
    trail: list[StageStats] = []
    recommended = _halve(instance, constants, spec, loop_budget, source, [rng], trail)
    pulls = budget - loop_budget + sum(int(s.counts.sum()) for s in trail)
    return ExplorationResult(int(recommended[0]), trail, pulls)


def run_exploration_adaptive(instance: Instance, budget: int,
                             rng: np.random.Generator | None = None,
                             reward_source="pulls") -> ExplorationResult:
    """Unknown-variance variant: estimate stddevs first (phase 0, see
    ``_beliefs``), then run the relative-variance engine on the estimates
    with the remaining budget."""
    return run_exploration(instance, ALGORITHMS["shrvar-ada"], budget, reward_source, rng)
