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

Each stage is one array pipeline: ``alloc.stage_counts`` gives the pull
counts [control, *active], the reward source draws the stage means, and a
StageStats holds the stage as arrays: ``active`` (k,), the treatments
ascending; ``means`` (k+1, M) and ``counts`` (k+1,), rows [control,
*active]; ``z`` and ``z_var`` (k, M), where z_var[a,i] = rho2[a,i]/N(a) +
lambda2[a,i]/N(0) is the exact variance of zhat[a,i].  Its
``empirical_means``, ``empirical_z``, ``z_variances`` and ``pulls`` key the
same rows by arm.

Reward sources decouple "what the algorithm sees" from "how it is sampled".
A source's ``stage_means_batch(mu_rows, sigma_rows, counts, rng)`` returns
the stage means of the given arms, drawn arm by arm in row order (control
first, then the active treatments ascending), and its
``mean_and_variance(mu, sigma, n, rng)`` draws one arm's mean and unbiased
sample variance for the adaptive engine's phase 0.  The engines consume
nothing else, so drawing each pull
("pulls") and drawing the sufficient statistics from their exact laws
("means": mean ~ N(mu, sigma^2/n), sample variance ~ sigma^2 *
chi2_{n-1}/(n-1)) induce identical distributions over trajectories.
"means" makes very large budgets cheap to simulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from m3ab.alloc import active_index, arm_weights, stage_counts
from m3ab.core import Instance, xi_matrix
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
    """Draws every individual reward; the canonical simulator."""

    def stage_means_batch(self, mu_rows, sigma_rows, counts, rng):
        return np.stack([rng.normal(mu, sigma, size=(n, mu.size)).mean(axis=0)
                         for mu, sigma, n in zip(mu_rows, sigma_rows, counts)])

    def mean_and_variance(self, mu, sigma, n, rng):
        x = rng.normal(mu, sigma, size=(n, mu.size))
        return x.mean(axis=0), x.var(axis=0, ddof=1)


class GaussianStatSource:
    """Draws per-stage means (and phase-0 variances) from their exact laws."""

    def stage_means_batch(self, mu_rows, sigma_rows, counts, rng):
        # One draw call; C-order filling consumes the generator's normal
        # stream row by row, identically to one call per arm.
        return rng.normal(mu_rows, sigma_rows / np.sqrt(counts)[:, None])

    def mean_and_variance(self, mu, sigma, n, rng):
        mean = rng.normal(mu, sigma / math.sqrt(n))
        var = sigma**2 * rng.chisquare(n - 1, size=mu.size) / (n - 1)
        return mean, var


class FixedMeanSource:
    """Zero-noise source: stage means equal the true means exactly.

    variances="true" reports the true variances in phase 0, "zero" reports
    zeros (exercises the degenerate-variance error path).
    """

    def __init__(self, variances: str = "true"):
        if variances not in ("true", "zero"):
            raise ValueError("variances must be 'true' or 'zero'")
        self.variances = variances

    def stage_means_batch(self, mu_rows, sigma_rows, counts, rng):
        return mu_rows.copy()

    def mean_and_variance(self, mu, sigma, n, rng):
        var = sigma**2 if self.variances == "true" else np.zeros_like(mu)
        return mu.copy(), var


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


def _belief_constants(belief: Instance):
    """What the stage pipeline derives once per belief: the allocation
    weights, xi and the zhat scale sqrt(sigma_a^2 + sigma_0^2) (rows a-1)."""
    return (arm_weights(belief.stddevs),
            xi_matrix(belief.validation, belief.stddevs),
            np.sqrt(belief.variance_sums()))


def _stage_stats(constants, active: np.ndarray, means: np.ndarray,
                 counts: np.ndarray) -> StageStats:
    """StageStats from stacked mean rows and counts [control, *active]."""
    weights, xi, scale = constants
    rows = active - 1
    z = (means[1:] - means[0]) / scale[rows] + xi[rows]
    z_var = weights.rho_sq[active] / counts[1:, None] \
        + weights.lambda_sq[active] / counts[0]
    return StageStats(active=active, means=means, counts=counts, z=z, z_var=z_var)


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
    return _stage_stats(_belief_constants(instance), arms, np.stack(means),
                        np.array(counts))


# --- elimination ------------------------------------------------------------

def _keep_largest(stats: StageStats, key: np.ndarray, keep: int) -> list[int]:
    """The `keep` treatments with the largest key, ascending; ties -> lowest index."""
    if not 1 <= keep <= stats.active.size:
        raise ValueError(f"keep must be in [1, {stats.active.size}]")
    ranked = np.lexsort((stats.active, -key))
    return stats.active[np.sort(ranked[:keep])].tolist()


def minz_eliminate(stats: StageStats, keep: int) -> list[int]:
    """Keep the `keep` treatments with largest min_i zhat; ties -> lowest index."""
    return _keep_largest(stats, stats.z.min(axis=1), keep)


def mean_eliminate(stats: StageStats, keep: int) -> list[int]:
    """Keep the `keep` treatments with largest min_i mean; ties -> lowest index.

    The variance-blind ranking of the vanilla halving baselines: raw reward
    means, no z normalization (single-metric problems reduce min_i to the
    plain empirical mean).
    """
    return _keep_largest(stats, stats.means[1:].min(axis=1), keep)


def confidence_bonus(delta: float, rho_sq: float, lambda_sq: float, n_a: int,
                     n_0: int, active_count: int, num_metrics: int) -> float:
    """b = 2 sqrt((rho2/n_a + lambda2/n_0) * log(|A_s| M / delta))."""
    cap = active_count * num_metrics
    if not 0.0 < delta <= cap:
        raise ValueError(f"delta must lie in (0, {cap}]")
    if n_a < 1 or n_0 < 1:
        raise ValueError("pull counts must be >= 1")
    return 2.0 * math.sqrt((rho_sq / n_a + lambda_sq / n_0) * math.log(cap / delta))


def _confidence_levels(stats: StageStats) -> np.ndarray:
    """delta_s(a) = |A_s| M exp(-c*_a^2) for every active treatment.

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
    z = stats.z
    s = 2.0 * np.sqrt(stats.z_var)
    # crossing[a, b, i, j]: the c at which a's metric-i UCB term meets
    # rival b's metric-j LCB term
    crossing = (z[None, :, None, :] - z[:, None, :, None]) \
        / (s[:, None, :, None] + s[None, :, None, :])
    c_star = crossing.min(axis=3).max(axis=(1, 2))
    return z.size * np.exp(-c_star**2)  # z.size = |A_s| * M, the cap


def confidence_level(stats: StageStats, treatment: int) -> float:
    """The elimination confidence level delta_s(a) of one treatment: the
    delta at which its UCB meets the best rival LCB, from the closed-form
    crossing point c*_a (see _confidence_levels)."""
    if treatment not in stats.active:
        raise ValueError(f"treatment {treatment} is not active")
    return float(_confidence_levels(stats)[stats.active == treatment][0])


def confidence_eliminate(stats: StageStats, keep: int) -> list[int]:
    """Keep the `keep` treatments with largest delta_s(a); ties -> lowest index.

    The key is delta, not c*: where exp(-c*^2) underflows to 0, arms with
    different c* tie at 0 and the lowest index wins.
    """
    return _keep_largest(stats, _confidence_levels(stats), keep)


# --- engines ----------------------------------------------------------------

@dataclass(frozen=True)
class ExplorationResult:
    recommended: int
    trail: list[StageStats]
    total_pulls_used: int


def num_stages(num_treatments: int) -> int:
    return max(1, math.ceil(math.log2(num_treatments)))


def run_exploration(instance: Instance, spec: AlgorithmSpec | str, budget: int,
                    reward_source="pulls", rng: np.random.Generator | None = None,
                    believed_stddevs: np.ndarray | None = None) -> ExplorationResult:
    """Run one exploration phase and return the recommended treatment.

    `believed_stddevs` substitutes estimated stddevs everywhere sigma appears
    (allocation, zhat denominator, validation constants, bonuses) while
    rewards are still drawn from the true instance — the adaptive engine uses
    this hook.  Draw order per stage: control first, then active treatments
    ascending.
    """
    if isinstance(spec, str):
        spec = AlgorithmSpec.from_name(spec)
    if spec.variance_knowledge == "adaptive":
        return run_exploration_adaptive(instance, budget, rng,
                                        reward_source=reward_source)
    source = get_reward_source(reward_source)
    if rng is None:
        rng = np.random.default_rng()
    if believed_stddevs is None:
        belief = instance
    else:
        belief = Instance(means=instance.means, stddevs=believed_stddevs,
                          validation=instance.validation)

    stages = num_stages(instance.num_treatments)
    stage_budget = budget // stages
    if stage_budget < 1:
        raise InsufficientBudgetError(
            f"budget {budget} cannot fund {stages} stages", arm=0
        )
    constants = _belief_constants(belief)
    eliminate = {"min_z": minz_eliminate, "confidence": confidence_eliminate,
                 "mean": mean_eliminate}[spec.elimination]
    active = list(instance.treatments)
    trail: list[StageStats] = []
    for _ in range(stages):
        arms = active_index(active, instance.num_treatments)
        counts = stage_counts(spec.sampling, constants[0], arms, stage_budget)
        rows = np.concatenate(([0], arms))
        means = source.stage_means_batch(instance.means[rows],
                                         instance.stddevs[rows], counts, rng)
        stats = _stage_stats(constants, arms, means, counts)
        trail.append(stats)
        active = eliminate(stats, math.ceil(arms.size / 2))
    assert len(active) == 1, "halving must end with a single survivor"
    return ExplorationResult(recommended=active[0], trail=trail,
                             total_pulls_used=sum(int(s.counts.sum()) for s in trail))


def run_exploration_adaptive(instance: Instance, budget: int,
                             rng: np.random.Generator | None = None,
                             reward_source="pulls") -> ExplorationResult:
    """Unknown-variance variant: estimate stddevs first, then run the
    relative-variance engine on the estimates with the remaining budget.

    Phase 0 pulls every arm N0 = floor(T / ((A+1) * ceil(log2 A))) times
    (N0 >= 2 required for a sample variance) and uses the unbiased estimator.
    """
    source = get_reward_source(reward_source)
    if rng is None:
        rng = np.random.default_rng()
    a_count = instance.num_treatments
    stages = num_stages(a_count)
    n0 = budget // ((a_count + 1) * stages)
    if n0 < 2:
        raise InsufficientBudgetError(
            f"budget {budget} gives the variance-estimation round only {n0} "
            f"pulls per arm (need >= 2)", arm=0,
        )
    estimated = np.empty_like(instance.stddevs)
    for arm in range(a_count + 1):
        _, var = source.mean_and_variance(instance.means[arm],
                                          instance.stddevs[arm], n0, rng)
        if np.any(var <= 0.0):
            raise DegenerateVarianceError(
                f"arm {arm} has a zero sample variance; z-values are undefined"
            )
        estimated[arm] = np.sqrt(var)
    spent = (a_count + 1) * n0
    result = run_exploration(
        instance, AlgorithmSpec("relative_variance", "min_z"), budget - spent,
        reward_source=source, rng=rng, believed_stddevs=estimated,
    )
    return ExplorationResult(
        recommended=result.recommended, trail=result.trail,
        total_pulls_used=result.total_pulls_used + spent,
    )
