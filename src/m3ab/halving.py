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

Reward sources decouple "what the algorithm sees" from "how it is sampled":
the engines only ever consume per-stage means (and phase-0 sample variances),
so drawing each pull ("pulls") and drawing the sufficient statistics from
their exact laws ("means": mean ~ N(mu, sigma^2/n), sample variance ~
sigma^2 * chi2_{n-1}/(n-1)) induce identical distributions over trajectories.
"means" makes very large budgets cheap to simulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from m3ab.alloc import (
    FLOOR,
    StageAllocation,
    _shrvar_counts,
    _to_allocation,
    uniform_allocation,
)
from m3ab.core import Instance, relative_variance, xi_matrix
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

    def stage_mean(self, mu, sigma, n, rng):
        return rng.normal(mu, sigma, size=(n, mu.size)).mean(axis=0)

    def mean_and_variance(self, mu, sigma, n, rng):
        x = rng.normal(mu, sigma, size=(n, mu.size))
        return x.mean(axis=0), x.var(axis=0, ddof=1)


class GaussianStatSource:
    """Draws per-stage means (and phase-0 variances) from their exact laws."""

    def stage_mean(self, mu, sigma, n, rng):
        return rng.normal(mu, sigma / math.sqrt(n))

    def stage_means_batch(self, mu_rows, sigma_rows, counts, rng):
        # One draw call; C-order filling consumes the generator's normal
        # stream row by row, identically to per-row stage_mean calls.
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

    def stage_mean(self, mu, sigma, n, rng):
        return mu.copy()

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
    """Everything one stage observed.

    empirical_means is keyed by arm (0 = control); empirical_z and
    z_variances by treatment.  z_variances[a][i] = rho2[a,i]/N(a) +
    lambda2[a,i]/N(0), the exact variance of zhat[a,i], used by the
    confidence bonuses.
    """

    empirical_means: dict[int, np.ndarray]
    pulls: StageAllocation
    empirical_z: dict[int, np.ndarray]
    z_variances: dict[int, np.ndarray]
    active: tuple[int, ...]

    def min_z(self, treatment: int) -> float:
        return float(self.empirical_z[treatment].min())


@dataclass(frozen=True)
class _BeliefCache:
    """Arrays derived from (stddevs, validation) once per run.

    Treatment-indexed arrays use row a-1 for treatment a; the weight vectors
    include the control at position 0.
    """

    xi: np.ndarray               # (A, M)
    sqrt_var_sum: np.ndarray     # (A, M)
    rho_sq: np.ndarray           # (A, M)
    lambda_sq: np.ndarray        # (A, M)
    max_rho_sq: np.ndarray       # (A,)
    max_lambda_sq: np.ndarray    # (A,)
    variance_weights: np.ndarray  # (A+1,) max_i sigma[arm,i]^2
    stddev_weights: np.ndarray    # (A+1,) max_i sigma[arm,i]


def _belief_cache(belief: Instance) -> _BeliefCache:
    rho_sq, lambda_sq = relative_variance(belief.stddevs[1:], belief.stddevs[0])
    rho_sq = np.atleast_2d(rho_sq)
    lambda_sq = np.atleast_2d(lambda_sq)
    return _BeliefCache(
        xi=xi_matrix(belief.validation, belief.stddevs),
        sqrt_var_sum=np.sqrt(belief.variance_sums()),
        rho_sq=rho_sq,
        lambda_sq=lambda_sq,
        max_rho_sq=rho_sq.max(axis=1),
        max_lambda_sq=lambda_sq.max(axis=1),
        variance_weights=(belief.stddevs**2).max(axis=1),
        stddev_weights=belief.stddevs.max(axis=1),
    )


def _stats_from_rows(cache: _BeliefCache, means: dict[int, np.ndarray],
                     rows: np.ndarray, pulls: StageAllocation,
                     active: list[int]) -> StageStats:
    """Build StageStats from stacked per-arm mean rows [control, *active]."""
    idx = np.asarray(active) - 1
    counts = np.array([pulls.treatment_pulls[a] for a in active], dtype=float)
    zmat = (rows[1:] - rows[0]) / cache.sqrt_var_sum[idx] + cache.xi[idx]
    vmat = cache.rho_sq[idx] / counts[:, None] \
        + cache.lambda_sq[idx] / pulls.control_pulls
    return StageStats(
        empirical_means=means, pulls=pulls,
        empirical_z={a: zmat[k] for k, a in enumerate(active)},
        z_variances={a: vmat[k] for k, a in enumerate(active)},
        active=tuple(active),
    )


def _stats_from_means(belief: Instance, means: dict[int, np.ndarray],
                      pulls: StageAllocation, active: list[int]) -> StageStats:
    rows = np.stack([means[0]] + [means[a] for a in active])
    return _stats_from_rows(_belief_cache(belief), means, rows, pulls, active)


def empirical_z(samples: dict[int, np.ndarray], instance: Instance, active) -> StageStats:
    """Build StageStats from raw per-arm sample matrices of shape (n, M).

    A 1-D array is accepted for single-metric instances and read as n samples.
    """
    arms = [0] + sorted(active)
    m = instance.num_metrics
    counts: dict[int, int] = {}
    means: dict[int, np.ndarray] = {}
    for arm in arms:
        if arm not in samples:
            raise ValueError(f"arm {arm} has no samples")
        arr = np.asarray(samples[arm], dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[1] != m or arr.shape[0] < 1:
            raise ValueError(
                f"arm {arm}: expected an (n, {m}) sample matrix, got shape {arr.shape}"
            )
        counts[arm] = arr.shape[0]
        means[arm] = arr.mean(axis=0)
    pulls = StageAllocation(
        control_pulls=counts[0],
        treatment_pulls={a: counts[a] for a in arms[1:]},
        stage_budget=sum(counts.values()),
    )
    return _stats_from_means(instance, means, pulls, sorted(active))


# --- elimination ------------------------------------------------------------

def minz_eliminate(stats: StageStats, keep: int) -> list[int]:
    """Keep the `keep` treatments with largest min_i zhat; ties -> lowest index."""
    if not 1 <= keep <= len(stats.active):
        raise ValueError(f"keep must be in [1, {len(stats.active)}]")
    ranked = sorted(stats.active, key=lambda a: (-stats.min_z(a), a))
    return sorted(ranked[:keep])


def mean_eliminate(stats: StageStats, keep: int) -> list[int]:
    """Keep the `keep` treatments with largest min_i mean; ties -> lowest index.

    The variance-blind ranking of the vanilla halving baselines: raw reward
    means, no z normalization (single-metric problems reduce min_i to the
    plain empirical mean).
    """
    if not 1 <= keep <= len(stats.active):
        raise ValueError(f"keep must be in [1, {len(stats.active)}]")
    ranked = sorted(
        stats.active, key=lambda a: (-float(stats.empirical_means[a].min()), a)
    )
    return sorted(ranked[:keep])


def confidence_bonus(delta: float, rho_sq: float, lambda_sq: float, n_a: int,
                     n_0: int, active_count: int, num_metrics: int) -> float:
    """b = 2 sqrt((rho2/n_a + lambda2/n_0) * log(|A_s| M / delta))."""
    cap = active_count * num_metrics
    if not 0.0 < delta <= cap:
        raise ValueError(f"delta must lie in (0, {cap}]")
    if n_a < 1 or n_0 < 1:
        raise ValueError("pull counts must be >= 1")
    return 2.0 * math.sqrt((rho_sq / n_a + lambda_sq / n_0) * math.log(cap / delta))


def _confidence_levels(stats: StageStats) -> dict[int, float]:
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
    arms = list(stats.active)
    z = np.array([stats.empirical_z[a] for a in arms])
    s = 2.0 * np.sqrt(np.array([stats.z_variances[a] for a in arms]))
    # crossing[a, b, i, j]: the c at which a's metric-i UCB term meets
    # rival b's metric-j LCB term
    crossing = (z[None, :, None, :] - z[:, None, :, None]) \
        / (s[:, None, :, None] + s[None, :, None, :])
    c_star = crossing.min(axis=3).max(axis=(1, 2))
    levels = z.size * np.exp(-c_star**2)  # z.size = |A_s| * M, the cap
    return dict(zip(arms, levels.tolist()))


def confidence_level(stats: StageStats, treatment: int) -> float:
    """The elimination confidence level delta_s(a) of one treatment: the
    delta at which its UCB meets the best rival LCB, from the closed-form
    crossing point c*_a (see _confidence_levels)."""
    if treatment not in stats.active:
        raise ValueError(f"treatment {treatment} is not active")
    return _confidence_levels(stats)[treatment]


def confidence_eliminate(stats: StageStats, keep: int) -> list[int]:
    """Keep the `keep` treatments with largest delta_s(a); ties -> lowest index.

    The key is delta, not c*: where exp(-c*^2) underflows to 0, arms with
    different c* tie at 0 and the lowest index wins.
    """
    if not 1 <= keep <= len(stats.active):
        raise ValueError(f"keep must be in [1, {len(stats.active)}]")
    levels = _confidence_levels(stats)
    ranked = sorted(stats.active, key=lambda a: (-levels[a], a))
    return sorted(ranked[:keep])


# --- engines ----------------------------------------------------------------

@dataclass(frozen=True)
class ExplorationResult:
    recommended: int
    trail: list[StageStats]
    total_pulls_used: int


def _allocate(spec: AlgorithmSpec, cache: _BeliefCache, active: list[int],
              stage_budget: int) -> StageAllocation:
    if spec.sampling == "uniform":
        return uniform_allocation(active, stage_budget)
    arms = [0] + list(active)
    if spec.sampling == "relative_variance":
        idx = np.asarray(active) - 1
        lambda_sigma = math.sqrt(float(cache.max_lambda_sq[idx].max()))
        counts = _shrvar_counts(cache.max_rho_sq[idx], lambda_sigma,
                                stage_budget, FLOOR)
        return _to_allocation(arms, counts, stage_budget)
    weights = (cache.variance_weights if spec.sampling == "variance"
               else cache.stddev_weights)[arms]
    counts = np.floor(weights / weights.sum() * stage_budget).astype(int)
    return _to_allocation(arms, counts, stage_budget)


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
    cache = _belief_cache(belief)
    batch_draw = getattr(source, "stage_means_batch", None)
    eliminate = {"min_z": minz_eliminate, "confidence": confidence_eliminate,
                 "mean": mean_eliminate}[spec.elimination]
    active = list(instance.treatments)
    trail: list[StageStats] = []
    total = 0
    for _ in range(stages):
        pulls = _allocate(spec, cache, active, stage_budget)
        arm_rows = [0] + active
        counts = np.array([pulls.control_pulls]
                          + [pulls.treatment_pulls[a] for a in active])
        if batch_draw is not None:
            rows = batch_draw(instance.means[arm_rows],
                              instance.stddevs[arm_rows], counts, rng)
        else:
            rows = np.stack([
                source.stage_mean(instance.means[arm], instance.stddevs[arm],
                                  n, rng)
                for arm, n in zip(arm_rows, counts)
            ])
        means = {arm: rows[k] for k, arm in enumerate(arm_rows)}
        stats = _stats_from_rows(cache, means, rows, pulls, active)
        trail.append(stats)
        total += pulls.total_pulls
        active = eliminate(stats, math.ceil(len(active) / 2))
    assert len(active) == 1, "halving must end with a single survivor"
    return ExplorationResult(recommended=active[0], trail=trail, total_pulls_used=total)


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
