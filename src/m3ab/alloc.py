"""Per-stage sampling allocations for control and active treatments.

The relative-variance rule splits a stage budget B so that every active
treatment's z-estimator variance bound is equalized:

    N(0) = floor( lambda_sigma / (rho_sigma + lambda_sigma) * B )
    N(a) = floor( max_i rho2[a,i] / (rho_sigma * (rho_sigma + lambda_sigma)) * B )

with rho_sigma = sqrt(sum_a max_i rho2[a,i]) and lambda_sigma the largest
lambda over the active set.  The unrounded shares sum to exactly B and give

    max_i rho2[a,i]/N(a) + lambda_sigma^2/N(0) = (rho_sigma+lambda_sigma)^2/B

for every active a, which is the min-max-optimal continuous allocation.

Baseline rules (uniform / proportional to max_i sigma^2 / proportional to
max_i sigma) treat the control as one more arm.  All rules guarantee every
arm at least one pull whenever the stage budget covers the arm count: a
zero-pull active arm has no mean estimate, so a floored-to-zero count is
bumped to one pull funded from the floor-discarded remainder (extreme
variance ratios hit this, e.g. the control share when every surviving
treatment dwarfs the control's variance).  Only a budget below |active|+1 is
reported as insufficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from m3ab.core import Instance, relative_variance
from m3ab.errors import InsufficientBudgetError

FLOOR = "floor"
LARGEST_REMAINDER = "largest_remainder"


@dataclass(frozen=True)
class StageAllocation:
    """Pull counts for one stage; treatment_pulls is keyed by treatment index."""

    control_pulls: int
    treatment_pulls: dict[int, int]
    stage_budget: int

    def __post_init__(self):
        total = self.control_pulls + sum(self.treatment_pulls.values())
        if total > self.stage_budget:
            raise ValueError(
                f"allocation spends {total} pulls, stage budget is {self.stage_budget}"
            )
        if self.control_pulls < 0 or any(n < 0 for n in self.treatment_pulls.values()):
            raise ValueError("pull counts must be nonnegative")

    @property
    def total_pulls(self) -> int:
        return self.control_pulls + sum(self.treatment_pulls.values())


@dataclass(frozen=True)
class SetVariances:
    """Aggregate relative-variance scales of an active set."""

    rho_sigma: float
    lambda_sigma: float


@dataclass(frozen=True)
class ArmWeights:
    """Per-arm weights of the sampling rules, indexed by arm (0 = control).

    rho_sq/lambda_sq split every arm's z noise against the control, (A+1, M)
    with a row 0 no rule reads; the vectors are row maxima over the metrics.
    """

    rho_sq: np.ndarray
    lambda_sq: np.ndarray
    max_rho_sq: np.ndarray
    max_lambda_sq: np.ndarray
    max_var: np.ndarray
    max_sd: np.ndarray


def arm_weights(stddevs: np.ndarray) -> ArmWeights:
    """The weights of an (A+1) x M stddev matrix."""
    rho_sq, lambda_sq = relative_variance(stddevs, stddevs[0])
    return ArmWeights(
        rho_sq=rho_sq, lambda_sq=lambda_sq,
        max_rho_sq=rho_sq.max(axis=1), max_lambda_sq=lambda_sq.max(axis=1),
        max_var=(stddevs**2).max(axis=1), max_sd=stddevs.max(axis=1),
    )


def active_index(active, num_treatments: int | None = None) -> np.ndarray:
    """The active set as an ascending index array, after checking that it is
    nonempty and holds distinct treatments in 1..num_treatments (any count
    when None)."""
    arms = np.array(sorted(active))
    if arms.size == 0 or arms.dtype.kind not in "iu" or arms[0] < 1 \
            or (num_treatments is not None and arms[-1] > num_treatments) \
            or np.any(arms[1:] == arms[:-1]):
        raise ValueError(f"active set {arms.tolist()} must be nonempty and hold "
                         f"distinct treatments in 1..{num_treatments or 'A'}")
    return arms.astype(np.intp, copy=False)


def _set_scales(w: ArmWeights, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho_sigma, lambda_sigma) of every row of an (R, k) active array."""
    return (np.sqrt(w.max_rho_sq[active].sum(axis=1)),
            np.sqrt(w.max_lambda_sq[active].max(axis=1)))


def _shrvar_shares(w: ArmWeights, active: np.ndarray, stage_budget: int) -> np.ndarray:
    """Unrounded relative-variance shares [control, *active] per row; each
    row sums to B."""
    rho_sigma, lambda_sigma = _set_scales(w, active)
    denom = rho_sigma + lambda_sigma
    return np.concatenate(
        ((lambda_sigma / denom * stage_budget)[:, None],
         w.max_rho_sq[active] / (rho_sigma * denom)[:, None] * stage_budget),
        axis=1,
    )


def stage_counts(sampling: str, w: ArmWeights | None, active: np.ndarray,
                 stage_budget: int, rounding: str = FLOOR) -> np.ndarray:
    """Pull counts [control, *active] of one stage under a sampling rule, for
    every row of an (R, k) active array; returns (R, k+1).

    Every rule is written here once, over the weights ``w`` (unread by the
    uniform rule) and rows from ``active_index``; ``rounding`` applies to
    the relative-variance rule only.  Shares are floored row by row, and a
    row with a zero count goes through ``_fund_starved``.
    """
    if not isinstance(stage_budget, (int, np.integer)) or stage_budget <= 0:
        raise ValueError("stage_budget must be a positive integer")
    rows, k = active.shape
    if sampling == "uniform":
        counts = np.full((rows, k + 1), stage_budget // (k + 1))
    elif sampling == "relative_variance":
        exact = _shrvar_shares(w, active, stage_budget)
        counts = np.floor(exact).astype(int)
        if rounding == LARGEST_REMAINDER:
            # Hand the discarded remainder back, largest fractional part
            # first (ties -> lower position); each arm gains at most one pull.
            for row, share in zip(counts, exact):
                leftover = stage_budget - int(row.sum())
                order = np.lexsort((np.arange(k + 1), -(share - row)))
                row[order[:leftover]] += 1
        elif rounding != FLOOR:
            raise ValueError(f"unknown rounding mode {rounding!r}")
    elif sampling in ("variance", "neyman"):
        weights = w.max_var if sampling == "variance" else w.max_sd
        weights = np.concatenate(
            (np.broadcast_to(weights[0], (rows, 1)), weights[active]), axis=1)
        counts = np.floor(weights / weights.sum(axis=1, keepdims=True)
                          * stage_budget).astype(int)
    else:
        raise ValueError(f"unknown sampling rule {sampling!r}")
    for row in np.flatnonzero((counts == 0).any(axis=1)):
        counts[row] = _fund_starved(counts[row], active[row], stage_budget)
    return counts


def _allocation(sampling: str, instance: Instance | None, active,
                stage_budget: int, rounding: str = FLOOR) -> StageAllocation:
    """The kernel's counts for a public call, keyed by arm."""
    if instance is None:
        w, arms = None, active_index(active)
    else:
        w = arm_weights(instance.stddevs)
        arms = active_index(active, instance.num_treatments)
    control, *treated = stage_counts(sampling, w, arms[None], stage_budget,
                                     rounding)[0].tolist()
    return StageAllocation(control_pulls=control,
                           treatment_pulls=dict(zip(arms.tolist(), treated)),
                           stage_budget=stage_budget)


def set_variances(instance: Instance, active) -> SetVariances:
    """rho_sigma = sqrt(sum of per-treatment max rho2); lambda_sigma = max lambda."""
    arms = active_index(active, instance.num_treatments)
    rho_sigma, lambda_sigma = _set_scales(arm_weights(instance.stddevs), arms[None])
    return SetVariances(float(rho_sigma[0]), float(lambda_sigma[0]))


def shrvar_allocation_unrounded(
    instance: Instance, active, stage_budget: int
) -> tuple[float, dict[int, float]]:
    """The exact (real-valued) relative-variance allocation before rounding."""
    arms = active_index(active, instance.num_treatments)
    control, *treated = _shrvar_shares(arm_weights(instance.stddevs), arms[None],
                                       stage_budget)[0].tolist()
    return control, dict(zip(arms.tolist(), treated))


def shrvar_allocation(
    instance: Instance, active, stage_budget: int, rounding: str = FLOOR
) -> StageAllocation:
    """Relative-variance allocation with the algorithm's floor rounding.

    Floored-to-zero counts are bumped to one pull, paid for from the
    floor-discarded remainder first and otherwise from the largest counts;
    all other counts keep their exact floors.  Raises
    InsufficientBudgetError when the budget cannot cover one pull per arm.
    """
    return _allocation("relative_variance", instance, active, stage_budget,
                       rounding)


def uniform_allocation(active, stage_budget: int) -> StageAllocation:
    """Every arm (control included) gets floor(B / (|active|+1)) pulls."""
    return _allocation("uniform", None, active, stage_budget)


def variance_allocation(instance: Instance, active, stage_budget: int) -> StageAllocation:
    """Pulls proportional to max_i sigma[arm,i]^2, control folded in as an arm."""
    return _allocation("variance", instance, active, stage_budget)


def neyman_allocation(instance: Instance, active, stage_budget: int) -> StageAllocation:
    """Pulls proportional to max_i sigma[arm,i], control folded in as an arm."""
    return _allocation("neyman", instance, active, stage_budget)


def _fund_starved(counts: np.ndarray, active: np.ndarray,
                  stage_budget: int) -> np.ndarray:
    """Give every zero-count arm of one row one pull without exceeding the
    budget; beyond the discarded remainder, pulls come back from the largest
    counts (first position on ties)."""
    if stage_budget < counts.size:
        starved = int(np.argmin(counts))
        raise InsufficientBudgetError(
            f"stage budget {stage_budget} cannot cover {counts.size} arms",
            arm=0 if starved == 0 else int(active[starved - 1]),
        )
    counts = counts.copy()
    counts[counts == 0] = 1
    while counts.sum() > stage_budget:
        counts[np.argmax(counts)] -= 1
    return counts
