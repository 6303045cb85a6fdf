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
bumped to one pull (extreme variance ratios hit this, e.g. the control share
when every surviving treatment dwarfs the control's variance).  Pulls beyond
the floor-discarded remainder come back one at a time from the first largest
count.  In closed form, for all starved rows at once: clip each row at the
smallest level T whose excess sum(max(c - T, 0)) fits its surplus (bisected
bit by bit, at most 41 steps at B <= 2^40), then take the rest of the surplus
from the counts equal to T in position order.  Only a budget below
|active|+1 is reported as insufficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from m3ab.core import Instance, _treatment_ids, _whole
from m3ab.errors import InsufficientBudgetError

MAX_STAGE_BUDGET = 2**40  # near 2^52 the float shares stop resolving single pulls


@dataclass(frozen=True)
class ArmWeights:
    """Per-arm weights of the sampling rules: (B, A+1) tables of metric
    maxima and the (M, B, A+1) rho_sq/lambda_sq split of z noise against
    the control (no rule reads arm 0); B = 1 or one belief per repetition."""

    rho_sq: np.ndarray
    lambda_sq: np.ndarray
    max_rho_sq: np.ndarray
    max_lambda_sq: np.ndarray
    max_var: np.ndarray
    max_sd: np.ndarray


def arm_weights(stddevs: np.ndarray) -> ArmWeights:
    """The weights of (B, A+1, M) stddevs, checked where they enter (Instance,
    phase-0 beliefs): rho_sq = sa^2/(sa^2+s0^2), lambda_sq = s0^2/(sa^2+s0^2)."""
    stddevs = np.ascontiguousarray(stddevs.transpose(2, 0, 1))
    var = stddevs**2
    total = var + var[..., :1]
    rho_sq, lambda_sq = var / total, var[..., :1] / total
    return ArmWeights(
        rho_sq=rho_sq, lambda_sq=lambda_sq,
        max_rho_sq=fold(np.maximum, rho_sq), max_lambda_sq=fold(np.maximum, lambda_sq),
        max_var=fold(np.maximum, var), max_sd=fold(np.maximum, stddevs),
    )


def fold(ufunc, x: np.ndarray) -> np.ndarray:
    """ufunc.reduce(x, axis=0) as a left fold over the short metric axis:
    the same values for exact ufuncs (minimum, maximum, logical_and), faster."""
    out = x[0].copy()
    for plane in x[1:]:
        ufunc(out, plane, out=out)
    return out


def gather(table: np.ndarray, active: np.ndarray) -> np.ndarray:
    """table[r, active[r]] for every row r of an (R, k) index array, one belief
    row serving all: an np.take of the table flat over (belief, arm), faster than
    fancy indexing but with no IndexError for an arm past A (the loop has none)."""
    rows = np.arange(len(active))[:, None] * table.shape[1] if len(table) > 1 else 0
    return np.take(table.reshape(-1, *table.shape[2:]), active + rows, axis=0)


def _set_scales(w: ArmWeights, active: np.ndarray) -> tuple[np.ndarray, ...]:
    """(max rho2 at the active arms, rho_sigma, lambda_sigma) of (R, k) rows."""
    max_rho_sq = gather(w.max_rho_sq, active)
    return (max_rho_sq, np.sqrt(max_rho_sq.sum(axis=1)),
            np.sqrt(gather(w.max_lambda_sq, active).max(axis=1)))


def _shrvar_shares(w: ArmWeights, active: np.ndarray, stage_budget: int) -> np.ndarray:
    """Unrounded relative-variance shares [control, *active] per row; each
    row sums to B."""
    max_rho_sq, rho_sigma, lambda_sigma = _set_scales(w, active)
    denom = rho_sigma + lambda_sigma
    return np.concatenate(
        ((lambda_sigma / denom * stage_budget)[:, None],
         max_rho_sq / (rho_sigma * denom)[:, None] * stage_budget),
        axis=1,
    )


def stage_counts(sampling: str, w: ArmWeights | None, active: np.ndarray,
                 stage_budget: int) -> np.ndarray:
    """Pull counts [control, *active] of one stage under a sampling rule, for
    every row of an (R, k) active array; returns (R, k+1).

    Every rule is written here once, over the weights ``w`` (one belief row
    or one per row; unread by the uniform rule) and rows as
    ``core._treatment_ids`` returns them.  Shares are floored, and
    ``_fund_starved`` funds the zero counts of every row in one array pass.
    The stage budget is an int in [1, MAX_STAGE_BUDGET] (the callers check).
    """
    rows, k = active.shape
    if sampling == "uniform":
        counts = np.full((rows, k + 1), stage_budget // (k + 1))
    elif sampling == "relative_variance":
        counts = np.floor(_shrvar_shares(w, active, stage_budget)).astype(int)
    else:  # variance or neyman
        arms = np.concatenate((np.zeros_like(active[:, :1]), active), axis=1)
        weights = gather(w.max_var if sampling == "variance" else w.max_sd, arms)
        counts = np.floor(weights / weights.sum(axis=1, keepdims=True)
                          * stage_budget).astype(int)
    return _fund_starved(counts, active, stage_budget)


def _allocation(sampling: str, instance: Instance | None, active,
                stage_budget: int) -> dict[int, int]:
    """The kernel's counts for a public call, keyed by arm over
    [0, *active]: the control, then the active treatments ascending."""
    arms = _treatment_ids(active, getattr(instance, "num_treatments", None), "active set")
    stage_budget = _whole(stage_budget, "stage_budget", 1, MAX_STAGE_BUDGET)
    w = None if instance is None else arm_weights(instance.stddevs[None])
    counts = stage_counts(sampling, w, arms[None], stage_budget)[0]
    return dict(zip([0, *arms.tolist()], counts.tolist()))


def shrvar_allocation(instance: Instance, active, stage_budget: int) -> dict[int, int]:
    """Relative-variance allocation with the algorithm's floor rounding and
    starved-arm funding (module docstring).  Raises InsufficientBudgetError
    when the budget cannot cover one pull per arm."""
    return _allocation("relative_variance", instance, active, stage_budget)


def uniform_allocation(active, stage_budget: int) -> dict[int, int]:
    """Every arm (control included) gets floor(B / (|active|+1)) pulls."""
    return _allocation("uniform", None, active, stage_budget)


def variance_allocation(instance: Instance, active, stage_budget: int) -> dict[int, int]:
    """Pulls proportional to max_i sigma[arm,i]^2, control folded in as an arm."""
    return _allocation("variance", instance, active, stage_budget)


def neyman_allocation(instance: Instance, active, stage_budget: int) -> dict[int, int]:
    """Pulls proportional to max_i sigma[arm,i], control folded in as an arm."""
    return _allocation("neyman", instance, active, stage_budget)


def _fund_starved(counts: np.ndarray, active: np.ndarray,
                  stage_budget: int) -> np.ndarray:
    """Fund, in place, the zero counts of every starved row of an (R, k+1)
    block at once, by the closed form of the module docstring."""
    if counts.all():
        return counts
    starved = np.flatnonzero((counts == 0).any(axis=1))
    if stage_budget < counts.shape[1]:
        row = starved[0]
        arm = np.concatenate(([0], active[row]))[np.argmin(counts[row])]
        raise InsufficientBudgetError(f"stage budget {stage_budget} cannot cover "
                                      f"{counts.shape[1]} arms", arm=int(arm))
    bumped = np.maximum(counts[starved], 1)
    surplus = bumped.sum(axis=1) - stage_budget
    below = np.zeros_like(surplus)  # T - 1; the excess at 0 exceeds every surplus
    for bit in reversed(range(int(bumped.max()).bit_length())):
        trial = below + (1 << bit)
        excess = np.maximum(bumped - trial[:, None], 0).sum(axis=1)
        below = np.where(excess > surplus, trial, below)
    level = below[:, None] + 1
    at_level = bumped >= level
    left = surplus - np.maximum(bumped - level, 0).sum(axis=1)
    counts[starved] = np.minimum(bumped, level) - (
        at_level & (np.cumsum(at_level, axis=1) <= left[:, None]))
    return counts
