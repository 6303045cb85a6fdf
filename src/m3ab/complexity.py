"""Instance-hardness diagnostics for the staged exploration engines.

Everything here is a function of the true z-value matrix and the relative
variances; nothing is estimated.  For a candidate set S of treatments
containing the best one, define

    rho_sigma(S)    = sqrt(sum_{a in S} max_i rho2[a, i]),
    lambda_sigma(S) = sqrt(max_{a in S, i} lambda2[a, i]),

the same set-level scales the stage allocator equalizes against.  The
heterogeneity weight of one (arm, metric) pair inside S is

    kappa(S, a, i) = (rho2[a,i]/max_i rho2[a,i] * rho_sigma
                      + lambda2[a,i]/lambda_sigma(S)^2 * lambda_sigma)
                     / (rho_sigma + lambda_sigma),

a value in (0, 1] that is exactly 1 when one metric attains both maxima.
The effective gap of a sub-optimal treatment a in S against the best
treatment `star` is

    D(S, a)^2 = min_i max_j [z[star,i] - z[a,j]]_+^2
                            / (kappa(S,a,j) + kappa(S,star,i))^2,

and the subset-minimum complexity is

    h3 = ( min_{S : star in S}  min_{a in S'_c} D(S, a)^2
                                / (rho_sigma(S) + lambda_sigma(S))^2 )^-1,

where S'_c is the sub-optimal part of S minus its floor(|S|/4) members with
smallest gap (no drops when |S| <= 3; the best treatment never occupies a
drop slot).  Subsets whose S'_c is empty contribute nothing.

The budget-corrected variant replaces D by a gap that may additionally pick

    [z[star,i] - z[a,j]]_+^2 / (kappa(S,a,j) - kappa(S,star,i))^2
        + delta_min^2 - 8 A log2(A)^2 / T

whenever kappa(S,a,j) > kappa(S,star,i); it is never larger than D, so the
corrected complexity is never smaller.  delta_min is the smallest gap in
bottleneck z-values between the best treatment and any other.

The error_bound helper evaluates 6 M log2(A) exp(-T / (c h log2 A)) with
c = 2 ("theorem1") or c = 8 ("theorem2" — its source states 2 but concludes
with 8; we default the stricter variant to the concluding constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Instance, best_treatment, relative_variance, z_profile
from .errors import TooLargeError

__all__ = [
    "ComplexityReport",
    "ErrorBound",
    "delta_min",
    "effective_gap",
    "effective_gap_tilde",
    "error_bound",
    "h3",
    "h3_prime",
    "h3_tilde",
    "kappa",
]

DEFAULT_MAX_ENUMERATION = 20
_CHUNK = 1024


@dataclass(frozen=True)
class ComplexityReport:
    """Subset-minimum hardness of one instance: h3, the subset attaining it
    and that subset's rho_sigma and lambda_sigma."""

    h3: float
    argmin_subset: tuple[int, ...]
    rho_sigma: float
    lambda_sigma: float


class ErrorBound(NamedTuple):
    value: float
    vacuous: bool


def _subset_kernel(instance: Instance, correction: float | None):
    """The subset kernel of one instance: returns (star, gaps), where
    gaps(member) maps (c, A) member masks to each mask's squared gaps
    D(S, a)^2 (c, A) against the best treatment star (the corrected gap when
    a correction is given), its kappa values (c, A, M), rho_sigma and
    lambda_sigma (c,).  Gaps and kappas are filled in for every arm, member
    or not; only members' values are meaningful."""
    star = best_treatment(instance)
    z = z_profile(instance).z
    g = np.maximum(z[star - 1][None, :, None] - z[:, None, :], 0.0) ** 2
    rho2, _ = relative_variance(instance.stddevs[1:], instance.stddevs[0])
    lam2 = 1.0 - rho2
    mr = rho2.max(axis=1)
    ml2 = lam2.max(axis=1)
    p = np.where(mr[:, None] > 0, rho2 / np.where(mr[:, None] > 0, mr[:, None], 1.0), 1.0)
    dm2 = delta_min(instance) ** 2 if correction is not None else None

    def gaps(member: np.ndarray):
        rho_sigma = np.sqrt(member @ mr)
        lambda_sigma = np.sqrt(np.where(member, ml2[None, :], -np.inf).max(axis=1))
        denom = rho_sigma + lambda_sigma
        kap = (p[None] * rho_sigma[:, None, None]
               + lam2[None] / lambda_sigma[:, None, None]) / denom[:, None, None]
        k_star = kap[:, star - 1, :]
        # The (c, A, M, M) terms are built in place: one fresh chunk-sized
        # array per call (two when corrected) instead of one per operation
        # keeps the allocator from handing the pages back to the system
        # between chunks.
        cell = kap[:, :, None, :] + k_star[:, None, :, None]  # [c, a, i, j]
        np.divide(g, np.square(cell, out=cell), out=cell)
        if correction is not None:
            alt = kap[:, :, None, :] - k_star[:, None, :, None]
            positive = alt > 0
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(g, np.square(alt, out=alt), out=alt)
            alt += dm2
            alt -= correction
            np.copyto(cell, np.minimum(cell, alt, out=alt), where=positive)
        gap_sq = cell.max(axis=3).min(axis=2)  # [c, a]
        if correction is not None:
            gap_sq = np.maximum(gap_sq, 0.0)
        return gap_sq, kap, rho_sigma, lambda_sigma

    return star, gaps


def _validate_subset(instance: Instance, subset) -> np.ndarray:
    members = sorted(set(int(a) for a in subset))
    if not members:
        raise ValueError("subset must not be empty")
    for a in members:
        if not 1 <= a <= instance.num_treatments:
            raise ValueError(f"treatment {a} is not part of the instance")
    return np.asarray(members, dtype=int)


def kappa(instance: Instance, subset, treatment: int, metric: int) -> float:
    """Heterogeneity weight of (treatment, metric) within the candidate set."""
    members = _validate_subset(instance, subset)
    if treatment not in members:
        raise ValueError(f"treatment {treatment} is not in the subset")
    if not 0 <= metric < instance.num_metrics:
        raise ValueError(f"metric {metric} out of range")
    _, gaps = _subset_kernel(instance, None)
    _, kap, _, _ = gaps(np.isin(instance.treatments, members)[None])
    return float(kap[0, treatment - 1, metric])


def delta_min(instance: Instance) -> float:
    """Smallest gap in bottleneck z-values between the best treatment and
    any other."""
    if instance.num_treatments < 2:
        raise ValueError("need at least two treatments for a gap")
    minz, star = z_profile(instance).min_z, best_treatment(instance)
    return float(minz[star - 1] - np.delete(minz, star - 1).max())


def _pair_gap_sq(instance: Instance, subset, treatment: int,
                 correction: float | None) -> float:
    """D(S, a)^2, optionally with the budget-corrected alternative term."""
    members = _validate_subset(instance, subset)
    star = best_treatment(instance)
    if treatment == star:
        raise ValueError("the best treatment has no gap against itself")
    if treatment not in members or star not in members:
        raise ValueError(
            f"subset must contain both treatment {treatment} and the best "
            f"treatment {star}"
        )
    _, gaps = _subset_kernel(instance, correction)
    gap_sq, _, _, _ = gaps(np.isin(instance.treatments, members)[None])
    return float(gap_sq[0, treatment - 1])


def effective_gap(instance: Instance, subset, treatment: int) -> float:
    """The gap D(S, a) >= 0 separating one sub-optimal treatment in S."""
    return math.sqrt(_pair_gap_sq(instance, subset, treatment, None))


def effective_gap_tilde(instance: Instance, subset, treatment: int,
                        budget: float) -> float:
    """The budget-corrected gap; never exceeds effective_gap."""
    return math.sqrt(_pair_gap_sq(instance, subset, treatment,
                                  _correction(instance, budget)))


def _correction(instance: Instance, budget: float) -> float:
    """The budget term 8 A log2(A)^2 / T of the corrected gap; a budget that
    is NaN, not positive, or small enough to overflow the term is refused."""
    a_count = instance.num_treatments
    term = 8.0 * a_count * math.log2(a_count) ** 2 / budget if budget > 0 else math.nan
    if not math.isfinite(term):
        raise ValueError(f"budget {budget} is not positive or overflows the correction")
    return term


def _best_over_subsets(instance: Instance, correction: float | None,
                       max_enumeration: int):
    """h = 1 / min over subsets S holding the best treatment of
    gap^2 / (rho_sigma + lambda_sigma)^2, where gap^2 is the
    (floor(|S|/4) + 1)-th smallest squared gap of S's sub-optimal members
    (inf when S'_c is empty).  Returns (h, attaining members, their scales).

    Subsets are swept as bitmasks over the sub-optimal treatments, in chunks
    of _CHUNK masks, each chunk one call of the subset kernel.
    """
    a_count = instance.num_treatments
    if a_count < 2:
        raise ValueError("need at least two treatments for a gap")
    if a_count > max_enumeration:
        raise TooLargeError(
            f"{a_count} treatments means 2^{a_count - 1} subsets; raise "
            f"max_enumeration (currently {max_enumeration})"
        )
    star, gaps = _subset_kernel(instance, correction)
    star_idx = star - 1
    others = np.array([a for a in range(a_count) if a != star_idx])
    k = len(others)

    best = math.inf
    best_members: np.ndarray | None = None
    best_scales = (math.nan, math.nan)
    for start in range(0, 2**k, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, 2**k))
        c = len(masks)
        member = np.zeros((c, a_count), dtype=bool)
        member[:, others] = (masks[:, None] >> np.arange(k)[None, :]) & 1
        member[:, star_idx] = True
        gap_sq, _, rho_sigma, lambda_sigma = gaps(member)

        values = np.where(member, gap_sq, np.inf)
        values[:, star_idx] = np.inf  # never a drop slot, never counted
        numerator = np.sort(values, axis=1)[np.arange(c), member.sum(axis=1) // 4]
        candidate = numerator / (rho_sigma + lambda_sigma)**2

        j = int(np.argmin(candidate))
        if candidate[j] < best:
            best = float(candidate[j])
            best_members = np.flatnonzero(member[j]) + 1
            best_scales = (float(rho_sigma[j]), float(lambda_sigma[j]))
    return (1.0 / best if best > 0 else math.inf), best_members, best_scales


def h3_prime(instance: Instance) -> float:
    """Closed-form surrogate (sum of max relative variances over the smallest
    squared bottleneck z-gap), O(A M).  Not an upper bound on h3: on every
    instance checked (exp1; exp3 at A = 12, 14, 16, 20) it lies 2.0 to 2.5
    times below h3, so an error bound computed from it understates h3's."""
    dm = delta_min(instance)
    rho2, _ = relative_variance(instance.stddevs[1:], instance.stddevs[0])
    total = float(rho2.max(axis=1).sum() + (1.0 - rho2).max())
    if dm == 0.0:
        return math.inf
    return total / dm**2


def h3(instance: Instance,
       max_enumeration: int = DEFAULT_MAX_ENUMERATION) -> ComplexityReport:
    """Exhaustive subset-minimum complexity; ``h3_tilde`` gives the
    budget-corrected variant."""
    h, members, scales = _best_over_subsets(instance, None, max_enumeration)
    return ComplexityReport(h, tuple(int(a) for a in members), *scales)


def h3_tilde(instance: Instance, budget: float,
             max_enumeration: int = DEFAULT_MAX_ENUMERATION) -> float:
    """Subset-minimum complexity with the budget-corrected gap; >= h3, and
    equal once the budget clears 8 A log2(A)^2 / delta_min^2."""
    return _best_over_subsets(instance, _correction(instance, budget),
                              max_enumeration)[0]


def error_bound(budget: float, num_treatments: int, num_metrics: int,
                h: float, variant: str = "theorem1") -> ErrorBound:
    """6 M log2(A) exp(-T / (c h log2 A)); c = 2 (theorem1) or 8 (theorem2).

    The value is returned unclamped; vacuous flags bounds >= 1.
    """
    constants = {"theorem1": 2.0, "theorem2": 8.0}
    if variant not in constants:
        raise ValueError(f"variant must be one of {sorted(constants)}")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if num_treatments < 1 or num_metrics < 1:
        raise ValueError("need at least one treatment and one metric")
    if not h > 0:
        raise ValueError("complexity h must be positive")
    log2a = math.log2(num_treatments)
    if log2a == 0.0:
        return ErrorBound(0.0, False)
    value = 6.0 * num_metrics * log2a * math.exp(
        -budget / (constants[variant] * h * log2a)
    )
    return ErrorBound(value, value >= 1.0)
