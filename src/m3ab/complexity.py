"""Instance-hardness diagnostics for the staged exploration engines.

Everything here is a function of the true z-value matrix and the relative
variances rho2 = sa^2/(sa^2+s0^2) and lambda2 = s0^2/(sa^2+s0^2), read from
the stage allocator's tables (alloc.arm_weights); nothing is estimated.  For
a candidate set S of treatments containing the best one, define

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

Both minima come from a branch and bound over arm membership, not a sweep
of all 2^(A-1) subsets.  Times (rho_sigma + lambda_sigma)^2, a cell of D^2
is [.]_+^2 / ((p_aj + p_si) rho_sigma + (lambda2_aj + lambda2_si) /
lambda_sigma)^2 with p = rho2 / max_i rho2: it falls in rho_sigma and rises
in lambda_sigma.  The corrected alternative undercuts a cell only when
delta_min^2 is below the budget term, and its difference is linear in both
rho_sigma and 1/lambda_sigma.  So a box of scales bounds every subset
between two sets from below.  The result is exact, ties go to the lowest
bitmask over the sub-optimal treatments, and max_enumeration caps A.  The
bitmask is an int64 of 63 usable bits, so A > 64 is refused whatever the cap.

The error_bound helper evaluates 6 M log2(A) exp(-T / (c h log2 A)) with
c = 2 ("theorem1") or c = 8 ("theorem2" — its source states 2 but concludes
with 8; we default the stricter variant to the concluding constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .alloc import arm_weights
from .core import Instance, _whole, best_treatment, z_profile
from .errors import TooLargeError

__all__ = [
    "ComplexityReport",
    "ErrorBound",
    "delta_min",
    "error_bound",
    "h3",
    "h3_prime",
    "h3_tilde",
]

DEFAULT_MAX_ENUMERATION = 20
_MAX_ARMS = 64  # the best treatment plus one int64 mask bit per other treatment
_LEAF = 6  # free arms a leaf node leaves to the kernel: 2^6 masks
_SPLIT = 4  # branchings a block decides at once: 2^4 leaves
_MARGIN = 1e-9  # relative slack for the bound's rounding against the kernel's


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
    """The subset kernel of one instance: returns (star, gaps, floor).

    gaps(member) maps (c, A) member masks to each mask's squared gaps
    D(S, a)^2 (c, A) against the best treatment star (the corrected gap when
    a correction is given), its kappa values (c, A, M), rho_sigma and
    lambda_sigma (c,).  Gaps and kappas are filled in for every arm, member
    or not; only members' values are meaningful.  A row depends on its own
    mask alone, whatever the batch.  floor(inside, reach) bounds each arm's
    D(S, a)^2 / (rho_sigma + lambda_sigma)^2 from below over every S with
    inside <= S <= reach, for (n, A) masks (see the module docstring)."""
    star = best_treatment(instance)
    s = star - 1
    z = z_profile(instance).z
    g = np.maximum(z[s][:, None, None] - z.T[None], 0.0) ** 2  # [i, j, a]
    w = arm_weights(instance.stddevs[None])
    lam2, mr, ml2 = w.lambda_sq[:, 0, 1:], w.max_rho_sq[0, 1:], w.max_lambda_sq[0, 1:]
    p = w.rho_sq[:, 0, 1:] / mr  # [i, a]; Instance keeps stddevs > 0, so mr > 0
    dm2 = delta_min(instance) ** 2 if correction is not None else None

    def scales(member: np.ndarray):
        # a row sum, not member @ mr: BLAS rounds a row differently by batch
        return (np.sqrt(np.where(member, mr, 0.0).sum(axis=1)),
                np.sqrt(np.where(member, ml2, -np.inf).max(axis=1)))

    def fold(plus, minus=None, offset=None) -> np.ndarray:
        """min over i of max over j of the (n, A) planes g / plus(i, j)^2 or,
        given minus, of the smaller of that and offset(g / minus(i, j)^2)
        where minus(i, j) > 0, clipped at 0.  Whole planes keep NumPy's
        loops long and the temporaries in cache."""
        def cell(i, j):
            out = g[i, j] / np.square(plus(i, j))
            if minus is not None:
                diff = minus(i, j)
                alt = offset(g[i, j] / np.square(diff))
                np.copyto(out, np.minimum(out, alt), where=diff > 0)
            return out

        with np.errstate(divide="ignore", invalid="ignore"):
            gap = reduce(np.minimum, [reduce(np.maximum, [cell(i, j) for j in range(len(g))])
                                      for i in range(len(g))])
        return gap if minus is None else np.maximum(gap, 0.0)

    def gaps(member: np.ndarray):
        rho_sigma, lambda_sigma = scales(member)
        k = (p[:, None] * rho_sigma[:, None] + lam2[:, None] / lambda_sigma[:, None]
             ) / (rho_sigma + lambda_sigma)[:, None]  # [j, c, a]
        gap_sq = fold(lambda i, j: k[j] + k[i, :, s, None],
                      None if correction is None else lambda i, j: k[j] - k[i, :, s, None],
                      lambda x: x + dm2 - correction)
        return gap_sq, k.transpose(1, 2, 0), rho_sigma, lambda_sigma

    # [i, j, 1, a] sums and differences of arm a's metric j and star's metric i
    pa, ps = p[None, :, None], p[:, s, None, None, None]
    la, ls = lam2[None, :, None], lam2[:, s, None, None, None]
    p_sum, p_diff, l_sum, l_diff = pa + ps, pa - ps, la + ls, la - ls

    def floor(inside: np.ndarray, reach: np.ndarray) -> np.ndarray:
        (rho_lo, lam_lo), (rho_hi, lam_hi) = (
            [v[:, None] for v in scales(mask)] for mask in (inside, reach))
        plus = p_sum * rho_hi + l_sum / lam_lo  # [i, j, n, a]
        if correction is None or dm2 >= correction:  # then no alternative undercuts
            return fold(lambda i, j: plus[i, j])
        minus = (np.maximum(p_diff * rho_lo, p_diff * rho_hi)
                 + np.maximum(l_diff / lam_lo, l_diff / lam_hi))
        shift = (dm2 - correction) / (rho_lo + lam_lo) ** 2
        return fold(lambda i, j: plus[i, j], lambda i, j: minus[i, j], lambda x: x + shift)

    return star, gaps, floor


def delta_min(instance: Instance) -> float:
    """Smallest gap in bottleneck z-values between the best treatment and
    any other."""
    if instance.num_treatments < 2:
        raise ValueError("need at least two treatments for a gap")
    minz, star = z_profile(instance).min_z, best_treatment(instance)
    return float(minz[star - 1] - np.delete(minz, star - 1).max())


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

    Depth first, a node holds every S with inside <= S <= inside + free; the
    (floor(|inside|/4) + 1)-th smallest floor over inside + free bounds it.
    The full set is the first incumbent.  A node is dropped when its bound
    tops the incumbent by more than _MARGIN (the kernel's rounding) or, once
    the incumbent is 0, when it cannot hold a lower mask (h3_tilde needs no
    mask).  Blocks of _LEAF + _SPLIT free arms bound their 2^_SPLIT leaves at
    once and evaluate the kept ones in one kernel call.
    """
    a_count = instance.num_treatments
    if a_count < 2:
        raise ValueError("need at least two treatments for a gap")
    if a_count > _MAX_ARMS:
        raise TooLargeError(
            f"{a_count} treatments exceed the 63-bit subset mask, which takes "
            f"at most {_MAX_ARMS} treatments (the best one needs no bit)"
        )
    if a_count > _whole(max_enumeration, "max_enumeration"):
        raise TooLargeError(
            f"{a_count} treatments means 2^{a_count - 1} subsets; raise "
            f"max_enumeration (currently {max_enumeration})"
        )
    star, gaps, floor = _subset_kernel(instance, correction)
    star_idx = star - 1
    bit = np.zeros(a_count, dtype=np.int64)
    bit[np.arange(a_count) != star_idx] = 1 << np.arange(a_count - 1)
    best = [math.inf, math.inf, None, math.nan, math.nan]  # value, mask, row, scales

    def kept_min(values, member, inside):  # star: never a drop slot, never counted
        values = np.where(member, values, np.inf)
        values[:, star_idx] = np.inf
        return values, np.sort(values, axis=1)[np.arange(len(values)), inside.sum(axis=1) // 4]

    def evaluate(member: np.ndarray) -> None:
        gap_sq, _, rho_sigma, lambda_sigma = gaps(member)
        candidate = kept_min(gap_sq, member, member)[1] / (rho_sigma + lambda_sigma)**2
        tied = np.flatnonzero(candidate == candidate.min())
        j = tied[np.argmin(member[tied] @ bit)]
        if (candidate[j], member[j] @ bit) < (best[0], best[1]):
            best[:] = candidate[j], member[j] @ bit, member[j], rho_sigma[j], lambda_sigma[j]

    def fill(inside: np.ndarray, arms: list[int]) -> np.ndarray:
        """Each row of inside with every subset of arms added, all arms first."""
        combos = (np.arange(2 ** len(arms) - 1, -1, -1)[:, None] >> np.arange(len(arms))) & 1
        rows = np.repeat(inside, len(combos), axis=0)
        rows[:, arms] = np.tile(combos, (len(inside), 1))
        return rows

    def search(inside: np.ndarray, free: list[int], floors: np.ndarray) -> None:
        """Branch on the free arm with the smallest floor, include first; a
        block branches on all but the _LEAF largest at once."""
        free = sorted(free, key=floors.__getitem__)
        cut = 1 if len(free) > _LEAF + _SPLIT else max(len(free) - _LEAF, 0)
        nodes, rest = fill(inside[None], free[:cut]), free[cut:]
        reach = nodes.copy()
        reach[:, rest] = True
        node_floors, bound = kept_min(floor(nodes, reach), reach, nodes)
        keep = bound <= best[0] * (1.0 + _MARGIN)
        if best[0] == 0:  # nothing beats 0; h3 alone reports the lowest mask
            keep &= (nodes @ bit < best[1]) & (correction is None)
        if len(rest) > _LEAF:
            for node, child_floors in zip(nodes[keep], node_floors[keep]):
                search(node, rest, child_floors)
        elif keep.any():
            evaluate(fill(nodes[keep], rest))

    if delta_min(instance) == 0.0:  # a tie: the minimum 0, first at {star, lowest tie}
        min_z = z_profile(instance).min_z
        evaluate(np.isin(np.arange(a_count), np.flatnonzero(min_z == min_z[star_idx])[:2])[None])
    else:
        full = np.ones((1, a_count), dtype=bool)
        evaluate(full)
        root = np.arange(a_count) == star_idx
        search(root, list(np.flatnonzero(bit)), floor(root[None], full)[0])
    value, _, row, *scales = best
    h = 1.0 / float(value) if value > 0 else math.inf
    return h, np.flatnonzero(row) + 1, tuple(map(float, scales))


def h3_prime(instance: Instance) -> float:
    """Closed-form surrogate (sum of max relative variances over the smallest
    squared bottleneck z-gap), O(A M).  Not an upper bound on h3: on every
    instance checked (exp1; exp3 at A = 12, 14, 16, 20) it lies 2.0 to 2.5
    times below h3, so an error bound computed from it understates h3's."""
    dm2 = delta_min(instance) ** 2  # 0 also when a tiny delta_min underflows
    w = arm_weights(instance.stddevs[None])
    total = float(w.max_rho_sq[0, 1:].sum() + w.max_lambda_sq[0, 1:].max())
    return total / dm2 if dm2 != 0.0 else math.inf


def h3(instance: Instance,
       max_enumeration: int = DEFAULT_MAX_ENUMERATION) -> ComplexityReport:
    """Subset-minimum complexity, certified by branch and bound (exact, the
    lowest subset bitmask among ties); ``h3_tilde`` gives the budget-corrected
    variant."""
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
    if not budget >= 0:
        raise ValueError("budget must be nonnegative")
    num_treatments = _whole(num_treatments, "num_treatments", 1)
    num_metrics = _whole(num_metrics, "num_metrics", 1)
    if not h > 0:
        raise ValueError("complexity h must be positive")
    log2a = math.log2(num_treatments)
    if log2a == 0.0:
        return ErrorBound(0.0, False)
    value = 6.0 * num_metrics * log2a * math.exp(
        -budget / (constants[variant] * h * log2a)
    )
    return ErrorBound(value, value >= 1.0)
