"""Independent oracles used by the test suite.

Everything here is deliberately written against a different numeric route
than the package: the normal CDF/quantile come from the stdlib
(statistics.NormalDist, Wichura's AS241 under the hood), the allocation
oracle solves the min-max program numerically instead of using the closed
form, the confidence level is bisected instead of taken from the closed-form
crossing point, and the halving reference is a scalar loop over plain floats
driven by the stdlib generator (random.Random) instead of numpy's.  The
harness reference runs one repetition at a time where the harness runs
blocks of repetitions as arrays.  Two oracles share the package's
arithmetic on purpose, and the package must equal them bit for bit: the
confidence levels as a single (..., k, k, M, M) crossing array, against
the pair-by-pair fold, and the subset search's ranked drop of the
floor(|S|/4) smallest gaps, against its order statistic.  Keep these free
of imports from m3ab so a bug cannot leak into its own check.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from statistics import NormalDist

_STD = NormalDist()


def phi(x: float) -> float:
    return _STD.cdf(x)


def phi_inv(p: float) -> float:
    return _STD.inv_cdf(p)


def xi_value(variant: str, horizon: int, *, delta=None, q=None, tau=None,
             sigma_a=None, sigma_0=None) -> float:
    """Validation constant, recomputed from scratch."""
    half = math.sqrt(horizon / 2.0)
    if variant == "non_bayesian":
        return phi_inv(delta) / half
    inflation = math.sqrt(1.0 + 2.0 * (sigma_a**2 + sigma_0**2) / (tau**2 * horizon))
    return phi_inv(1.0 - q) / half * inflation


def snr_value(mu_a: float, mu_0: float, sigma_a: float, sigma_0: float) -> float:
    return (mu_a - mu_0) / math.sqrt(sigma_a**2 + sigma_0**2)


def pass_prob(variant: str, horizon: int, snr: float, *, delta=None, q=None,
              tau=None, sigma_a=None, sigma_0=None) -> float:
    """Per-metric pass probability from the acceptance-region form."""
    scale = math.sqrt(horizon / 2.0)
    if variant == "non_bayesian":
        return 1.0 - phi(phi_inv(1.0 - delta) - snr * scale)
    inflation = math.sqrt(1.0 + 2.0 * (sigma_a**2 + sigma_0**2) / (tau**2 * horizon))
    return 1.0 - phi(phi_inv(q) * inflation - snr * scale)


def wilson(successes: int, trials: int, level: float) -> tuple[float, float]:
    """Textbook Wilson score interval."""
    z = phi_inv(0.5 + level / 2.0)
    p = successes / trials
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return center - half, center + half


def minmax_allocation(rho_sqs, lambda_sq: float, budget: float):
    """Numerically solve min over N of max_a (rho2_a/N_a + lambda2/N_0)
    subject to sum(N) = budget, N > 0 — the epigraph form via SLSQP.

    Returns (n_0, [n_a...]) as floats.  Independent of the closed form under
    test; only used on small single-metric problems.
    """
    from scipy.optimize import minimize  # local import: test-only dependency

    rho_sqs = list(rho_sqs)
    k = len(rho_sqs)
    constraints = [
        {"type": "eq", "fun": lambda x: sum(x[1:]) - 1.0},
    ]
    for idx, r2 in enumerate(rho_sqs):
        constraints.append(
            {
                "type": "ineq",
                "fun": lambda x, r2=r2, idx=idx: x[0] - r2 / x[2 + idx] - lambda_sq / x[1],
            }
        )
    bounds = [(0.0, None)] + [(1e-9, 1.0)] * (k + 1)
    # SLSQP can stall on badly scaled fractions, so try several generic
    # starting shapes (none uses the closed form under test) and keep the
    # best feasible optimum.
    total = sum(rho_sqs) + lambda_sq
    starts = [
        [1.0 / (k + 1)] * (k + 1),
        [lambda_sq / total] + [r2 / total for r2 in rho_sqs],
        [0.5] + [0.5 / k] * k,
    ]
    best = None
    # normalized variables: [u, f_0, f_1..f_k] with n = budget * f, u = max * budget
    for f0 in starts:
        u0 = max(r2 / f0[1 + idx] + lambda_sq / f0[0] for idx, r2 in enumerate(rho_sqs))
        with warnings.catch_warnings():
            # SLSQP's internal bound clipping emits a benign RuntimeWarning.
            warnings.simplefilter("ignore", RuntimeWarning)
            res = minimize(
                lambda x: x[0], [u0 * 1.5] + list(f0), method="SLSQP", bounds=bounds,
                constraints=constraints, options={"maxiter": 1000, "ftol": 1e-12},
            )
        if res.success and (best is None or res.x[0] < best.x[0]):
            best = res
    assert best is not None, "no SLSQP start converged"
    return best.x[1] * budget, [f * budget for f in best.x[2:]]


# --- scalar relative-variance halving (SHRVar) ------------------------------
# Written from the documented rules only: stages = halvings until one
# survivor, stage budget = floor(T / stages), relative-variance shares
# floored with one-pull funding of floored-to-zero arms, stage means drawn as
# N(mu, sigma^2 / n), and min-z elimination keeping ceil(k/2) arms with the
# lowest index winning ties.  Matrices are plain nested lists, row 0 = control.

def _variance_shares(stddevs) -> list[tuple[float, float]]:
    """(max_i rho2[a,i], max_i lambda2[a,i]) per treatment; entry 0 unused."""
    s0 = stddevs[0]
    shares = [(0.0, 0.0)]
    for row in stddevs[1:]:
        total = [sa**2 + sc**2 for sa, sc in zip(row, s0)]
        shares.append((max(sa**2 / t for sa, t in zip(row, total)),
                       max(sc**2 / t for sc, t in zip(s0, total))))
    return shares


def _floor_counts(shares, active: list[int], stage_budget: int) -> list[int]:
    if stage_budget < len(active) + 1:
        raise ValueError(f"stage budget {stage_budget} cannot cover "
                         f"{len(active) + 1} arms")
    rho2 = [shares[a][0] for a in active]
    rho_sigma = math.sqrt(math.fsum(rho2))
    lambda_sigma = math.sqrt(max(shares[a][1] for a in active))
    denom = rho_sigma + lambda_sigma
    counts = [math.floor(lambda_sigma / denom * stage_budget)]
    counts += [math.floor(r / (rho_sigma * denom) * stage_budget) for r in rho2]
    return fund_starved_reference(counts, stage_budget) if 0 in counts else counts


def fund_starved_reference(counts: list[int], stage_budget: int) -> list[int]:
    """One starved row's funding, one pull at a time: every zero count becomes
    one pull, then while the row overspends the budget the first largest
    count gives one back.  The reference for ``alloc._fund_starved``'s closed
    form; it takes one step per pull, so keep the overspend small."""
    counts = [max(c, 1) for c in counts]
    while sum(counts) > stage_budget:
        counts[counts.index(max(counts))] -= 1
    return counts


def shrvar_reference_counts(stddevs, active, stage_budget: int) -> list[int]:
    """Floor-rounded relative-variance pulls [control, *active] of one stage.

    Shares: control lambda_sigma/(rho_sigma+lambda_sigma), treatment a
    max_i rho2[a,i]/(rho_sigma*(rho_sigma+lambda_sigma)), where rho_sigma =
    sqrt(sum_a max_i rho2[a,i]) and lambda_sigma^2 = max_{a,i} lambda2[a,i].
    Zero counts become one pull, paid for by the largest counts (first
    position on ties) whenever the floors leave too little over.
    """
    return _floor_counts(_variance_shares(stddevs), sorted(active), stage_budget)


def halving_stage_count(num_treatments: int) -> int:
    """Rounds of keep-ceil(k/2) elimination until one treatment is left."""
    stages, k = 0, num_treatments
    while k > 1:
        k = (k + 1) // 2
        stages += 1
    return max(stages, 1)


def shrvar_reference_picks(means, stddevs, xi, budget: int, reps: int,
                           seed: int) -> list[int]:
    """Recommended treatment of each of `reps` independent SHRVar runs.

    ``xi[a-1][i]`` is the validation constant of treatment a on metric i.
    Every stage draws the control's stage mean once and compares each active
    treatment against it: zhat[a,i] = (mean[a,i] - mean[0,i]) /
    sqrt(sigma[a,i]^2 + sigma[0,i]^2) + xi[a,i].
    """
    num_treatments = len(means) - 1
    stages = halving_stage_count(num_treatments)
    stage_budget = budget // stages
    shares = _variance_shares(stddevs)
    # per treatment and metric: (mu, sigma, sqrt(sigma^2 + sigma_0^2), xi)
    metrics = [None] + [
        [(mu, sd, math.sqrt(sd**2 + sc**2), x)
         for mu, sd, sc, x in zip(means[a], stddevs[a], stddevs[0], xi[a - 1])]
        for a in range(1, num_treatments + 1)
    ]
    gauss = random.Random(seed).gauss
    picks = []
    for _ in range(reps):
        active = list(range(1, num_treatments + 1))
        for _ in range(stages):
            counts = _floor_counts(shares, active, stage_budget)
            root = math.sqrt(counts[0])
            control = [gauss(mu, sd / root) for mu, sd in zip(means[0], stddevs[0])]
            ranked = []
            for a, n in zip(active, counts[1:]):
                root = math.sqrt(n)
                zhat = min((gauss(mu, sd / root) - c) / s + x
                           for (mu, sd, s, x), c in zip(metrics[a], control))
                ranked.append((-zhat, a))
            ranked.sort()
            active = sorted(a for _, a in ranked[:(len(active) + 1) // 2])
        picks.append(active[0])
    return picks


# --- confidence level by scalar bisection ----------------------------------
# The elimination confidence level found the slow way: bisect on c for the
# point where the treatment's UCB clears every rival's LCB, with no use of
# the closed-form crossing the package computes.

def confidence_level_bisection(z, v, arm) -> float:
    """delta_s(arm) = |A_s| M exp(-c*^2) for a stage with ``z[a]``/``v[a]``
    the per-metric zhat values and their variances of each active arm a.

    With c = sqrt(log(|A_s| M / delta)) the bonus on metric i is
    2 c sqrt(v[a][i]); c* is where min_i(UCB) minus the largest rival
    min_j(LCB) turns positive.  An arm already on top at c = 0 gets the cap.
    """
    arms = list(z)
    cap = float(len(arms) * len(z[arm]))

    def f(c):
        ucb = min(zi + 2.0 * c * math.sqrt(vi) for zi, vi in zip(z[arm], v[arm]))
        lcb = max(min(zj - 2.0 * c * math.sqrt(vj) for zj, vj in zip(z[b], v[b]))
                  for b in arms)
        return ucb - lcb

    if f(0.0) >= 0.0:
        return cap
    lo, hi = 0.0, 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if f(mid) > 0.0 else (mid, hi)
    return cap * math.exp(-(0.5 * (lo + hi)) ** 2)


def confidence_levels_broadcast(z, z_var):
    """The closed-form confidence levels of a block (..., k, M) in one
    broadcast: crossing[..., a, b, i, j] = (z[b,j] - z[a,i]) / (s[a,i] +
    s[b,j]) with s = 2 sqrt(z_var), reduced by min over j, then max over
    (b, i).  Every crossing is the same IEEE operation on the same operands
    as in any fold of (k, k) planes, and min/max are exact, so a correct
    fold equals this array bit for bit."""
    import numpy as np  # local import: only the array oracles use numpy

    k, m = z.shape[-2:]
    s = 2.0 * np.sqrt(z_var)
    crossing = (z[..., None, :, None, :] - z[..., :, None, :, None]) \
        / (s[..., :, None, :, None] + s[..., None, :, None, :])
    c_star = crossing.min(axis=-1).max(axis=(-2, -1))
    return k * m * np.exp(-c_star**2)


def confidence_bonus(delta: float, rho_sq: float, lambda_sq: float, n_a: int,
                     n_0: int, active_count: int, num_metrics: int) -> float:
    """The confidence bonus b = 2 sqrt((rho2/n_a + lambda2/n_0) *
    log(|A_s| M / delta)) whose UCB/LCB crossing point the package's
    confidence elimination computes in closed form."""
    cap = active_count * num_metrics
    if not 0.0 < delta <= cap:
        raise ValueError(f"delta must lie in (0, {cap}]")
    if n_a < 1 or n_0 < 1:
        raise ValueError("pull counts must be >= 1")
    return 2.0 * math.sqrt((rho_sq / n_a + lambda_sq / n_0) * math.log(cap / delta))


# --- Table-of-two-treatments reference point -------------------------------
# Control (0, 10) on both metrics; treatment 1 = (0.6, 10) twice; treatment 2
# = (-0.2, 30) on metric 1 and (6, 10) on metric 2.  Bayesian validation with
# q = 0.67, tau = 10, horizon 100.  The published grid rounds to 2 decimals:
# pass probs (0.44, 0.44) joint 0.19 for T1; (0.30, 0.99) joint 0.30 for T2.

TABLE_MEANS = [[0.0, 0.0], [0.6, 0.6], [-0.2, 6.0]]
TABLE_STDDEVS = [[10.0, 10.0], [10.0, 10.0], [30.0, 10.0]]
TABLE_Q = 0.67
TABLE_TAU = 10.0
TABLE_HORIZON = 100
TABLE_ROUNDED = {(1, 0): 0.44, (1, 1): 0.44, (2, 0): 0.30, (2, 1): 0.99}
TABLE_JOINT_ROUNDED = {1: 0.19, 2: 0.30}


def table_pass_prob(treatment: int, metric: int) -> float:
    mu_a = TABLE_MEANS[treatment][metric]
    sd_a = TABLE_STDDEVS[treatment][metric]
    mu_0, sd_0 = TABLE_MEANS[0][metric], TABLE_STDDEVS[0][metric]
    return pass_prob(
        "bayesian", TABLE_HORIZON, snr_value(mu_a, mu_0, sd_a, sd_0),
        q=TABLE_Q, tau=TABLE_TAU, sigma_a=sd_a, sigma_0=sd_0,
    )


# --- pure-Python complexity enumerator --------------------------------------
# Independent re-implementation of the subset-minimum diagnostic: plain floats
# and itertools, subsets iterated by size then lexicographically (a different
# order than the library's bitmask sweep).

def kappa_reference(rho2, subset, arm, metric):
    """rho2: list of per-treatment lists of rho^2 (0-based arm indices)."""
    r_sig = math.sqrt(sum(max(rho2[a]) for a in subset))
    lmax2 = max(1.0 - min(rho2[a]) for a in subset)
    l_sig = math.sqrt(lmax2)
    mr = max(rho2[arm])
    p = rho2[arm][metric] / mr if mr > 0 else 1.0
    lam2 = 1.0 - rho2[arm][metric]
    return (p * r_sig + lam2 / l_sig) / (r_sig + l_sig)


def effective_gap_sq_reference(z, rho2, subset, star, arm, *,
                               delta_min_sq=None, correction=None):
    """D^2 (or the corrected variant when correction is given) for one (S, a)."""
    m = len(z[0])
    best_i = math.inf
    for i in range(m):
        worst_j = -math.inf
        for j in range(m):
            gap = max(z[star][i] - z[arm][j], 0.0) ** 2
            k_a = kappa_reference(rho2, subset, arm, j)
            k_star = kappa_reference(rho2, subset, star, i)
            cell = gap / (k_a + k_star) ** 2
            if correction is not None and k_a > k_star:
                alt = gap / (k_a - k_star) ** 2 + delta_min_sq - correction
                cell = min(cell, alt)
            worst_j = max(worst_j, cell)
        best_i = min(best_i, worst_j)
    if correction is not None:
        best_i = max(best_i, 0.0)
    return best_i


def h3_reference(z, rho2, budget=None):
    """(H3 or the budget-corrected variant, attaining subset of 0-based arms)."""
    a_count = len(z)
    minz = [min(row) for row in z]
    star = max(range(a_count), key=lambda a: (minz[a], -a))
    delta_min = min(minz[star] - minz[a] for a in range(a_count) if a != star)
    correction = None
    if budget is not None:
        correction = 8.0 * a_count * math.log2(a_count) ** 2 / budget
    others = [a for a in range(a_count) if a != star]
    best, best_subset = math.inf, None
    for size in range(1, a_count):
        for combo in itertools.combinations(others, size):
            subset = sorted(combo + (star,))
            r_sig = math.sqrt(sum(max(rho2[a]) for a in subset))
            l_sig = math.sqrt(max(1.0 - min(rho2[a]) for a in subset))
            d2 = {
                a: effective_gap_sq_reference(
                    z, rho2, subset, star, a,
                    delta_min_sq=delta_min**2, correction=correction)
                for a in combo
            }
            # drop floor(|S|/4) sub-optimal members with smallest gap; the
            # best treatment is excluded separately and holds no drop slot
            drop = len(subset) // 4 if len(subset) >= 4 else 0
            ranked = sorted(combo, key=lambda a: (d2[a], a))
            survivors = ranked[drop:]
            if not survivors:
                continue
            value = min(d2[a] for a in survivors) / (r_sig + l_sig) ** 2
            if value < best:
                best, best_subset = value, subset
    return (1.0 / best if best > 0 else math.inf), best_subset


def drop_smallest_gaps_ranked(gap_sq, member, star):
    """Per (c, A) member mask, the smallest squared gap of S'_c: the
    sub-optimal members of S minus the floor(|S|/4) with smallest gap (no
    drops when |S| <= 3), inf when S'_c is empty.  Ranked: the best treatment
    (0-based index star) pinned first so it holds no drop slot, members by
    gap, non-members last, then the minimum of what follows the drops."""
    import numpy as np  # local import: only the array oracles use numpy

    c = len(member)
    sizes = member.sum(axis=1)
    rank_key = gap_sq.copy()
    rank_key[:, star] = -np.inf
    rank_key[~member] = np.inf
    values = gap_sq.copy()
    values[:, star] = np.inf
    values[~member] = np.inf
    order = np.argsort(rank_key, axis=1, kind="stable")
    ranked_values = np.take_along_axis(values, order, axis=1)
    suffix_min = np.minimum.accumulate(ranked_values[:, ::-1], axis=1)[:, ::-1]
    drops = np.where(sizes >= 4, sizes // 4, 0)
    return suffix_min[np.arange(c), drops + 1]


# --- per-repetition harness loop --------------------------------------------
# The harness loop written one repetition at a time: each repetition seeded
# from SeedSequence([*key, rep]).spawn(2) (exploration stream first, then
# validation) and run through the one-repetition engine and validation test.
# Those two are passed in, so this module still imports nothing from m3ab.

def count_range_reference(explore, validate, instance, algorithm, budget: int,
                          reward_source, key, start: int, stop: int,
                          star: int, positive_min_z) -> tuple[int, int, int]:
    """(exploration, validation, type1) counts over repetitions [start, stop);
    `explore` is run_exploration and `validate` run_validation."""
    import numpy as np  # local import: only this oracle draws with numpy

    validation_source = "pulls" if reward_source == "pulls" else "means"
    hits = successes = type1 = 0
    for rep in range(start, stop):
        explore_ss, validate_ss = np.random.SeedSequence([*key, rep]).spawn(2)
        result = explore(instance, algorithm, budget,
                         reward_source=reward_source,
                         rng=np.random.default_rng(explore_ss))
        outcome = validate(instance, result.recommended,
                           np.random.default_rng(validate_ss),
                           reward_source=validation_source)
        hits += result.recommended == star
        if outcome.pass_all:
            if positive_min_z[result.recommended - 1]:
                successes += 1
            else:
                type1 += 1
    return hits, successes, type1


# --- adaptive engine phase 0, one arm at a time ------------------------------
# The variance-estimation round as first written: one source call per arm,
# control first, on one repetition's generator.  The package draws every
# repetition's round in one call per block.

def phase0_reference(source: str, mu, sigma, n: int, rng):
    """Per-arm (means, unbiased variances) of n pulls for the sources
    "pulls", "means" (the sufficient statistics from their exact laws) and
    "fixed" (the true values, no draws), as lists of (M,) arrays."""
    means, variances = [], []
    for m, s in zip(mu, sigma):
        if source == "pulls":
            x = rng.normal(m, s, size=(n, m.size))
            mean, var = x.mean(axis=0), x.var(axis=0, ddof=1)
        elif source == "means":
            mean = rng.normal(m, s / math.sqrt(n))
            var = s**2 * rng.chisquare(n - 1, size=m.size) / (n - 1)
        else:
            mean, var = m.copy(), s**2
        means.append(mean)
        variances.append(var)
    return means, variances


# --- validation draws, one arm at a time -------------------------------------
# The validation A/B test's effect estimate written per arm with rng.normal:
# treatment side first, then control, t_v/2 pulls each.  The package draws
# both sides through its reward sources.

def validation_reference_ate(source: str, mu, sigma, treatment: int,
                             horizon: int, rng):
    """(M,) effect estimate mean_treatment - mean_control for the sources
    "pulls" (every reward drawn) and "means" (each side's sample mean drawn
    from N(mu, sigma^2 / (t_v/2)))."""
    half = horizon // 2
    side_means = []
    for arm in (treatment, 0):
        m, s = mu[arm], sigma[arm]
        if source == "pulls":
            side_means.append(rng.normal(m, s, size=(half, m.size)).mean(axis=0))
        else:
            side_means.append(rng.normal(m, s / math.sqrt(half)))
    return side_means[0] - side_means[1]


# --- instance tables, one treatment at a time --------------------------------
# The per-call formulas of the validation test and z, row by row: each row's
# variance sum goes through the test's terms, passed in as `terms`
# (core.validation_terms), so this module still imports nothing from m3ab.
# Same numeric route as the package, so the tables must match bit for bit.

def posterior_reference(sample_mean_diff, sigma_a, sigma_0, tau, t_v: int):
    """Posterior (mean, variance) of the effect under a N(0, tau^2) prior."""
    var_sum = sigma_a**2 + sigma_0**2
    sigma_hat_sq = 1.0 / (t_v / (2.0 * var_sum) + 1.0 / tau**2)
    delta_hat = t_v * sigma_hat_sq / (2.0 * var_sum) * sample_mean_diff
    return delta_hat, sigma_hat_sq


def instance_tables_reference(terms, instance) -> dict:
    """critical (M,) and, stacked over treatments 1..A, z = snr + xi, the
    test's scale inflation * sqrt(2 var_sum / t_v), the pass probabilities
    1 - Phi(critical * inflation - snr * sqrt(t_v/2)) and (Bayesian only,
    else None) the posterior variance and shrink factor."""
    import numpy as np
    from scipy.special import ndtr

    cfg = instance.validation
    rows = {"z": [], "scale": [], "pass_probabilities": [],
            "posterior_variance": [], "shrink": []}
    for arm in instance.treatments:
        sigma_a, sigma_0 = instance.stddevs[arm], instance.stddevs[0]
        var_sum = sigma_a**2 + sigma_0**2
        xi, critical, inflation = terms(cfg, var_sum)
        snr = (instance.means[arm] - instance.means[0]) / np.sqrt(var_sum)
        rows["z"].append(snr + xi)
        rows["scale"].append(inflation * np.sqrt(2.0 * var_sum / cfg.horizon))
        rows["pass_probabilities"].append(
            1.0 - ndtr(critical * inflation - snr * math.sqrt(cfg.horizon / 2.0)))
        if cfg.variant == "bayesian":
            shrink, variance = posterior_reference(1.0, sigma_a, sigma_0,
                                                   cfg.tau, cfg.horizon)
            rows["shrink"].append(shrink)
            rows["posterior_variance"].append(variance)
    tables = {name: np.array(r) if r else None for name, r in rows.items()}
    tables["critical"] = critical
    return tables
