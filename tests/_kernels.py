"""One-row calls of the block kernels, shared by the test modules: the
relative variances of ``alloc.arm_weights``, ``alloc._set_scales`` and
``alloc._shrvar_shares`` for one active set, and ``complexity._subset_kernel``
for one candidate set, all over an instance's own stddevs."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from m3ab.alloc import _set_scales, _shrvar_shares, arm_weights
from m3ab.complexity import _correction, _subset_kernel
from m3ab.core import _treatment_ids


def relative_variances(inst) -> tuple[np.ndarray, np.ndarray]:
    """(rho2, lambda2), each (A, M): sa^2/(sa^2+s0^2) and s0^2/(sa^2+s0^2)
    of every treatment against the control."""
    w = arm_weights(inst.stddevs[None])
    return w.rho_sq[:, 0, 1:].T, w.lambda_sq[:, 0, 1:].T


def set_scales(inst, active) -> SimpleNamespace:
    """rho_sigma = sqrt(sum of per-treatment max rho2) and lambda_sigma =
    max lambda of one active set."""
    arms = _treatment_ids(active, inst.num_treatments)
    _, rho_sigma, lambda_sigma = _set_scales(arm_weights(inst.stddevs[None]), arms[None])
    return SimpleNamespace(rho_sigma=float(rho_sigma[0]),
                           lambda_sigma=float(lambda_sigma[0]))


def shrvar_shares(inst, active, stage_budget: int) -> tuple[float, dict[int, float]]:
    """The unrounded relative-variance shares (control, {arm: share}) of one
    active set."""
    arms = _treatment_ids(active, inst.num_treatments)
    control, *treated = _shrvar_shares(arm_weights(inst.stddevs[None]), arms[None],
                                       stage_budget)[0].tolist()
    return control, dict(zip(arms.tolist(), treated))


def subset_gaps(inst, subset, budget: float | None = None) -> SimpleNamespace:
    """kappa(S, a, i) (A, M) and D(S, a)^2 (A,) of one candidate set S, the
    budget-corrected gap when a budget is given; only members' values, and
    gaps of treatments other than the best, are meaningful."""
    correction = None if budget is None else _correction(inst, budget)
    member = np.isin(inst.treatments, _treatment_ids(subset, inst.num_treatments))
    _, gaps, _ = _subset_kernel(inst, correction)
    gap_sq, kappa, _, _ = gaps(member[None])
    return SimpleNamespace(kappa=kappa[0], gap_sq=gap_sq[0])
