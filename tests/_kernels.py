"""One-active-set calls of the allocation kernels the stage loop draws with,
shared by the test modules: ``alloc._set_scales`` and ``alloc._shrvar_shares``
over the weights of an instance's own stddevs."""

from __future__ import annotations

from types import SimpleNamespace

from m3ab.alloc import _set_scales, _shrvar_shares, arm_weights
from m3ab.core import _treatment_ids


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
