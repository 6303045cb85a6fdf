"""Built-in problem instances, the z-parameterization inverse, and JSON I/O.

Presets (``preset(name, seed=..., **knobs)``):

* ``exp1`` — 16 treatments, 3 metrics.  Control rewards are zero with unit
  variance; the best treatment trades a lower bottleneck mean for lower
  variance exposure.  All treatments share the metric variances [4, 1, 0.25].
  Knobs: ``delta`` (default 0.05), ``t_v`` (default 1000).
* ``exp2`` — 27 treatments, 1 metric, heterogeneity exponent ``l`` in [0, 5].
  Every treatment's z-value is pinned to ``0.3 - 0.1*sqrt(a)`` (treatment 1 is
  best by construction) while its stddev grows as ``1 + a**l``, so larger
  ``l`` concentrates reward noise on worse treatments.  z includes xi (about
  -0.233 at the defaults): every treatment has mu_a > mu_0, but only
  treatments 1..8 have z > 0.
* ``exp3`` / ``exp3_null`` — wide instances (default 128 treatments, 3
  metrics) built from fixed z-values and randomly perturbed relative
  variances.  In ``exp3`` exactly one treatment has min_i z > 0; in
  ``exp3_null`` none does, so every all-metric validation pass is counted as
  a type-I error.  z includes xi (about -0.052 at the defaults), so this is
  stricter than beating the control in mean: every ``exp3`` treatment and
  ``exp3_null``'s treatment 1 (SNR about (0.002, 0.102, 0.102)) have
  mu_a > mu_0 on every metric.
* ``neyman_gap`` — single-metric instance whose identification bottleneck is
  a pair of large-variance arms surrounded by small-variance arms: the best
  treatment (mean ``mean_gap``, stddev ``sigma_big``), an equal-variance
  rival at mean zero, and ``num_small - 1`` small-variance treatments; the
  control is small-variance too.  Separates stddev-proportional from
  variance-proportional sampling rules.

``table1()`` builds the two-treatment documentation example showing why the
bottleneck (max-min) objective and the joint pass probability disagree.

File format (``save``/``load``): one UTF-8 JSON object —
``{"format": 1, "num_treatments": A, "num_metrics": M, "means": [[...]],
"stddevs": [[...]], "validation": {"variant": "non_bayesian"|"bayesian",
"delta"|"q": [...], "tau": [...], "horizon": int}}`` — row 0 of the matrices
is the control.  Numbers round-trip at full double precision.  Schema
violations raise ``SchemaError`` carrying the offending field path.
"""

from __future__ import annotations

import functools
import inspect
import json
from pathlib import Path

import numpy as np

from m3ab.core import (
    BAYESIAN,
    NON_BAYESIAN,
    Instance,
    ValidationConfig,
    _whole,
    validation_terms,
)
from m3ab.errors import SchemaError

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# inverse constructor
# ---------------------------------------------------------------------------


def _means_from_z(z: np.ndarray, stddevs: np.ndarray,
                  control_means: np.ndarray,
                  validation: ValidationConfig) -> np.ndarray:
    """Full means matrix whose z-profile equals ``z`` given the stddevs."""
    var_sum = stddevs[1:] ** 2 + stddevs[0] ** 2
    xi, _, _ = validation_terms(validation, var_sum)
    return np.vstack([control_means[None, :],
                      control_means + (z - xi) * np.sqrt(var_sum)])


def from_z_parameterization(z, rho_sq, control_means, control_stddevs,
                            validation: ValidationConfig) -> Instance:
    """Build an Instance from target z-values and relative variances.

    Inverts the z-value definition: ``rho_sq[a-1, i]`` fixes the treatment
    stddev via sigma_a^2 = sigma_0^2 * rho^2 / (1 - rho^2), and the mean is
    then chosen so that the resulting z-value equals ``z[a-1, i]`` exactly.
    Bayesian validation constants depend on the stddevs, but those are fully
    determined by ``rho_sq`` before the means are solved for, so no
    fixed-point iteration is involved.

    Args:
        z: (A, M) target z-values.
        rho_sq: (A, M) relative variances, strictly inside (0, 1).
        control_means, control_stddevs: length-M control arm parameters.
        validation: the validation test the z-values refer to.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    rho_sq = np.atleast_2d(np.asarray(rho_sq, dtype=float))
    mu0 = np.asarray(control_means, dtype=float).reshape(-1)
    s0 = np.asarray(control_stddevs, dtype=float).reshape(-1)
    if rho_sq.shape != z.shape:
        raise ValueError(f"rho_sq shape {rho_sq.shape} != z shape {z.shape}")
    m = z.shape[1]
    if mu0.shape != (m,) or s0.shape != (m,):
        raise ValueError(f"control vectors must have length {m}")
    if np.any(rho_sq >= 1.0):
        raise ValueError("rho_sq = 1 implies infinite treatment variance; "
                         "rho_sq must lie strictly inside (0, 1)")
    if np.any(rho_sq <= 0.0):
        raise ValueError("rho_sq must lie strictly inside (0, 1)")
    var_a = s0**2 * rho_sq / (1.0 - rho_sq)
    stddevs = np.vstack([s0[None, :], np.sqrt(var_a)])
    means = _means_from_z(z, stddevs, mu0, validation)
    return Instance(means=means, stddevs=stddevs, validation=validation)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _delta_vector(delta, m: int) -> np.ndarray:
    arr = np.asarray(delta, dtype=float).reshape(-1)
    if arr.size == 1 and m != 1:
        arr = np.full(m, arr[0])
    return arr


def _exp1(*, delta=0.05, t_v: int = 1000) -> Instance:
    means = np.vstack([
        np.zeros(3),
        [2.4697, 1.5556, 1.1180],
        np.tile([2.0125, 1.6971, 1.3416], (15, 1)),
    ])
    stddevs = np.vstack([np.ones(3), np.tile([2.0, 1.0, 0.5], (16, 1))])
    cfg = ValidationConfig.non_bayesian(_delta_vector(delta, 3), t_v)
    return Instance(means=means, stddevs=stddevs, validation=cfg)


def _exp2(*, l=None, delta=0.05, t_v: int = 100) -> Instance:
    if l is None:
        raise ValueError("exp2 requires the variance-heterogeneity exponent l")
    l = float(l)
    if not 0.0 <= l <= 5.0:
        raise ValueError(f"l must lie in [0, 5], got {l}")
    arms = np.arange(1, 28)
    z = (0.3 - 0.1 * np.sqrt(arms))[:, None]
    stddevs = np.concatenate([[1.0], 1.0 + arms.astype(float) ** l])[:, None]
    cfg = ValidationConfig.non_bayesian(_delta_vector(delta, 1), t_v)
    means = _means_from_z(z, stddevs, np.zeros(1), cfg)
    return Instance(means=means, stddevs=stddevs, validation=cfg)


_EXP3_Z_BEST = (0.15, 0.15, 0.05)
_EXP3_Z_OTHER = (-0.05, 0.25, 0.25)
_EXP3_NULL_Z_BEST = (-0.05, 0.05, 0.05)
_EXP3_NULL_Z_OTHER = (-0.15, 0.15, 0.15)
_EXP3_RHO_SQ_BASE = (0.8, 0.5, 0.2)


def _exp3_family(z_best, z_other, *, seed, num_treatments: int = 128,
                 delta=0.05, t_v: int = 2000) -> Instance:
    num_treatments = _whole(num_treatments, "num_treatments", 2)
    rng = np.random.default_rng(seed)
    rho_sq = np.asarray(_EXP3_RHO_SQ_BASE) + rng.uniform(
        -0.1, 0.1, size=(num_treatments, 3))
    rho_sq = np.clip(rho_sq, 0.05, 0.95)
    z = np.vstack([z_best, np.tile(z_other, (num_treatments - 1, 1))])
    cfg = ValidationConfig.non_bayesian(_delta_vector(delta, 3), t_v)
    return from_z_parameterization(z, rho_sq, np.zeros(3), np.ones(3), cfg)


_exp3 = functools.partial(_exp3_family, _EXP3_Z_BEST, _EXP3_Z_OTHER)
_exp3_null = functools.partial(_exp3_family, _EXP3_NULL_Z_BEST,
                               _EXP3_NULL_Z_OTHER)


def _neyman_gap(*, num_small: int = 20, sigma_big: float = 5.0,
                sigma_small: float = 1.0, mean_gap: float = 1.0, delta=0.05,
                t_v: int = 100) -> Instance:
    num_small = _whole(num_small, "num_small", 1)
    means = np.concatenate([[0.0, mean_gap, 0.0], np.zeros(num_small - 1)])
    stddevs = np.concatenate([
        [sigma_small, sigma_big, sigma_big],
        np.full(num_small - 1, sigma_small),
    ])
    cfg = ValidationConfig.non_bayesian(_delta_vector(delta, 1), t_v)
    return Instance(means=means[:, None], stddevs=stddevs[:, None],
                    validation=cfg)


_PRESET_FACTORIES = {
    "exp1": _exp1,
    "exp2": _exp2,
    "exp3": _exp3,
    "exp3_null": _exp3_null,
    "neyman_gap": _neyman_gap,
}

PRESET_NAMES = tuple(_PRESET_FACTORIES)


def preset(name: str, *, seed=0, **knobs) -> Instance:
    """Construct a named built-in instance (see the module docstring).

    ``seed`` feeds the random components (only exp3/exp3_null have any); the
    default 0 makes every call with the same arguments build the same
    instance.  ``knobs`` are preset-specific keyword parameters such as
    ``l`` for exp2; a knob the preset does not take is a ValueError.
    """
    try:
        factory = _PRESET_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; expected one of {', '.join(PRESET_NAMES)}"
        ) from None
    params = inspect.signature(factory).parameters
    unknown = sorted(set(knobs) - set(params))
    if unknown:
        takes = ", ".join(p for p in params if p != "seed")
        raise ValueError(f"preset {name!r} takes no knob {unknown[0]!r}; "
                         f"its knobs are {takes}")
    if "seed" in params:
        knobs["seed"] = seed
    return factory(**knobs)


def table1() -> Instance:
    """Two-treatment example separating bottleneck and joint pass criteria.

    Treatment 1 modestly beats the control in both metrics; treatment 2 is
    slightly worse in metric 1 (hidden by a large variance) and far better in
    metric 2, which gives it the higher *joint* pass probability even though
    its bottleneck metric is the weaker one.
    """
    cfg = ValidationConfig.bayesian([0.67, 0.67], [10.0, 10.0], 100)
    means = np.array([[0.0, 0.0], [0.6, 0.6], [-0.2, 6.0]])
    stddevs = np.array([[10.0, 10.0], [10.0, 10.0], [30.0, 10.0]])
    return Instance(means=means, stddevs=stddevs, validation=cfg)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def _validation_payload(cfg: ValidationConfig) -> dict:
    if cfg.variant == NON_BAYESIAN:
        return {"variant": cfg.variant, "delta": cfg.delta.tolist(),
                "horizon": cfg.horizon}
    return {"variant": cfg.variant, "q": cfg.q.tolist(),
            "tau": cfg.tau.tolist(), "horizon": cfg.horizon}


def to_payload(instance: Instance) -> dict:
    """The JSON-serializable document for an instance (schema above)."""
    return {
        "format": FORMAT_VERSION,
        "num_treatments": instance.num_treatments,
        "num_metrics": instance.num_metrics,
        "means": instance.means.tolist(),
        "stddevs": instance.stddevs.tolist(),
        "validation": _validation_payload(instance.validation),
    }


def save(instance: Instance, path) -> None:
    """Write the instance to ``path`` as a format-1 JSON document."""
    text = json.dumps(to_payload(instance), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _require(doc: dict, key: str, prefix: str = ""):
    if key not in doc:
        raise SchemaError("missing required field", prefix + key)
    return doc[key]


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError("expected an integer", field)
    return value


def _as_matrix(value, rows: int, cols: int, field: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != rows:
        raise SchemaError(f"expected a list of {rows} rows", field)
    return np.array([_as_vector(row, cols, f"{field}[{r}]")
                     for r, row in enumerate(value)])


def _as_vector(value, n: int, field: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(f"expected a list of {n} numbers", field)
    out = np.empty(n, dtype=float)
    for k, entry in enumerate(value):
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise SchemaError("expected a number", f"{field}[{k}]")
        out[k] = float(entry)
    return out


def _validation_from_payload(doc, m: int) -> ValidationConfig:
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", "validation")
    variant = _require(doc, "variant", "validation.")
    if variant not in (NON_BAYESIAN, BAYESIAN):
        raise SchemaError(
            f"expected {NON_BAYESIAN!r} or {BAYESIAN!r}, got {variant!r}",
            "validation.variant")
    horizon = _as_int(_require(doc, "horizon", "validation."),
                      "validation.horizon")
    try:
        if variant == NON_BAYESIAN:
            delta = _as_vector(_require(doc, "delta", "validation."), m,
                               "validation.delta")
            return ValidationConfig.non_bayesian(delta, horizon)
        q = _as_vector(_require(doc, "q", "validation."), m, "validation.q")
        tau = _as_vector(_require(doc, "tau", "validation."), m,
                         "validation.tau")
        return ValidationConfig.bayesian(q, tau, horizon)
    except ValueError as err:
        raise SchemaError(str(err), "validation") from err


def from_payload(doc) -> Instance:
    """Parse a format-1 document, reporting violations with field paths."""
    if not isinstance(doc, dict):
        raise SchemaError("expected a JSON object", "document")
    version = doc.get("format", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported format version {version!r}", "format")
    a = _as_int(_require(doc, "num_treatments"), "num_treatments")
    m = _as_int(_require(doc, "num_metrics"), "num_metrics")
    if a < 1:
        raise SchemaError("must be at least 1", "num_treatments")
    if m < 1:
        raise SchemaError("must be at least 1", "num_metrics")
    means_raw = _require(doc, "means")
    stddevs_raw = _require(doc, "stddevs")
    if isinstance(means_raw, list) and len(means_raw) != a + 1:
        raise SchemaError(
            f"expected {a + 1} rows (control plus num_treatments), "
            f"got {len(means_raw)}", "num_treatments")
    means = _as_matrix(means_raw, a + 1, m, "means")
    stddevs = _as_matrix(stddevs_raw, a + 1, m, "stddevs")
    if not np.all(np.isfinite(means)):
        raise SchemaError("entries must be finite", "means")
    if not np.all(np.isfinite(stddevs)) or np.any(stddevs <= 0.0):
        raise SchemaError("entries must be finite and strictly positive",
                          "stddevs")
    validation = _validation_from_payload(_require(doc, "validation"), m)
    try:
        return Instance(means=means, stddevs=stddevs, validation=validation)
    except ValueError as err:
        raise SchemaError(str(err), "document") from err


def load(path) -> Instance:
    """Read an instance from a format-1 JSON file written by ``save``."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"not valid JSON: {err}", "document") from err
    return from_payload(doc)
