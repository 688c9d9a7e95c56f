"""Variance-reduction estimators for simulation output analysis.

Three classical techniques, each packaged as an estimator producing a
:class:`VrEstimate` (point value + Student-t half-width + method tag):

* **Antithetic pairs** — :func:`antithetic_estimate` averages the two
  members of each negatively-correlated replication pair (produced by
  :meth:`repro.simulation.rng.RngStreams.replication_seed_pairs`) into
  one iid unit; with within-pair correlation ``r < 0`` the pair-mean
  variance is ``(1 + r)/2`` of a single replication's.
* **Control variates** — :func:`control_variate_estimate` corrects the
  simulated metric with a correlated control whose true mean is known
  *analytically* (the paper's M/G/1 model supplies it through
  :class:`repro.core.batch_eval.BatchEvaluator`):
  ``z_j = y_j - beta(c_j - mu_C)``. The optimal coefficient
  ``beta = Cov(y,c)/Var(c)`` is estimated **jackknife-style** — each
  pseudo-value uses the leave-one-out coefficient ``beta_{-j}`` — which
  removes the O(1/n) plug-in bias of estimating ``beta`` from the same
  sample it corrects.
* **CRN-paired differences** — :func:`paired_difference` gives the
  paired-t interval for a difference of two scenarios simulated under
  common random numbers (the :class:`~repro.simulation.rng.RngStreams`
  CRN contract aligns their streams replication by replication);
  :func:`independent_difference` is the Welch two-sample interval the
  pairing is measured against.

All estimators are pure functions of their input arrays — the engines
in :mod:`repro.simulation.adaptive` and
:mod:`repro.simulation.replications` own where the numbers come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.exceptions import ModelValidationError
from repro.simulation.stats import _t_quantile_df, confidence_halfwidth

__all__ = [
    "VrEstimate",
    "naive_estimate",
    "antithetic_estimate",
    "control_variate_estimate",
    "jackknife_cv_coefficients",
    "paired_difference",
    "independent_difference",
    "variance_reduction_factor",
]


@dataclass(frozen=True)
class VrEstimate:
    """A point estimate with its Student-t confidence half-width.

    ``n_units`` is the number of iid units the interval is built on —
    replications for ``naive``/``cv``, *pairs* for ``antithetic``,
    differences for ``crn-paired``. ``beta`` carries the full-sample
    control-variate coefficient for the ``cv`` method.
    """

    value: float
    halfwidth: float
    n_units: int
    method: str
    level: float = 0.95
    beta: float | None = None

    @property
    def rel_halfwidth(self) -> float:
        """Half-width relative to the point value's magnitude.

        Infinite when the half-width is undefined (fewer than two
        units) or the value is zero with a nonzero half-width — both
        mean "precision target not demonstrably met".
        """
        if not np.isfinite(self.halfwidth):
            return float("inf")
        denom = abs(self.value)
        if denom == 0.0:
            return 0.0 if self.halfwidth == 0.0 else float("inf")
        return self.halfwidth / denom

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view for telemetry and ``meta`` records."""
        return {
            "value": self.value,
            "halfwidth": self.halfwidth,
            "rel_halfwidth": self.rel_halfwidth,
            "n_units": self.n_units,
            "method": self.method,
            "level": self.level,
            "beta": self.beta,
        }


def _as_1d(values, name: str) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ModelValidationError(f"{name} must be a 1-D array, got shape {x.shape}")
    return x


def _t_estimate(
    values: np.ndarray, method: str, level: float, beta: float | None = None
) -> VrEstimate:
    n = values.size
    value = float(values.mean()) if n else float("nan")
    hw = (
        confidence_halfwidth(float(np.std(values, ddof=1)), n, level)
        if n >= 2
        else float("nan")
    )
    return VrEstimate(value=value, halfwidth=hw, n_units=n, method=method, level=level, beta=beta)


def naive_estimate(values, level: float = 0.95) -> VrEstimate:
    """Plain mean and t-interval over iid replications."""
    return _t_estimate(_as_1d(values, "values"), "naive", level)


def antithetic_estimate(primary, mirror, level: float = 0.95) -> VrEstimate:
    """Mean and t-interval over antithetic pair means.

    ``primary[j]`` and ``mirror[j]`` must come from the two members of
    antithetic pair ``j``; the iid unit is the pair mean
    ``(primary[j] + mirror[j]) / 2``.
    """
    a = _as_1d(primary, "primary")
    b = _as_1d(mirror, "mirror")
    if a.size != b.size:
        raise ModelValidationError(
            f"antithetic members must pair up, got {a.size} primaries and {b.size} mirrors"
        )
    return _t_estimate((a + b) / 2.0, "antithetic", level)


def jackknife_cv_coefficients(values, controls) -> np.ndarray:
    """Leave-one-out control-variate coefficients ``beta_{-j}``.

    ``beta_{-j} = Cov_{-j}(y, c) / Var_{-j}(c)`` computed for every
    ``j`` in one vectorized pass over the sufficient sums (no O(n^2)
    re-fit). A leave-one-out sample with (numerically) constant
    control gets ``beta_{-j} = 0`` — no correction rather than a blown
    ratio.
    """
    y = _as_1d(values, "values")
    c = _as_1d(controls, "controls")
    if y.size != c.size:
        raise ModelValidationError(
            f"values and controls must align, got {y.size} vs {c.size}"
        )
    n = y.size
    if n < 3:
        raise ModelValidationError(f"jackknife needs at least 3 observations, got {n}")
    n1 = n - 1
    mc = (c.sum() - c) / n1
    my = (y.sum() - y) / n1
    # Sum_{i != j} c_i y_i - n1 * mean_c * mean_y  (and likewise c^2).
    s_cy = (c * y).sum() - c * y - n1 * mc * my
    s_cc = (c * c).sum() - c * c - n1 * mc * mc
    scale = float(np.max(np.abs(s_cc))) or 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        betas = np.where(np.abs(s_cc) > 1e-14 * scale, s_cy / s_cc, 0.0)
    return betas


def control_variate_estimate(
    values, controls, control_mean: float, level: float = 0.95
) -> VrEstimate:
    """Control-variate corrected mean with jackknife pseudo-values.

    ``values[j]`` is the simulated metric of replication ``j``,
    ``controls[j]`` a correlated quantity from the *same* replication,
    and ``control_mean`` the control's exact (analytic) expectation.
    Each pseudo-value ``z_j = y_j - beta_{-j} (c_j - control_mean)``
    uses the coefficient fitted *without* replication ``j``, so the
    corrected mean is unbiased to O(1/n^2); the interval is the plain
    t-interval over the pseudo-values. Fewer than 3 observations fall
    back to the naive estimator (no coefficient can be cross-fitted).
    """
    y = _as_1d(values, "values")
    c = _as_1d(controls, "controls")
    if y.size != c.size:
        raise ModelValidationError(
            f"values and controls must align, got {y.size} vs {c.size}"
        )
    if not np.isfinite(control_mean):
        raise ModelValidationError(f"control mean must be finite, got {control_mean}")
    if y.size < 3:
        return naive_estimate(y, level)
    betas = jackknife_cv_coefficients(y, c)
    z = y - betas * (c - control_mean)
    # Full-sample coefficient, reported for telemetry only.
    dc = c - c.mean()
    denom = float(dc @ dc)
    beta_full = float(dc @ (y - y.mean()) / denom) if denom > 0.0 else 0.0
    return _t_estimate(z, "cv", level, beta=beta_full)


def paired_difference(values_a, values_b, level: float = 0.95) -> VrEstimate:
    """Paired-t interval for ``mean(A) - mean(B)`` under CRN.

    Replication ``j`` of both scenarios must share seed child ``j``
    (the default when both calls use the same master seed); the iid
    unit is the per-replication difference, whose variance shrinks by
    ``2 Cov(A_j, B_j)`` relative to independent sampling.
    """
    a = _as_1d(values_a, "values_a")
    b = _as_1d(values_b, "values_b")
    if a.size != b.size:
        raise ModelValidationError(
            f"paired scenarios need equal replication counts, got {a.size} vs {b.size}"
        )
    return _t_estimate(a - b, "crn-paired", level)


def independent_difference(values_a, values_b, level: float = 0.95) -> VrEstimate:
    """Welch two-sample interval for ``mean(A) - mean(B)``.

    The no-pairing baseline :func:`paired_difference` is compared
    against; uses the Welch–Satterthwaite degrees of freedom.
    """
    a = _as_1d(values_a, "values_a")
    b = _as_1d(values_b, "values_b")
    value = float(a.mean() - b.mean()) if a.size and b.size else float("nan")
    n_units = min(a.size, b.size)
    if a.size < 2 or b.size < 2:
        return VrEstimate(value, float("nan"), n_units, "independent", level)
    va = float(np.var(a, ddof=1)) / a.size
    vb = float(np.var(b, ddof=1)) / b.size
    se = float(np.sqrt(va + vb))
    if se == 0.0:
        return VrEstimate(value, 0.0, n_units, "independent", level)
    den = va**2 / (a.size - 1) + vb**2 / (b.size - 1)
    if den == 0.0:
        # Both squares underflow (variances below ~1e-154); the df is
        # scale-free, so rescale by the larger variance.
        m = max(va, vb)
        va, vb = va / m, vb / m
        den = va**2 / (a.size - 1) + vb**2 / (b.size - 1)
    df = (va + vb) ** 2 / den
    hw = _t_quantile_df(df, level) * se
    return VrEstimate(value, hw, n_units, "independent", level)


def variance_reduction_factor(baseline: VrEstimate, reduced: VrEstimate) -> float:
    """How many naive replications one variance-reduced unit is worth.

    The squared half-width ratio ``(hw_baseline / hw_reduced)^2`` —
    e.g. 4.0 means the reduced estimator needs ~4x fewer units for the
    same interval. NaN when either half-width is unusable.
    """
    if (
        not np.isfinite(baseline.halfwidth)
        or not np.isfinite(reduced.halfwidth)
        or reduced.halfwidth <= 0.0
    ):
        return float("nan")
    return float((baseline.halfwidth / reduced.halfwidth) ** 2)
