"""Two-moment distribution fitting.

The experiment harness specifies service demands as ``(mean, scv)``
pairs; this module maps each pair to the textbook matching family:

* ``scv == 0``      → :class:`Deterministic`
* ``0 < scv < 1``   → :class:`Gamma` (exact continuous-shape match)
* ``scv == 1``      → :class:`Exponential`
* ``scv > 1``       → balanced-means :class:`HyperExponential` (H2)

All fits are exact in both moments, so analytic formulas that depend
only on ``(mean, E[S^2])`` are insensitive to the family choice — the
simulation experiments probe the residual higher-moment sensitivity.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import Distribution, float_square
from repro.distributions.deterministic import Deterministic
from repro.distributions.exponential import Exponential
from repro.distributions.gamma_dist import Gamma
from repro.distributions.hyperexponential import HyperExponential
from repro.exceptions import ModelValidationError

__all__ = ["fit_two_moments", "fitted_moments"]

_SCV_TOL = 1e-12


def fit_two_moments(mean: float, scv: float) -> Distribution:
    """Return a distribution with exactly the requested mean and SCV.

    Parameters
    ----------
    mean:
        Target first moment, must be positive.
    scv:
        Target squared coefficient of variation, must be non-negative.

    Returns
    -------
    Distribution
        Deterministic, Gamma, Exponential or balanced-means H2
        depending on the SCV band (see module docstring).

    Raises
    ------
    ModelValidationError
        If ``mean <= 0`` or ``scv < 0``.
    """
    if mean <= 0.0:
        raise ModelValidationError(f"mean must be positive, got {mean}")
    if scv < 0.0:
        raise ModelValidationError(f"scv must be non-negative, got {scv}")
    band = int(_bands(np.float64(scv)))
    if band == 0:
        return Deterministic(mean)
    if band == 1:
        return Exponential.from_mean(mean)
    if band == 2:
        return Gamma.from_mean_scv(mean, scv)
    return HyperExponential.balanced_from_mean_scv(mean, scv)


def _bands(scv: np.ndarray) -> np.ndarray:
    """The SCV band fit_two_moments fits for every element: 0
    deterministic, 1 exponential, 2 gamma, 3 H2 (and ``nan``)."""
    return np.where(
        scv <= _SCV_TOL, 0, np.where(np.abs(scv - 1.0) <= _SCV_TOL, 1, np.where(scv < 1.0, 2, 3))
    )


def fitted_moments(mean, scv, factor=None):
    """Array replay of :func:`fit_two_moments` and the moments read back.

    For every row ``j``, with ``d = fit_two_moments(mean[j], scv[j])``,
    returns ``(d.mean, d.second_moment, d.scv, scaled_mean,
    scaled_second_moment)``, each ``(n,)``, where the last two are the
    moments of ``d.scaled(factor[j])`` (``None`` without a ``factor``;
    a scalar ``factor`` applies to every row) — bit for bit, SCV band by
    SCV band. Reading moments back through the fitted family matters:
    its mean and SCV need not be the requested ones to the last bit.
    """
    mean = np.asarray(mean, dtype=float)
    scv = np.asarray(scv, dtype=float)
    bands = _bands(scv)
    kinds = [band for band in range(len(_REPLAYS)) if (bands == band).any()]
    if len(kinds) == 1:
        return _REPLAYS[kinds[0]](mean, scv, factor)
    factor = None if factor is None else np.broadcast_to(factor, mean.shape)
    out = [np.empty(mean.shape) for _ in range(3 if factor is None else 5)]
    for band in kinds:
        rows = bands == band
        moments = _REPLAYS[band](mean[rows], scv[rows], None if factor is None else factor[rows])
        for column, m in zip(out, moments):
            column[rows] = m
    return tuple(out) + ((None, None) if factor is None else ())


def _with_scv(m, m2, scaled):
    # Distribution.scv: max(E[X^2] - E[X]**2, 0.0) / E[X]**2 (means > 0).
    sq = float_square(m)
    var = m2 - sq
    var = np.where(0.0 > var, 0.0, var)
    return (m, m2, var / sq) + (scaled if scaled is not None else (None, None))


def _det_fit(mean, scv, factor):
    scaled = None if factor is None else Deterministic.moments(mean * factor)
    return _with_scv(*Deterministic.moments(mean), scaled)


def _exp_fit(mean, scv, factor):
    rate = 1.0 / mean
    scaled = None if factor is None else Exponential.moments(rate / factor)
    return _with_scv(*Exponential.moments(rate), scaled)


def _gamma_fit(mean, scv, factor):
    k = 1.0 / scv
    rate = k / mean
    scaled = None if factor is None else Gamma.moments(k, rate / factor)
    return _with_scv(*Gamma.moments(k, rate), scaled)


def _h2_fit(mean, scv, factor):
    # HyperExponential.balanced_from_mean_scv, branches on the last axis,
    # then the constructor's renormalization (again at every scaled()).
    p1 = 0.5 * (1.0 + np.sqrt((scv - 1.0) / (scv + 1.0)))[:, None]
    # Two branches: each .sum(axis=-1) of the properties is one add.
    probs = np.concatenate([p1, 1.0 - p1], axis=-1)
    rates = 2.0 * probs / mean[:, None]
    probs = probs / (probs[:, :1] + probs[:, 1:])
    scaled = None
    if factor is not None:
        scaled = HyperExponential.moments(
            probs / (probs[:, :1] + probs[:, 1:]),
            rates / np.asarray(factor, dtype=float)[..., None],
        )
    return _with_scv(*HyperExponential.moments(probs, rates), scaled)


_REPLAYS = (_det_fit, _exp_fit, _gamma_fit, _h2_fit)
