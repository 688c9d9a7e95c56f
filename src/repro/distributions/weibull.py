"""Weibull distribution."""

from __future__ import annotations

import numpy as np

from repro.distributions.base import Distribution
from repro.exceptions import ModelValidationError

__all__ = ["Weibull"]


def _gamma(x: float) -> float:
    from scipy.special import gamma

    return float(gamma(x))


class Weibull(Distribution):
    """Weibull with shape ``k > 0`` and scale ``lam > 0``.

    ``E[X^n] = lam^n * Gamma(1 + n/k)``. Shape below 1 gives a
    decreasing hazard (heavy-ish tail), above 1 an increasing hazard.
    """

    block_sampling_safe = True

    def __init__(self, k: float, lam: float):
        if k <= 0.0 or not np.isfinite(k):
            raise ModelValidationError(f"Weibull shape must be positive and finite, got {k}")
        if lam <= 0.0 or not np.isfinite(lam):
            raise ModelValidationError(f"Weibull scale must be positive and finite, got {lam}")
        self.k = float(k)
        self.lam = float(lam)

    @classmethod
    def from_mean(cls, mean: float, k: float) -> "Weibull":
        """Weibull with the given mean and shape."""
        if mean <= 0.0:
            raise ModelValidationError(f"mean must be positive, got {mean}")
        lam = mean / _gamma(1.0 + 1.0 / k)
        return cls(k=k, lam=lam)

    @property
    def mean(self) -> float:
        return self.lam * _gamma(1.0 + 1.0 / self.k)

    @property
    def second_moment(self) -> float:
        return self.lam**2 * _gamma(1.0 + 2.0 / self.k)

    @property
    def third_moment(self) -> float:
        return self.lam**3 * _gamma(1.0 + 3.0 / self.k)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return self.lam * rng.weibull(self.k, size=size)

    def scaled(self, factor: float) -> "Weibull":
        """Scaling rescales lambda (family is closed)."""
        if factor <= 0.0 or not np.isfinite(factor):
            raise ModelValidationError(f"scale factor must be positive and finite, got {factor}")
        return Weibull(k=self.k, lam=self.lam * factor)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Weibull(k={self.k:.6g}, lam={self.lam:.6g})"
