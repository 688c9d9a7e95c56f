"""Exponential distribution — the memoryless workhorse of the model.

The paper's analytic cluster model treats arrivals as Poisson (i.e.
exponential interarrival times) and, in the exact M/M/c-priority case,
service demands as exponential as well.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import Distribution, float_square
from repro.exceptions import ModelValidationError

__all__ = ["Exponential"]


class Exponential(Distribution):
    """Exponential distribution with rate ``rate`` (mean ``1 / rate``).

    Parameters
    ----------
    rate:
        The rate parameter ``λ > 0``.

    Examples
    --------
    >>> d = Exponential(rate=2.0)
    >>> d.mean
    0.5
    >>> round(d.scv, 12)
    1.0
    """

    block_sampling_safe = True

    def __init__(self, rate: float):
        if rate <= 0.0 or not np.isfinite(rate):
            raise ModelValidationError(f"Exponential rate must be positive and finite, got {rate}")
        self.rate = float(rate)

    @classmethod
    def from_mean(cls, mean: float) -> "Exponential":
        """Construct from the mean instead of the rate."""
        if mean <= 0.0 or not np.isfinite(mean):
            raise ModelValidationError(f"Exponential mean must be positive and finite, got {mean}")
        return cls(rate=1.0 / mean)

    @staticmethod
    def moments(rate):
        """Mean and second moment at rate(s) ``rate``, computed as the
        properties compute them (array form of both)."""
        return 1.0 / rate, 2.0 / float_square(rate)

    @classmethod
    def moment_scaler(cls, dists, depth):
        rates = np.array([d.rate for d in dists])

        def scaled(*factors):
            r = rates
            for f in factors:
                r = r / np.asarray(f, dtype=float)[..., None]
            return cls.moments(r)

        return scaled

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def second_moment(self) -> float:
        return 2.0 / self.rate**2

    @property
    def third_moment(self) -> float:
        return 6.0 / self.rate**3

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.exponential(scale=1.0 / self.rate, size=size)

    def scaled(self, factor: float) -> "Exponential":
        """``c * Exp(rate)`` is exactly ``Exp(rate / c)``."""
        if factor <= 0.0 or not np.isfinite(factor):
            raise ModelValidationError(f"scale factor must be positive and finite, got {factor}")
        return Exponential(self.rate / factor)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Exponential(rate={self.rate:.6g})"
