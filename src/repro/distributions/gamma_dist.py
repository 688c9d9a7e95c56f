"""Gamma distribution (continuous-shape generalization of Erlang)."""

from __future__ import annotations

import numpy as np

from repro.distributions.base import Distribution, float_square
from repro.exceptions import ModelValidationError

__all__ = ["Gamma"]


class Gamma(Distribution):
    """Gamma with shape ``k > 0`` and rate ``rate > 0``.

    Mean ``k / rate``, SCV ``1 / k`` — spans the full low-variability
    band with a continuous shape parameter, unlike Erlang's integer
    stages.
    """

    block_sampling_safe = True

    def __init__(self, k: float, rate: float):
        if k <= 0.0 or not np.isfinite(k):
            raise ModelValidationError(f"Gamma shape must be positive and finite, got {k}")
        if rate <= 0.0 or not np.isfinite(rate):
            raise ModelValidationError(f"Gamma rate must be positive and finite, got {rate}")
        self.k = float(k)
        self.rate = float(rate)

    @classmethod
    def from_mean_scv(cls, mean: float, scv: float) -> "Gamma":
        """Gamma matching ``(mean, scv)`` exactly (``k = 1/scv``)."""
        if mean <= 0.0 or scv <= 0.0:
            raise ModelValidationError(f"mean and scv must be positive, got mean={mean}, scv={scv}")
        k = 1.0 / scv
        return cls(k=k, rate=k / mean)

    @staticmethod
    def moments(k, rate):
        """Mean and second moment of shape(s) ``k`` at rate(s) ``rate``,
        computed as the properties compute them (array form of both)."""
        return k / rate, k * (k + 1.0) / float_square(rate)

    @classmethod
    def moment_scaler(cls, dists, depth):
        k = np.array([d.k for d in dists])
        rates = np.array([d.rate for d in dists])

        def scaled(*factors):
            r = rates
            for f in factors:
                r = r / np.asarray(f, dtype=float)[..., None]
            return cls.moments(k, r)

        return scaled

    @property
    def mean(self) -> float:
        return self.k / self.rate

    @property
    def second_moment(self) -> float:
        return self.k * (self.k + 1.0) / self.rate**2

    @property
    def third_moment(self) -> float:
        return self.k * (self.k + 1.0) * (self.k + 2.0) / self.rate**3

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.gamma(shape=self.k, scale=1.0 / self.rate, size=size)

    def scaled(self, factor: float) -> "Gamma":
        """Scaling a Gamma rescales its rate (family is closed)."""
        if factor <= 0.0 or not np.isfinite(factor):
            raise ModelValidationError(f"scale factor must be positive and finite, got {factor}")
        return Gamma(k=self.k, rate=self.rate / factor)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gamma(k={self.k:.6g}, rate={self.rate:.6g})"
