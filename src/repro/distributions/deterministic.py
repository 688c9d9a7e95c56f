"""Deterministic (constant) distribution.

A degenerate distribution with SCV 0 — the low-variability extreme used
in the M/G/1 experiments to show how the Pollaczek–Khinchine waiting
time halves relative to exponential service.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import Distribution, float_square
from repro.exceptions import ModelValidationError

__all__ = ["Deterministic"]


class Deterministic(Distribution):
    """Point mass at ``value >= 0``.

    Examples
    --------
    >>> Deterministic(3.0).scv
    0.0
    """

    block_sampling_safe = True

    def __init__(self, value: float):
        if value < 0.0 or not np.isfinite(value):
            raise ModelValidationError(f"Deterministic value must be non-negative and finite, got {value}")
        self.value = float(value)

    @staticmethod
    def moments(value):
        """Mean and second moment of the constant(s) ``value``, computed
        as the properties compute them (array form of both)."""
        return value, float_square(value)

    @classmethod
    def moment_scaler(cls, dists, depth):
        values = np.array([d.value for d in dists])

        def scaled(*factors):
            v = values
            for f in factors:
                v = v * np.asarray(f, dtype=float)[..., None]
            return cls.moments(v)

        return scaled

    @property
    def mean(self) -> float:
        return self.value

    @property
    def second_moment(self) -> float:
        return self.value**2

    @property
    def third_moment(self) -> float:
        return self.value**3

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    def scaled(self, factor: float) -> "Deterministic":
        """A scaled constant is a constant."""
        if factor <= 0.0 or not np.isfinite(factor):
            raise ModelValidationError(f"scale factor must be positive and finite, got {factor}")
        return Deterministic(self.value * factor)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deterministic({self.value:.6g})"
