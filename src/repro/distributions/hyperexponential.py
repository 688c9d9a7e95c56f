"""Hyperexponential distribution (probabilistic mixture of exponentials).

The standard model for high-variability service demands (``scv > 1``):
a request is "small" with probability ``p_1`` and "large" with
probability ``p_2``, each branch exponentially distributed. Enterprise
request mixes — the paper's motivating workload — are classically
hyperexponential.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.distributions.base import Distribution
from repro.exceptions import ModelValidationError

__all__ = ["HyperExponential"]


def _branch_sum(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=-1)``, bit for bit: two branches are one add,
    which a reduction over a length-2 axis costs far more than."""
    if terms.shape[-1] == 2:
        return terms[..., 0] + terms[..., 1]
    return terms.sum(axis=-1)


class HyperExponential(Distribution):
    """Mixture of exponentials: with probability ``probs[i]`` the sample
    is ``Exp(rates[i])``.

    Parameters
    ----------
    probs:
        Branch probabilities; must be positive and sum to 1 (within
        1e-9, then renormalized exactly).
    rates:
        Branch rates, same length as ``probs``, all positive.
    """

    def __init__(self, probs: Sequence[float], rates: Sequence[float]):
        probs_arr = np.asarray(probs, dtype=float)
        rates_arr = np.asarray(rates, dtype=float)
        if probs_arr.ndim != 1 or probs_arr.shape != rates_arr.shape or probs_arr.size == 0:
            raise ModelValidationError("probs and rates must be equal-length non-empty 1-D sequences")
        if np.any(probs_arr <= 0.0):
            raise ModelValidationError(f"branch probabilities must be positive, got {probs_arr}")
        if abs(probs_arr.sum() - 1.0) > 1e-9:
            raise ModelValidationError(f"branch probabilities must sum to 1, got {probs_arr.sum()}")
        if np.any(rates_arr <= 0.0) or not np.all(np.isfinite(rates_arr)):
            raise ModelValidationError(f"branch rates must be positive and finite, got {rates_arr}")
        self.probs = probs_arr / probs_arr.sum()
        self.rates = rates_arr
        # Precomputed branch CDF and scales for the engines' draws:
        # Generator.choice(n, p=p) internally draws one uniform double
        # and inverts the normalized cumsum of p, so searchsorted on the
        # same cumsum consumes the bit stream identically — without
        # choice()'s per-call setup (validation, pop-size checks, array
        # boxing), which dominated profiles of hyperexponential-heavy
        # simulations.
        cdf = self.probs.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf
        self._scales = (1.0 / self.rates).tolist()

    @classmethod
    def balanced_from_mean_scv(cls, mean: float, scv: float) -> "HyperExponential":
        """Two-branch H2 with balanced means matching ``(mean, scv)``.

        The *balanced means* condition ``p1/rate1 == p2/rate2`` pins
        down the third degree of freedom; requires ``scv >= 1``.
        This is the textbook two-moment fit used throughout the
        experiment harness for high-variability demands.
        """
        if mean <= 0.0:
            raise ModelValidationError(f"mean must be positive, got {mean}")
        if scv < 1.0:
            raise ModelValidationError(f"H2 balanced-means fit requires scv >= 1, got {scv}")
        if scv == 1.0:
            # Degenerates to exponential; keep two identical branches so
            # the type is uniform for callers.
            return cls(probs=[0.5, 0.5], rates=[1.0 / mean, 1.0 / mean])
        root = np.sqrt((scv - 1.0) / (scv + 1.0))
        p1 = 0.5 * (1.0 + root)
        p2 = 1.0 - p1
        rate1 = 2.0 * p1 / mean
        rate2 = 2.0 * p2 / mean
        return cls(probs=[p1, p2], rates=[rate1, rate2])

    @staticmethod
    def moments(probs, rates):
        """Mean and second moment of branch ``probs`` and ``rates``
        (the branches on the last axis), computed as the properties
        compute them (array form of both)."""
        return _branch_sum(probs / rates), _branch_sum(2.0 * probs / rates**2)

    @classmethod
    def moment_scaler(cls, dists, depth):
        if len({d.rates.size for d in dists}) != 1:
            return super().moment_scaler(dists, depth)
        rates = np.array([d.rates for d in dists])
        # Every scaled() renormalizes the branch probabilities, so the
        # probabilities after ``depth`` scalings are fixed up front.
        probs = np.array([d.probs for d in dists])
        for _ in range(depth):
            probs = probs / probs.sum(axis=-1, keepdims=True)

        def scaled(*factors):
            r = rates
            for f in factors:
                r = r / np.asarray(f, dtype=float)[..., None, None]
            return cls.moments(probs, r)

        return scaled

    @property
    def mean(self) -> float:
        return float(np.sum(self.probs / self.rates))

    @property
    def second_moment(self) -> float:
        return float(np.sum(2.0 * self.probs / self.rates**2))

    @property
    def third_moment(self) -> float:
        return float(np.sum(6.0 * self.probs / self.rates**3))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            # Scalar fast path: branch choice by CDF inversion (one
            # uniform) then scale * standard exponential — both steps
            # bit-identical to choice(p=probs) + exponential(scale=...)
            # while skipping their per-call overhead.
            branch = int(self._cdf.searchsorted(rng.random(), side="right"))
            return self._scales[branch] * rng.standard_exponential()
        branches = rng.choice(self.rates.size, p=self.probs, size=size)
        return rng.exponential(scale=1.0 / self.rates[branches])

    def scaled(self, factor: float) -> "HyperExponential":
        """Scaling rescales every branch rate (family is closed)."""
        if factor <= 0.0 or not np.isfinite(factor):
            raise ModelValidationError(f"scale factor must be positive and finite, got {factor}")
        return HyperExponential(probs=self.probs.tolist(), rates=(self.rates / factor).tolist())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HyperExponential(probs={self.probs.tolist()}, rates={self.rates.tolist()})"
