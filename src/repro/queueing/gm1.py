"""The G/M/1 queue — renewal arrivals, exponential service.

The dual of M/G/1: interarrival times are i.i.d. from a general
distribution ``A``, service is ``Exp(μ)``. The classic embedded-chain
result: the number found by an arrival is geometric with parameter
``σ``, the unique root in ``(0, 1)`` of

    σ = A*(μ (1 − σ)),

where ``A*`` is the interarrival Laplace–Stieltjes transform. The
waiting time then has an atom ``1 − σ`` at zero and an
``Exp(μ (1 − σ))`` tail, giving

    E[W] = σ / (μ (1 − σ)),     E[T] = 1 / (μ (1 − σ)).

The LST is evaluated exactly for phase-type interarrivals
(``A*(s) = α (sI − T)^{-1} t``) — exponential, Erlang,
hyperexponential, mixtures — and for deterministic interarrivals
(``e^{-s a}``, the D/M/1 queue). Pair with
:class:`repro.workload.RenewalProcess` to validate by simulation:
smoother-than-Poisson arrivals (SCV < 1) wait *less* than M/M/1,
burstier (SCV > 1) wait more.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import Distribution
from repro.distributions.deterministic import Deterministic
from repro.exceptions import ModelValidationError
from repro.queueing.metrics import QueueMetrics
from repro.queueing.phase_type import as_phase_type
from repro.queueing.stability import check_stability, require_positive_rate

__all__ = ["GM1", "interarrival_lst"]


def interarrival_lst(dist: Distribution, s: float) -> float:
    """Laplace–Stieltjes transform ``E[e^{-s A}]`` of an interarrival
    distribution, exact for deterministic and phase-type families.

    Raises
    ------
    ModelValidationError
        If the family has no exact transform here (lognormal, Pareto,
        Weibull, non-integer gamma).
    """
    if s < 0.0:
        raise ModelValidationError(f"transform argument must be non-negative, got {s}")
    if isinstance(dist, Deterministic):
        return float(np.exp(-s * dist.value))
    ph = as_phase_type(dist)
    if ph is None:
        raise ModelValidationError(
            f"{type(dist).__name__} has no exact LST here; use a phase-type or "
            "deterministic interarrival distribution"
        )
    d = ph.order
    vec = np.linalg.solve(s * np.eye(d) - ph.T, ph.exit_rates)
    return float(ph.alpha @ vec)


class GM1:
    """G/M/1 queue: renewal arrivals ``interarrival``, service ``Exp(mu)``.

    Parameters
    ----------
    interarrival:
        Interarrival distribution (phase-type or deterministic).
    mu:
        Exponential service rate.
    """

    def __init__(self, interarrival: Distribution, mu: float):
        if not isinstance(interarrival, Distribution):
            raise ModelValidationError(
                f"interarrival must be a Distribution, got {type(interarrival).__name__}"
            )
        self.mu = require_positive_rate(mu, "service rate")
        self.interarrival = interarrival
        self.lam = 1.0 / interarrival.mean
        self.rho = check_stability(self.lam / self.mu, where="G/M/1")
        self.sigma = self._solve_sigma()

    def _solve_sigma(self) -> float:
        """Root of ``sigma = A*(mu (1 - sigma))`` in (0, 1).

        ``f(x) = A*(μ(1−x)) − x`` satisfies ``f(0) = A*(μ) > 0`` and
        ``f(1) = 0``; stability (ρ < 1) makes the interior root unique
        and ``f`` crosses from + to − before 1.
        """
        from scipy.optimize import brentq

        def f(x: float) -> float:
            return interarrival_lst(self.interarrival, self.mu * (1.0 - x)) - x

        # Bracket away from the trivial root at 1.
        hi = 1.0 - 1e-12
        if f(hi) >= 0.0:  # pragma: no cover - only at rho -> 1
            return hi
        return float(brentq(f, 0.0, hi, xtol=1e-14, rtol=1e-12))

    @property
    def mean_wait(self) -> float:
        """``E[W] = σ / (μ (1 − σ))``."""
        return self.sigma / (self.mu * (1.0 - self.sigma))

    @property
    def mean_sojourn(self) -> float:
        """``E[T] = 1 / (μ (1 − σ))``."""
        return 1.0 / (self.mu * (1.0 - self.sigma))

    @property
    def prob_wait(self) -> float:
        """An arrival finds the server busy with probability ``σ``."""
        return self.sigma

    @property
    def mean_number_in_system(self) -> float:
        """``L = λ E[T]`` (Little)."""
        return self.lam * self.mean_sojourn

    def metrics(self) -> QueueMetrics:
        """All mean metrics bundled."""
        return QueueMetrics.from_waits(self.lam, self.rho, self.mean_wait, 1.0 / self.mu)

    def sojourn_quantile(self, p: float) -> float:
        """The sojourn is exactly ``Exp(μ (1 − σ))`` — invertible tail."""
        if not 0.0 < p < 1.0:
            raise ModelValidationError(f"quantile level must be in (0, 1), got {p}")
        return float(-np.log1p(-p) / (self.mu * (1.0 - self.sigma)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GM1({self.interarrival!r}, mu={self.mu:.6g})"
