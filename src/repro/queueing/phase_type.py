"""Phase-type distributions and the exact M/PH/1 waiting time.

A phase-type (PH) distribution is the absorption time of a transient
Markov chain — representation ``(α, T)`` with initial row vector ``α``
over the transient phases and sub-generator ``T``. PH is dense in the
non-negative distributions and *closed under the operations queueing
needs*: mixtures, convolutions, equilibrium (stationary-excess)
transforms and geometric compounds. That closure yields the classic
exact result used here:

**M/PH/1 FCFS waiting time.** With Poisson arrivals at rate ``λ`` and
PH(α, T) service (mean ``m``, ``ρ = λ m < 1``), the stationary wait is
zero with probability ``1 − ρ`` and otherwise PH distributed:

    P(W > x) = ρ · α_e · exp((T + ρ t α_e) x) · 1,

where ``t = −T·1`` (absorption rates) and ``α_e = α(−T)^{-1} / m`` is
the equilibrium initial vector. This follows from the
Pollaczek–Khinchine representation of ``W`` as a geometric(ρ) compound
of equilibrium service times. For exponential service it collapses to
the textbook ``ρ e^{−(μ−λ)x}``.

The FCFS *sojourn* ``W + S`` is then the convolution of two PH
representations — again PH. These exact tails upgrade the percentile
machinery for FCFS tiers (the hypoexponential approximation remains
the tool for priority tiers, where no finite PH form exists).
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import Distribution, ScaledDistribution
from repro.distributions.erlang import Erlang
from repro.distributions.exponential import Exponential
from repro.distributions.gamma_dist import Gamma
from repro.distributions.hyperexponential import HyperExponential
from repro.distributions.mixture import Mixture
from repro.exceptions import ModelValidationError, UnstableSystemError

__all__ = [
    "PhaseType",
    "as_phase_type",
    "mph1_waiting_time",
    "mph1_sojourn",
    "mmc_sojourn_ph",
]


class PhaseType:
    """A phase-type distribution PH(α, T).

    Parameters
    ----------
    alpha:
        Initial probability row vector over the transient phases;
        ``sum(alpha) <= 1`` (any deficit is an atom at zero).
    T:
        Sub-generator: negative diagonal, non-negative off-diagonal,
        row sums ``<= 0`` with strict inequality somewhere reachable
        (absorption must be certain).
    """

    def __init__(self, alpha: np.ndarray, T: np.ndarray):
        a = np.atleast_1d(np.asarray(alpha, dtype=float))
        t = np.atleast_2d(np.asarray(T, dtype=float))
        if a.ndim != 1 or t.shape != (a.size, a.size) or a.size == 0:
            raise ModelValidationError(
                f"need alpha (d,) and T (d, d); got {a.shape} and {t.shape}"
            )
        if np.any(a < -1e-12) or a.sum() > 1.0 + 1e-9:
            raise ModelValidationError(f"alpha must be a (sub)probability vector, got {a}")
        if np.any(np.diag(t) >= 0.0):
            raise ModelValidationError("T must have a strictly negative diagonal")
        off = t - np.diag(np.diag(t))
        if np.any(off < -1e-12):
            raise ModelValidationError("T must have non-negative off-diagonal entries")
        if np.any(t.sum(axis=1) > 1e-9):
            raise ModelValidationError("T row sums must be non-positive")
        self.alpha = np.clip(a, 0.0, None)
        self.T = t

    # -- basic quantities ----------------------------------------------------
    @property
    def order(self) -> int:
        """Number of transient phases."""
        return self.alpha.size

    @property
    def exit_rates(self) -> np.ndarray:
        """Absorption rate out of each phase: ``t = −T·1``."""
        return -self.T.sum(axis=1)

    def moment(self, n: int) -> float:
        """Raw moment ``E[X^n] = n! · α (−T)^{-n} 1``."""
        if n < 1:
            raise ModelValidationError(f"moment order must be >= 1, got {n}")
        inv = np.linalg.inv(-self.T)
        vec = self.alpha @ np.linalg.matrix_power(inv, n)
        return float(_factorial(n) * vec.sum())

    @property
    def mean(self) -> float:
        """First moment."""
        return self.moment(1)

    def survival(self, x: float | np.ndarray) -> float | np.ndarray:
        """``P(X > x) = α exp(T x) 1`` (plus nothing for the zero atom)."""
        from scipy.linalg import expm

        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(xs.shape)
        for i, xi in enumerate(xs):
            if xi <= 0.0:
                out[i] = float(self.alpha.sum())
            else:
                out[i] = float(np.clip((self.alpha @ expm(self.T * xi)).sum(), 0.0, 1.0))
        return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """``P(X <= x)``."""
        s = self.survival(x)
        return 1.0 - s

    def quantile(self, p: float, tol: float = 1e-10) -> float:
        """Inverse CDF by bracketing + bisection on the survival."""
        if not 0.0 < p < 1.0:
            raise ModelValidationError(f"quantile level must be in (0, 1), got {p}")
        atom = 1.0 - float(self.alpha.sum())
        if p <= atom:
            return 0.0
        target = 1.0 - p
        hi = max(self.mean, 1e-12)
        for _ in range(200):
            if self.survival(hi) < target:
                break
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo <= tol * max(hi, 1.0):
                break
            if self.survival(mid) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # -- closure operations ----------------------------------------------------
    def equilibrium(self) -> "PhaseType":
        """Stationary-excess (equilibrium) distribution:
        PH(α_e, T) with ``α_e = α(−T)^{-1} / mean``."""
        inv = np.linalg.inv(-self.T)
        alpha_e = (self.alpha @ inv) / self.mean
        return PhaseType(alpha_e, self.T)

    def convolve(self, other: "PhaseType") -> "PhaseType":
        """Distribution of the independent sum ``X + Y``.

        Standard block construction: run this chain, then on absorption
        start the other with its initial vector.
        """
        d1, d2 = self.order, other.order
        alpha = np.concatenate([self.alpha, (1.0 - self.alpha.sum()) * other.alpha])
        top = np.hstack([self.T, np.outer(self.exit_rates, other.alpha)])
        bottom = np.hstack([np.zeros((d2, d1)), other.T])
        return PhaseType(alpha, np.vstack([top, bottom]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PhaseType(order={self.order}, mean={self.mean:.6g})"


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def as_phase_type(dist: Distribution) -> PhaseType | None:
    """Exact PH representation of a distribution, or ``None`` when the
    family has no finite PH form (deterministic, lognormal, Pareto,
    Weibull, non-integer-shape gamma).

    Supported exactly: exponential, Erlang, hyperexponential,
    integer-shape gamma, scaled versions thereof, and mixtures of
    supported components.
    """
    if isinstance(dist, Exponential):
        return PhaseType(np.array([1.0]), np.array([[-dist.rate]]))
    if isinstance(dist, Erlang):
        return _erlang_ph(dist.k, dist.rate)
    if isinstance(dist, Gamma):
        k = dist.k
        if abs(k - round(k)) < 1e-12 and k >= 1.0:
            return _erlang_ph(int(round(k)), dist.rate)
        return None
    if isinstance(dist, HyperExponential):
        d = dist.rates.size
        return PhaseType(dist.probs.copy(), np.diag(-dist.rates))
    if isinstance(dist, ScaledDistribution):
        base = as_phase_type(dist.base)
        if base is None:
            return None
        # Scaling time by c divides every rate by c.
        return PhaseType(base.alpha, base.T / dist.factor)
    if isinstance(dist, Mixture):
        parts = [as_phase_type(c) for c in dist.components]
        if any(p is None for p in parts):
            return None
        alpha = np.concatenate([p * part.alpha for p, part in zip(dist.probs, parts)])
        dims = [part.order for part in parts]
        T = np.zeros((sum(dims), sum(dims)))
        pos = 0
        for part, d in zip(parts, dims):
            T[pos : pos + d, pos : pos + d] = part.T
            pos += d
        return PhaseType(alpha, T)
    return None


def _erlang_ph(k: int, rate: float) -> PhaseType:
    alpha = np.zeros(k)
    alpha[0] = 1.0
    T = np.diag(np.full(k, -rate)) + np.diag(np.full(k - 1, rate), 1)
    return PhaseType(alpha, T)


def mph1_waiting_time(lam: float, service: Distribution) -> PhaseType:
    """Exact stationary FCFS waiting time of the M/PH/1 queue.

    Returns a :class:`PhaseType` whose zero atom carries probability
    ``1 − ρ`` (``alpha`` sums to ``ρ``).

    Raises
    ------
    ModelValidationError
        If the service distribution has no exact PH representation.
    UnstableSystemError
        If ``ρ >= 1``.
    """
    ph = as_phase_type(service)
    if ph is None:
        raise ModelValidationError(
            f"{type(service).__name__} has no exact phase-type representation; "
            "use the two-moment hypoexponential approximation instead"
        )
    rho = lam * ph.mean
    if rho >= 1.0:
        raise UnstableSystemError(f"M/PH/1 unstable: rho = {rho:.6g}", utilization=rho)
    eq = ph.equilibrium()
    # Geometric(rho) compound of equilibrium services: on absorption,
    # restart with probability rho.
    S = ph.T + rho * np.outer(ph.exit_rates, eq.alpha)
    return PhaseType(rho * eq.alpha, S)


def mph1_sojourn(lam: float, service: Distribution) -> PhaseType:
    """Exact stationary FCFS sojourn (wait + service) of M/PH/1."""
    wait = mph1_waiting_time(lam, service)
    svc = as_phase_type(service)
    assert svc is not None  # mph1_waiting_time already validated
    return wait.convolve(svc)


def mmc_sojourn_ph(lam: float, mu: float, c: int) -> PhaseType:
    """Exact FCFS M/M/c sojourn time as a phase-type distribution.

    The wait is ``0`` with probability ``1 − C(c, a)`` and
    ``Exp(cμ − λ)`` otherwise (exact), and is independent of the job's
    own ``Exp(μ)`` service — so the sojourn is the two-branch PH

        with prob 1 − C:   Exp(μ)
        with prob C:       Exp(cμ − λ) then Exp(μ),

    three phases in total. Collapses to the exponential M/M/1 sojourn
    at ``c = 1``.
    """
    from repro.queueing.mmc import MMc

    q = MMc(lam=lam, mu=mu, c=c)  # validates inputs & stability
    pw = q.prob_wait
    drain = c * mu - lam
    alpha = np.array([pw, 1.0 - pw, 0.0])
    T = np.array(
        [
            [-drain, 0.0, drain],  # waiting phase, then service
            [0.0, -mu, 0.0],       # straight to service (no wait)
            [0.0, 0.0, -mu],       # service after waiting
        ]
    )
    return PhaseType(alpha, T)
