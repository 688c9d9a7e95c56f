"""Percentile end-to-end delays (beyond-the-mean SLA guarantees).

Real SLAs are often phrased as percentiles ("95% of gold requests
finish within 300 ms"), not means. Two tools support them:

**M/G/1 waiting-time variance** (Takács). The FCFS M/G/1 waiting time
satisfies

    E[W]   = λ E[S²] / (2 (1 − ρ)),
    E[W²]  = 2 E[W]² + λ E[S³] / (3 (1 − ρ)),

so the variance of the wait — and, adding an independent service time,
of the sojourn — is exact given the service distribution's first three
moments (exposed as ``Distribution.third_moment``).

**Hypoexponential end-to-end tail.** For the cluster's per-class
end-to-end delay the library uses the classic engineering
approximation (the one the author's related SLA work employs): treat
the class-``k`` sojourn at each tier visit as an *exponential* with
the analytic mean ``T_{ik}``, so the end-to-end delay is a sum of
independent exponentials — a hypoexponential (phase-type) distribution
whose survival function is evaluated exactly via the matrix
exponential of its bidiagonal generator. Percentiles come from a
bracketed root search on that survival function. For an exponential
single tier the approximation is *exact* in the FCFS M/M/1 case
(sojourn times there are exponential); experiment F7 measures its
accuracy per class against simulated percentiles for the full priority
cluster.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cluster.model import ClusterModel
from repro.core.delay import per_tier_delays
from repro.distributions.base import Distribution
from repro.exceptions import ModelValidationError
from repro.queueing.stability import check_stability
from repro.workload.classes import Workload

__all__ = [
    "mg1_wait_moments",
    "mg1_sojourn_variance",
    "hypoexponential_survival",
    "class_delay_survival",
    "class_delay_percentile",
    "all_class_percentiles",
    "all_class_percentiles_batch",
    "class_delay_percentile_ph",
]


def mg1_wait_moments(lam: float, service: Distribution) -> tuple[float, float]:
    """Exact first two moments of the FCFS M/G/1 waiting time (Takács).

    Returns ``(E[W], E[W²])``; the second moment is ``inf`` when the
    service distribution's third moment is infinite.
    """
    if not isinstance(service, Distribution):
        raise ModelValidationError(f"service must be a Distribution, got {type(service).__name__}")
    rho = check_stability(lam * service.mean, where="M/G/1")
    ew = lam * service.second_moment / (2.0 * (1.0 - rho))
    ew2 = 2.0 * ew**2 + lam * service.third_moment / (3.0 * (1.0 - rho))
    return ew, ew2


def mg1_sojourn_variance(lam: float, service: Distribution) -> float:
    """Exact variance of the FCFS M/G/1 sojourn time:
    ``Var[T] = Var[W] + Var[S]`` (wait and own service independent)."""
    ew, ew2 = mg1_wait_moments(lam, service)
    return (ew2 - ew**2) + service.variance


def hypoexponential_survival(t: float, rates: Sequence[float]) -> float:
    """``P(X₁ + ... + X_d > t)`` for independent ``X_i ~ Exp(rates[i])``.

    Evaluated through the matrix exponential of the phase-type
    generator (upper-bidiagonal), which is numerically robust for
    repeated or nearly-equal rates where the textbook partial-fraction
    formula cancels catastrophically.
    """
    from scipy.linalg import expm

    r = np.asarray(rates, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ModelValidationError("need at least one phase rate")
    if np.any(r <= 0.0) or not np.all(np.isfinite(r)):
        raise ModelValidationError(f"phase rates must be positive and finite, got {r}")
    if t <= 0.0:
        return 1.0
    d = r.size
    q = np.diag(-r)
    for i in range(d - 1):
        q[i, i + 1] = r[i]
    probs = expm(q * t)[0]
    return float(np.clip(probs.sum(), 0.0, 1.0))


def _class_phase_rates(cluster: ClusterModel, workload: Workload, k: int) -> np.ndarray:
    """One exponential phase per tier visit for class ``k``, with rate
    ``1 / T_{ik}`` (reciprocal of the analytic per-visit sojourn)."""
    if not 0 <= k < workload.num_classes:
        raise ModelValidationError(f"class index {k} out of range [0, {workload.num_classes})")
    per_tier = per_tier_delays(cluster, workload)
    visits = cluster.visit_ratios[k]
    if not np.allclose(visits, np.round(visits)):
        raise ModelValidationError(
            f"percentile delays need integer visit ratios, got {visits.tolist()}"
        )
    rates = []
    for i, delays in enumerate(per_tier):
        v = int(round(visits[i]))
        sojourn = float(delays.mean_sojourns[k])
        if v > 0 and sojourn > 0.0:
            rates.extend([1.0 / sojourn] * v)
    if not rates:
        raise ModelValidationError(f"class {k} visits no tier")
    return np.asarray(rates)


def class_delay_survival(
    cluster: ClusterModel, workload: Workload, k: int, t: float
) -> float:
    """Approximate ``P(end-to-end delay of class k > t)``."""
    return hypoexponential_survival(t, _class_phase_rates(cluster, workload, k))


def class_delay_percentile(
    cluster: ClusterModel, workload: Workload, k: int, p: float
) -> float:
    """Approximate ``p``-percentile of class ``k``'s end-to-end delay.

    Parameters
    ----------
    p:
        Percentile level in (0, 1), e.g. ``0.95``.
    """
    from scipy.optimize import brentq

    if not 0.0 < p < 1.0:
        raise ModelValidationError(f"percentile level must be in (0, 1), got {p}")
    rates = _class_phase_rates(cluster, workload, k)
    target = 1.0 - p

    def excess(t: float) -> float:
        return hypoexponential_survival(t, rates) - target

    mean = float(np.sum(1.0 / rates))
    hi = mean
    # Exponential tails decay fast: doubling finds a bracket quickly.
    for _ in range(60):
        if excess(hi) < 0.0:
            break
        hi *= 2.0
    else:  # pragma: no cover - mathematically unreachable for finite p
        raise ModelValidationError("failed to bracket the percentile")
    return float(brentq(excess, 0.0, hi, xtol=1e-12, rtol=1e-10))


def all_class_percentiles(
    cluster: ClusterModel, workload: Workload, p: float
) -> np.ndarray:
    """``p``-percentile end-to-end delay of every class (priority order)."""
    return np.array(
        [class_delay_percentile(cluster, workload, k, p) for k in range(workload.num_classes)]
    )


#: Minimum pairwise relative phase-rate gap for the partial-fraction
#: survival form; candidates below it (near-identical per-visit
#: sojourns, where the expansion cancels catastrophically) fall back to
#: the scalar matrix-exponential path.
_PF_MIN_RATE_GAP = 1e-6


def all_class_percentiles_batch(
    cluster: ClusterModel,
    workload: Workload,
    speeds: np.ndarray,
    p: float,
    servers: np.ndarray | None = None,
) -> np.ndarray:
    """``p``-percentile delays of every class for a whole speed matrix.

    Vectorized counterpart of :func:`all_class_percentiles`: for an
    ``(n, M)`` speed matrix (and optional per-candidate server counts)
    returns the ``(n, K)`` per-class percentile delays. Per-tier mean
    sojourns come from one
    :class:`repro.core.batch_eval.BatchEvaluator` pass; the
    hypoexponential survival is then evaluated in closed form via its
    partial-fraction expansion ``S(t) = Σ_i A_i e^{-r_i t}`` with
    ``A_i = Π_{j≠i} r_j / (r_j − r_i)`` and inverted by a vectorized
    bisection, all candidates at once.

    The expansion requires pairwise-distinct phase rates, so candidates
    whose rates nearly coincide — and classes with repeated tier visits
    (``v_{ik} > 1``), whose rates coincide *exactly* — fall back to the
    scalar matrix-exponential path one candidate at a time (a
    documented limitation, not an approximation: both paths evaluate
    the same survival function). Unstable candidates get ``inf``.
    """
    if not 0.0 < p < 1.0:
        raise ModelValidationError(f"percentile level must be in (0, 1), got {p}")
    from repro.core.batch_eval import BatchEvaluator

    evaluator = BatchEvaluator(cluster, workload)
    speeds_arr = np.asarray(speeds, dtype=float)
    if speeds_arr.ndim == 1:
        speeds_arr = speeds_arr[None, :]
    sojourns = evaluator.per_tier_sojourns(speeds_arr, servers)  # (n, M, K)
    visits = cluster.visit_ratios  # (K, M)
    if not np.allclose(visits, np.round(visits)):
        raise ModelValidationError(
            f"percentile delays need integer visit ratios, got {visits.tolist()}"
        )
    n = sojourns.shape[0]
    k_classes = workload.num_classes
    out = np.empty((n, k_classes))
    unstable = ~np.isfinite(sojourns[:, 0, 0])
    out[unstable] = np.inf
    stable = np.flatnonzero(~unstable)
    if stable.size == 0:
        return out
    target = 1.0 - p

    def scalar_fallback(rows: np.ndarray, k: int) -> None:
        if servers is None:
            counts = np.broadcast_to(evaluator.default_servers, speeds_arr.shape)
        else:
            counts = np.broadcast_to(np.asarray(servers, dtype=int), speeds_arr.shape)
        for j in rows:
            configured = cluster.with_servers(counts[j]).with_speeds(speeds_arr[j])
            out[j, k] = class_delay_percentile(configured, workload, k, p)

    for k in range(k_classes):
        tier_idx = [i for i in range(cluster.num_tiers) if round(visits[k, i]) > 0]
        if not tier_idx:
            raise ModelValidationError(f"class {k} visits no tier")
        counts_per_tier = [int(round(visits[k, i])) for i in tier_idx]
        if any(v > 1 for v in counts_per_tier):
            # Repeated visits mean exactly repeated rates — no
            # partial-fraction form; take the expm path per candidate.
            scalar_fallback(stable, k)
            continue
        rates = 1.0 / sojourns[np.ix_(stable, tier_idx, [k])][:, :, 0]  # (ns, d)
        d = rates.shape[1]
        if d == 1:
            out[stable, k] = -np.log(target) / rates[:, 0]
            continue
        # Pairwise relative gaps; tiny gaps cancel catastrophically.
        gap = np.abs(rates[:, :, None] - rates[:, None, :])
        gap[:, np.arange(d), np.arange(d)] = np.inf
        degenerate = gap.min(axis=(1, 2)) < _PF_MIN_RATE_GAP * rates.max(axis=1)
        good = stable[~degenerate]
        if np.any(degenerate):
            scalar_fallback(stable[degenerate], k)
        if good.size == 0:
            continue
        r = rates[~degenerate]  # (ng, d)
        # A_i = Π_{j≠i} r_j / (r_j − r_i); factors[g, i, j]. The i == j
        # diagonal divides by zero and is overwritten with 1 below.
        with np.errstate(divide="ignore", invalid="ignore"):
            factors = r[:, None, :] / (r[:, None, :] - r[:, :, None])
        factors[:, np.arange(d), np.arange(d)] = 1.0
        coeff = factors.prod(axis=2)  # (ng, d)

        def survival(t: np.ndarray) -> np.ndarray:
            return (coeff * np.exp(-r * t[:, None])).sum(axis=1)

        # Bracket by doubling from the mean, then plain bisection —
        # every candidate advances in lockstep, entirely in NumPy.
        hi = (1.0 / r).sum(axis=1)
        for _ in range(60):
            above = survival(hi) >= target
            if not np.any(above):
                break
            hi = np.where(above, 2.0 * hi, hi)
        lo = np.zeros_like(hi)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            s_mid = survival(mid)
            gt = s_mid > target
            lo = np.where(gt, mid, lo)
            hi = np.where(gt, hi, mid)
        out[good, k] = 0.5 * (lo + hi)
    return out


def class_delay_percentile_ph(
    cluster: ClusterModel, workload: Workload, k: int, p: float
) -> float:
    """Exact-per-tier percentile for all-FCFS, phase-type clusters.

    When every tier runs FCFS with phase-type-representable service
    (exponential, Erlang, hyperexponential, mixtures), the per-tier
    sojourn distribution is *exact* (M/PH/1, see
    :mod:`repro.queueing.phase_type`; exact M/M/c for multi-server
    tiers with common exponential service) and the end-to-end delay is
    their convolution — still under the tandem independence
    approximation, but with no shape assumption on the per-tier
    sojourns. Sharper than :func:`class_delay_percentile` wherever it
    applies.

    Raises
    ------
    ModelValidationError
        If any tier is not FCFS, has multiple servers with
        non-identical-exponential service, or a service distribution
        with no exact PH form.
    """
    from repro.queueing.phase_type import as_phase_type

    if not 0.0 < p < 1.0:
        raise ModelValidationError(f"percentile level must be in (0, 1), got {p}")
    if not 0 <= k < workload.num_classes:
        raise ModelValidationError(f"class index {k} out of range [0, {workload.num_classes})")
    visits = cluster.visit_ratios[k]
    if not np.allclose(visits, np.round(visits)):
        raise ModelValidationError("PH percentile path needs integer visit ratios")
    lam = workload.arrival_rates
    total: object | None = None
    for i, tier in enumerate(cluster.tiers):
        v = int(round(visits[i]))
        if v == 0:
            continue
        if tier.discipline != "fcfs":
            raise ModelValidationError(
                f"tier {tier.name!r} is {tier.discipline}; the exact PH path needs "
                "FCFS tiers — use class_delay_percentile for the general case"
            )
        # Aggregate arrival stream at the tier; FCFS sojourn of class k
        # uses the aggregate-mixture service (every class waits behind
        # the same queue).
        tier_rates = cluster.visit_ratios[:, i] * lam
        tier_total = float(tier_rates.sum())
        probs = tier_rates / tier_total
        services = tier.service_times()
        if tier.servers > 1:
            from repro.distributions.exponential import Exponential as _Exp
            from repro.queueing.phase_type import mmc_sojourn_ph

            rates = [s.rate for s in services if isinstance(s, _Exp)]
            if len(rates) != len(services) or not np.allclose(rates, rates[0]):
                raise ModelValidationError(
                    f"tier {tier.name!r} has {tier.servers} servers; the exact "
                    "multi-server path needs identical exponential service for "
                    "every class — use class_delay_percentile otherwise"
                )
            sojourn = mmc_sojourn_ph(tier_total, rates[0], tier.servers)
        else:
            if any(as_phase_type(s) is None for s in services):
                raise ModelValidationError(
                    f"tier {tier.name!r} has a service distribution without an exact "
                    "phase-type form"
                )
            from repro.distributions.mixture import Mixture

            agg = services[0] if len(services) == 1 else Mixture(probs.tolist(), list(services))
            # Wait behind the aggregate flow, then the class's own service.
            from repro.queueing.phase_type import mph1_waiting_time

            wait = mph1_waiting_time(tier_total, agg)
            own = as_phase_type(services[k])
            sojourn = wait.convolve(own)
        for _ in range(v):
            total = sojourn if total is None else total.convolve(sojourn)
    if total is None:
        raise ModelValidationError(f"class {k} visits no tier")
    return float(total.quantile(p))
