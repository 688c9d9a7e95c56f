"""Uniform-speed baselines.

The simplest power-management policy a provider could run: one speed
knob shared by every tier. Because cluster power is strictly
increasing and delay strictly decreasing in that knob, both baseline
tunings are one-dimensional monotone searches.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.model import ClusterModel
from repro.core.delay import mean_end_to_end_delay
from repro.core.opt_common import DEFAULT_RHO_CAP, stability_speed_bounds
from repro.exceptions import InfeasibleProblemError
from repro.optimize.scalar import bisect_threshold
from repro.workload.classes import Workload

__all__ = ["uniform_speed_for_budget", "uniform_speed_for_delay"]


def _speeds_at(bounds: list[tuple[float, float]], u: float) -> np.ndarray:
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return lo + u * (hi - lo)


def uniform_speed_for_budget(
    cluster: ClusterModel,
    workload: Workload,
    power_budget: float,
    rho_cap: float = DEFAULT_RHO_CAP,
    tol: float = 1e-9,
) -> np.ndarray:
    """Fastest uniform setting whose average power fits the budget.

    All tiers share one dial ``u ∈ [0, 1]`` interpolating between their
    slowest-stable and maximum speeds; returns the per-tier speeds at
    the largest affordable ``u`` (the P1 baseline spends the budget
    without per-tier intelligence).

    Raises
    ------
    InfeasibleProblemError
        If even ``u = 0`` (slowest stable speeds) exceeds the budget.
    """
    bounds = stability_speed_bounds(cluster, workload, rho_cap)
    lam = workload.arrival_rates

    def over_budget(u: float) -> bool:
        return cluster.with_speeds(_speeds_at(bounds, u)).average_power(lam) > power_budget

    if over_budget(0.0):
        raise InfeasibleProblemError(
            f"power budget {power_budget:.6g} W is below the minimum stable power"
        )
    if not over_budget(1.0):
        return _speeds_at(bounds, 1.0)
    # Smallest u that exceeds the budget, then step just below it.
    u_star = bisect_threshold(over_budget, 0.0, 1.0, tol=tol)
    return _speeds_at(bounds, max(u_star - tol, 0.0))


def uniform_speed_for_delay(
    cluster: ClusterModel,
    workload: Workload,
    max_mean_delay: float,
    rho_cap: float = DEFAULT_RHO_CAP,
    tol: float = 1e-9,
) -> np.ndarray:
    """Slowest uniform setting meeting an aggregate mean-delay bound —
    the uniform P2a baseline (cheapest energy without per-tier
    intelligence).

    Raises
    ------
    InfeasibleProblemError
        If the bound is unreachable even at maximum speeds.
    """
    bounds = stability_speed_bounds(cluster, workload, rho_cap)

    def meets(u: float) -> bool:
        return mean_end_to_end_delay(cluster.with_speeds(_speeds_at(bounds, u)), workload) <= max_mean_delay

    u_star = bisect_threshold(meets, 0.0, 1.0, tol=tol)
    return _speeds_at(bounds, u_star)
