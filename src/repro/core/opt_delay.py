"""P1 — minimize average end-to-end delay under an energy budget.

Abstract claim 2: "optimizing the average end-to-end delay subject to
the constraint of an average energy consumption". The decision is the
vector of tier speeds ``s`` (server counts fixed); the program is

    minimize    T̄(s)                       (mean end-to-end delay)
    subject to  P(s) <= power_budget        (average power)
                s_i in [max(s_min_i, stability_i), s_max_i].

Delay is strictly decreasing and power strictly increasing in every
``s_i`` (for ``α > 1``), so the budget binds at any interior optimum —
the optimizer's job is to split the budget across tiers, and the
answer is non-obvious because tiers differ in load, variability and
power curves. Solved by multistart SLSQP; feasibility is certified
up front by evaluating the power at the slowest stable speeds.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.model import ClusterModel
from repro.core.batch_eval import BatchEvaluator
from repro.core.delay import SpeedModel, count_tier_work
from repro.core.opt_common import DEFAULT_RHO_CAP, stability_speed_bounds
from repro.exceptions import InfeasibleProblemError, ModelValidationError
from repro.optimize.constrained import Constraint, minimize_box_constrained
from repro.optimize.result import OptimizationResult
from repro.workload.classes import Workload

__all__ = ["minimize_delay"]


def minimize_delay(
    cluster: ClusterModel,
    workload: Workload,
    power_budget: float,
    n_starts: int = 5,
    rho_cap: float = DEFAULT_RHO_CAP,
    x0_hint: np.ndarray | None = None,
) -> OptimizationResult:
    """Solve P1: choose tier speeds minimizing mean end-to-end delay
    within an average power budget.

    Parameters
    ----------
    cluster:
        Cluster configuration; server counts and disciplines are kept,
        current speeds are ignored (they only seed one start).
    workload:
        The offered multi-class workload.
    power_budget:
        Upper bound on average cluster power (watts). A bound on
        energy over a charging period divided by the period length is
        exactly this number.
    n_starts:
        Multistart seeds for SLSQP.
    rho_cap:
        Per-tier utilization cap folded into the speed bounds.
    x0_hint:
        Optional warm-start speeds (e.g. the optimum at a neighboring
        budget on a sweep); see
        :func:`repro.optimize.constrained.minimize_box_constrained`.

    Returns
    -------
    OptimizationResult
        ``x`` is the optimal speed vector; ``meta["cluster"]`` holds
        the re-configured :class:`ClusterModel` and
        ``meta["power"]`` the achieved average power.

    Raises
    ------
    InfeasibleProblemError
        If even the slowest stable speeds exceed the budget, or no
        stable speed assignment exists.
    """
    if power_budget <= 0.0 or not np.isfinite(power_budget):
        raise ModelValidationError(f"power budget must be positive and finite, got {power_budget}")
    bounds = stability_speed_bounds(cluster, workload, rho_cap)
    model = SpeedModel(cluster, workload)

    lo = np.array([b[0] for b in bounds])
    min_power = model.average_power(lo)
    if min_power > power_budget:
        raise InfeasibleProblemError(
            f"power budget {power_budget:.6g} W is below the minimum stable power "
            f"{min_power:.6g} W (slowest stable speeds {np.round(lo, 4).tolist()})"
        )

    def power_slack(s: np.ndarray) -> float:
        return power_budget - model.average_power(s)

    # All multistart seeds are scored in one vectorized call (unstable
    # seeds come back inf, ranking them last).
    batch = BatchEvaluator(cluster, workload)

    def power_slack_batch(points: np.ndarray) -> np.ndarray:
        return power_budget - batch.average_power(points)

    # The certificate above evaluates only power: every tier solve is
    # below, and it is counted even when the solve raises.
    try:
        result = minimize_box_constrained(
            model.mean_delay,
            bounds,
            constraints=[Constraint(power_slack, name="power budget")],
            n_starts=n_starts,
            label="p1",
            objective_batch=batch.mean_delay,
            x0_hint=x0_hint,
            constraint_batch=power_slack_batch,
        )
        result.meta["cluster"] = cluster.with_speeds(result.x)
        result.meta["power"] = model.average_power(result.x)
        result.meta["power_budget"] = power_budget
        return result
    finally:
        count_tier_work(model)
