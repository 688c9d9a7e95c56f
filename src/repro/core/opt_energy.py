"""P2 — minimize average energy under end-to-end delay constraints.

Abstract claim 3: "optimizing the average end-to-end energy consumption
subject to the constraints of an average end-to-end delay for all class
and each class customer requests respectively". Two variants over tier
speeds ``s``:

P2a (aggregate):
    minimize  P(s)   subject to  T̄(s) <= max_mean_delay

P2b (per-class):
    minimize  P(s)   subject to  T_k(s) <= D_k  for every class k,

with the same stability-adjusted speed box as P1. P2b is the SLA-aware
variant: tight bounds on the high-priority classes cost extra energy
that an aggregate-only bound would not require — experiment F5
quantifies exactly that gap.

P2a has one coupling constraint and is solved by tier decomposition
(:mod:`repro.core.tier_decomposition`); P2b runs multistart SLSQP.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro import obs
from repro.cluster.model import ClusterModel
from repro.core.batch_eval import BatchEvaluator
from repro.core.delay import SpeedModel, count_tier_work, end_to_end_delays
from repro.core.opt_common import DEFAULT_RHO_CAP, stability_speed_bounds
from repro.core.sla import SLA
from repro.core.tier_decomposition import solve_p2a
from repro.exceptions import InfeasibleProblemError, ModelValidationError
from repro.optimize.constrained import Constraint, minimize_box_constrained
from repro.optimize.result import OptimizationResult
from repro.workload.classes import Workload

__all__ = ["minimize_energy", "minimize_energy_robust", "P2A_GAP_RTOL"]

#: A decomposed P2a solve whose duality gap exceeds this fraction of its
#: power falls back to SLSQP.
P2A_GAP_RTOL = 1e-7

_METHOD = "tier_decomposition"


def minimize_energy(
    cluster: ClusterModel,
    workload: Workload,
    max_mean_delay: float | None = None,
    class_delay_bounds: Sequence[float] | None = None,
    sla: SLA | None = None,
    n_starts: int = 5,
    rho_cap: float = DEFAULT_RHO_CAP,
    x0_hint: np.ndarray | None = None,
) -> OptimizationResult:
    """Solve P2: choose tier speeds minimizing average power subject to
    delay constraints.

    Exactly one constraint source must be given:

    * ``max_mean_delay`` — P2a, a bound on the aggregate mean delay,
      solved by tier decomposition
      (:func:`repro.core.tier_decomposition.solve_p2a`);
    * ``class_delay_bounds`` — P2b, per-class bounds in priority order;
    * ``sla`` — P2b with bounds read from an :class:`SLA`.

    P2b runs SLSQP from ``n_starts`` multistart seeds, warm-started from
    ``x0_hint`` when given (e.g. the optimum at a neighboring bound on a
    sweep); see :func:`repro.optimize.constrained.minimize_box_constrained`.
    A P2a solve uses neither, unless the decomposition finds no speeds
    meeting the bound or its duality gap exceeds ``P2A_GAP_RTOL`` of
    its power: then it falls back to SLSQP, with these arguments, and
    adds one to the ``opt.p2a_fallbacks`` counter.

    Returns
    -------
    OptimizationResult
        ``x`` is the optimal speed vector; ``meta["cluster"]`` the
        reconfigured model, ``meta["delays"]`` the achieved per-class
        delays and ``meta["power"]`` the minimized average power. A
        decomposed P2a solve meets its bound exactly and reports
        ``meta["duality_gap"]`` (watts) and ``meta["multiplier"]``;
        ``n_evaluations`` counts the tier-kernel rows it evaluated.

    Raises
    ------
    InfeasibleProblemError
        If the bounds cannot be met even at maximum speeds, or no
        stable speed assignment exists.
    """
    sources = [max_mean_delay is not None, class_delay_bounds is not None, sla is not None]
    if sum(sources) != 1:
        raise ModelValidationError(
            "give exactly one of max_mean_delay, class_delay_bounds or sla"
        )
    if sla is not None:
        class_delay_bounds = sla.delay_bounds(workload)
    if class_delay_bounds is not None:
        bounds_arr = np.asarray(class_delay_bounds, dtype=float)
        if bounds_arr.shape != (workload.num_classes,):
            raise ModelValidationError(
                f"expected {workload.num_classes} class delay bounds, got shape {bounds_arr.shape}"
            )
        if np.any(bounds_arr <= 0.0):
            raise ModelValidationError(f"delay bounds must be positive, got {bounds_arr}")
    else:
        if max_mean_delay is None or max_mean_delay <= 0.0 or not np.isfinite(max_mean_delay):
            raise ModelValidationError(f"max_mean_delay must be positive and finite, got {max_mean_delay}")
        bounds_arr = None

    box = stability_speed_bounds(cluster, workload, rho_cap)
    hi = np.array([b[1] for b in box])
    model = SpeedModel(cluster, workload)

    try:
        # Feasibility certificate at maximum speeds (delay decreasing in s).
        if bounds_arr is not None:
            best_delays = model.end_to_end_delays(hi)
            if np.any(best_delays > bounds_arr):
                worst = int(np.argmax(best_delays - bounds_arr))
                raise InfeasibleProblemError(
                    f"class {workload.names[worst]!r} cannot meet its delay bound "
                    f"{bounds_arr[worst]:.6g}s even at maximum speeds "
                    f"(best achievable {best_delays[worst]:.6g}s)"
                )
        else:
            best_mean = model.mean_delay(hi)
            if best_mean > max_mean_delay:
                raise InfeasibleProblemError(
                    f"aggregate delay bound {max_mean_delay:.6g}s is below the best achievable "
                    f"mean delay {best_mean:.6g}s at maximum speeds"
                )

        batch = BatchEvaluator(cluster, workload)
        if bounds_arr is not None:
            result = _slsqp(
                model, batch, box, bounds_arr, model.end_to_end_delays,
                batch.end_to_end_delays, [f"delay[{n}]" for n in workload.names],
                "p2b", n_starts, x0_hint,
            )
        else:
            result = _decomposed_p2a(model, batch, box, max_mean_delay, n_starts, x0_hint)
        optimized = cluster.with_speeds(result.x)
        result.meta["cluster"] = optimized
        result.meta["delays"] = model.end_to_end_delays(result.x)
        result.meta["power"] = model.average_power(result.x)
        if bounds_arr is not None:
            result.meta["delay_bounds"] = bounds_arr
        else:
            result.meta["max_mean_delay"] = max_mean_delay
        return result
    finally:
        # Counted even when the certificate or a final evaluation raises.
        count_tier_work(model)


def _slsqp(
    model: SpeedModel,
    batch: BatchEvaluator,
    box: list[tuple[float, float]],
    limits: np.ndarray,
    delays: Callable[[np.ndarray], np.ndarray],
    batch_delays: Callable[[np.ndarray], np.ndarray],
    names: list[str],
    label: str,
    n_starts: int,
    x0_hint: np.ndarray | None,
) -> OptimizationResult:
    """Minimize power by SLSQP subject to ``delays(s) <= limits``."""
    constraints = [
        Constraint(lambda s, k=k: limits[k] - delays(s)[k], name=name)
        for k, name in enumerate(names)
    ]
    return minimize_box_constrained(
        model.average_power,
        box,
        constraints=constraints,
        n_starts=n_starts,
        label=label,
        objective_batch=batch.average_power,
        x0_hint=x0_hint,
        constraint_batch=lambda points: (limits[None, :] - batch_delays(points)).min(axis=1),
    )


def _decomposed_p2a(
    model: SpeedModel,
    batch: BatchEvaluator,
    box: list[tuple[float, float]],
    bound: float,
    n_starts: int,
    x0_hint: np.ndarray | None,
) -> OptimizationResult:
    """P2a by tier decomposition, or by SLSQP when the decomposition
    finds no speeds meeting the bound or its duality gap is above
    ``P2A_GAP_RTOL`` of its power."""
    with obs.span("optimize.solve", label="p2a", method=_METHOD) as sp:
        solution = solve_p2a(batch, box, bound)
        if solution is not None:
            power = model.average_power(solution.x)
            mean = model.mean_delay(solution.x)
    if (
        solution is None
        or solution.duality_gap > P2A_GAP_RTOL * power
        or mean > bound
    ):
        obs.counter("opt.p2a_fallbacks").inc()
        return _slsqp(
            model, batch, box, np.array([bound]), lambda s: [model.mean_delay(s)],
            lambda points: batch.mean_delay(points)[:, None], ["mean delay"],
            "p2a", n_starts, x0_hint,
        )
    result = OptimizationResult(
        x=solution.x,
        fun=power,
        success=True,
        message=f"tier decomposition converged in {solution.passes} grid passes",
        n_evaluations=solution.rows,
        nit=solution.passes,
        nfev=solution.rows,
        status=0,
        meta={
            "constraint_residuals": {"mean delay": bound - mean},
            "duality_gap": solution.duality_gap,
            "multiplier": solution.multiplier,
        },
    )
    obs.event(
        "solver.result",
        label="p2a",
        method=_METHOD,
        success=True,
        fun=power,
        nit=result.nit,
        nfev=result.nfev,
        status=0,
        message=result.message,
        n_evaluations=result.n_evaluations,
        constraint_violation=0.0,
        wall_s=sp.wall_s,
    )
    obs.counter("opt.solves").inc()
    obs.counter("opt.evaluations").add(result.n_evaluations)
    return result


def minimize_energy_robust(
    cluster: ClusterModel,
    workload: Workload,
    rate_uncertainty: float,
    max_mean_delay: float | None = None,
    class_delay_bounds: Sequence[float] | None = None,
    sla: SLA | None = None,
    n_starts: int = 5,
    rho_cap: float = DEFAULT_RHO_CAP,
    x0_hint: np.ndarray | None = None,
) -> OptimizationResult:
    """P2 with rate uncertainty: guarantee the delay bounds for every
    arrival-rate vector up to ``(1 + rate_uncertainty)`` times the
    forecast.

    Forecasts are never exact; a provider that sizes speeds for the
    point forecast violates its SLA the moment traffic runs a few
    percent hot. Because every delay in the model is monotone
    increasing in every class's arrival rate, the worst case over the
    box ``λ_k ∈ [λ̂_k, λ̂_k (1 + ε)]`` is its top corner — so robust
    P2 is exactly nominal P2 against the inflated workload, with the
    returned power evaluated at the *forecast* rates (what the
    provider actually pays on average).

    Parameters
    ----------
    rate_uncertainty:
        Relative forecast error ``ε >= 0`` to be robust against.

    Returns
    -------
    OptimizationResult
        As :func:`minimize_energy`; ``meta["power"]`` is at forecast
        rates, ``meta["worst_case_delays"]`` at the inflated rates.
    """
    if rate_uncertainty < 0.0 or not np.isfinite(rate_uncertainty):
        raise ModelValidationError(
            f"rate uncertainty must be non-negative and finite, got {rate_uncertainty}"
        )
    inflated = workload.scaled(1.0 + rate_uncertainty)
    result = minimize_energy(
        cluster,
        inflated,
        max_mean_delay=max_mean_delay,
        class_delay_bounds=class_delay_bounds,
        sla=sla,
        n_starts=n_starts,
        rho_cap=rho_cap,
        x0_hint=x0_hint,
    )
    optimized = result.meta["cluster"]
    result.meta["worst_case_delays"] = result.meta.pop("delays")
    result.meta["delays"] = end_to_end_delays(optimized, workload)
    result.meta["power"] = optimized.average_power(workload.arrival_rates)
    result.meta["rate_uncertainty"] = rate_uncertainty
    return result
