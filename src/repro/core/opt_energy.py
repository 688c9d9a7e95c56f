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
(:mod:`repro.core.tier_decomposition`), many problems in lockstep when
a speed schedule asks for one per epoch; P2b runs multistart SLSQP.
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
from repro.exceptions import InfeasibleProblemError, ModelValidationError, ReproError
from repro.optimize.constrained import Constraint, minimize_box_constrained
from repro.optimize.result import OptimizationResult
from repro.queueing.networks import arrival_weighted_mean, check_visit_ratios, tandem_delays
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
    if max_mean_delay is not None:
        (outcome,) = _p2a_problems(
            cluster, [workload], [max_mean_delay], rho_cap, n_starts, x0_hint
        )
        if isinstance(outcome, ReproError):
            raise outcome
        return outcome
    if sla is not None:
        class_delay_bounds = sla.delay_bounds(workload)
    bounds_arr = np.asarray(class_delay_bounds, dtype=float)
    if bounds_arr.shape != (workload.num_classes,):
        raise ModelValidationError(
            f"expected {workload.num_classes} class delay bounds, got shape {bounds_arr.shape}"
        )
    if np.any(bounds_arr <= 0.0):
        raise ModelValidationError(f"delay bounds must be positive, got {bounds_arr}")

    box = stability_speed_bounds(cluster, workload, rho_cap)
    hi = np.array([b[1] for b in box])
    model = SpeedModel(cluster, workload)

    try:
        # Feasibility certificate at maximum speeds (delay decreasing in s).
        best_delays = model.end_to_end_delays(hi)
        if np.any(best_delays > bounds_arr):
            worst = int(np.argmax(best_delays - bounds_arr))
            raise InfeasibleProblemError(
                f"class {workload.names[worst]!r} cannot meet its delay bound "
                f"{bounds_arr[worst]:.6g}s even at maximum speeds "
                f"(best achievable {best_delays[worst]:.6g}s)"
            )
        batch = BatchEvaluator(cluster, workload)
        result = _slsqp(
            model, batch, box, bounds_arr, model.end_to_end_delays,
            batch.end_to_end_delays, [f"delay[{n}]" for n in workload.names],
            "p2b", n_starts, x0_hint,
        )
        _finish(result, cluster, model)
        result.meta["delay_bounds"] = bounds_arr
        return result
    finally:
        # Counted even when the certificate or a final evaluation raises.
        count_tier_work(model)


def _finish(result: OptimizationResult, cluster: ClusterModel, model: SpeedModel) -> None:
    """Add the optimum's cluster, delays and power (the scalar path's)."""
    result.meta["cluster"] = cluster.with_speeds(result.x)
    result.meta["delays"] = model.end_to_end_delays(result.x)
    result.meta["power"] = model.average_power(result.x)


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


def _p2a_problems(
    cluster: ClusterModel,
    workloads: Sequence[Workload],
    bounds: Sequence[float],
    rho_cap: float = DEFAULT_RHO_CAP,
    n_starts: int = 5,
    x0_hint: np.ndarray | None = None,
) -> list[OptimizationResult | ReproError]:
    """P2a on ``cluster`` for each ``(workload, bound)`` pair: the
    :func:`minimize_energy` result, or the exception it raises.

    The problems' maximum-speed certificates are one
    :class:`BatchEvaluator` call and their decompositions one lockstep
    :func:`solve_p2a`, whose kernel rows at each optimum give its
    delays. Each
    problem keeps its own certificate, stop rule, duality-gap check and
    counted SLSQP fallback, so each entry is what a solve of that
    problem alone returns.
    """
    outcomes: list = [None] * len(workloads)
    boxes = {}
    for p, (workload, bound) in enumerate(zip(workloads, bounds)):
        try:
            if bound is None or bound <= 0.0 or not np.isfinite(bound):
                raise ModelValidationError(
                    f"max_mean_delay must be positive and finite, got {bound}"
                )
            boxes[p] = np.array(stability_speed_bounds(cluster, workload, rho_cap))
        except ReproError as exc:
            outcomes[p] = exc
    todo = list(boxes)
    if not todo:
        return outcomes
    rates = np.array([workloads[p].arrival_rates for p in todo])
    try:
        # What the scalar path checks before any formula, for the whole
        # cluster; where it fails, the certificate below replays it.
        for tier in cluster.tiers:
            tier.require_infinite_buffer()
        check_visit_ratios(cluster.visit_ratios, cluster.num_classes, cluster.num_tiers)
        batch = BatchEvaluator(cluster, rates)
        best = batch.mean_delay(np.array([boxes[p][:, 1] for p in todo]))
    except ModelValidationError:
        batch, best = None, np.full(len(todo), np.inf)
    for p, best_mean in zip(todo, best.tolist()):
        if not best_mean <= bounds[p]:
            outcomes[p] = _certificate(cluster, workloads[p], boxes[p][:, 1], bounds[p])
    rows = [j for j, p in enumerate(todo) if outcomes[p] is None]
    if not rows:
        return outcomes
    solve = [todo[j] for j in rows]
    batch = batch.rows(rows)
    with obs.span("optimize.solve", label="p2a", method=_METHOD, problems=len(solve)) as sp:
        solutions = solve_p2a(batch, [boxes[p] for p in solve], [bounds[p] for p in solve])
    for p, solution in zip(solve, solutions):
        workload, bound = workloads[p], bounds[p]
        if solution is not None:
            optimized = cluster.with_speeds(solution.x)
            power = optimized.average_power(workload.arrival_rates)
            # The kernel rows at the optimum, summed as SpeedModel sums them.
            delays = tandem_delays(cluster.visit_ratios, list(solution.sojourns))
            mean = arrival_weighted_mean(workload.arrival_rates, delays)
        if solution is None or solution.duality_gap > P2A_GAP_RTOL * power or mean > bound:
            outcomes[p] = _fallback(cluster, workload, boxes[p], bound, n_starts, x0_hint)
            continue
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
                "cluster": optimized,
                "delays": delays,
                "power": power,
                "max_mean_delay": bound,
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
            wall_s=sp.wall_s / len(solve),
        )
        obs.counter("opt.solves").inc()
        obs.counter("opt.evaluations").add(result.n_evaluations)
        outcomes[p] = result
    return outcomes


def _certificate(
    cluster: ClusterModel, workload: Workload, hi: np.ndarray, bound: float
) -> ReproError | None:
    """The scalar path's certificate at maximum speeds ``hi``, its tier
    work counted: the exception it raises, or ``None`` when it holds."""
    model = SpeedModel(cluster, workload)
    try:
        best_mean = model.mean_delay(hi)
    except ReproError as exc:
        return exc
    finally:
        count_tier_work(model)
    if best_mean > bound:
        return InfeasibleProblemError(
            f"aggregate delay bound {bound:.6g}s is below the best achievable "
            f"mean delay {best_mean:.6g}s at maximum speeds"
        )
    return None


def _fallback(
    cluster: ClusterModel,
    workload: Workload,
    box: np.ndarray,
    bound: float,
    n_starts: int,
    x0_hint: np.ndarray | None,
) -> OptimizationResult | ReproError:
    """P2a by SLSQP, for a decomposition that found no speeds meeting
    the bound or whose duality gap is above ``P2A_GAP_RTOL`` of its
    power; counted in ``opt.p2a_fallbacks``."""
    obs.counter("opt.p2a_fallbacks").inc()
    model = SpeedModel(cluster, workload)
    batch = BatchEvaluator(cluster, workload)
    try:
        result = _slsqp(
            model, batch, [tuple(b) for b in box.tolist()], np.array([bound]),
            lambda s: [model.mean_delay(s)], lambda points: batch.mean_delay(points)[:, None],
            ["mean delay"], "p2a", n_starts, x0_hint,
        )
        _finish(result, cluster, model)
    except ReproError as exc:
        return exc
    finally:
        count_tier_work(model)
    result.meta["max_mean_delay"] = bound
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
