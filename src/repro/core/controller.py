"""Dynamic (epoch-based) power management.

The paper's optimizers are static: one speed vector for one offered
load. In operation the load varies (diurnal cycles, bursts), and the
natural deployment of P2 is *model-predictive*: at the start of each
epoch, take the forecast per-class rates and re-solve the energy
minimization, holding the speeds for the epoch. Because DVFS
transitions are micro-seconds against epochs of minutes, the
quasi-static analysis — each epoch evaluated at its own steady state —
is the standard planning model.

:func:`plan_speed_schedule` builds the epoch-by-epoch plan;
:func:`evaluate_schedule` scores any plan (dynamic or static) on total
energy and SLA compliance; :func:`static_plan` produces the
fixed-speed comparison points (max speed, provisioned-for-peak,
provisioned-for-mean). Experiment F8 runs the comparison on a diurnal
load curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.cluster.model import ClusterModel
from repro.core.delay import mean_end_to_end_delay
from repro.core.opt_energy import _p2a_problems
from repro.exceptions import InfeasibleProblemError, ModelValidationError, UnstableSystemError
from repro.queueing.networks import arrival_weighted_mean
from repro.workload.classes import Workload, CustomerClass

__all__ = ["EpochPlan", "ScheduleReport", "plan_speed_schedule", "static_plan", "evaluate_schedule"]


@dataclass(frozen=True)
class EpochPlan:
    """One epoch of a speed schedule."""

    start: float
    duration: float
    rates: np.ndarray
    speeds: np.ndarray
    power: float
    mean_delay: float
    meets_bound: bool


@dataclass(frozen=True)
class ScheduleReport:
    """Aggregate score of a speed schedule over the whole horizon."""

    total_energy: float
    average_power: float
    compliance: float  # fraction of epochs meeting the delay bound
    worst_mean_delay: float

    @property
    def fully_compliant(self) -> bool:
        """Every epoch met the bound."""
        return self.compliance >= 1.0


def _validate_epochs(
    class_names: Sequence[str],
    epoch_starts: np.ndarray,
    epoch_rates: np.ndarray,
    horizon: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared epoch-grid validation for every schedule builder.

    Returns ``(starts, rates, ends)`` as float arrays; the last epoch
    ends at ``horizon``.
    """
    starts = np.asarray(epoch_starts, dtype=float)
    rates = np.asarray(epoch_rates, dtype=float)
    if starts.ndim != 1 or rates.shape != (starts.size, len(class_names)):
        raise ModelValidationError(
            f"epoch_rates must have shape ({starts.size}, {len(class_names)}), got {rates.shape}"
        )
    if np.any(np.diff(starts) <= 0.0):
        raise ModelValidationError("epoch starts must be strictly increasing")
    if horizon <= starts[-1]:
        raise ModelValidationError("horizon must exceed the last epoch start")
    return starts, rates, np.append(starts[1:], horizon)


def _workload_at(names: Sequence[str], rates: np.ndarray) -> Workload | None:
    """Workload for one epoch, or None if the epoch is (near) idle."""
    if np.all(rates <= 1e-12):
        return None
    # Zero-rate classes keep a vanishing rate so priorities line up.
    floor = max(float(rates.max()) * 1e-9, 1e-12)
    return Workload(
        [CustomerClass(n, max(float(r), floor)) for n, r in zip(names, rates)]
    )


def plan_speed_schedule(
    cluster: ClusterModel,
    class_names: Sequence[str],
    epoch_starts: np.ndarray,
    epoch_rates: np.ndarray,
    horizon: float,
    max_mean_delay: float,
) -> list[EpochPlan]:
    """Re-solve P2a each epoch against its forecast rates.

    Parameters
    ----------
    cluster:
        The configuration (counts fixed; speeds are the knob).
    class_names:
        Class labels, highest priority first.
    epoch_starts:
        Sorted epoch start times; the last epoch ends at ``horizon``.
    epoch_rates:
        ``(num_epochs, num_classes)`` forecast per-class rates.
    max_mean_delay:
        The aggregate SLA bound every epoch must respect.

    Epochs whose forecast load cannot meet the bound (or cannot even be
    stabilized) fall back to maximum speeds and are flagged
    non-compliant rather than aborting the schedule — a controller
    must keep running through overload.

    The busy epochs' P2a problems are solved together, in one lockstep
    tier decomposition; each epoch's plan is what
    ``minimize_energy(max_mean_delay=...)`` on its workload gives.
    """
    starts, rates, ends = _validate_epochs(class_names, epoch_starts, epoch_rates, horizon)

    max_speeds = np.array([t.spec.max_speed for t in cluster.tiers])
    workloads = [_workload_at(class_names, r) for r in rates]
    busy = [w for w in workloads if w is not None]
    outcomes = iter(_p2a_problems(cluster, busy, [max_mean_delay] * len(busy)))
    plans: list[EpochPlan] = []
    for start, end, r, workload in zip(starts, ends, rates, workloads):
        duration = float(end - start)
        if workload is None:
            # Idle epoch: slowest speeds, zero traffic, idle power only.
            min_speeds = np.array([t.spec.min_speed for t in cluster.tiers])
            idle_power = float(
                sum(t.servers * t.spec.power.idle for t in cluster.tiers)
            )
            plans.append(
                EpochPlan(start, duration, r.copy(), min_speeds, idle_power, 0.0, True)
            )
            continue
        res = next(outcomes)
        if isinstance(res, (InfeasibleProblemError, UnstableSystemError)):
            chosen = cluster.with_speeds(max_speeds)
            speeds = max_speeds
            power = chosen.average_power(workload.arrival_rates)
            try:
                delay = mean_end_to_end_delay(chosen, workload)
            except UnstableSystemError:
                delay = float("inf")
        elif isinstance(res, Exception):
            raise res
        else:
            speeds = res.x
            # The solve evaluated its optimum already, with the bits the
            # scalar path gives at these speeds.
            power = res.meta["power"]
            delay = arrival_weighted_mean(workload.arrival_rates, res.meta["delays"])
        # A solved epoch meets the bound exactly; the tolerance covers a
        # P2a solve that fell back to SLSQP, whose optimum may sit just
        # past the constraint.
        ok = delay <= max_mean_delay * (1.0 + 1e-5) + 1e-9
        plans.append(EpochPlan(start, duration, r.copy(), np.asarray(speeds), power, delay, ok))
    return plans


def static_plan(
    cluster: ClusterModel,
    class_names: Sequence[str],
    epoch_starts: np.ndarray,
    epoch_rates: np.ndarray,
    horizon: float,
    max_mean_delay: float,
    speeds: np.ndarray,
) -> list[EpochPlan]:
    """Evaluate one fixed speed vector across every epoch (the static
    baseline a dynamic controller is compared against)."""
    starts, rates, ends = _validate_epochs(class_names, epoch_starts, epoch_rates, horizon)
    fixed = cluster.with_speeds(speeds)
    plans = []
    for start, end, r in zip(starts, ends, rates):
        duration = float(end - start)
        workload = _workload_at(class_names, r)
        if workload is None:
            idle_power = float(sum(t.servers * t.spec.power.idle for t in cluster.tiers))
            plans.append(
                EpochPlan(start, duration, r.copy(), np.asarray(speeds), idle_power, 0.0, True)
            )
            continue
        power = fixed.average_power(workload.arrival_rates)
        try:
            delay = mean_end_to_end_delay(fixed, workload)
            ok = delay <= max_mean_delay * (1.0 + 1e-5) + 1e-9
        except UnstableSystemError:
            delay, ok = float("inf"), False
        plans.append(EpochPlan(start, duration, r.copy(), np.asarray(speeds), power, delay, ok))
    return plans


def evaluate_schedule(plans: Sequence[EpochPlan]) -> ScheduleReport:
    """Aggregate a plan into energy/compliance figures."""
    if len(plans) == 0:
        raise ModelValidationError("empty schedule")
    durations = np.array([p.duration for p in plans])
    powers = np.array([p.power for p in plans])
    delays = np.array([p.mean_delay for p in plans])
    ok = np.array([p.meets_bound for p in plans])
    total_energy = float(np.dot(durations, powers))
    return ScheduleReport(
        total_energy=total_energy,
        average_power=total_energy / float(durations.sum()),
        compliance=float(ok.mean()),
        worst_mean_delay=float(np.max(delays)),
    )
