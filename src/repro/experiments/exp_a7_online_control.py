"""A7 — online drift-plus-penalty control vs. re-solved static optima.

The paper's P2a optimizer — and its model-predictive deployment in F8 —
needs the arrival-rate vector. This ablation asks what happens when the
controller *doesn't get one*: a drift-plus-penalty (DPP) rule watching
only queue lengths, against the planners, in trace-driven simulation.

Four policies replay the **same** arrival trace (common random
numbers), so every gap is a pure policy effect:

* **oracle** — :func:`repro.core.plan_speed_schedule` on the trace's
  *true* windowed rates (unrealizable upper bound on planning);
* **forecast** — the same planner fed a
  :func:`repro.core.blended_forecast` of surge-free history (what a
  deployed MPC controller actually has);
* **max-speed** — every tier at full speed (no power management);
* **dpp** — :class:`repro.control.DriftPlusPenaltyController`: per
  tier, minimize ``V·kappa·s^alpha − Q·s`` each half-second from queue
  counts alone.

Two scenarios stress the two failure axes of planning:

* **diurnal** — a smooth sinusoidal day. Planners shine (tomorrow
  looks like today); the question is how close queue-only DPP gets to
  the oracle's energy while meeting the SLA.
* **flash-crowd** — the same day with a rectangular surge absent from
  the forecast's history. The forecast plan under-provisions straight
  into the surge and violates the SLA; DPP sees the backlog and ramps.

A V-parameter sweep on the diurnal trace traces the controller's
power/delay frontier (the online analogue of F4's P2a curve), rendered
as an ASCII scatter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analysis.tables import ascii_scatter, ascii_table
from repro.control import (
    DriftPlusPenaltyController,
    PlannedSpeedPolicy,
    StaticSpeedPolicy,
    run_controlled,
)
from repro.core.controller import plan_speed_schedule
from repro.core.forecast import blended_forecast
from repro.exceptions import ModelValidationError
from repro.experiments.common import CLASS_NAMES, canonical_cluster, canonical_workload
from repro.workload.timevarying import diurnal_trace, flash_crowd_trace

__all__ = ["A7Result", "run", "render", "planning_inputs", "planner_rates"]

POLICIES = ("oracle", "forecast", "max-speed", "dpp")


@dataclass
class A7Result:
    """Per-scenario policy scorecards plus the DPP V-frontier."""

    max_mean_delay: float
    v_param: float
    rows: list[list[Any]] = field(default_factory=list)
    frontier: list[list[Any]] = field(default_factory=list)  # V, energy, delay
    notes: list[str] = field(default_factory=list)


def planning_inputs(
    horizon: float = 2400.0,
    plan_window: float = 100.0,
    trough: float = 0.4,
    peak: float = 1.3,
    surge_factor: float = 1.8,
    trace_seed: int = 3,
):
    """The evaluation traces and the forecast's history.

    Returns ``(history_rates, scenarios)``: the surge-free history's
    per-window rates and the ``{"diurnal", "flash-crowd"}`` traces.
    Arguments are those of :func:`run`.
    """
    base = canonical_workload().arrival_rates
    # Surge-free history: two independent "days" of the same diurnal
    # profile, windowed like the planning grid. Its sampling noise is
    # the forecast error; its lack of a surge is the forecast blind
    # spot.
    history = diurnal_trace(
        base, 2.0 * horizon, period=horizon, trough=trough, peak=peak,
        seed=trace_seed + 100, class_names=CLASS_NAMES,
    )
    _, history_rates = history.windowed_rates(plan_window)
    scenarios = {
        "diurnal": diurnal_trace(
            base, horizon, period=horizon, trough=trough, peak=peak,
            seed=trace_seed, class_names=CLASS_NAMES,
        ),
        "flash-crowd": flash_crowd_trace(
            base, horizon,
            surge_start=0.3 * horizon, surge_duration=0.1 * horizon,
            surge_factor=surge_factor,
            period=horizon, trough=trough, peak=peak,
            seed=trace_seed + 1, class_names=CLASS_NAMES,
        ),
    }
    return history_rates, scenarios


def planner_rates(trace, history_rates: np.ndarray, plan_window: float, policy: str):
    """``(epoch_starts, epoch_rates)`` the ``oracle`` or ``forecast``
    planner solves for on ``trace``."""
    starts, true_rates = trace.windowed_rates(plan_window)
    if policy == "oracle":
        return starts, true_rates
    return starts, blended_forecast(history_rates, period=starts.size)


def _policy_set(
    cluster,
    trace,
    history_rates: np.ndarray,
    plan_window: float,
    max_mean_delay: float,
    plan_margin: float,
    v_param: float,
    selected: tuple[str, ...],
    schedules: dict[tuple, list],
):
    """Build the selected comparison policies for one evaluation trace
    (a planner is only solved when its policy is selected).

    ``schedules`` holds the schedules solved so far in the run, keyed by
    the planner's inputs: the forecast planner sees the same epochs and
    forecast on every trace of one horizon, so it is solved once.
    """

    def planned(name: str) -> PlannedSpeedPolicy:
        starts, rates = planner_rates(trace, history_rates, plan_window, name)
        key = (starts.tobytes(), rates.tobytes(), trace.horizon)
        if key not in schedules:
            schedules[key] = plan_speed_schedule(
                cluster, CLASS_NAMES, starts, rates, trace.horizon,
                max_mean_delay * plan_margin,
            )
        return PlannedSpeedPolicy(schedules[key], name=name)

    builders = {
        "oracle": lambda: planned("oracle"),
        "forecast": lambda: planned("forecast"),
        "max-speed": lambda: StaticSpeedPolicy(
            np.array([t.spec.max_speed for t in cluster.tiers]), name="max-speed"
        ),
        "dpp": lambda: DriftPlusPenaltyController(cluster, v_param),
    }
    return {name: builders[name]() for name in selected}


def run(
    horizon: float = 2400.0,
    plan_window: float = 100.0,
    epoch_length: float = 0.5,
    max_mean_delay: float = 0.35,
    v_param: float = 8e-4,
    v_sweep: tuple[float, ...] = (1e-5, 1e-4, 3e-4, 8e-4, 2e-3, 5e-3),
    trough: float = 0.4,
    peak: float = 1.3,
    surge_factor: float = 1.8,
    plan_margin: float = 0.8,
    seed: int = 11,
    trace_seed: int = 3,
    controller: str = "all",
) -> A7Result:
    """Run the online-control comparison.

    Parameters
    ----------
    horizon:
        One simulated "day" (the diurnal period equals the horizon).
    plan_window:
        Planning-epoch length for the oracle/forecast schedules.
    epoch_length:
        The online controller's decision period — three orders of
        magnitude finer than the planners' epochs, because queue
        observations are cheap and rate estimates are not.
    v_param:
        DPP's energy/backlog trade-off for the headline comparison.
    v_sweep:
        V values tracing the frontier on the diurnal trace.
    surge_factor:
        Flash-crowd multiplier on every class's rate over the surge
        window (10% of the day, starting at 30%).
    plan_margin:
        Planners solve at ``plan_margin * max_mean_delay``: the
        analytic optimum rides its constraint, so an unmargined plan
        coin-flips the simulated bound.
    controller:
        ``"all"`` or one of ``oracle|forecast|max-speed|dpp`` to run a
        single policy (the ``--controller`` CLI knob).
    """
    if controller != "all" and controller not in POLICIES:
        raise ModelValidationError(
            f"controller must be 'all' or one of {POLICIES}, got {controller!r}"
        )
    cluster = canonical_cluster()
    selected = POLICIES if controller == "all" else (controller,)
    history_rates, scenarios = planning_inputs(
        horizon, plan_window, trough, peak, surge_factor, trace_seed
    )

    result = A7Result(max_mean_delay=max_mean_delay, v_param=v_param)
    scores: dict[tuple[str, str], Any] = {}
    schedules: dict[tuple, list] = {}
    for scen_name, trace in scenarios.items():
        policies = _policy_set(
            cluster, trace, history_rates, plan_window, max_mean_delay,
            plan_margin, v_param, selected, schedules,
        )
        for pol_name in selected:
            score = run_controlled(
                cluster, trace, policies[pol_name], epoch_length,
                max_mean_delay, seed=seed,
            )
            scores[(scen_name, pol_name)] = score
            result.rows.append(
                [
                    scen_name,
                    pol_name,
                    score.total_energy,
                    score.average_power,
                    score.mean_delay,
                    "yes" if score.sla_met else "NO",
                ]
            )

    # Frontier: DPP's V-sweep on the diurnal trace. At the headline V
    # the run is the scorecard's diurnal DPP run.
    for v in v_sweep:
        score = scores.get(("diurnal", "dpp")) if v == v_param else None
        if score is None:
            score = run_controlled(
                cluster, scenarios["diurnal"], DriftPlusPenaltyController(cluster, v),
                epoch_length, max_mean_delay, seed=seed,
            )
        result.frontier.append([v, score.total_energy, score.mean_delay])

    if ("diurnal", "dpp") in scores and ("diurnal", "oracle") in scores:
        ratio = (
            scores[("diurnal", "dpp")].total_energy
            / scores[("diurnal", "oracle")].total_energy
        )
        result.notes.append(
            f"diurnal: dpp energy = {ratio:.3f} x oracle (no rate knowledge)"
        )
    if ("flash-crowd", "dpp") in scores and ("flash-crowd", "forecast") in scores:
        dpp_s, fc_s = scores[("flash-crowd", "dpp")], scores[("flash-crowd", "forecast")]
        result.notes.append(
            "flash-crowd: dpp "
            + ("meets" if dpp_s.sla_met else "misses")
            + " the bound, forecast plan "
            + ("meets" if fc_s.sla_met else "misses")
            + f" it (mean delays {dpp_s.mean_delay:.3f} vs {fc_s.mean_delay:.3f})"
        )
    return result


def render(result: A7Result) -> str:
    """Rendered scorecards, frontier table and ASCII frontier plot."""
    parts = [
        ascii_table(
            ["scenario", "policy", "energy", "avg power", "mean delay",
             f"delay<={result.max_mean_delay:g}"],
            result.rows,
            title=(
                "A7 -- online drift-plus-penalty control vs planned schedules "
                f"(headline V={result.v_param:g})"
            ),
        )
    ]
    if result.frontier:
        parts.append("")
        parts.append(
            ascii_table(
                ["V", "energy", "mean delay"],
                result.frontier,
                title="DPP power/delay frontier (diurnal trace)",
            )
        )
        parts.append("")
        parts.append(
            ascii_scatter(
                [r[2] for r in result.frontier],
                [r[1] for r in result.frontier],
                labels=[f"V={r[0]:g}" for r in result.frontier],
                title="frontier: energy vs mean delay (V rises left to right)",
                xlabel="mean delay",
                ylabel="energy",
            )
        )
    for note in result.notes:
        parts.append("")
        parts.append(note)
    return "\n".join(parts)
