"""Trace-driven control-loop simulation.

:func:`run_controlled` replays an :class:`~repro.workload.traces.ArrivalTrace`
through the event core with an :class:`~repro.control.policies.EpochPolicy`
attached at a fixed decision period, and distills the run into the
figures every policy comparison needs: energy over the horizon, mean
end-to-end delay against the SLA bound, and the per-epoch
speed/queue/energy trace. All policies in an experiment replay the
*same* trace (common random numbers by construction), so energy gaps
between them are pure policy effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.cluster.model import ClusterModel
from repro.control.policies import EpochPolicy
from repro.exceptions import ModelValidationError
from repro.simulation.simulator import SimulationResult, simulate
from repro.workload.generator import workload_from_rates
from repro.workload.traces import ArrivalTrace, TraceArrivalProcess

__all__ = ["ControlRunResult", "run_controlled"]


@dataclass
class ControlRunResult:
    """One policy's scorecard on one trace."""

    policy_name: str
    total_energy: float
    average_power: float
    mean_delay: float
    delays: np.ndarray
    sla_met: bool
    max_mean_delay: float
    result: SimulationResult = field(repr=False)

    @property
    def epoch_trace(self) -> np.ndarray:
        """Per-boundary records, one structured row each: ``t``,
        ``queues`` (tiers × classes), applied ``speeds`` and cumulative
        ``dynamic_energy``."""
        return self.result.meta["epoch_trace"]

    @property
    def mean_speeds(self) -> np.ndarray:
        """Time-average per-tier speeds over the decision epochs."""
        return np.mean(self.epoch_trace["speeds"], axis=0)


def run_controlled(
    cluster: ClusterModel,
    trace: ArrivalTrace,
    policy: EpochPolicy,
    epoch_length: float,
    max_mean_delay: float,
    seed: int = 0,
    warmup_fraction: float = 0.0,
    start_speeds: np.ndarray | None = None,
    progress: Callable[[int, int, float], None] | None = None,
    backend: str | None = None,
) -> ControlRunResult:
    """Replay ``trace`` under ``policy`` deciding every ``epoch_length``.

    ``progress``, when given, is invoked after every controller
    decision with ``(epoch_index, n_epochs_total, t)`` — the live-
    progress seam for long closed-loop runs (the telemetry layer
    additionally emits one ``sim.epoch`` event per boundary, so
    ``repro status`` sees controller runs without this callback).

    The cluster starts at ``start_speeds`` (default: every tier at max
    speed, the safe cold-start) and the policy takes over from the
    first boundary at ``t = 0``. The stationary stability pre-check is
    skipped (``allow_unstable=True``): a time-varying trace can be
    transiently overloaded by design — surviving that is precisely
    what the comparison measures. SLA compliance is judged on the
    completion-weighted mean end-to-end delay against
    ``max_mean_delay``, the same aggregate bound the planners solve
    against. ``backend`` is :func:`~repro.simulation.simulator.simulate`'s.
    """
    if epoch_length <= 0.0 or epoch_length >= trace.horizon:
        raise ModelValidationError(
            f"epoch_length must be in (0, horizon={trace.horizon}), got {epoch_length}"
        )
    if max_mean_delay <= 0.0:
        raise ModelValidationError(f"max_mean_delay must be positive, got {max_mean_delay}")
    if cluster.num_classes != trace.num_classes:
        raise ModelValidationError(
            f"cluster has {cluster.num_classes} classes but trace has {trace.num_classes}"
        )
    if start_speeds is None:
        start_speeds = np.array([t.spec.max_speed for t in cluster.tiers])
    sim_cluster = cluster.with_speeds(start_speeds)

    # The Workload object carries names/rates for reporting; arrivals
    # come from the trace replay (zero-arrival classes keep a vanishing
    # nominal rate to satisfy validation).
    rates = np.maximum(trace.rates(), 1e-9)
    workload = workload_from_rates(rates, names=trace.class_names)
    processes = TraceArrivalProcess.from_trace(trace)

    live = policy.fresh()
    epoch_times = np.arange(0.0, trace.horizon, epoch_length)

    controller = live.decide
    if progress is not None:
        n_epochs_total = len(epoch_times)
        epoch_counter = iter(range(n_epochs_total))

        def controller(tb, counts, speeds, _decide=live.decide):
            new_speeds = _decide(tb, counts, speeds)
            progress(next(epoch_counter, -1), n_epochs_total, float(tb))
            return new_speeds

    with obs.span(
        "control.run",
        policy=live.name,
        n_epochs=len(epoch_times),
        horizon=trace.horizon,
    ):
        result = simulate(
            sim_cluster,
            workload,
            horizon=trace.horizon,
            warmup_fraction=warmup_fraction,
            seed=seed,
            arrival_processes=processes,
            allow_unstable=True,
            epoch_times=epoch_times,
            epoch_controller=controller,
            backend=backend,
        )

    window = result.horizon - result.warmup
    mean_delay = float(result.mean_delay)
    obs.event(
        "control.run.done",
        policy=live.name,
        mean_delay=mean_delay,
        average_power=float(result.average_power),
        sla_met=bool(np.isfinite(mean_delay) and mean_delay <= max_mean_delay),
        n_epochs=len(result.meta.get("epoch_trace", [])),
    )
    return ControlRunResult(
        policy_name=live.name,
        total_energy=float(result.average_power * window),
        average_power=float(result.average_power),
        mean_delay=mean_delay,
        delays=result.delays,
        sla_met=bool(np.isfinite(mean_delay) and mean_delay <= max_mean_delay),
        max_mean_delay=float(max_mean_delay),
        result=result,
    )
