"""Adaptive precision-targeted replication engine.

The validation experiments used to burn a *fixed* replication count per
scenario regardless of the precision actually achieved. This module
replaces that with a sequential stopping rule: run replications in
rounds through one :class:`~repro.simulation.parallel.WorkerPool`
that every round reuses, after each round compute per-metric
relative confidence half-widths with a variance-reduced estimator
(:mod:`repro.simulation.vrt`), and stop as soon as a
:class:`PrecisionTarget` is met — or a hard ``max_replications`` cap is
hit.

**Reproducibility contract.** The engine pre-commits to the ordered
``RngStreams.replication_seeds`` sequence of the cap and always
aggregates the *smallest satisfying prefix* of it: after any round it
scans prefix lengths ``n = min_replications .. n_done`` in order and
stops at the first ``n`` whose estimates meet every target. Because the
scan starts from the beginning each round, the chosen ``n`` — and hence
every exported aggregate — is invariant to the round size, the worker
count (``n_jobs``) and completion order. Exported aggregates are the
plain prefix means of :func:`repro.simulation.replications._aggregate`
(bit-identical to a fixed-count run of ``n`` replications at the same
seed); the variance-reduced estimates only decide *when to stop* and
are reported in ``meta["adaptive"]``.

**Estimators.** ``estimator="cv"`` (default) corrects each target
metric with a control variate whose mean is known *analytically* from
the paper's M/G/1 model (:class:`repro.core.batch_eval.BatchEvaluator`):
simulated average power controls the delay metrics, simulated mean
utilization controls the power metric. ``"antithetic"`` simulates
:meth:`~repro.simulation.rng.RngStreams.replication_seed_pairs` pairs
and treats pair means as the iid unit. ``"naive"`` uses the plain
t-interval (useful as a baseline — it makes the engine a pure
sequential stopping rule with no variance reduction).

:func:`compare_scenarios` is the CRN companion: it simulates two
scenarios under **common random numbers** (same master seed → the
:class:`~repro.simulation.rng.RngStreams` CRN contract aligns their
streams replication by replication) and reports paired-t difference
intervals next to the independent-streams Welch intervals they beat.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro import obs
from repro.cluster.model import ClusterModel
from repro.core.batch_eval import BatchEvaluator
from repro.exceptions import ModelValidationError
from repro.simulation.cache import SimulationCache
from repro.simulation.parallel import ReplicationTiming
from repro.simulation.replications import (
    ReplicatedResult,
    _aggregate,
    _ReplicationRunner,
    _resolve_cache,
    _sim_kwargs_common,
    simulate_replications,
)
from repro.simulation.rng import RngStreams
from repro.simulation.simulator import SimulationResult
from repro.simulation.vrt import (
    VrEstimate,
    antithetic_estimate,
    control_variate_estimate,
    independent_difference,
    naive_estimate,
    paired_difference,
    variance_reduction_factor,
)
from repro.workload.arrivals import ArrivalProcess
from repro.workload.classes import Workload

__all__ = [
    "DEFAULT_METRICS",
    "PrecisionTarget",
    "Scenario",
    "ScenarioComparison",
    "simulate_replications_adaptive",
    "compare_scenarios",
]

#: Metrics the precision target applies to when given a scalar
#: tolerance — the two headline quantities of every accuracy table.
DEFAULT_METRICS = ("mean_delay", "average_power")

_ESTIMATORS = ("naive", "cv", "antithetic")


@dataclass(frozen=True)
class PrecisionTarget:
    """When the adaptive engine may stop.

    Parameters
    ----------
    rel_ci:
        Relative CI half-width target(s): a scalar applies to every
        metric in :data:`DEFAULT_METRICS`; a mapping names its metrics
        explicitly (``"mean_delay"``, ``"average_power"`` or
        ``"delay/<class>"``).
    level:
        Confidence level of the half-widths (default 95%).
    min_replications:
        Never stop on fewer units than this (a variance estimate from
        2–3 replications is too noisy to trust a stopping decision to).
    max_replications:
        Hard cap on *simulated replications* (pair members count
        individually under the antithetic estimator). Reaching it stops
        the engine with ``meta["adaptive"]["target_met"] == False``.
    round_size:
        Replications added per round after the first (the first round
        runs ``min_replications``). Purely a batching knob: the chosen
        prefix — and every exported number — is invariant to it.
    estimator:
        ``"cv"`` (default), ``"antithetic"`` or ``"naive"`` — the
        stopping estimator, see the module docstring.
    """

    rel_ci: float | Mapping[str, float] = 0.02
    level: float = 0.95
    min_replications: int = 4
    max_replications: int = 64
    round_size: int = 4
    estimator: str = "cv"

    def __post_init__(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise ModelValidationError(f"confidence level must be in (0, 1), got {self.level}")
        if self.estimator not in _ESTIMATORS:
            raise ModelValidationError(
                f"estimator must be one of {_ESTIMATORS}, got {self.estimator!r}"
            )
        if self.min_replications < 2:
            raise ModelValidationError(
                f"min_replications must be >= 2, got {self.min_replications}"
            )
        if self.max_replications < self.min_replications:
            raise ModelValidationError(
                f"max_replications ({self.max_replications}) must be >= "
                f"min_replications ({self.min_replications})"
            )
        if self.round_size < 1:
            raise ModelValidationError(f"round_size must be >= 1, got {self.round_size}")
        for metric, tol in self.metric_targets().items():
            if not 0.0 < tol < 1.0:
                raise ModelValidationError(
                    f"relative CI target for {metric!r} must be in (0, 1), got {tol}"
                )

    def metric_targets(self) -> dict[str, float]:
        """The explicit ``{metric: rel_ci}`` mapping this target means."""
        if isinstance(self.rel_ci, Mapping):
            if not self.rel_ci:
                raise ModelValidationError("precision target needs at least one metric")
            return {str(k): float(v) for k, v in self.rel_ci.items()}
        return {m: float(self.rel_ci) for m in DEFAULT_METRICS}

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view for telemetry and ``meta`` records."""
        return {
            "rel_ci": self.metric_targets(),
            "level": self.level,
            "min_replications": self.min_replications,
            "max_replications": self.max_replications,
            "round_size": self.round_size,
            "estimator": self.estimator,
        }


def _metric_values(
    runs: list[SimulationResult], metric: str, class_names: tuple[str, ...]
) -> np.ndarray:
    """Per-replication values of one named metric, in run order."""
    if metric == "mean_delay":
        return np.array([r.mean_delay for r in runs])
    if metric == "average_power":
        return np.array([r.average_power for r in runs])
    if metric.startswith("delay/"):
        name = metric.split("/", 1)[1]
        if name not in class_names:
            raise ModelValidationError(
                f"unknown class {name!r} in metric {metric!r}; have {class_names}"
            )
        k = class_names.index(name)
        return np.array([r.delays[k] for r in runs])
    raise ModelValidationError(
        f"unknown metric {metric!r}; supported: 'mean_delay', 'average_power', 'delay/<class>'"
    )


class _ControlPlan:
    """Analytic control variates for the ``cv`` stopping estimator.

    Every replication simulates *all* metrics at once, so a correlated
    companion for each target metric comes for free from the same runs:

    * delay metrics ← the replication's **average power** (both are
      driven by the realized traffic volume), with the known mean
      :meth:`BatchEvaluator.average_power` at the scenario's speeds;
    * the power metric ← the replication's **mean utilization**, with
      known mean ``mean_i(R_i / (c_i s_i))`` from the same kernels.

    Configurations the analytic model does not describe exactly
    (arrival-process overrides, custom routing) get no plan — the
    engine falls back to naive stopping estimates there rather than
    trusting a control mean that is no longer the true expectation.
    """

    def __init__(self, cluster: ClusterModel, workload: Workload):
        ev = BatchEvaluator(cluster, workload)
        speeds = np.asarray(cluster.speeds, dtype=float)
        self.power_mean = float(ev.average_power(speeds)[0])
        rho = np.array(
            [tk.work_rate for tk in ev.kernels]
        ) / (speeds * np.asarray(cluster.server_counts, dtype=float))
        self.utilization_mean = float(rho.mean())

    def control_for(self, metric: str, runs: list[SimulationResult]) -> tuple[np.ndarray, float]:
        """``(control values, known control mean)`` for one metric."""
        if metric == "average_power":
            return (
                np.array([float(np.mean(r.utilizations)) for r in runs]),
                self.utilization_mean,
            )
        return np.array([r.average_power for r in runs]), self.power_mean


def _make_control_plan(
    cluster: ClusterModel,
    workload: Workload,
    arrival_processes: list[ArrivalProcess] | None,
    routing: list | None,
) -> _ControlPlan | None:
    if arrival_processes is not None or routing is not None:
        return None
    try:
        return _ControlPlan(cluster, workload)
    except ModelValidationError:
        return None


def _prefix_estimates(
    runs: list[SimulationResult],
    metrics: dict[str, float],
    target: PrecisionTarget,
    plan: _ControlPlan | None,
    class_names: tuple[str, ...],
) -> dict[str, VrEstimate]:
    """Stopping estimates for every target metric over one run prefix."""
    out: dict[str, VrEstimate] = {}
    for metric in metrics:
        values = _metric_values(runs, metric, class_names)
        if target.estimator == "antithetic":
            out[metric] = antithetic_estimate(values[0::2], values[1::2], target.level)
        elif target.estimator == "cv" and plan is not None and values.size >= 3:
            controls, mu = plan.control_for(metric, runs)
            out[metric] = control_variate_estimate(values, controls, mu, target.level)
        else:
            out[metric] = naive_estimate(values, target.level)
    return out


def _satisfied(estimates: dict[str, VrEstimate], metrics: dict[str, float]) -> bool:
    return all(estimates[m].rel_halfwidth <= tol for m, tol in metrics.items())


def simulate_replications_adaptive(
    cluster: ClusterModel,
    workload: Workload,
    horizon: float,
    target: PrecisionTarget | None = None,
    warmup_fraction: float = 0.1,
    seed: int = 0,
    arrival_processes: list[ArrivalProcess] | None = None,
    collect_delay_samples: bool = False,
    *,
    routing: list | None = None,
    allow_unstable: bool = False,
    collect_job_log: bool = False,
    n_jobs: int | None = None,
    cache_dir: str | SimulationCache | None = None,
    progress: Callable[[ReplicationTiming, int, int], None] | None = None,
) -> ReplicatedResult:
    """Replicate until ``target`` precision is reached (or its cap).

    Drop-in sibling of
    :func:`repro.simulation.replications.simulate_replications`: same
    configuration surface, same :class:`ReplicatedResult`, same
    bit-identical-for-any-``n_jobs`` guarantee — but the replication
    count is chosen by the engine. ``meta["adaptive"]`` records the
    full round trace: per-round estimates, the stopping decision, the
    replications/events saved against the cap and the measured
    variance-reduction factors.
    """
    if target is None:
        target = PrecisionTarget()
    with obs.span(
        "sim.replications.adaptive",
        horizon=horizon,
        estimator=target.estimator,
        max_replications=target.max_replications,
        n_jobs=n_jobs,
        cache=cache_dir is not None,
    ):
        t_start = time.perf_counter()
        metrics = target.metric_targets()
        antithetic = target.estimator == "antithetic"
        # The iid *unit* of the stopping rule: an antithetic pair costs two
        # simulated replications, every other estimator's unit costs one.
        members = 2 if antithetic else 1
        max_units = max(target.max_replications // members, 1)
        min_units = min(max(-(-target.min_replications // members), 2), max_units)

        if antithetic:
            pairs = RngStreams.replication_seed_pairs(seed, max_units)
            seeds: list[Any] = [member for pair in pairs for member in pair]
        else:
            seeds = list(RngStreams.replication_seeds(seed, max_units))

        plan = (
            _make_control_plan(cluster, workload, arrival_processes, routing)
            if target.estimator == "cv"
            else None
        )
        class_names = tuple(workload.names)

        runner = _ReplicationRunner(
            _sim_kwargs_common(
                cluster,
                workload,
                horizon,
                warmup_fraction,
                arrival_processes,
                collect_delay_samples,
                routing,
                allow_unstable,
                collect_job_log,
            ),
            seeds,
            cache=_resolve_cache(cache_dir),
            n_jobs=n_jobs,
            progress=progress,
        )

        rounds: list[dict[str, Any]] = []
        n_units_done = 0
        n_units_used: int | None = None
        with runner:
            while True:
                grow = min_units if not rounds else target.round_size
                n_units_done = min(n_units_done + grow, max_units)
                runner.ensure(range(n_units_done * members))
                # Smallest satisfying prefix: scanned from min_units every
                # round, so the chosen prefix cannot depend on how the
                # rounds happened to be batched.
                estimates = None
                for n in range(min_units, n_units_done + 1):
                    candidate = _prefix_estimates(
                        runner.runs(n * members), metrics, target, plan, class_names
                    )
                    if _satisfied(candidate, metrics):
                        n_units_used, estimates = n, candidate
                        break
                if estimates is None:
                    estimates = _prefix_estimates(
                        runner.runs(n_units_done * members), metrics, target, plan, class_names
                    )
                rounds.append(
                    {
                        "round": len(rounds),
                        "n_available": n_units_done * members,
                        "estimates": {m: e.as_dict() for m, e in estimates.items()},
                        "stop_at": None if n_units_used is None else n_units_used * members,
                    }
                )
                obs.event(
                    "sim.adaptive.round",
                    round=rounds[-1]["round"],
                    n_available=rounds[-1]["n_available"],
                    stop_at=rounds[-1]["stop_at"],
                    **{
                        f"rel_ci.{m}": estimates[m].rel_halfwidth
                        for m in metrics
                    },
                )
                if n_units_used is not None or n_units_done >= max_units:
                    break

        target_met = n_units_used is not None
        final_units = n_units_used if target_met else n_units_done
        n_used = final_units * members
        n_simulated = len(runner.results)
        final_runs = runner.runs(n_used)

        # Final-prefix estimates: the stopping estimator next to the naive
        # baseline, so the realized variance-reduction factor is on record.
        stopping = _prefix_estimates(final_runs, metrics, target, plan, class_names)
        naive = {
            m: naive_estimate(_metric_values(final_runs, m, class_names), target.level)
            for m in metrics
        }
        adaptive_meta = {
            "target": target.as_dict(),
            "rounds": rounds,
            "n_rounds": len(rounds),
            "n_simulated": n_simulated,
            "n_used": n_used,
            "reps_saved_vs_cap": target.max_replications - n_simulated,
            "target_met": target_met,
            "estimates": {m: e.as_dict() for m, e in stopping.items()},
            "naive_estimates": {m: e.as_dict() for m, e in naive.items()},
            "vr_factor": {
                m: variance_reduction_factor(naive[m], stopping[m]) for m in metrics
            },
        }
        obs.counter("sim.adaptive.rounds").add(len(rounds))
        obs.counter("sim.adaptive.reps_saved").add(max(target.max_replications - n_simulated, 0))
        meta = runner.meta(time.perf_counter() - t_start, adaptive=adaptive_meta)
        return _aggregate(final_runs, n_used, meta)


# ----------------------------------------------------------------------
# CRN-paired scenario comparison
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One side of a CRN-paired comparison."""

    cluster: ClusterModel
    workload: Workload
    label: str = ""
    arrival_processes: list[ArrivalProcess] | None = None
    routing: list | None = None
    allow_unstable: bool = False


@dataclass
class ScenarioComparison:
    """Paired vs independent difference intervals for two scenarios.

    ``metrics[name]`` holds the CRN ``paired`` interval (paired-t over
    per-replication differences), the ``independent`` Welch interval
    the pairing is measured against, the within-pair ``correlation``
    and the ``vr_factor`` — how many independent replications one CRN
    pair is worth, ``(hw_indep / hw_paired)^2``.
    """

    result_a: ReplicatedResult
    result_b: ReplicatedResult
    label_a: str
    label_b: str
    metrics: dict[str, dict[str, Any]]
    meta: dict[str, Any] = field(default_factory=dict)

    def paired(self, metric: str) -> VrEstimate:
        """The CRN paired-t difference interval for ``metric``."""
        return self.metrics[metric]["paired"]

    def independent(self, metric: str) -> VrEstimate:
        """The independent-streams Welch interval for ``metric``."""
        return self.metrics[metric]["independent"]

    def vr_factor(self, metric: str) -> float:
        """Replication-count multiplier the pairing is worth."""
        return self.metrics[metric]["vr_factor"]


def compare_scenarios(
    scenario_a: Scenario,
    scenario_b: Scenario,
    horizon: float,
    n_replications: int = 5,
    metrics: tuple[str, ...] = DEFAULT_METRICS,
    warmup_fraction: float = 0.1,
    seed: int = 0,
    level: float = 0.95,
    collect_delay_samples: bool = False,
    *,
    n_jobs: int | None = None,
    cache_dir: str | SimulationCache | None = None,
) -> ScenarioComparison:
    """Simulate two scenarios under CRN and compare them pairwise.

    Both scenarios replicate from the **same master seed**, so the
    :class:`~repro.simulation.rng.RngStreams` CRN contract aligns their
    arrival and service streams replication by replication; replication
    ``j`` of A and of B form one pair. For each requested metric the
    comparison reports the paired-t interval on the per-pair
    differences and the Welch interval that ignores the pairing — with
    positively correlated pairs (the CRN case) the paired interval is
    strictly tighter at the same replication count.
    """
    if n_replications < 2:
        raise ModelValidationError(
            f"a paired comparison needs at least 2 replications, got {n_replications}"
        )
    with obs.span(
        "sim.compare",
        n_replications=n_replications,
        horizon=horizon,
        n_jobs=n_jobs,
    ):
        results = []
        for sc in (scenario_a, scenario_b):
            results.append(
                simulate_replications(
                    sc.cluster,
                    sc.workload,
                    horizon,
                    n_replications,
                    warmup_fraction,
                    seed,
                    sc.arrival_processes,
                    collect_delay_samples,
                    routing=sc.routing,
                    allow_unstable=sc.allow_unstable,
                    n_jobs=n_jobs,
                    cache_dir=cache_dir,
                )
            )
        ra, rb = results
        table: dict[str, dict[str, Any]] = {}
        for metric in metrics:
            va = _metric_values(ra.replications, metric, ra.class_names)
            vb = _metric_values(rb.replications, metric, rb.class_names)
            paired = paired_difference(va, vb, level)
            indep = independent_difference(va, vb, level)
            if va.size >= 2 and np.std(va) > 0.0 and np.std(vb) > 0.0:
                correlation = float(np.corrcoef(va, vb)[0, 1])
            else:
                correlation = float("nan")
            table[metric] = {
                "paired": paired,
                "independent": indep,
                "correlation": correlation,
                "vr_factor": variance_reduction_factor(indep, paired),
            }
            obs.event(
                "sim.compare.metric",
                metric=metric,
                difference=paired.value,
                hw_paired=paired.halfwidth,
                hw_independent=indep.halfwidth,
                correlation=correlation,
            )
        return ScenarioComparison(
            result_a=ra,
            result_b=rb,
            label_a=scenario_a.label,
            label_b=scenario_b.label,
            metrics=table,
            meta={
                "seed": seed,
                "n_replications": n_replications,
                "horizon": horizon,
                "level": level,
                "crn": True,
            },
        )
