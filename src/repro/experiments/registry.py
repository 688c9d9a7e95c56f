"""Registry mapping experiment IDs to their driver modules.

One place the CLI, the benchmarks and the docs all agree on. Each
entry carries the kwargs for a *full* run (what the benchmarks use)
and a *quick* run (seconds, for smoke checks and the CLI default).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any

from repro import obs
from repro.exceptions import ModelValidationError
from repro.experiments import (
    exp_a1_priority_vs_fcfs,
    exp_a2_np_vs_pr,
    exp_a3_multiserver_approx,
    exp_a4_dvfs_vs_onoff,
    exp_a5_decomposition_depth,
    exp_a6_admission_control,
    exp_a7_online_control,
    exp_f1_delay_vs_load,
    exp_f2_energy_vs_speed,
    exp_f3_delay_opt_tradeoff,
    exp_f4_energy_opt_tradeoff,
    exp_f5_perclass_vs_aggregate,
    exp_f6_cost_vs_load,
    exp_f7_percentile_accuracy,
    exp_f8_dynamic_power,
    exp_f9_tco_vs_energy_price,
    exp_t1_delay_accuracy,
    exp_t2_energy_accuracy,
    exp_t3_cost_allocation,
    exp_t4_solver_efficiency,
    exp_t5_percentile_sla_cost,
)

__all__ = ["Experiment", "REGISTRY", "get_experiment", "run_experiment"]


@dataclass(frozen=True)
class Experiment:
    """One reconstructed table/figure."""

    id: str
    title: str
    module: ModuleType
    full_kwargs: dict[str, Any] = field(default_factory=dict)
    quick_kwargs: dict[str, Any] = field(default_factory=dict)

    def run(self, quick: bool = False, **overrides: Any):
        """Execute the driver with the registered parameters.

        ``overrides`` (e.g. ``n_jobs``, ``cache_dir`` from the CLI) are
        forwarded only to drivers whose ``run()`` accepts them —
        analytic-only experiments silently ignore engine knobs. ``None``
        values are dropped.
        """
        kwargs = dict(self.quick_kwargs if quick else self.full_kwargs)
        if overrides:
            accepted = inspect.signature(self.module.run).parameters
            kwargs.update(
                {k: v for k, v in overrides.items() if v is not None and k in accepted}
            )
        with obs.span("experiment.run", id=self.id, quick=quick) as sp:
            result = self.module.run(**kwargs)
        obs.event("experiment.done", id=self.id, quick=quick, wall_s=sp.wall_s)
        obs.timer("experiment.seconds").observe(sp.wall_s)
        return result

    def render(self, result) -> str:
        """Render a result produced by :meth:`run`."""
        return self.module.render(result)


_QUICK_SIM = dict(horizon=800.0, n_replications=2)

REGISTRY: dict[str, Experiment] = {
    e.id: e
    for e in [
        Experiment(
            "T1",
            "analytic vs simulated per-class end-to-end delay",
            exp_t1_delay_accuracy,
            full_kwargs=dict(horizon=2500.0, n_replications=4),
            quick_kwargs=dict(load_factors=(1.0,), **_QUICK_SIM),
        ),
        Experiment(
            "T2",
            "analytic vs simulated power and energy",
            exp_t2_energy_accuracy,
            full_kwargs=dict(horizon=2500.0, n_replications=4),
            quick_kwargs=dict(load_factors=(1.0,), **_QUICK_SIM),
        ),
        Experiment(
            "F1",
            "per-class delay vs offered load",
            exp_f1_delay_vs_load,
        ),
        Experiment(
            "F2",
            "power/energy/delay vs uniform speed (alpha sweep)",
            exp_f2_energy_vs_speed,
        ),
        Experiment(
            "F3",
            "P1 trade-off: optimal delay vs power budget",
            exp_f3_delay_opt_tradeoff,
            full_kwargs=dict(n_points=8),
            quick_kwargs=dict(n_points=4, n_starts=2),
        ),
        Experiment(
            "F4",
            "P2a trade-off: minimal power vs aggregate delay bound",
            exp_f4_energy_opt_tradeoff,
            full_kwargs=dict(n_points=8),
            quick_kwargs=dict(n_points=4),
        ),
        Experiment(
            "F5",
            "P2b vs P2a: energy price of per-class guarantees",
            exp_f5_perclass_vs_aggregate,
            quick_kwargs=dict(ratios=(1.0, 2.0, 4.0), n_starts=2),
        ),
        Experiment(
            "T3",
            "P3 min-cost allocation vs exhaustive & baselines",
            exp_t3_cost_allocation,
            full_kwargs=dict(small_cap=8),
            quick_kwargs=dict(small_cap=6),
        ),
        Experiment(
            "F6",
            "P3 cost vs offered load",
            exp_f6_cost_vs_load,
        ),
        Experiment(
            "T4",
            "solver efficiency vs exhaustive search",
            exp_t4_solver_efficiency,
            quick_kwargs=dict(small_caps=(6,)),
        ),
        Experiment(
            "T5",
            "P3 cost under percentile SLAs",
            exp_t5_percentile_sla_cost,
            quick_kwargs=dict(multipliers=(3.0, 2.0)),
        ),
        Experiment(
            "F7",
            "percentile delays: approximation vs simulation",
            exp_f7_percentile_accuracy,
            full_kwargs=dict(horizon=2500.0, n_replications=4),
            quick_kwargs=dict(levels=(0.9,), **_QUICK_SIM),
        ),
        Experiment(
            "F8",
            "dynamic vs static power management (diurnal day)",
            exp_f8_dynamic_power,
            quick_kwargs=dict(n_epochs=8),
        ),
        Experiment(
            "F9",
            "TCO-optimal allocation vs energy price",
            exp_f9_tco_vs_energy_price,
            quick_kwargs=dict(prices=(0.0, 0.04)),
        ),
        Experiment(
            "A1",
            "ablation: priority vs aggregate-FCFS model error",
            exp_a1_priority_vs_fcfs,
            full_kwargs=dict(horizon=2500.0, n_replications=4),
            quick_kwargs=dict(load_factors=(1.5,), **_QUICK_SIM),
        ),
        Experiment(
            "A2",
            "ablation: non-preemptive vs preemptive-resume",
            exp_a2_np_vs_pr,
            full_kwargs=dict(horizon=2500.0, n_replications=4),
            quick_kwargs=_QUICK_SIM,
        ),
        Experiment(
            "A3",
            "ablation: multi-server priority approximation",
            exp_a3_multiserver_approx,
            full_kwargs=dict(horizon=25000.0, n_replications=3),
            quick_kwargs=dict(server_counts=(1, 2), horizon=6000.0, n_replications=2),
        ),
        Experiment(
            "A4",
            "ablation: DVFS vs server on/off vs combined",
            exp_a4_dvfs_vs_onoff,
            quick_kwargs=dict(n_points=3),
        ),
        Experiment(
            "A5",
            "ablation: decomposition error vs network depth",
            exp_a5_decomposition_depth,
            full_kwargs=dict(horizon=25000.0, n_replications=3),
            quick_kwargs=dict(depths=(1, 3), horizon=6000.0, n_replications=2),
        ),
        Experiment(
            "A6",
            "ablation: admission control vs open queueing under overload",
            exp_a6_admission_control,
            quick_kwargs=dict(offered_loads=(3.0, 6.0), horizon=2000.0),
        ),
        Experiment(
            "A7",
            "ablation: online drift-plus-penalty control vs planned schedules",
            exp_a7_online_control,
            quick_kwargs=dict(
                horizon=400.0,
                plan_window=50.0,
                v_param=5e-4,
                v_sweep=(1e-4, 5e-4, 2e-3),
            ),
        ),
    ]
}


def get_experiment(experiment_id: str) -> Experiment:
    """Look an experiment up by (case-insensitive) ID."""
    key = experiment_id.upper()
    if key not in REGISTRY:
        raise ModelValidationError(
            f"unknown experiment {experiment_id!r}; have {sorted(REGISTRY)}"
        )
    return REGISTRY[key]


def run_experiment(
    experiment_id: str,
    quick: bool = False,
    n_jobs: int | None = None,
    cache_dir: str | None = None,
    target_rel_ci: float | None = None,
    max_reps: int | None = None,
    controller: str | None = None,
    v_param: float | None = None,
) -> str:
    """Run an experiment by ID and return its rendered table.

    ``n_jobs`` reaches the simulation-backed drivers (T1, T2, A1–A3,
    A5, F7) *and* the analytic sweep drivers (F3, F4, F5, F6, A4),
    which fan their independent series out over worker processes;
    ``cache_dir`` is simulation-only. ``target_rel_ci`` (with optional
    ``max_reps``) switches the adaptive-capable drivers (T1, T2, F7)
    to the precision-targeted replication engine. ``controller`` and
    ``v_param`` reach the online-control driver (A7): restrict the run
    to one policy and/or override the drift-plus-penalty trade-off.
    Other experiments ignore the knobs they don't take.
    """
    exp = get_experiment(experiment_id)
    return exp.render(
        exp.run(
            quick=quick,
            n_jobs=n_jobs,
            cache_dir=cache_dir,
            target_rel_ci=target_rel_ci,
            max_reps=max_reps,
            controller=controller,
            v_param=v_param,
        )
    )
