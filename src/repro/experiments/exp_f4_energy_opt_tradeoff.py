"""F4 — P2a trade-off: minimal average power vs aggregate delay bound.

The dual of F3: sweep the aggregate mean-delay bound from just above
the fastest achievable delay to a loose bound and solve P2a at each
point, against the uniform-speed baseline meeting the same bound.

P2a is solved by tier decomposition, exactly at every bound, so the
sweep (:func:`repro.optimize.sweep.continuation_sweep`, kept for its
per-point telemetry) seeds no point from its neighbor; the baseline
runs as an independent series (``n_jobs``).

Expected shape: a convex frontier — power explodes as the bound
tightens toward the zero-headroom delay, flattens to the minimum
stable power as it loosens; the optimizer saves the most energy at
moderate bounds, where per-tier intelligence has room to act.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.series import SweepSeries
from repro.baselines import uniform_speed_for_delay
from repro.cluster.model import ClusterModel
from repro.core.delay import mean_end_to_end_delay
from repro.core.opt_energy import minimize_energy
from repro.experiments.common import canonical_cluster, canonical_workload, stability_box_profile
from repro.optimize.sweep import ContinuationSweep, continuation_sweep, run_series
from repro.workload.classes import Workload

__all__ = ["F4Result", "run", "render"]


@dataclass
class F4Result:
    """The frontier series and the feasible delay-bound range."""

    series: SweepSeries
    best_delay: float
    worst_delay: float
    optimal_sweep: ContinuationSweep | None = field(default=None, repr=False)

    @property
    def optimal_dominates(self) -> bool:
        """True iff the optimizer never uses more power than the
        uniform baseline (up to solver tolerance)."""
        opt = self.series.columns["optimal power (W)"]
        uni = self.series.columns["uniform power (W)"]
        return bool(np.all(opt <= uni + 1e-6))


def _optimal_series(
    cluster: ClusterModel, workload: Workload, bounds: np.ndarray
) -> ContinuationSweep:
    """The P2a frontier, one solve per delay bound (each solve is exact,
    so no point is seeded from its neighbor)."""

    def solve(bound: float, _hint: None):
        return minimize_energy(cluster, workload, max_mean_delay=float(bound))

    return continuation_sweep(solve, bounds, warm_start=False, label="f4.optimal")


def _uniform_series(cluster: ClusterModel, workload: Workload, bounds: np.ndarray) -> np.ndarray:
    """Power of the uniform-speed baseline meeting each bound."""
    lam = workload.arrival_rates
    out = []
    for d in bounds:
        s = uniform_speed_for_delay(cluster, workload, float(d))
        out.append(cluster.with_speeds(s).average_power(lam))
    return np.array(out)


def run(
    n_points: int = 8,
    load_factor: float = 1.0,
    n_jobs: int | None = None,
) -> F4Result:
    """Solve P2a along a delay-bound sweep on the canonical cluster."""
    cluster = canonical_cluster()
    workload = canonical_workload(load_factor)

    profile = stability_box_profile(cluster, workload)
    best, worst = profile.best_mean_delay, profile.worst_mean_delay
    # Geometric spacing: the interesting (steep) part of the frontier
    # sits near the tight end, which linear spacing would under-sample.
    bounds = np.geomspace(best * 1.05, worst * 0.98, n_points)

    series_out = run_series(
        {
            "optimal": (_optimal_series, (cluster, workload, bounds)),
            "uniform": (_uniform_series, (cluster, workload, bounds)),
        },
        n_jobs=n_jobs,
    )
    sweep: ContinuationSweep = series_out["optimal"]

    series = SweepSeries(
        name="F4: P2a minimal power vs aggregate delay bound",
        x_label="delay bound (s)",
        x=bounds,
        columns={
            "optimal power (W)": sweep.column(lambda r: r.meta["power"]),
            "uniform power (W)": series_out["uniform"],
            "achieved delay (s)": sweep.column(
                lambda r: mean_end_to_end_delay(r.meta["cluster"], workload)
            ),
        },
    )
    return F4Result(
        series=series,
        best_delay=best,
        worst_delay=worst,
        optimal_sweep=sweep,
    )


def render(result: F4Result) -> str:
    """The frontier as a text table plus the dominance check."""
    out = result.series.to_table()
    out += (
        f"\nfeasible mean-delay range: [{result.best_delay:.4g}, {result.worst_delay:.4g}] s"
        f"\noptimal power <= uniform baseline everywhere: {result.optimal_dominates}"
    )
    if result.optimal_sweep is not None:
        out += (
            f"\nsolver effort: {result.optimal_sweep.total_evaluations} model evaluations "
            f"over {len(result.optimal_sweep.points)} points"
        )
    return out
