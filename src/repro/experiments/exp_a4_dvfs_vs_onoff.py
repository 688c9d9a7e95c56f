"""A4 — ablation: DVFS speed scaling vs server on/off vs both.

The paper manages power through speed scaling; the classic alternative
powers whole servers off. The two mechanisms attack different terms of
the tier power ``c·P_idle + R·κ·s^{α−1}``: on/off shrinks the idle
floor, DVFS shrinks the dynamic term. This ablation solves the same
P2a problem (min power s.t. a mean-delay bound) with each mechanism
and with their combination across a sweep of delay bounds.

Each mechanism solves every bound on its own (P2a by tier
decomposition, exactly), and the three mechanisms run as independent
series (``n_jobs``).

Expected shape: the combination is never worse than either mechanism
alone; DVFS wins where the dynamic term dominates (tight bounds force
servers on anyway), on/off wins at loose bounds where whole idle
servers can be shed; with the canonical idle/dynamic split the
combined curve hugs the better of the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.series import SweepSeries
from repro.baselines.onoff import min_power_onoff, min_power_onoff_with_dvfs
from repro.cluster.model import ClusterModel
from repro.core.opt_energy import minimize_energy
from repro.exceptions import InfeasibleProblemError
from repro.experiments.common import canonical_cluster, canonical_workload, stability_box_profile
from repro.optimize.sweep import ContinuationSweep, continuation_sweep, run_series
from repro.workload.classes import Workload

__all__ = ["A4Result", "run", "render"]


@dataclass
class A4Result:
    """Power of each mechanism along the delay-bound sweep."""

    series: SweepSeries
    dvfs_sweep: ContinuationSweep | None = field(default=None, repr=False)

    @property
    def combined_never_worse(self) -> bool:
        """Combined mechanism <= min(DVFS, on/off) everywhere (within
        solver tolerance)."""
        dvfs = self.series.columns["DVFS power (W)"]
        onoff = self.series.columns["on/off power (W)"]
        both = self.series.columns["combined power (W)"]
        best_single = np.fmin(dvfs, onoff)
        ok = np.isfinite(both) & np.isfinite(best_single)
        return bool(np.all(both[ok] <= best_single[ok] + 1.0))


def _dvfs_series(
    cluster: ClusterModel, workload: Workload, bounds: np.ndarray
) -> ContinuationSweep:
    """P2a at fixed counts (pure DVFS), one solve per bound."""

    def solve(d: float, _hint: None):
        return minimize_energy(cluster, workload, max_mean_delay=float(d))

    return continuation_sweep(solve, bounds, warm_start=False, label="a4.dvfs")


def _onoff_series(
    cluster: ClusterModel, workload: Workload, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Server on/off at max speed: (power, active servers) per bound."""
    powers, servers = [], []
    for d in bounds:
        try:
            counts, p = min_power_onoff(cluster, workload, float(d))
            powers.append(p)
            servers.append(float(counts.sum()))
        except InfeasibleProblemError:
            powers.append(float("nan"))
            servers.append(float("nan"))
    return np.array(powers), np.array(servers)


def _combined_series(
    cluster: ClusterModel, workload: Workload, bounds: np.ndarray
) -> np.ndarray:
    """On/off + DVFS combined: the count enumeration re-solves DVFS per
    candidate."""
    out = []
    for d in bounds:
        try:
            _, _, p_both = min_power_onoff_with_dvfs(cluster, workload, float(d))
            out.append(p_both)
        except InfeasibleProblemError:
            out.append(float("nan"))
    return np.array(out)


def run(
    n_points: int = 6,
    load_factor: float = 1.0,
    n_jobs: int | None = None,
) -> A4Result:
    """Sweep mean-delay bounds; solve P2a by each mechanism."""
    cluster = canonical_cluster()
    workload = canonical_workload(load_factor)

    best = stability_box_profile(cluster, workload).best_mean_delay
    bounds = np.geomspace(best * 1.1, best * 6.0, n_points)

    series_out = run_series(
        {
            "dvfs": (_dvfs_series, (cluster, workload, bounds)),
            "onoff": (_onoff_series, (cluster, workload, bounds)),
            "combined": (_combined_series, (cluster, workload, bounds)),
        },
        n_jobs=n_jobs,
    )
    sweep: ContinuationSweep = series_out["dvfs"]
    onoff_p, onoff_servers = series_out["onoff"]

    series = SweepSeries(
        name="A4: minimal power vs delay bound — DVFS vs server on/off vs combined",
        x_label="mean-delay bound (s)",
        x=bounds,
        columns={
            "DVFS power (W)": sweep.column(lambda r: r.meta["power"]),
            "on/off power (W)": onoff_p,
            "combined power (W)": series_out["combined"],
            "on/off active servers": onoff_servers,
        },
    )
    return A4Result(series=series, dvfs_sweep=sweep)


def render(result: A4Result) -> str:
    """The mechanism comparison plus the dominance check."""
    out = result.series.to_table()
    out += f"\ncombined never worse than either mechanism: {result.combined_never_worse}"
    return out
