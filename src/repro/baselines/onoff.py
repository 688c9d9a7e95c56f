"""Server on/off (consolidation) power management.

The classic alternative to DVFS speed scaling: keep servers at full
speed but power a subset of them *off*, saving their idle draw. With
``n_i <= c_i`` tiers active at maximum speed, the tier's average power
is

    P_i = n_i · P_idle,i + R_i · κ_i · s_max,i^{α_i − 1}

— the dynamic term is fixed (the work has to happen at ``s_max``), so
on/off attacks only the idle floor, whereas DVFS attacks only the
dynamic term. Which mechanism wins depends on the idle/dynamic power
split; ablation A4 maps the comparison (and their combination) against
a mean-delay constraint.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.model import ClusterModel
from repro.core.delay import mean_end_to_end_delay
from repro.core.opt_energy import minimize_energy
from repro.exceptions import InfeasibleProblemError, UnstableSystemError
from repro.workload.classes import Workload

__all__ = ["min_power_onoff", "min_power_onoff_with_dvfs"]


def _delay_at(cluster_max: ClusterModel, workload: Workload, counts: np.ndarray) -> float:
    try:
        return mean_end_to_end_delay(cluster_max.with_servers(counts), workload)
    except UnstableSystemError:
        return float("inf")


def min_power_onoff(
    cluster: ClusterModel, workload: Workload, max_mean_delay: float
) -> tuple[np.ndarray, float]:
    """Fewest active servers (all at max speed) meeting the delay bound.

    Greedy removal: starting from all servers on, repeatedly switch off
    the server whose removal saves the most idle power while keeping
    the aggregate mean delay within the bound.

    Returns
    -------
    (active_counts, average_power)

    Raises
    ------
    InfeasibleProblemError
        If the bound cannot be met even with every server on.
    """
    at_max = cluster.with_speeds([t.spec.max_speed for t in cluster.tiers])
    counts = at_max.server_counts.copy()
    if _delay_at(at_max, workload, counts) > max_mean_delay:
        raise InfeasibleProblemError(
            f"mean-delay bound {max_mean_delay:.6g}s unreachable even with all "
            f"{counts.tolist()} servers on at maximum speed"
        )
    idle = np.array([t.spec.power.idle for t in at_max.tiers])
    improved = True
    while improved:
        improved = False
        # Try switching off at the tier with the largest idle draw first.
        for i in np.argsort(-idle):
            if counts[i] <= 1:
                continue
            trial = counts.copy()
            trial[i] -= 1
            if _delay_at(at_max, workload, trial) <= max_mean_delay:
                counts = trial
                improved = True
                break
    final = at_max.with_servers(counts)
    return counts, final.average_power(workload.arrival_rates)


def min_power_onoff_with_dvfs(
    cluster: ClusterModel, workload: Workload, max_mean_delay: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Combined mechanism: consolidate servers, then DVFS the rest.

    Runs the on/off greedy first, then P2a (speed optimization) on the
    reduced configuration, and finally checks whether keeping one more
    server per tier with slower speeds does better — a light local
    search over the count/speed interaction.

    Returns
    -------
    (active_counts, speeds, average_power)
    """
    counts, _ = min_power_onoff(cluster, workload, max_mean_delay)
    best = None
    # Candidates: the on/off optimum, single-server relaxations of it
    # (adding a server back lowers utilization, letting DVFS slow the
    # whole tier down), and the all-on configuration — including the
    # latter guarantees the combination is never worse than DVFS alone.
    candidates = [counts, cluster.server_counts.copy()]
    for i in range(counts.size):
        if counts[i] < cluster.server_counts[i]:
            trial = counts.copy()
            trial[i] += 1
            candidates.append(trial)
    for cand in candidates:
        reduced = cluster.with_servers(cand)
        try:
            res = minimize_energy(reduced, workload, max_mean_delay=max_mean_delay)
        except InfeasibleProblemError:
            continue
        if res.success and (best is None or res.meta["power"] < best[2]):
            best = (cand, res.x, float(res.meta["power"]))
    if best is None:
        # DVFS found nothing better than plain on/off at max speed.
        at_max = cluster.with_speeds([t.spec.max_speed for t in cluster.tiers])
        final = at_max.with_servers(counts)
        return counts, final.speeds, final.average_power(workload.arrival_rates)
    return best
