"""F8 — dynamic power management on a diurnal load curve.

Extension: the paper's P2 solved once per epoch as the load follows a
24-hour cycle (sinusoidal mix of the canonical classes, trough 25% /
peak 160% of the nominal rates), against three static policies:

* **static-max** — all tiers at full speed all day (no power
  management);
* **static-peak** — one P2a solve at the *peak* load, held all day
  (conservative static management);
* **static-mean** — one P2a solve at the *average* load, held all day
  (aggressive static management).

Expected shape: static-max and static-peak meet the bound everywhere
but burn the most energy; static-mean saves energy but violates the
bound around the peak hours; the dynamic controller is fully compliant
at the lowest energy of the compliant policies — energy proportional
to the load curve rather than its peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analysis.tables import ascii_table
from repro.core.controller import evaluate_schedule, plan_speed_schedule, static_plan
from repro.core.opt_energy import minimize_energy
from repro.exceptions import InfeasibleProblemError
from repro.experiments.common import canonical_cluster, canonical_workload

__all__ = ["F8Result", "run", "render", "diurnal_rates"]

DAY = 24.0  # hours, arbitrary epoch unit


def diurnal_rates(
    n_epochs: int = 24, trough: float = 0.25, peak: float = 1.6
) -> tuple[np.ndarray, np.ndarray]:
    """Per-epoch class rates on a sinusoidal day.

    Returns ``(epoch_starts, rates)`` with rates of shape
    ``(n_epochs, 3)`` scaling the canonical class mix.
    """
    starts = np.linspace(0.0, DAY, n_epochs, endpoint=False)
    base = canonical_workload().arrival_rates
    # Minimum at t=4h, maximum at t=16h.
    phase = 2.0 * np.pi * (starts - 16.0) / DAY
    factors = (peak + trough) / 2.0 + (peak - trough) / 2.0 * np.cos(phase)
    return starts, factors[:, None] * base[None, :]


@dataclass
class F8Result:
    """Per-policy energy/compliance rows."""

    rows: list[list[Any]] = field(default_factory=list)
    dynamic_energy: float = float("nan")
    static_peak_energy: float = float("nan")
    static_mean_compliance: float = float("nan")

    @property
    def dynamic_saves_vs_peak(self) -> float:
        """Relative energy saving of dynamic over static-peak."""
        return 1.0 - self.dynamic_energy / self.static_peak_energy

    @property
    def dynamic_fully_compliant(self) -> bool:
        """Dynamic policy met the bound in every epoch."""
        row = [r for r in self.rows if r[0] == "dynamic P2a"][0]
        return row[3] >= 1.0


def run(
    max_mean_delay: float = 0.35,
    n_epochs: int = 24,
) -> F8Result:
    """Run the four policies over one synthetic day."""
    cluster = canonical_cluster()
    names = list(canonical_workload().names)
    starts, rates = diurnal_rates(n_epochs)

    result = F8Result()

    def add(policy: str, plans) -> None:
        rep = evaluate_schedule(plans)
        result.rows.append(
            [
                policy,
                round(rep.total_energy, 1),
                round(rep.average_power, 1),
                rep.compliance,
                round(rep.worst_mean_delay, 4),
            ]
        )

    # Dynamic controller.
    dynamic = plan_speed_schedule(cluster, names, starts, rates, DAY, max_mean_delay)
    add("dynamic P2a", dynamic)
    result.dynamic_energy = evaluate_schedule(dynamic).total_energy

    # Static policies.
    max_speeds = np.array([t.spec.max_speed for t in cluster.tiers])
    add("static max speed", static_plan(cluster, names, starts, rates, DAY, max_mean_delay, max_speeds))

    def p2a_speeds_at(r: np.ndarray) -> np.ndarray:
        from repro.workload.classes import CustomerClass, Workload

        wl = Workload([CustomerClass(n, float(x)) for n, x in zip(names, r)])
        try:
            return minimize_energy(cluster, wl, max_mean_delay=max_mean_delay).x
        except InfeasibleProblemError:
            return max_speeds

    peak_idx = int(np.argmax(rates.sum(axis=1)))
    peak_plan = static_plan(
        cluster, names, starts, rates, DAY, max_mean_delay, p2a_speeds_at(rates[peak_idx])
    )
    add("static P2a @ peak", peak_plan)
    result.static_peak_energy = evaluate_schedule(peak_plan).total_energy

    mean_plan = static_plan(
        cluster, names, starts, rates, DAY, max_mean_delay, p2a_speeds_at(rates.mean(axis=0))
    )
    add("static P2a @ mean", mean_plan)
    result.static_mean_compliance = evaluate_schedule(mean_plan).compliance

    return result


def render(result: F8Result) -> str:
    """Policy comparison table plus the headline saving."""
    table = ascii_table(
        ["policy", "energy (Wh)", "avg power (W)", "compliance", "worst mean delay (s)"],
        result.rows,
        title="F8: dynamic vs static power management over a diurnal day "
        "(bound = aggregate mean delay)",
    )
    return (
        table
        + f"\ndynamic saves {result.dynamic_saves_vs_peak:.1%} energy vs static-peak"
        + f"\ndynamic fully compliant: {result.dynamic_fully_compliant}"
        + f"\nstatic-mean compliance: {result.static_mean_compliance:.0%} (violates at peak)"
    )
