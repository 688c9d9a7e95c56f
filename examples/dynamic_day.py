#!/usr/bin/env python3
"""Running the power manager through a day of traced traffic.

Scenario: traffic follows a diurnal curve (quiet nights, an afternoon
peak at 160% of nominal). The operator records a day-long arrival
trace, forecasts the next day's hourly rates from it, and lets the
model-predictive controller re-solve P2a every hour. The script
reports the hourly speed schedule and the day's energy bill against
static alternatives — the operational payoff of the paper's
optimization machinery.

Run:  python examples/dynamic_day.py
"""

import numpy as np

from repro.analysis import ascii_table
from repro.core import evaluate_schedule, plan_speed_schedule, static_plan
from repro.experiments.common import canonical_cluster, canonical_workload
from repro.workload import NonHomogeneousPoisson, generate_trace

DAY = 24.0
DELAY_BOUND = 0.35  # seconds, aggregate mean


def diurnal(rate_nominal: float):
    """Rate function: trough 25% at 4h, peak 160% at 16h."""

    def rate_fn(t: float) -> float:
        phase = 2.0 * np.pi * ((t % DAY) - 16.0) / DAY
        factor = (1.6 + 0.25) / 2.0 + (1.6 - 0.25) / 2.0 * np.cos(phase)
        return rate_nominal * factor

    return rate_fn


def main() -> None:
    cluster = canonical_cluster()
    workload = canonical_workload()
    names = list(workload.names)

    # ------------------------------------------------------------------
    # 1. Record one day of traffic per class (NHPP with the diurnal
    #    shape), then extract hourly rates — the controller's forecast.
    # ------------------------------------------------------------------
    processes = [
        NonHomogeneousPoisson(diurnal(rate), rate_max=rate * 1.7)
        for rate in workload.arrival_rates
    ]
    trace = generate_trace(processes, horizon=DAY, seed=42, class_names=names)
    # Two-hour forecast windows: hourly counts are noisy enough that a
    # single lucky burst can exceed the cluster's stable capacity; a
    # controller smooths its forecasts for exactly this reason.
    starts, hourly_rates = trace.windowed_rates(2.0)
    print(
        "traced day: "
        + ", ".join(
            f"{n}={r:.1f}/h avg" for n, r in zip(names, trace.rates())
        )
    )

    # ------------------------------------------------------------------
    # 2. Plan the day: hourly P2a re-solves.
    # ------------------------------------------------------------------
    plans = plan_speed_schedule(
        cluster, names, starts, hourly_rates, DAY, DELAY_BOUND
    )
    rows = [
        [
            f"{p.start:02.0f}:00",
            round(float(p.rates.sum()), 1),
            np.round(p.speeds, 2).tolist(),
            round(p.power, 0),
            round(p.mean_delay, 3),
            "ok" if p.meets_bound else "VIOLATED",
        ]
        for p in plans
    ]
    print(
        ascii_table(
            ["epoch", "total rate", "speeds", "power (W)", "mean delay (s)", "SLA"],
            rows,
            title=f"2-hour speed schedule (bound {DELAY_BOUND}s)",
        )
    )
    if not all(p.meets_bound for p in plans):
        print(
            "note: VIOLATED epochs mark forecast load beyond the cluster's "
            "capacity — the controller pins max speeds and flags them rather "
            "than aborting; provisioning (P3) is the fix, not speed."
        )

    # ------------------------------------------------------------------
    # 3. Score against the static alternatives.
    # ------------------------------------------------------------------
    max_speeds = np.ones(cluster.num_tiers)
    static_max = static_plan(
        cluster, names, starts, hourly_rates, DAY, DELAY_BOUND, max_speeds
    )
    dyn_report = evaluate_schedule(plans)
    stat_report = evaluate_schedule(static_max)
    saving = 1.0 - dyn_report.total_energy / stat_report.total_energy
    print(
        f"\nday's energy: dynamic {dyn_report.total_energy / 1e3:.2f} kWh "
        f"(compliance {dyn_report.compliance:.0%}) vs static-max "
        f"{stat_report.total_energy / 1e3:.2f} kWh -> {saving:.1%} saved"
    )


if __name__ == "__main__":
    main()
