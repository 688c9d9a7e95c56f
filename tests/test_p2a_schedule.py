"""A speed schedule's epochs solved in one lockstep decomposition.

``plan_speed_schedule`` solves every busy epoch's P2a problem together:
one certificate call, one lockstep :func:`solve_p2a` and one call for
the optima's delays. Each epoch must still get, bit for bit, what
``minimize_energy(max_mean_delay=...)`` on its own workload gives:
speeds, power, delay, compliance, duality gap, multiplier, kernel rows
and whether it fell back to SLSQP, or the same exception.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterModel, PowerModel, ServerSpec, Tier
from repro.core import opt_energy
from repro.core.controller import EpochPlan, _workload_at, plan_speed_schedule
from repro.core.delay import SpeedModel, mean_end_to_end_delay
from repro.core.opt_common import stability_speed_bounds
from repro.core.opt_energy import _p2a_problems, minimize_energy
from repro.distributions import fit_two_moments
from repro.exceptions import InfeasibleProblemError, ReproError, UnstableSystemError
from repro.queueing.networks import arrival_weighted_mean
from repro.workload import workload_from_rates


@st.composite
def schedule_case(draw):
    """A random cluster (1-4 tiers, 1-3 classes), 1-12 epochs whose
    loads run from idle to past saturation, and a bound drawn between
    the delays at the box corners of a reference load, at times right
    on one of them."""
    k = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=4))
    tiers = []
    for i in range(m):
        spec = ServerSpec(
            PowerModel(
                idle=draw(st.floats(min_value=0.0, max_value=80.0)),
                kappa=draw(st.floats(min_value=5.0, max_value=200.0)),
                alpha=draw(st.floats(min_value=2.0, max_value=3.5)),
            ),
            min_speed=draw(st.floats(min_value=0.2, max_value=0.6)),
            max_speed=1.0,
        )
        scv = draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))
        means = [draw(st.floats(min_value=0.02, max_value=0.3)) for _ in range(k)]
        tiers.append(
            Tier(
                f"t{i}",
                tuple(fit_two_moments(mu, scv) for mu in means),
                spec,
                servers=draw(st.integers(min_value=1, max_value=4)),
                discipline=draw(st.sampled_from(["priority_np", "priority_pr", "fcfs", "ps"])),
            )
        )
    visits = np.array(
        draw(st.lists(st.sampled_from([0.5, 1.0, 1.7]), min_size=k * m, max_size=k * m))
    ).reshape(k, m)
    cluster = ClusterModel(tiers, visit_ratios=visits)
    base = np.array([draw(st.floats(min_value=0.1, max_value=3.0)) for _ in range(k)])
    base *= draw(st.floats(min_value=0.3, max_value=0.8)) / cluster.utilizations(base).max()
    reference = workload_from_rates(base.tolist())
    box = stability_speed_bounds(cluster, reference)
    model = SpeedModel(cluster, reference)
    fastest = model.mean_delay(np.array([b[1] for b in box]))
    slowest = model.mean_delay(np.array([b[0] for b in box]))
    share = draw(st.sampled_from([0.0, 1e-9, 0.2, 0.5, 0.8, 1.0 - 1e-9, 1.0, 1.2]))
    bound = fastest + share * (slowest - fastest)
    # Idle, light, reference, heavier than the bound allows, and past
    # saturation (no stable speed, or none that meets the bound).
    factors = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 1.0 + 1e-12, 1.6, 3.0]),
                st.floats(min_value=0.05, max_value=1.3),
            ),
            min_size=1,
            max_size=12,
        )
    )
    rates = np.array([base * f for f in factors])
    return cluster, rates, bound


def _plan_epoch_by_epoch(cluster, names, starts, rates, horizon, bound) -> list[EpochPlan]:
    """The schedule as one ``minimize_energy`` per busy epoch builds it."""
    ends = np.append(starts[1:], horizon)
    max_speeds = np.array([t.spec.max_speed for t in cluster.tiers])
    plans = []
    for start, end, r in zip(starts, ends, rates):
        workload = _workload_at(names, r)
        if workload is None:
            idle = float(sum(t.servers * t.spec.power.idle for t in cluster.tiers))
            min_speeds = np.array([t.spec.min_speed for t in cluster.tiers])
            plans.append(EpochPlan(start, end - start, r.copy(), min_speeds, idle, 0.0, True))
            continue
        try:
            res = minimize_energy(cluster, workload, max_mean_delay=bound)
            speeds, power = res.x, res.meta["power"]
            delay = arrival_weighted_mean(workload.arrival_rates, res.meta["delays"])
        except (InfeasibleProblemError, UnstableSystemError):
            chosen = cluster.with_speeds(max_speeds)
            speeds, power = max_speeds, chosen.average_power(workload.arrival_rates)
            try:
                delay = mean_end_to_end_delay(chosen, workload)
            except UnstableSystemError:
                delay = float("inf")
        ok = delay <= bound * (1.0 + 1e-5) + 1e-9
        plans.append(EpochPlan(start, end - start, r.copy(), speeds, power, delay, ok))
    return plans


def _outcome(result):
    """Everything a P2a outcome reports, as comparable values."""
    if isinstance(result, ReproError):
        return type(result).__name__, str(result)
    meta = result.meta
    return (
        result.x.tobytes(),
        result.fun,
        result.n_evaluations,
        result.nit,
        result.message,
        meta["power"],
        meta["delays"].tobytes(),
        meta["constraint_residuals"],
        "duality_gap" in meta,  # False where the solve fell back to SLSQP
        meta.get("duality_gap"),
        meta.get("multiplier"),
        meta["cluster"].speeds.tobytes(),
    )


@given(case=schedule_case())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_batched_schedule_is_the_per_epoch_solves(case):
    cluster, rates, bound = case
    names = [f"c{k}" for k in range(rates.shape[1])]
    starts = np.arange(rates.shape[0], dtype=float) * 10.0
    horizon = float(starts[-1] + 10.0)
    got = plan_speed_schedule(cluster, names, starts, rates, horizon, bound)
    expected = _plan_epoch_by_epoch(cluster, names, starts, rates, horizon, bound)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.start == b.start and a.duration == b.duration
        assert a.rates.tobytes() == b.rates.tobytes()
        assert np.asarray(a.speeds).tobytes() == np.asarray(b.speeds).tobytes()
        assert (a.power, a.mean_delay, a.meets_bound) == (b.power, b.mean_delay, b.meets_bound)
    busy = [w for w in (_workload_at(names, r) for r in rates) if w is not None]
    outcomes = _p2a_problems(cluster, busy, [bound] * len(busy))
    for workload, outcome in zip(busy, outcomes):
        try:
            alone = minimize_energy(cluster, workload, max_mean_delay=bound)
        except ReproError as exc:
            alone = exc
        assert _outcome(outcome) == _outcome(alone)
        if not isinstance(alone, ReproError):
            model = SpeedModel(cluster, workload)
            assert alone.meta["power"] == model.average_power(alone.x)
            assert alone.meta["delays"].tobytes() == model.end_to_end_delays(alone.x).tobytes()


def test_forced_fallbacks_match_per_epoch_solves(monkeypatch, telemetry):
    """With every decomposition refused, each epoch falls back to the
    same SLSQP solve it gets alone, and each fallback is counted."""
    cluster = ClusterModel(
        [
            Tier(
                "t",
                (fit_two_moments(0.05, 1.0), fit_two_moments(0.08, 2.5)),
                ServerSpec(PowerModel(idle=30.0, kappa=80.0, alpha=3.0), min_speed=0.3),
                servers=2,
            )
        ]
    )
    monkeypatch.setattr(opt_energy, "P2A_GAP_RTOL", -1.0)
    workloads = [workload_from_rates([f * 4.0, f * 6.0]) for f in (0.5, 0.8)]
    outcomes = _p2a_problems(cluster, workloads, [0.2, 0.2])
    fallbacks = telemetry.metrics.counter("opt.p2a_fallbacks")
    assert fallbacks.value == 2
    for workload, outcome in zip(workloads, outcomes):
        alone = minimize_energy(cluster, workload, max_mean_delay=0.2)
        assert "duality_gap" not in outcome.meta
        assert _outcome(outcome) == _outcome(alone)
    assert fallbacks.value == 4
