"""Dynamic power-management controller and TCO optimizer tests."""

import numpy as np
import pytest

from repro.core import (
    evaluate_schedule,
    minimize_cost,
    minimize_tco,
    plan_speed_schedule,
    static_plan,
)
from repro.exceptions import ModelValidationError
from repro.experiments.common import canonical_cluster, canonical_sla, canonical_workload


@pytest.fixture
def diurnal_setup():
    cluster = canonical_cluster()
    names = list(canonical_workload().names)
    starts = np.array([0.0, 6.0, 12.0, 18.0])
    base = canonical_workload().arrival_rates
    rates = np.array([0.4, 0.8, 1.5, 1.0])[:, None] * base[None, :]
    return cluster, names, starts, rates


class TestController:
    def test_dynamic_meets_bound_everywhere(self, diurnal_setup):
        cluster, names, starts, rates = diurnal_setup
        plans = plan_speed_schedule(cluster, names, starts, rates, 24.0, 0.35)
        assert all(p.meets_bound for p in plans)
        assert len(plans) == 4

    def test_dynamic_cheaper_than_static_max(self, diurnal_setup):
        cluster, names, starts, rates = diurnal_setup
        dyn = plan_speed_schedule(cluster, names, starts, rates, 24.0, 0.35)
        static = static_plan(
            cluster, names, starts, rates, 24.0, 0.35, np.ones(cluster.num_tiers)
        )
        assert evaluate_schedule(dyn).total_energy < evaluate_schedule(static).total_energy

    def test_speeds_track_the_load(self, diurnal_setup):
        cluster, names, starts, rates = diurnal_setup
        plans = plan_speed_schedule(cluster, names, starts, rates, 24.0, 0.35)
        # Peak epoch (index 2) needs faster speeds than the trough (0).
        assert plans[2].speeds.mean() > plans[0].speeds.mean()

    def test_idle_epoch_drops_to_min_speed(self, diurnal_setup):
        cluster, names, starts, rates = diurnal_setup
        rates = rates.copy()
        rates[1] = 0.0
        plans = plan_speed_schedule(cluster, names, starts, rates, 24.0, 0.35)
        idle = plans[1]
        assert idle.meets_bound
        np.testing.assert_allclose(idle.speeds, [t.spec.min_speed for t in cluster.tiers])
        assert idle.power == pytest.approx(
            sum(t.servers * t.spec.power.idle for t in cluster.tiers)
        )

    def test_overload_epoch_flagged_not_fatal(self, diurnal_setup):
        cluster, names, starts, rates = diurnal_setup
        rates = rates.copy()
        rates[2] *= 4.0  # unstabilizable even at max speed
        plans = plan_speed_schedule(cluster, names, starts, rates, 24.0, 0.35)
        assert not plans[2].meets_bound
        assert plans[0].meets_bound
        report = evaluate_schedule(plans)
        assert report.compliance == pytest.approx(0.75)
        assert not report.fully_compliant

    def test_validation(self, diurnal_setup):
        cluster, names, starts, rates = diurnal_setup
        with pytest.raises(ModelValidationError):
            plan_speed_schedule(cluster, names, starts, rates[:2], 24.0, 0.35)
        with pytest.raises(ModelValidationError):
            plan_speed_schedule(cluster, names, starts[::-1], rates, 24.0, 0.35)
        with pytest.raises(ModelValidationError):
            plan_speed_schedule(cluster, names, starts, rates, 10.0, 0.35)
        with pytest.raises(ModelValidationError):
            evaluate_schedule([])

    def test_static_plan_validates_like_plan_speed_schedule(self, diurnal_setup):
        # Regression: static_plan skipped the epoch-grid validation that
        # plan_speed_schedule enforces, so mismatched shapes,
        # non-increasing starts or horizon <= starts[-1] produced silent
        # garbage plans (e.g. negative durations) instead of raising.
        cluster, names, starts, rates = diurnal_setup
        speeds = np.ones(cluster.num_tiers)
        with pytest.raises(ModelValidationError):
            static_plan(cluster, names, starts, rates[:2], 24.0, 0.35, speeds)
        with pytest.raises(ModelValidationError):
            static_plan(cluster, names, starts[::-1], rates, 24.0, 0.35, speeds)
        with pytest.raises(ModelValidationError):
            static_plan(cluster, names, starts, rates, 10.0, 0.35, speeds)
        # The valid grid still produces strictly positive durations.
        plans = static_plan(cluster, names, starts, rates, 24.0, 0.35, speeds)
        assert all(p.duration > 0.0 for p in plans)

    def test_epoch_after_overload_fallback_is_solved_on_its_own(self, diurnal_setup):
        # After an overload epoch falls back to max speeds, the next
        # epoch's plan is its own P2a optimum: each epoch is solved
        # exactly, with nothing carried over from an earlier epoch.
        from repro.core import controller as ctrl
        from repro.core.opt_energy import minimize_energy

        cluster, names, starts, rates = diurnal_setup
        rates = rates.copy()
        rates[1] *= 4.0  # unstabilizable even at max speed
        plans = ctrl.plan_speed_schedule(cluster, names, starts, rates, 24.0, 0.35)
        max_speeds = [t.spec.max_speed for t in cluster.tiers]
        np.testing.assert_array_equal(plans[1].speeds, max_speeds)
        assert not plans[1].meets_bound
        alone = minimize_energy(
            cluster, ctrl._workload_at(names, rates[2]), max_mean_delay=0.35
        )
        assert plans[2].speeds.tobytes() == alone.x.tobytes()
        assert plans[2].meets_bound

    def test_only_fallback_epochs_reevaluate_the_scalar_path(self, monkeypatch, diurnal_setup):
        """A solved epoch's power and mean delay come from its solve,
        with the scalar path's bits; only the max-speed fallback epoch
        evaluates the scalar path."""
        from repro.core import controller

        cluster, names, starts, rates = diurnal_setup
        rates = rates.copy()
        rates[2] *= 4.0
        real = controller.mean_end_to_end_delay
        calls = []
        monkeypatch.setattr(
            controller, "mean_end_to_end_delay", lambda *args: calls.append(args) or real(*args)
        )
        plans = plan_speed_schedule(cluster, names, starts, rates, 24.0, 0.35)
        assert len(calls) == 1
        for plan, r in zip(plans, rates):
            if plan is plans[2]:
                continue
            chosen = cluster.with_speeds(plan.speeds)
            assert plan.mean_delay == real(chosen, controller._workload_at(names, r))
            assert plan.power == chosen.average_power(r)

    def test_evaluate_schedule_with_inf_delay_epochs(self, diurnal_setup):
        # Overload epochs carry mean_delay=inf; the aggregate report
        # must keep finite energy while surfacing the inf worst delay.
        cluster, names, starts, rates = diurnal_setup
        rates = rates.copy()
        rates[2] *= 4.0
        plans = plan_speed_schedule(cluster, names, starts, rates, 24.0, 0.35)
        report = evaluate_schedule(plans)
        assert np.isinf(report.worst_mean_delay)
        assert np.isfinite(report.total_energy)
        assert np.isfinite(report.average_power)
        assert report.compliance == pytest.approx(0.75)

    def test_evaluate_schedule_idle_epochs_have_positive_duration(self, diurnal_setup):
        # Idle (zero-rate) epochs still occupy their slice of the
        # horizon: durations stay positive and the idle power is billed.
        cluster, names, starts, rates = diurnal_setup
        rates = rates.copy()
        rates[1] = 0.0
        plans = plan_speed_schedule(cluster, names, starts, rates, 24.0, 0.35)
        assert all(p.duration > 0.0 for p in plans)
        idle_power = sum(t.servers * t.spec.power.idle for t in cluster.tiers)
        report = evaluate_schedule(plans)
        assert report.total_energy >= idle_power * 24.0 - 1e-9
        assert report.worst_mean_delay < float("inf")

    def test_workload_at_zero_rate_floor_keeps_priorities(self):
        from repro.core.controller import _workload_at

        wl = _workload_at(("gold", "silver", "bronze"), np.array([0.0, 5.0, 0.0]))
        assert wl is not None
        assert list(wl.names) == ["gold", "silver", "bronze"]
        rates = wl.arrival_rates
        assert rates[1] == pytest.approx(5.0)
        # Zero-rate classes keep a vanishing-but-positive rate so the
        # priority ordering (index = priority) stays aligned.
        assert 0.0 < rates[0] <= 5.0 * 1e-9 + 1e-12
        assert 0.0 < rates[2] <= 5.0 * 1e-9 + 1e-12
        assert _workload_at(("a", "b"), np.zeros(2)) is None


class TestTCO:
    def test_zero_price_equals_p3_cost(self):
        cluster, workload, sla = canonical_cluster(), canonical_workload(), canonical_sla()
        p3 = minimize_cost(cluster, workload, sla, optimize_speeds=False)
        tco = minimize_tco(cluster, workload, sla, energy_price=0.0, window=1, n_starts=1)
        assert tco.server_cost == pytest.approx(p3.total_cost)
        assert tco.energy_cost == 0.0

    def test_sla_met(self):
        cluster, workload, sla = canonical_cluster(), canonical_workload(1.2), canonical_sla()
        tco = minimize_tco(cluster, workload, sla, energy_price=0.02, window=1, n_starts=1)
        assert sla.is_met(tco.delays, workload, tol=1e-6)

    def test_objective_decomposition(self):
        cluster, workload, sla = canonical_cluster(), canonical_workload(), canonical_sla()
        tco = minimize_tco(cluster, workload, sla, energy_price=0.03, window=1, n_starts=1)
        assert tco.total_cost == pytest.approx(tco.server_cost + tco.energy_cost)
        assert tco.energy_cost == pytest.approx(0.03 * tco.average_power)

    def test_high_price_scales_out(self):
        cluster, workload, sla = canonical_cluster(), canonical_workload(1.2), canonical_sla()
        cheap = minimize_tco(cluster, workload, sla, energy_price=0.0, window=2, n_starts=1)
        pricey = minimize_tco(cluster, workload, sla, energy_price=0.08, window=2, n_starts=1)
        assert pricey.server_counts.sum() >= cheap.server_counts.sum()
        assert pricey.average_power <= cheap.average_power + 1e-6

    def test_validation(self):
        cluster, workload, sla = canonical_cluster(), canonical_workload(), canonical_sla()
        with pytest.raises(ModelValidationError):
            minimize_tco(cluster, workload, sla, energy_price=-1.0)
        with pytest.raises(ModelValidationError):
            minimize_tco(cluster, workload, sla, energy_price=0.1, window=-1)
