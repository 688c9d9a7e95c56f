"""P2 optimizer tests (minimize energy under delay constraints)."""

import numpy as np
import pytest

from repro.baselines import uniform_speed_for_delay
from repro.core import SLA, ClassSLA, end_to_end_delays, mean_end_to_end_delay, minimize_energy
from repro.core.opt_energy import P2A_GAP_RTOL
from repro.exceptions import InfeasibleProblemError, ModelValidationError


@pytest.fixture
def loose_bound(three_tier_cluster, three_class_workload):
    return 1.5 * mean_end_to_end_delay(three_tier_cluster, three_class_workload)


class TestP2aAggregate:
    def test_succeeds_and_meets_bound(self, three_tier_cluster, three_class_workload, loose_bound):
        res = minimize_energy(three_tier_cluster, three_class_workload, max_mean_delay=loose_bound)
        assert res.success
        achieved = mean_end_to_end_delay(res.meta["cluster"], three_class_workload)
        assert achieved <= loose_bound + 1e-6

    def test_saves_power_vs_full_speed(self, three_tier_cluster, three_class_workload, loose_bound):
        res = minimize_energy(three_tier_cluster, three_class_workload, max_mean_delay=loose_bound)
        full = three_tier_cluster.average_power(three_class_workload.arrival_rates)
        assert res.meta["power"] < full

    def test_no_worse_than_uniform_baseline(self, three_tier_cluster, three_class_workload, loose_bound):
        res = minimize_energy(three_tier_cluster, three_class_workload, max_mean_delay=loose_bound)
        uni = uniform_speed_for_delay(three_tier_cluster, three_class_workload, loose_bound)
        uni_power = three_tier_cluster.with_speeds(uni).average_power(
            three_class_workload.arrival_rates
        )
        assert res.meta["power"] <= uni_power + 1e-6

    def test_power_monotone_in_bound(self, three_tier_cluster, three_class_workload):
        base = mean_end_to_end_delay(three_tier_cluster, three_class_workload)
        powers = [
            minimize_energy(
                three_tier_cluster, three_class_workload, max_mean_delay=base * f
            ).meta["power"]
            for f in (1.1, 1.5, 2.5)
        ]
        assert powers[0] >= powers[1] >= powers[2]

    def test_infeasible_bound_raises(self, three_tier_cluster, three_class_workload):
        best = mean_end_to_end_delay(three_tier_cluster, three_class_workload)
        with pytest.raises(InfeasibleProblemError):
            minimize_energy(three_tier_cluster, three_class_workload, max_mean_delay=best * 0.5)


class TestP2bPerClass:
    def test_succeeds_and_meets_every_bound(self, three_tier_cluster, three_class_workload):
        bounds = end_to_end_delays(three_tier_cluster, three_class_workload) * 1.3
        res = minimize_energy(three_tier_cluster, three_class_workload, class_delay_bounds=bounds)
        assert res.success
        np.testing.assert_array_less(res.meta["delays"], bounds + 1e-6)

    def test_sla_source(self, three_tier_cluster, three_class_workload):
        delays = end_to_end_delays(three_tier_cluster, three_class_workload)
        sla = SLA(
            [
                ClassSLA("gold", float(delays[0] * 1.3)),
                ClassSLA("silver", float(delays[1] * 1.3)),
                ClassSLA("bronze", float(delays[2] * 1.3)),
            ]
        )
        res = minimize_energy(three_tier_cluster, three_class_workload, sla=sla)
        assert res.success

    def test_per_class_at_least_aggregate_cost(self, three_tier_cluster, three_class_workload):
        # Per-class bounds whose weighted mean equals D are (weakly)
        # harder than the single aggregate bound D.
        delays = end_to_end_delays(three_tier_cluster, three_class_workload)
        lam = three_class_workload.arrival_rates
        bounds = delays * 1.3
        agg = float(np.dot(lam, bounds) / lam.sum())
        p2b = minimize_energy(
            three_tier_cluster, three_class_workload, class_delay_bounds=bounds, n_starts=3
        )
        p2a = minimize_energy(three_tier_cluster, three_class_workload, max_mean_delay=agg)
        assert p2b.meta["power"] >= p2a.meta["power"] - 1e-4

    def test_infeasible_class_bound_names_class(self, three_tier_cluster, three_class_workload):
        delays = end_to_end_delays(three_tier_cluster, three_class_workload)
        bounds = delays * 1.3
        bounds[0] = delays[0] * 0.1  # impossible for gold
        with pytest.raises(InfeasibleProblemError, match="gold"):
            minimize_energy(three_tier_cluster, three_class_workload, class_delay_bounds=bounds)

    def test_wrong_bound_count(self, three_tier_cluster, three_class_workload):
        with pytest.raises(ModelValidationError):
            minimize_energy(
                three_tier_cluster, three_class_workload, class_delay_bounds=[1.0, 1.0]
            )

    def test_nonpositive_bounds(self, three_tier_cluster, three_class_workload):
        with pytest.raises(ModelValidationError):
            minimize_energy(
                three_tier_cluster, three_class_workload, class_delay_bounds=[0.5, -1.0, 0.5]
            )


class TestConstraintSourceValidation:
    def test_no_source(self, three_tier_cluster, three_class_workload):
        with pytest.raises(ModelValidationError):
            minimize_energy(three_tier_cluster, three_class_workload)

    def test_two_sources(self, three_tier_cluster, three_class_workload):
        with pytest.raises(ModelValidationError):
            minimize_energy(
                three_tier_cluster,
                three_class_workload,
                max_mean_delay=1.0,
                class_delay_bounds=[1.0, 1.0, 1.0],
            )

    def test_bad_aggregate_bound(self, three_tier_cluster, three_class_workload):
        with pytest.raises(ModelValidationError):
            minimize_energy(three_tier_cluster, three_class_workload, max_mean_delay=0.0)


class TestSolverDiagnostics:
    def test_p2a_converged_status_zero(self, three_tier_cluster, three_class_workload):
        """The decomposed solve reports success, meets its bound exactly
        and keeps its duality gap under the fallback tolerance."""
        bound = 1.5 * mean_end_to_end_delay(three_tier_cluster, three_class_workload)
        res = minimize_energy(three_tier_cluster, three_class_workload, max_mean_delay=bound)
        assert res.success and res.status == 0
        assert res.nit > 0 and res.nfev == res.n_evaluations > 0
        achieved = mean_end_to_end_delay(res.meta["cluster"], three_class_workload)
        assert achieved <= bound
        assert res.meta["constraint_residuals"] == {"mean delay": bound - achieved}
        assert 0.0 <= res.meta["duality_gap"] <= P2A_GAP_RTOL * res.meta["power"]

    def test_p2b_converged_status_zero(self, three_tier_cluster, three_class_workload):
        bounds = 1.5 * end_to_end_delays(three_tier_cluster, three_class_workload)
        res = minimize_energy(three_tier_cluster, three_class_workload, class_delay_bounds=bounds)
        assert res.success and res.status == 0
        assert res.nit > 0 and res.nfev > 0
        assert len(res.meta["constraint_residuals"]) == len(bounds)


class TestTierWorkCounters:
    def test_counters_added_once_per_solve(
        self, monkeypatch, telemetry, three_tier_cluster, three_class_workload
    ):
        """``opt.tier_solves`` / ``opt.tier_hits`` carry each solve's
        memo statistics, added once when the solve ends."""
        from repro.core import delay, opt_energy

        models = []

        class Recorded(delay.SpeedModel):
            def __init__(self, *args):
                super().__init__(*args)
                models.append(self)

        monkeypatch.setattr(opt_energy, "SpeedModel", Recorded)
        # P2b: SLSQP's probes hit the memo.
        bounds = 1.5 * end_to_end_delays(three_tier_cluster, three_class_workload)
        names = ("tier_solves", "tier_hits", "probe_rows", "probe_hits")
        counters = {n: telemetry.metrics.counter(f"opt.{n}") for n in names}
        for solves in (1, 2):
            minimize_energy(three_tier_cluster, three_class_workload, class_delay_bounds=bounds)
            assert len(models) == solves
            for name in names:
                assert counters[name].value == sum(getattr(m, name) for m in models) > 0
            assert 0 < counters["probe_hits"].value <= counters["probe_rows"].value

    def test_tier_work_counted_when_the_solve_raises(
        self, monkeypatch, telemetry, three_tier_cluster, three_class_workload
    ):
        """The feasibility certificate solves tiers before it raises;
        that work is counted too."""
        from repro.core import delay, opt_energy

        models = []

        class Recorded(delay.SpeedModel):
            def __init__(self, *args):
                super().__init__(*args)
                models.append(self)

        monkeypatch.setattr(opt_energy, "SpeedModel", Recorded)
        with pytest.raises(InfeasibleProblemError):
            minimize_energy(three_tier_cluster, three_class_workload, max_mean_delay=1e-3)
        (model,) = models
        assert telemetry.metrics.counter("opt.tier_solves").value == model.tier_solves > 0
