"""Percentile SLA guarantees in P3 and the on/off baseline."""

import numpy as np
import pytest

from repro.baselines import min_power_onoff, min_power_onoff_with_dvfs
from repro.core import (
    SLA,
    ClassSLA,
    all_class_percentiles,
    mean_end_to_end_delay,
    minimize_cost,
    minimize_energy,
    sla_feasibility,
)
from repro.exceptions import InfeasibleProblemError, ModelValidationError
from repro.experiments.common import (
    canonical_cluster,
    canonical_workload,
    small_cluster,
    small_workload,
)


class TestClassSLAPercentileFields:
    def test_valid_percentile_guarantee(self):
        g = ClassSLA("gold", 0.3, percentile=0.95, max_percentile_delay=0.9)
        assert g.has_percentile

    def test_mean_only_guarantee(self):
        assert not ClassSLA("gold", 0.3).has_percentile

    def test_partial_specification_rejected(self):
        with pytest.raises(ModelValidationError):
            ClassSLA("g", 0.3, percentile=0.95)
        with pytest.raises(ModelValidationError):
            ClassSLA("g", 0.3, max_percentile_delay=0.9)

    def test_bad_level(self):
        with pytest.raises(ModelValidationError):
            ClassSLA("g", 0.3, percentile=1.2, max_percentile_delay=0.9)

    def test_percentile_bound_may_sit_below_mean_bound(self):
        # Legitimate: a loose mean target with a tight tail target.
        g = ClassSLA("g", 0.5, percentile=0.95, max_percentile_delay=0.3)
        assert g.has_percentile

    def test_sla_percentile_specs(self):
        from repro.workload import workload_from_rates

        sla = SLA(
            [
                ClassSLA("gold", 0.3, percentile=0.95, max_percentile_delay=0.9),
                ClassSLA("silver", 0.6),
            ]
        )
        wl = workload_from_rates([1.0, 2.0])
        assert sla.has_percentiles
        specs = sla.percentile_specs(wl)
        assert specs == [(0, 0.95, 0.9)]


class TestPercentileFeasibility:
    def test_feasibility_consistent_with_direct_computation(self):
        cluster, workload = canonical_cluster(), canonical_workload()
        p95 = all_class_percentiles(cluster, workload, 0.95)
        loose = SLA(
            [
                ClassSLA(n, 10.0, percentile=0.95, max_percentile_delay=float(b * 1.2))
                for n, b in zip(workload.names, p95)
            ]
        )
        tight = SLA(
            [
                ClassSLA(n, 10.0, percentile=0.95, max_percentile_delay=float(b * 0.8))
                for n, b in zip(workload.names, p95)
            ]
        )
        assert sla_feasibility(cluster, workload, loose)[0]
        ok, score = sla_feasibility(cluster, workload, tight)
        assert not ok and score > 0.0

    def test_minimize_cost_with_percentiles_buys_more(self):
        cluster, workload = small_cluster(), small_workload()
        mean_sla = SLA([ClassSLA("gold", 0.35), ClassSLA("bronze", 0.9)])
        tight_pct = SLA(
            [
                ClassSLA("gold", 0.35, percentile=0.95, max_percentile_delay=0.6),
                ClassSLA("bronze", 0.9, percentile=0.95, max_percentile_delay=1.4),
            ]
        )
        base = minimize_cost(cluster, workload, mean_sla, optimize_speeds=False)
        pct = minimize_cost(cluster, workload, tight_pct, optimize_speeds=False)
        assert pct.total_cost >= base.total_cost
        # And the final configuration really meets the percentile bounds.
        p95 = all_class_percentiles(pct.cluster, workload, 0.95)
        assert p95[0] <= 0.6 + 1e-9 and p95[1] <= 1.4 + 1e-9

    def test_speed_tuning_never_breaks_percentiles(self):
        cluster, workload = small_cluster(), small_workload()
        sla = SLA(
            [
                ClassSLA("gold", 0.5, percentile=0.95, max_percentile_delay=0.8),
                ClassSLA("bronze", 1.0, percentile=0.95, max_percentile_delay=1.6),
            ]
        )
        alloc = minimize_cost(cluster, workload, sla, optimize_speeds=True)
        ok, _ = sla_feasibility(alloc.cluster, workload, sla)
        assert ok


class TestOnOff:
    def test_meets_bound_with_fewer_servers(self):
        cluster, workload = canonical_cluster(), canonical_workload()
        base_delay = mean_end_to_end_delay(
            cluster.with_speeds([1.0, 1.0, 1.0]), workload
        )
        counts, power = min_power_onoff(cluster, workload, base_delay * 3.0)
        assert counts.sum() < cluster.server_counts.sum()
        full_power = cluster.with_speeds([1.0] * 3).average_power(workload.arrival_rates)
        assert power < full_power
        at_max = cluster.with_speeds([1.0] * 3).with_servers(counts)
        assert mean_end_to_end_delay(at_max, workload) <= base_delay * 3.0 + 1e-9

    def test_tight_bound_keeps_everything_on(self):
        cluster, workload = canonical_cluster(), canonical_workload()
        base_delay = mean_end_to_end_delay(cluster, workload)
        counts, _ = min_power_onoff(cluster, workload, base_delay * 1.01)
        np.testing.assert_array_equal(counts, cluster.server_counts)

    def test_infeasible_bound_raises(self):
        cluster, workload = canonical_cluster(), canonical_workload()
        with pytest.raises(InfeasibleProblemError):
            min_power_onoff(cluster, workload, 1e-4)

    def test_combined_no_worse_than_either(self):
        cluster, workload = canonical_cluster(), canonical_workload()
        bound = mean_end_to_end_delay(cluster, workload) * 2.0
        _, onoff_power = min_power_onoff(cluster, workload, bound)
        dvfs = minimize_energy(cluster, workload, max_mean_delay=bound)
        counts, speeds, both_power = min_power_onoff_with_dvfs(cluster, workload, bound)
        assert both_power <= onoff_power + 1.0
        assert both_power <= dvfs.meta["power"] + 1.0
        # The combined configuration honors the bound.
        final = cluster.with_servers(counts).with_speeds(speeds)
        assert mean_end_to_end_delay(final, workload) <= bound + 1e-6
