"""Structural and shape tests on every experiment driver.

Each experiment is run with reduced parameters (short horizons, few
replications/points) and checked for the qualitative *shape* the
reproduction commits to in DESIGN.md — who wins, monotonicities,
certification — not for specific values.
"""

import numpy as np
import pytest

from repro.experiments import (
    exp_a1_priority_vs_fcfs as a1,
    exp_a2_np_vs_pr as a2,
    exp_a3_multiserver_approx as a3,
    exp_f1_delay_vs_load as f1,
    exp_f2_energy_vs_speed as f2,
    exp_f3_delay_opt_tradeoff as f3,
    exp_f4_energy_opt_tradeoff as f4,
    exp_f5_perclass_vs_aggregate as f5,
    exp_f6_cost_vs_load as f6,
    exp_t1_delay_accuracy as t1,
    exp_t2_energy_accuracy as t2,
    exp_t3_cost_allocation as t3,
    exp_t4_solver_efficiency as t4,
)
from repro.experiments.common import (
    canonical_cluster,
    canonical_sla,
    canonical_workload,
    small_cluster,
    small_sla,
    small_workload,
)


class TestCommonConfigs:
    def test_canonical_cluster_stable_at_default_load(self):
        cluster, workload = canonical_cluster(), canonical_workload()
        assert cluster.is_stable(workload.arrival_rates)

    def test_canonical_sla_feasible_at_default(self):
        from repro.core.delay import end_to_end_delays

        cluster, workload, sla = canonical_cluster(), canonical_workload(), canonical_sla()
        delays = end_to_end_delays(cluster, workload)
        assert sla.is_met(delays, workload)

    def test_small_configs_consistent(self):
        assert small_cluster().num_classes == small_workload().num_classes
        assert len(small_sla().guarantees) == 2

    def test_load_factor_scales(self):
        assert canonical_workload(2.0).total_rate == pytest.approx(
            2.0 * canonical_workload().total_rate
        )


class TestAnalyticExperiments:
    def test_f1_shape(self):
        r = f1.run(load_factors=np.linspace(0.3, 1.6, 5))
        cols = r.series.columns
        # All delay columns increase with load.
        for name, col in cols.items():
            assert np.all(np.diff(col) > 0), name
        # Gold below silver below bronze everywhere.
        assert np.all(cols["T[gold] (s)"] < cols["T[silver] (s)"])
        assert np.all(cols["T[silver] (s)"] < cols["T[bronze] (s)"])
        assert "load factor" in f1.render(r)

    def test_f1_saturation_detection(self):
        r = f1.run(load_factors=[0.5, 1.0, 3.0])
        assert r.saturation_load_factor == 3.0
        assert r.series.x.size == 2

    def test_f2_shape(self):
        r = f2.run(speeds=np.linspace(0.6, 1.0, 5), alphas=(2.0, 3.0))
        for alpha, series in r.series_by_alpha.items():
            assert np.all(np.diff(series.columns["power (W)"]) > 0)
            assert np.all(np.diff(series.columns["mean delay (s)"]) < 0)
        # Cube law burns more power than square law at the top speed.
        p2 = r.series_by_alpha[2.0].columns["power (W)"][-1]
        p3 = r.series_by_alpha[3.0].columns["power (W)"][-1]
        assert p3 == pytest.approx(p2)  # at s=1 alpha is irrelevant
        mid2 = r.series_by_alpha[2.0].columns["power (W)"][0]
        mid3 = r.series_by_alpha[3.0].columns["power (W)"][0]
        assert mid3 < mid2  # below s=1 the cube law saves more

    def test_f3_shape(self):
        r = f3.run(n_points=4, n_starts=2)
        assert r.optimal_dominates
        opt = r.series.columns["optimal delay (s)"]
        assert np.all(np.diff(opt) <= 1e-9)  # delay falls as budget grows
        assert "True" in f3.render(r)

    def test_f4_shape(self):
        r = f4.run(n_points=4)
        assert r.optimal_dominates
        opt = r.series.columns["optimal power (W)"]
        assert np.all(np.diff(opt) <= 1e-6)  # power falls as bound loosens

    def test_f5_shape(self):
        r = f5.run(ratios=(1.0, 2.0, 4.0), n_starts=2)
        assert r.per_class_at_least_aggregate
        assert np.isfinite(r.aggregate_power)

    def test_f6_shape(self):
        r = f6.run(load_factors=[0.6, 1.2, 1.8])
        assert r.optimizer_never_costlier
        cost = r.series.columns["P3 cost"]
        assert np.all(np.diff(cost) >= 0)  # cost grows with load

    def test_t3_certification(self):
        r = t3.run(small_cap=6)
        assert r.certified
        # The optimizer row must be feasible.
        opt_row = [row for row in r.rows if row[0] == "P3 optimizer"][0]
        assert opt_row[3] is True or opt_row[3] == 1

    def test_t4_gaps_zero(self):
        r = t4.run(small_caps=(6,))
        assert r.all_gaps_zero
        assert np.isfinite(r.p1_seconds) and r.p1_seconds > 0
        assert "T4" in t4.render(r)


@pytest.mark.slow
class TestSimulationExperiments:
    def test_t1_accuracy(self):
        r = t1.run(load_factors=(1.0,), horizon=1200.0, n_replications=3)
        assert r.max_rel_error < 0.10
        assert "T1" in t1.render(r)

    def test_t2_accuracy(self):
        r = t2.run(load_factors=(1.0,), horizon=1200.0, n_replications=3)
        assert r.max_rel_error < 0.10

    def test_a1_priority_model_wins(self):
        r = a1.run(load_factors=(1.5,), horizon=1500.0, n_replications=3)
        # The aggregate model must distort gold vs bronze.
        gold = [row for row in r.rows if row[1] == "gold"][0]
        bronze = [row for row in r.rows if row[1] == "bronze"][0]
        assert gold[4] > gold[2]    # aggregate overestimates gold
        assert bronze[4] < bronze[2]  # aggregate underestimates bronze
        assert r.max_priority_error < 0.12

    def test_a2_preemption_tradeoff(self):
        r = a2.run(load_factor=1.2, horizon=1500.0, n_replications=3)
        assert r.gold_improves_under_pr
        assert r.max_rel_error < 0.12

    def test_a3_exact_case_tight(self):
        r = a3.run(server_counts=(1, 2, 4), horizon=20000.0, n_replications=2)
        assert r.max_exact_error < 0.08
        assert np.isfinite(r.max_approx_error)


class TestExtensionExperiments:
    def test_t5_shape(self):
        from repro.experiments import exp_t5_percentile_sla_cost as t5

        r = t5.run(multipliers=(3.0, 2.0))
        assert r.percentile_never_cheaper
        assert "T5" in t5.render(r)

    def test_a4_shape(self):
        from repro.experiments import exp_a4_dvfs_vs_onoff as a4

        r = a4.run(n_points=3)
        assert r.combined_never_worse

    def test_f8_shape(self):
        from repro.experiments import exp_f8_dynamic_power as f8

        r = f8.run(n_epochs=8)
        assert r.dynamic_fully_compliant
        assert r.dynamic_saves_vs_peak > 0.0
        assert r.static_mean_compliance < 1.0

    def test_f9_shape(self):
        from repro.experiments import exp_f9_tco_vs_energy_price as f9

        r = f9.run(prices=(0.0, 0.08))
        assert r.anchored_at_p3
        assert r.servers_monotone_in_price

    def test_a6_shape(self):
        from repro.experiments import exp_a6_admission_control as a6

        r = a6.run(offered_loads=(3.0, 6.0), horizon=2000.0)
        assert r.queueing_diverges
        assert r.loss_delay_flat
        assert "A6" in a6.render(r)


@pytest.mark.slow
class TestExtensionSimulationExperiments:
    def test_f7_shape(self):
        from repro.experiments import exp_f7_percentile_accuracy as f7

        r = f7.run(levels=(0.9,), horizon=1200.0, n_replications=3)
        assert r.max_error_at(0.9) < 0.20

    def test_f7b_shape(self):
        from repro.experiments import exp_f7_percentile_accuracy as f7

        r = f7.run_fcfs(levels=(0.9,), horizon=1200.0, n_replications=3)
        assert r.exact_beats_hypoexp

    def test_a5_shape(self):
        from repro.experiments import exp_a5_decomposition_depth as a5

        r = a5.run(depths=(1, 2), horizon=8000.0, n_replications=2)
        assert r.max_error < 0.15
