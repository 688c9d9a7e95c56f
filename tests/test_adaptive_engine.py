"""Adaptive precision-targeted replication engine + CRN comparisons.

Covers the sequential stopping rule of
:func:`repro.simulation.simulate_replications_adaptive`:

1. ``PrecisionTarget`` validation and its scalar → metric expansion.
2. The reproducibility contract — the chosen prefix (and therefore
   every exported aggregate) is bit-identical across reruns, round
   sizes, worker counts, and against a fixed-count run of the same
   length at the same seed.
3. Stopping behaviour: loose targets stop at ``min_replications``,
   unreachable targets stop at the cap with ``target_met == False``,
   the antithetic estimator always simulates whole pairs.
4. Cache interplay: a warm second adaptive run replays entirely from
   the on-disk cache.
5. Telemetry: per-round ``sim.adaptive.round`` events and the
   engine counters.
6. :func:`repro.simulation.compare_scenarios` — CRN pairing produces a
   strictly tighter difference interval than independent streams (the
   A2 acceptance property), and each side is bit-identical to a plain
   replication run at the same seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ModelValidationError
from repro.simulation import (
    PrecisionTarget,
    Scenario,
    compare_scenarios,
    simulate_replications,
    simulate_replications_adaptive,
)
from repro.simulation.adaptive import DEFAULT_METRICS


def _adaptive(cluster, workload, target, seed=42, **kw):
    return simulate_replications_adaptive(
        cluster, workload, horizon=300.0, target=target, seed=seed, **kw
    )


LOOSE = dict(rel_ci={"mean_delay": 0.9}, min_replications=3, max_replications=12)
#: Calibrated on the two-class fixture at horizon 300, seed 42: the
#: naive estimator needs 5 replications over 3 rounds — enough rounds
#: to make the invariance assertions meaningful.
MULTI_ROUND = PrecisionTarget(
    rel_ci={"mean_delay": 0.3},
    min_replications=3,
    max_replications=24,
    round_size=1,
    estimator="naive",
)


class TestPrecisionTargetValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"level": 0.0},
            {"level": 1.0},
            {"estimator": "bootstrap"},
            {"min_replications": 1},
            {"min_replications": 8, "max_replications": 4},
            {"round_size": 0},
            {"rel_ci": 1.5},
            {"rel_ci": {"mean_delay": 0.0}},
            {"rel_ci": {}},
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(ModelValidationError):
            PrecisionTarget(**kwargs)

    def test_scalar_tolerance_expands_to_default_metrics(self):
        tgt = PrecisionTarget(rel_ci=0.05)
        assert tgt.metric_targets() == {m: 0.05 for m in DEFAULT_METRICS}

    def test_mapping_is_taken_verbatim(self):
        tgt = PrecisionTarget(rel_ci={"delay/hi": 0.1})
        assert tgt.metric_targets() == {"delay/hi": 0.1}

    def test_as_dict_round_trips_the_configuration(self):
        tgt = PrecisionTarget(rel_ci=0.02, min_replications=4, max_replications=16)
        d = tgt.as_dict()
        assert d["rel_ci"] == {m: 0.02 for m in DEFAULT_METRICS}
        assert d["min_replications"] == 4 and d["max_replications"] == 16
        assert d["estimator"] == "cv"


class TestStoppingRule:
    def test_loose_target_stops_at_min_replications(
        self, two_class_cluster, two_class_workload
    ):
        rep = _adaptive(two_class_cluster, two_class_workload, PrecisionTarget(**LOOSE))
        ad = rep.meta["adaptive"]
        assert ad["target_met"] is True
        assert ad["n_used"] == 3 and ad["n_rounds"] == 1
        assert rep.n_replications == 3
        assert ad["reps_saved_vs_cap"] == 12 - ad["n_simulated"]

    def test_unreachable_target_stops_at_cap(
        self, two_class_cluster, two_class_workload
    ):
        tgt = PrecisionTarget(
            rel_ci={"mean_delay": 0.001},
            min_replications=3,
            max_replications=5,
            round_size=1,
            estimator="naive",
        )
        rep = _adaptive(two_class_cluster, two_class_workload, tgt)
        ad = rep.meta["adaptive"]
        assert ad["target_met"] is False
        assert ad["n_used"] == ad["n_simulated"] == 5
        assert ad["reps_saved_vs_cap"] == 0
        assert rep.n_replications == 5

    def test_round_trace_records_the_decision(
        self, two_class_cluster, two_class_workload
    ):
        rep = _adaptive(two_class_cluster, two_class_workload, MULTI_ROUND)
        ad = rep.meta["adaptive"]
        rounds = ad["rounds"]
        assert [r["round"] for r in rounds] == list(range(ad["n_rounds"]))
        assert all(r["stop_at"] is None for r in rounds[:-1])
        assert rounds[-1]["stop_at"] == ad["n_used"]
        assert all("mean_delay" in r["estimates"] for r in rounds)
        # n_available grows by round_size=1 after the min-sized first round.
        avail = [r["n_available"] for r in rounds]
        assert avail[0] == 3 and all(b - a == 1 for a, b in zip(avail, avail[1:]))

    def test_antithetic_estimator_simulates_whole_pairs(
        self, two_class_cluster, two_class_workload
    ):
        tgt = PrecisionTarget(
            rel_ci={"mean_delay": 0.9},
            min_replications=4,
            max_replications=8,
            estimator="antithetic",
        )
        rep = _adaptive(two_class_cluster, two_class_workload, tgt)
        ad = rep.meta["adaptive"]
        assert ad["target_met"] is True
        assert ad["n_used"] % 2 == 0 and ad["n_simulated"] % 2 == 0
        assert 4 <= ad["n_used"] <= 8
        # The stopping unit is the pair: n_units counts pairs, not runs.
        assert ad["estimates"]["mean_delay"]["n_units"] == ad["n_used"] // 2

    def test_unknown_metric_raises(self, two_class_cluster, two_class_workload):
        tgt = PrecisionTarget(rel_ci={"throughput": 0.1}, min_replications=2)
        with pytest.raises(ModelValidationError, match="unknown metric"):
            _adaptive(two_class_cluster, two_class_workload, tgt)

    def test_unknown_class_in_delay_metric_raises(
        self, two_class_cluster, two_class_workload
    ):
        tgt = PrecisionTarget(rel_ci={"delay/platinum": 0.1}, min_replications=2)
        with pytest.raises(ModelValidationError, match="unknown class"):
            _adaptive(two_class_cluster, two_class_workload, tgt)

    def test_vr_factor_and_both_estimate_families_reported(
        self, two_class_cluster, two_class_workload
    ):
        rep = _adaptive(
            two_class_cluster,
            two_class_workload,
            PrecisionTarget(rel_ci=0.9, min_replications=3, max_replications=12),
        )
        ad = rep.meta["adaptive"]
        for m in DEFAULT_METRICS:
            assert ad["estimates"][m]["n_units"] == ad["n_used"]
            assert ad["naive_estimates"][m]["method"] == "naive"
            assert ad["vr_factor"][m] > 0.0


class TestReproducibilityContract:
    def test_identical_reruns_are_bit_identical(
        self, two_class_cluster, two_class_workload
    ):
        a = _adaptive(two_class_cluster, two_class_workload, MULTI_ROUND)
        b = _adaptive(two_class_cluster, two_class_workload, MULTI_ROUND)
        assert a.meta["adaptive"]["rounds"] == b.meta["adaptive"]["rounds"]
        assert a.mean_delay == b.mean_delay
        assert np.array_equal(a.delays, b.delays)
        assert a.average_power == b.average_power

    def test_round_size_does_not_change_the_result(
        self, two_class_cluster, two_class_workload
    ):
        small = _adaptive(two_class_cluster, two_class_workload, MULTI_ROUND)
        assert small.meta["adaptive"]["n_rounds"] > 1  # the knob matters here
        big = _adaptive(
            two_class_cluster,
            two_class_workload,
            PrecisionTarget(
                rel_ci={"mean_delay": 0.3},
                min_replications=3,
                max_replications=24,
                round_size=5,
                estimator="naive",
            ),
        )
        assert big.meta["adaptive"]["n_used"] == small.meta["adaptive"]["n_used"]
        assert big.mean_delay == small.mean_delay
        assert np.array_equal(big.delays, small.delays)
        assert big.average_power == small.average_power

    def test_n_jobs_does_not_change_the_result(
        self, two_class_cluster, two_class_workload
    ):
        serial = _adaptive(two_class_cluster, two_class_workload, MULTI_ROUND)
        parallel = _adaptive(
            two_class_cluster, two_class_workload, MULTI_ROUND, n_jobs=2
        )
        assert parallel.meta["adaptive"]["n_used"] == serial.meta["adaptive"]["n_used"]
        assert parallel.mean_delay == serial.mean_delay
        assert np.array_equal(parallel.delays, serial.delays)
        assert parallel.average_power == serial.average_power

    def test_pooled_multi_round_run_starts_one_executor(
        self, monkeypatch, two_class_cluster, two_class_workload
    ):
        from repro.simulation import parallel

        started = []

        class _CountingExecutor(parallel.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _CountingExecutor)
        rep = _adaptive(two_class_cluster, two_class_workload, MULTI_ROUND, n_jobs=2)
        assert rep.meta["adaptive"]["n_rounds"] > 1
        assert rep.meta["backend"] == "process"
        assert started == [2]

    def test_aggregates_match_fixed_count_run_exactly(
        self, two_class_cluster, two_class_workload
    ):
        adaptive = _adaptive(two_class_cluster, two_class_workload, MULTI_ROUND)
        fixed = simulate_replications(
            two_class_cluster,
            two_class_workload,
            horizon=300.0,
            n_replications=adaptive.n_replications,
            seed=42,
        )
        assert adaptive.mean_delay == fixed.mean_delay
        assert adaptive.mean_delay_ci == fixed.mean_delay_ci
        assert np.array_equal(adaptive.delays, fixed.delays)
        assert np.array_equal(adaptive.delays_ci, fixed.delays_ci)
        assert adaptive.average_power == fixed.average_power
        assert adaptive.average_power_ci == fixed.average_power_ci


class TestCacheInterplay:
    def test_second_adaptive_run_replays_from_cache(
        self, tmp_path, two_class_cluster, two_class_workload
    ):
        cold = _adaptive(
            two_class_cluster, two_class_workload, MULTI_ROUND, cache_dir=str(tmp_path)
        )
        assert cold.meta["cache_hits"] == 0
        assert cold.meta["cache_misses"] == cold.meta["adaptive"]["n_simulated"]
        warm = _adaptive(
            two_class_cluster, two_class_workload, MULTI_ROUND, cache_dir=str(tmp_path)
        )
        assert warm.meta["cache_misses"] == 0
        assert warm.meta["cache_hits"] == warm.meta["adaptive"]["n_simulated"]
        assert warm.mean_delay == cold.mean_delay
        assert np.array_equal(warm.delays, cold.delays)


class TestAdaptiveTelemetry:
    def test_round_events_and_counters(
        self, telemetry, two_class_cluster, two_class_workload
    ):
        from repro.obs.sinks import InMemorySink

        sink = InMemorySink()
        telemetry.tracer.sinks.append(sink)
        rep = _adaptive(two_class_cluster, two_class_workload, MULTI_ROUND)
        ad = rep.meta["adaptive"]
        rounds = [ev for ev in sink.events if ev["name"] == "sim.adaptive.round"]
        assert len(rounds) == ad["n_rounds"]
        last = rounds[-1]["fields"]
        assert last["stop_at"] == ad["n_used"]
        assert last["rel_ci.mean_delay"] <= 0.3
        assert telemetry.metrics.counter("sim.adaptive.rounds").value == ad["n_rounds"]
        assert (
            telemetry.metrics.counter("sim.adaptive.reps_saved").value
            == 24 - ad["n_simulated"]
        )


def _priority_cluster(basic_spec, discipline):
    from repro.cluster import ClusterModel, Tier
    from repro.distributions import Exponential

    return ClusterModel(
        [
            Tier(
                "only",
                (Exponential(1.0), Exponential(1.0)),
                basic_spec,
                servers=1,
                speed=1.0,
                discipline=discipline,
            )
        ]
    )


class TestCompareScenarios:
    def test_needs_two_replications(self, two_class_cluster, two_class_workload):
        sc = Scenario(two_class_cluster, two_class_workload)
        with pytest.raises(ModelValidationError, match="at least 2"):
            compare_scenarios(sc, sc, horizon=100.0, n_replications=1)

    def test_crn_paired_interval_strictly_tighter_than_independent(
        self, basic_spec, two_class_workload
    ):
        # The A2 acceptance property: non-preemptive vs preemptive-resume
        # priority under CRN. Both sides see the same arrivals and
        # demands, so the within-pair correlation is near 1 and the
        # paired-t difference interval must beat the Welch interval that
        # ignores the pairing — strictly, and by a wide margin.
        comp = compare_scenarios(
            Scenario(_priority_cluster(basic_spec, "priority_np"), two_class_workload, label="np"),
            Scenario(_priority_cluster(basic_spec, "priority_pr"), two_class_workload, label="pr"),
            horizon=400.0,
            n_replications=5,
            seed=7,
        )
        for metric in ("mean_delay", "average_power"):
            row = comp.metrics[metric]
            assert row["paired"].halfwidth < row["independent"].halfwidth
            assert row["vr_factor"] > 1.0
            assert row["correlation"] > 0.9
        assert comp.paired("mean_delay").method == "crn-paired"
        assert comp.vr_factor("mean_delay") > 10.0

    def test_sides_are_bit_identical_to_plain_replication_runs(
        self, two_class_cluster, two_class_workload
    ):
        sc = Scenario(two_class_cluster, two_class_workload, label="a")
        comp = compare_scenarios(sc, sc, horizon=200.0, n_replications=3, seed=11)
        direct = simulate_replications(
            two_class_cluster,
            two_class_workload,
            horizon=200.0,
            n_replications=3,
            seed=11,
        )
        for side in (comp.result_a, comp.result_b):
            assert side.mean_delay == direct.mean_delay
            assert np.array_equal(side.delays, direct.delays)
        # Identical scenarios under CRN differ by exactly zero.
        assert comp.paired("mean_delay").value == 0.0
