"""Parallel replication engine, result cache, and the replication-API
and warmup-accounting regression tests.

Covers:

* the three PR bugfixes, each with a failing-before/passing-after test:
  1. ``simulate_replications`` forwards ``routing`` /
     ``allow_unstable`` / ``collect_job_log`` to every replication;
  2. the simulator's ``offered`` / ``n_blocked`` counters use the
     job-arrival warmup window (the one the delay statistics use), not
     the hop's event time, and the redundant event-time guard on
     ``station_completions`` is gone;
  3. ``ReplicatedResult.delay_percentiles`` excludes zero-completion
     replications per class instead of letting one NaN poison the
     across-replication mean/CI;
* determinism: ``n_jobs=1`` and ``n_jobs=4`` produce bit-identical
  ``ReplicatedResult`` fields;
* the on-disk cache: warm calls skip the simulator and return equal
  results, and a corrupted cache file is recomputed, not crashed on.
"""

import time
import warnings

import numpy as np
import pytest

from repro.cluster import ClusterModel, PowerModel, ServerSpec, Tier
from repro.distributions import Deterministic, Exponential
from repro.exceptions import ModelValidationError, WarmupDiscardWarning
from repro.queueing.routing import ClassRouting, visit_ratio_matrix
from repro.simulation import (
    CacheUnsupportedError,
    ReplicatedResult,
    SimulationCache,
    SimulationResult,
    confidence_halfwidth,
    simulate,
    simulate_replications,
    simulation_fingerprint,
)
from repro.simulation.parallel import resolve_n_jobs
from repro.workload import workload_from_rates
from repro.workload.arrivals import RenewalProcess

SPEC = ServerSpec(PowerModel(idle=10.0, kappa=50.0, alpha=3.0), min_speed=0.4, max_speed=1.0)


def _tandem_cluster(d2: float = 0.2, capacity2: int | None = None) -> ClusterModel:
    """Deterministic 2-tier tandem: service 0.6 then ``d2`` seconds."""
    tiers = [
        Tier("t1", (Deterministic(0.6),), SPEC, servers=1, discipline="fcfs"),
        Tier("t2", (Deterministic(d2),), SPEC, servers=1, discipline="fcfs", capacity=capacity2),
    ]
    return ClusterModel(tiers)


def _deterministic_arrivals():
    """Renewal arrivals every 0.9 s: jobs at t = 0.9, 1.8, ..., 9.9."""
    return [RenewalProcess(Deterministic(0.9))]


# ----------------------------------------------------------------------
# Bugfix 1: simulate_replications forwards all simulate() options.
# ----------------------------------------------------------------------
class TestOptionForwarding:
    def test_collect_job_log_reaches_every_replication(self, two_class_cluster, two_class_workload):
        rep = simulate_replications(
            two_class_cluster,
            two_class_workload,
            horizon=300.0,
            n_replications=2,
            seed=3,
            collect_job_log=True,
        )
        for r in rep.replications:
            assert r.job_log is not None
            assert r.job_log.shape[0] == int(r.n_completed.sum())

    def test_allow_unstable_is_forwarded(self, basic_spec):
        tier = Tier("only", (Exponential(1.0),), basic_spec, discipline="fcfs")
        cluster = ClusterModel([tier])
        overloaded = workload_from_rates([1.5])  # rho = 1.5
        with pytest.raises(ModelValidationError):
            simulate_replications(cluster, overloaded, horizon=50.0, n_replications=2)
        rep = simulate_replications(
            cluster, overloaded, horizon=50.0, n_replications=2, allow_unstable=True
        )
        assert rep.n_replications == 2

    def test_routing_is_forwarded(self, basic_spec):
        retry = np.array([[0.0, 1.0], [0.25, 0.0]])
        cr = ClassRouting(retry, 0)
        cluster = ClusterModel(
            [
                Tier("app", (Exponential(3.0),), basic_spec),
                Tier("db", (Exponential(4.0),), basic_spec),
            ],
            visit_ratios=visit_ratio_matrix([retry]),
        )
        wl = workload_from_rates([1.0])
        rep = simulate_replications(
            cluster, wl, horizon=2000.0, n_replications=3, seed=9, routing=[cr]
        )
        # Across-replication CI now exists for the routed topology.
        assert np.all(np.isfinite(rep.delays_ci))
        # Feedback routing means > 2 station visits per completed job.
        visits = sum(r.meta["station_completions"].sum() for r in rep.replications)
        completed = sum(r.n_completed.sum() for r in rep.replications)
        assert visits / completed > 2.0


# ----------------------------------------------------------------------
# Bugfix 2: blocking counters use the job-arrival warmup window.
# ----------------------------------------------------------------------
@pytest.mark.filterwarnings("ignore::repro.exceptions.WarmupDiscardWarning")
class TestWarmupWindowCounters:
    """Deterministic tandem, horizon 10, warmup 5, arrivals at 0.9k.

    The tiny deterministic windows here discard most completions by
    construction (that is the point of the regression scenarios), so
    the warmup-discard advisory is expected and silenced.

    Post-warmup arrivals are k = 6..11 (t = 5.4..9.9). Tier-2 entries
    happen at 0.9k + 0.6. The job arriving at t = 4.5 (k = 5) enters
    tier 2 at t = 5.1: the *old* event-time gate counted it as offered
    after warmup even though the delay statistics exclude it; the fixed
    gate does not.
    """

    def test_offered_uses_arrival_window(self):
        res = simulate(
            _tandem_cluster(),
            workload_from_rates([1.0 / 0.9]),
            horizon=10.0,
            warmup_fraction=0.5,
            seed=0,
            arrival_processes=_deterministic_arrivals(),
        )
        offered = res.meta["n_offered"]
        # Tier 1: arrivals k=6..11 -> 6. Tier 2: of those, k=6..10
        # enter before the horizon -> 5 (the old gate reported 6,
        # including the k=5 job that arrived during warmup).
        assert offered[0, 0] == 6
        assert offered[0, 1] == 5

    def test_blocked_uses_arrival_window(self):
        # Tier-2 service 2.0 with capacity 1 -> it serves one job while
        # the next two tier-2 entries get rejected. The job arriving at
        # t = 4.5 is blocked at t = 5.1; only the fixed gate excludes it.
        res = simulate(
            _tandem_cluster(d2=2.0, capacity2=1),
            workload_from_rates([1.0 / 0.9]),
            horizon=10.0,
            warmup_fraction=0.5,
            seed=0,
            arrival_processes=_deterministic_arrivals(),
        )
        # Blocked tier-2 entries with post-warmup arrivals: jobs
        # arriving at 5.4, 7.2, 8.1 (the old gate also counted the
        # 4.5-arrival blocked at 5.1, reporting 4).
        assert res.meta["n_blocked"][0, 1] == 3
        assert res.meta["n_offered"][0, 1] == 5

    def test_blocking_fraction_consistent_with_delay_window(self):
        # offered - blocked at tier 2 must equal the number of counted
        # jobs that actually entered tier 2 - all measured over the
        # same (job-arrival) population.
        res = simulate(
            _tandem_cluster(d2=2.0, capacity2=1),
            workload_from_rates([1.0 / 0.9]),
            horizon=10.0,
            warmup_fraction=0.5,
            seed=0,
            arrival_processes=_deterministic_arrivals(),
        )
        admitted = res.meta["n_offered"][0, 1] - res.meta["n_blocked"][0, 1]
        assert admitted == 2  # jobs arriving at 6.3 (served 6.9-8.9) and 9.0 (enters 9.6)

    def test_station_completions_equals_counted_visits(self):
        # With the redundant event-time guard gone, station completions
        # are exactly the counted station visits.
        res = simulate(
            _tandem_cluster(),
            workload_from_rates([1.0 / 0.9]),
            horizon=10.0,
            warmup_fraction=0.5,
            seed=0,
            arrival_processes=_deterministic_arrivals(),
        )
        assert res.meta["station_completions"][0, 0] == 5
        assert res.meta["station_completions"][0, 1] == 5

    def test_single_station_blocking_unchanged(self, basic_spec):
        # At the entry station the hop time *is* the arrival time, so
        # the fix must not change single-station loss measurements.
        tier = Tier("loss", (Exponential(1.0),), basic_spec, discipline="fcfs", capacity=1)
        cluster = ClusterModel([tier])
        wl = workload_from_rates([2.0])
        res = simulate(cluster, wl, horizon=2000.0, seed=4)
        offered = res.meta["n_offered"][0, 0]
        blocked = res.meta["n_blocked"][0, 0]
        assert offered > 0 and 0 < blocked < offered


# ----------------------------------------------------------------------
# Bugfix 3: NaN-robust across-replication percentiles.
# ----------------------------------------------------------------------
def _fake_result(samples_per_class: list[list[float]]) -> SimulationResult:
    k = len(samples_per_class)
    n = np.array([len(s) for s in samples_per_class], dtype=np.int64)
    return SimulationResult(
        class_names=tuple(f"c{i}" for i in range(k)),
        n_completed=n,
        delays=np.array([np.mean(s) if s else np.nan for s in samples_per_class]),
        delay_std=np.zeros(k),
        station_waits=np.zeros((k, 1)),
        station_sojourns=np.zeros((k, 1)),
        utilizations=np.zeros(1),
        average_power=0.0,
        energy_per_request=0.0,
        per_class_dynamic_energy=np.zeros(k),
        horizon=100.0,
        warmup=10.0,
        delay_samples=[np.asarray(s) for s in samples_per_class],
    )


def _wrap(runs: list[SimulationResult]) -> ReplicatedResult:
    k = len(runs[0].class_names)
    return ReplicatedResult(
        class_names=runs[0].class_names,
        n_replications=len(runs),
        delays=np.zeros(k),
        delays_ci=np.zeros(k),
        mean_delay=0.0,
        mean_delay_ci=0.0,
        utilizations=np.zeros(1),
        average_power=0.0,
        average_power_ci=0.0,
        energy_per_request=0.0,
        per_class_dynamic_energy=np.zeros(k),
        station_sojourns=np.zeros((k, 1)),
        station_waits=np.zeros((k, 1)),
        replications=runs,
    )


class TestNanRobustPercentiles:
    def test_zero_completion_replication_does_not_poison_mean(self):
        runs = [
            _fake_result([[1.0, 2.0, 3.0], [5.0, 6.0]]),
            _fake_result([[], [4.0, 8.0]]),  # class 0 never completed here
            _fake_result([[2.0, 4.0, 6.0], [6.0, 10.0]]),
        ]
        rep = _wrap(runs)
        means, cis, counts = rep.delay_percentiles(0.5, with_counts=True)
        assert np.isfinite(means[0])  # old code: NaN
        assert counts.tolist() == [2, 3]
        # Mean over the two finite class-0 replications: (2 + 4) / 2.
        assert means[0] == pytest.approx(3.0)
        assert np.isfinite(cis[0])  # CI from the 2 finite replications

    def test_all_nan_class_stays_nan(self):
        runs = [_fake_result([[], [1.0]]), _fake_result([[], [2.0]])]
        means, cis, counts = _wrap(runs).delay_percentiles(0.5, with_counts=True)
        assert np.isnan(means[0]) and np.isnan(cis[0]) and counts[0] == 0
        assert np.isfinite(means[1])

    def test_single_finite_replication_has_nan_ci(self):
        runs = [_fake_result([[1.0], [1.0]]), _fake_result([[], [2.0]])]
        means, cis, counts = _wrap(runs).delay_percentiles(0.9, with_counts=True)
        assert np.isfinite(means[0]) and np.isnan(cis[0]) and counts[0] == 1

    def test_default_return_stays_two_tuple(self):
        runs = [_fake_result([[1.0], [1.0]]), _fake_result([[2.0], [2.0]])]
        out = _wrap(runs).delay_percentiles(0.5)
        assert len(out) == 2

    def test_vectorized_path_bit_identical_to_per_class_loop(self):
        # The one-pass masked-sum implementation claims bit-identity
        # with the straightforward per-class compact-then-reduce loop.
        # Mixed effective counts (3, 2 and 0 finite replications) hit
        # every branch: the grouped t-quantiles, the single-replication
        # NaN CI and the all-NaN class.
        rng = np.random.default_rng(202)
        runs = [
            _fake_result(
                [
                    list(rng.exponential(2.0, size=5)),
                    list(rng.exponential(1.0, size=4)) if i != 1 else [],
                    [],
                ]
            )
            for i in range(3)
        ]
        rep = _wrap(runs)
        for p in (0.5, 0.9, 0.99):
            means, cis, counts = rep.delay_percentiles(p, with_counts=True)
            per_rep = np.array(
                [
                    [r.delay_percentile(k, p) for k in range(len(rep.class_names))]
                    for r in rep.replications
                ]
            )
            for k in range(per_rep.shape[1]):
                col = per_rep[:, k]
                finite = col[np.isfinite(col)]
                assert counts[k] == finite.size
                if finite.size == 0:
                    assert np.isnan(means[k]) and np.isnan(cis[k])
                    continue
                assert means[k] == finite.sum() / finite.size  # exact, not approx
                if finite.size < 2:
                    assert np.isnan(cis[k])
                else:
                    std = np.sqrt(
                        np.square(finite - means[k]).sum() / (finite.size - 1)
                    )
                    assert cis[k] == confidence_halfwidth(std, finite.size)


# ----------------------------------------------------------------------
# Tentpole: parallel determinism and the on-disk cache.
# ----------------------------------------------------------------------
class TestParallelDeterminism:
    def test_n_jobs_bit_identical(self, two_class_cluster, two_class_workload):
        serial = simulate_replications(
            two_class_cluster, two_class_workload, horizon=400.0, n_replications=4, seed=17
        )
        parallel = simulate_replications(
            two_class_cluster,
            two_class_workload,
            horizon=400.0,
            n_replications=4,
            seed=17,
            n_jobs=4,
        )
        assert serial.meta["backend"] == "serial"
        assert parallel.meta["backend"] == "process" and parallel.meta["n_jobs"] == 4
        for attr in (
            "delays",
            "delays_ci",
            "utilizations",
            "per_class_dynamic_energy",
            "station_sojourns",
            "station_waits",
        ):
            np.testing.assert_array_equal(
                getattr(serial, attr), getattr(parallel, attr), err_msg=attr
            )
        assert serial.mean_delay == parallel.mean_delay
        assert serial.average_power == parallel.average_power
        assert serial.energy_per_request == parallel.energy_per_request
        for a, b in zip(serial.replications, parallel.replications):
            np.testing.assert_array_equal(a.n_completed, b.n_completed)
            np.testing.assert_array_equal(a.delays, b.delays)

    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(-1) >= 1
        with pytest.raises(ModelValidationError):
            resolve_n_jobs(-2)

    def test_unpicklable_payload_falls_back_to_serial(
        self, two_class_cluster, two_class_workload
    ):
        from repro.workload.arrivals import NonHomogeneousPoisson

        procs = [
            NonHomogeneousPoisson(lambda t: 1.0 + 0.1 * np.sin(t), rate_max=1.2),
            NonHomogeneousPoisson(lambda t: 1.0, rate_max=1.1),
        ]
        rep = simulate_replications(
            two_class_cluster,
            two_class_workload,
            horizon=200.0,
            n_replications=2,
            seed=1,
            arrival_processes=procs,
            n_jobs=2,
            allow_unstable=True,
        )
        assert rep.n_replications == 2
        assert "serial-fallback" in rep.meta["cache"]


class TestSimulationCache:
    def test_second_call_hits_cache_and_matches(
        self, tmp_path, two_class_cluster, two_class_workload
    ):
        kw = dict(horizon=300.0, n_replications=3, seed=5, cache_dir=str(tmp_path))
        cold = simulate_replications(two_class_cluster, two_class_workload, **kw)
        warm = simulate_replications(two_class_cluster, two_class_workload, **kw)
        assert cold.meta["cache_hits"] == 0 and cold.meta["cache_misses"] == 3
        assert warm.meta["cache_hits"] == 3 and warm.meta["cache_misses"] == 0
        assert warm.meta["backend"] == "cache"  # simulator never ran
        np.testing.assert_array_equal(cold.delays, warm.delays)
        np.testing.assert_array_equal(cold.delays_ci, warm.delays_ci)
        assert cold.mean_delay == warm.mean_delay
        assert cold.average_power == warm.average_power
        for a, b in zip(cold.replications, warm.replications):
            np.testing.assert_array_equal(a.n_completed, b.n_completed)
            np.testing.assert_array_equal(a.station_waits, b.station_waits)

    def test_partial_overlap_reuses_prefix(self, tmp_path, two_class_cluster, two_class_workload):
        simulate_replications(
            two_class_cluster,
            two_class_workload,
            horizon=300.0,
            n_replications=2,
            seed=5,
            cache_dir=str(tmp_path),
        )
        more = simulate_replications(
            two_class_cluster,
            two_class_workload,
            horizon=300.0,
            n_replications=4,
            seed=5,
            cache_dir=str(tmp_path),
        )
        # SeedSequence children 0 and 1 are shared between the calls.
        assert more.meta["cache_hits"] == 2 and more.meta["cache_misses"] == 2

    def test_corrupted_entry_recomputed(self, tmp_path, two_class_cluster, two_class_workload):
        kw = dict(horizon=300.0, n_replications=2, seed=5, cache_dir=str(tmp_path))
        cold = simulate_replications(two_class_cluster, two_class_workload, **kw)
        victims = sorted(tmp_path.glob("*/*.pkl"))
        assert len(victims) == 2
        victims[0].write_bytes(b"not a pickle at all")
        again = simulate_replications(two_class_cluster, two_class_workload, **kw)
        assert again.meta["cache_hits"] == 1 and again.meta["cache_misses"] == 1
        np.testing.assert_array_equal(cold.delays, again.delays)
        # The corrupted entry was rewritten: a third call is all hits.
        third = simulate_replications(two_class_cluster, two_class_workload, **kw)
        assert third.meta["cache_hits"] == 2

    def test_cache_discriminates_configurations(self, tmp_path, two_class_cluster, two_class_workload):
        kw = dict(n_replications=2, seed=5, cache_dir=str(tmp_path))
        simulate_replications(two_class_cluster, two_class_workload, horizon=300.0, **kw)
        other = simulate_replications(
            two_class_cluster, two_class_workload, horizon=301.0, **kw
        )
        assert other.meta["cache_hits"] == 0  # different horizon, different keys

    def test_fingerprint_stability_and_type_discrimination(self, basic_spec):
        wl = workload_from_rates([1.0])
        t1 = Tier("a", (Exponential(2.0),), basic_spec)
        t2 = Tier("a", (Exponential(2.0),), basic_spec)
        seed = np.random.SeedSequence(3).spawn(1)[0]
        fp1 = simulation_fingerprint(ClusterModel([t1]), wl, 100.0, 0.1, seed)
        fp2 = simulation_fingerprint(ClusterModel([t2]), wl, 100.0, 0.1, seed)
        assert fp1 == fp2  # structurally equal configs share a key
        fp3 = simulation_fingerprint(ClusterModel([t1]), wl, 100.0, 0.1, np.random.SeedSequence(4).spawn(1)[0])
        assert fp1 != fp3  # different seed, different key

    def test_unsupported_config_bypasses_cache(self, tmp_path, two_class_cluster, two_class_workload):
        from repro.workload.arrivals import NonHomogeneousPoisson

        with pytest.raises(CacheUnsupportedError):
            simulation_fingerprint(
                two_class_cluster,
                two_class_workload,
                100.0,
                0.1,
                np.random.SeedSequence(0),
                arrival_processes=[NonHomogeneousPoisson(lambda t: 1.0, rate_max=1.1)],
            )
        rep = simulate_replications(
            two_class_cluster,
            two_class_workload,
            horizon=100.0,
            n_replications=2,
            seed=0,
            arrival_processes=[
                NonHomogeneousPoisson(lambda t: 1.0, rate_max=1.1),
                NonHomogeneousPoisson(lambda t: 1.0, rate_max=1.1),
            ],
            cache_dir=str(tmp_path),
            allow_unstable=True,
        )
        assert rep.meta["cache"].startswith("unsupported")
        assert len(list(tmp_path.glob("*/*.pkl"))) == 0
        # Regression: a bypassed cache must not count phantom misses —
        # the replications were never looked up, so both totals are 0.
        assert rep.meta["cache_hits"] == 0
        assert rep.meta["cache_misses"] == 0

    def test_cache_api_len_and_clear(self, tmp_path, two_class_cluster, two_class_workload):
        cache = SimulationCache(tmp_path)
        simulate_replications(
            two_class_cluster,
            two_class_workload,
            horizon=200.0,
            n_replications=2,
            seed=5,
            cache_dir=cache,
        )
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestObservability:
    def test_meta_records_per_replication(self, two_class_cluster, two_class_workload):
        rep = simulate_replications(
            two_class_cluster, two_class_workload, horizon=200.0, n_replications=3, seed=2
        )
        recs = rep.meta["replications"]
        assert [r["index"] for r in recs] == [0, 1, 2]
        assert all(r["wall_time_s"] > 0 and r["n_events"] > 0 for r in recs)
        assert all(r["events_per_sec"] > 0 and not r["cached"] for r in recs)
        assert rep.meta["wall_time_s"] > 0

    def test_progress_callback_order_and_counts(self, two_class_cluster, two_class_workload):
        seen = []
        simulate_replications(
            two_class_cluster,
            two_class_workload,
            horizon=200.0,
            n_replications=3,
            seed=2,
            progress=lambda rec, done, total: seen.append((done, total, rec.cached)),
        )
        assert seen == [(1, 3, False), (2, 3, False), (3, 3, False)]

    @pytest.mark.filterwarnings("ignore::repro.exceptions.WarmupDiscardWarning")
    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_replication_wall_times_add_up_to_the_block(self, monkeypatch, backend):
        # A compiled replication is charged its share of the block's
        # descriptor setup and finalize, not just its kernel time, so
        # wall_time_s means the same on both engines.
        from repro.experiments.common import canonical_cluster, canonical_workload
        from repro.simulation import replications
        from repro.simulation.compiled import kernel_available

        if backend == "compiled" and not kernel_available():
            pytest.skip("no C toolchain for the compiled kernel")
        elapsed = []
        run_block = replications._run_block

        def timed(payload):
            t0 = time.perf_counter()
            out = run_block(payload)
            elapsed.append(time.perf_counter() - t0)
            return out

        monkeypatch.setattr(replications, "_run_block", timed)
        rep = simulate_replications(
            canonical_cluster(), canonical_workload(1.0), horizon=5.0, n_replications=16,
            n_jobs=1, backend=backend,
        )
        recorded = sum(r["wall_time_s"] for r in rep.meta["replications"])
        assert len(elapsed) == 1
        assert 0.9 * elapsed[0] <= recorded <= elapsed[0]

    def test_simulator_event_count_exposed(self, two_class_cluster, two_class_workload):
        res = simulate(two_class_cluster, two_class_workload, horizon=100.0, seed=0)
        assert res.meta["n_events"] > res.n_completed.sum()


class TestWarmupDiscardWarning:
    """The >50%-discard advisory: Python warning + structured event."""

    @staticmethod
    def _run(warmup_fraction, backend=None):
        cluster = ClusterModel(
            [Tier("only", (Exponential(1.0),), SPEC, servers=1, discipline="fcfs")]
        )
        return simulate(
            cluster,
            workload_from_rates([0.5]),
            horizon=40.0,
            warmup_fraction=warmup_fraction,
            seed=11,
            backend=backend,
        )

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_warning_points_at_the_caller(self, backend):
        from repro.simulation.compiled import kernel_available

        if backend == "compiled" and not kernel_available():
            pytest.skip("no C toolchain for the compiled kernel")
        with pytest.warns(WarmupDiscardWarning) as caught:
            self._run(0.9, backend)
        assert [w.filename for w in caught] == [__file__]

    def test_high_warmup_warns(self):
        with pytest.warns(WarmupDiscardWarning, match="discarded"):
            res = self._run(0.9)
        assert res.meta["n_warmup_discarded"] > 0

    def test_low_warmup_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", WarmupDiscardWarning)
            res = self._run(0.1)
        assert res.meta["n_warmup_discarded"] >= 0

    def test_structured_event_emitted(self, telemetry):
        from repro.obs.sinks import InMemorySink

        sink = InMemorySink()
        telemetry.tracer.sinks.append(sink)
        with pytest.warns(WarmupDiscardWarning):
            self._run(0.9)
        assert "sim.warmup_discard" in [ev["name"] for ev in sink.events]
        (discard,) = [ev for ev in sink.events if ev["name"] == "sim.warmup_discard"]
        assert discard["fields"]["discard_fraction"] > 0.5
