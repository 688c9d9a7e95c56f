"""Trace-driven control harness and simulator epoch-hook tests."""

import numpy as np
import pytest

from repro.control import (
    DriftPlusPenaltyController,
    StaticSpeedPolicy,
    run_controlled,
)
from repro.exceptions import ModelValidationError
from repro.experiments.common import CLASS_NAMES, canonical_cluster, canonical_workload
from repro.simulation import compiled, simulator
from repro.simulation.compiled import kernel_available
from repro.simulation.simulator import simulate
from repro.workload.timevarying import diurnal_trace


@pytest.fixture(scope="module")
def cluster():
    return canonical_cluster()


@pytest.fixture(scope="module")
def trace():
    base = canonical_workload().arrival_rates
    return diurnal_trace(
        base, 120.0, period=120.0, trough=0.5, peak=1.2, seed=5, class_names=CLASS_NAMES
    )


class TestSimulatorEpochHook:
    def test_params_must_come_together(self, cluster):
        wl = canonical_workload()
        with pytest.raises(ModelValidationError):
            simulate(cluster, wl, horizon=50.0, epoch_times=[0.0, 10.0])
        with pytest.raises(ModelValidationError):
            simulate(cluster, wl, horizon=50.0, epoch_controller=lambda t, q, s: None)

    def test_epoch_times_validated(self, cluster):
        wl = canonical_workload()
        ctrl = lambda t, q, s: None  # noqa: E731
        for bad in ([], [10.0, 5.0], [-1.0, 5.0], [0.0, float("inf")]):
            with pytest.raises(ModelValidationError):
                simulate(cluster, wl, horizon=50.0, epoch_times=bad, epoch_controller=ctrl)

    def test_ps_tiers_rejected(self):
        wl = canonical_workload()
        ps = canonical_cluster(discipline="ps")
        with pytest.raises(ModelValidationError):
            simulate(
                ps, wl, horizon=50.0, epoch_times=[0.0], epoch_controller=lambda t, q, s: None
            )

    def test_keep_speeds_controller_matches_static_run(self, cluster):
        # A controller that never changes speeds must reproduce the
        # static run's delays exactly (same draws, same dynamics).
        wl = canonical_workload()
        static = simulate(cluster, wl, horizon=300.0, seed=9)
        kept = simulate(
            cluster,
            wl,
            horizon=300.0,
            seed=9,
            epoch_times=np.arange(0.0, 300.0, 25.0),
            epoch_controller=lambda t, q, s: None,
        )
        np.testing.assert_array_equal(static.delays, kept.delays)
        np.testing.assert_array_equal(static.n_completed, kept.n_completed)
        assert kept.average_power == pytest.approx(static.average_power, rel=1e-12)
        assert len(kept.meta["epoch_trace"]) == 12

    def test_controller_return_shape_checked(self, cluster):
        wl = canonical_workload()
        with pytest.raises(ModelValidationError):
            simulate(
                cluster,
                wl,
                horizon=50.0,
                epoch_times=[10.0],
                epoch_controller=lambda t, q, s: np.ones(7),
            )

    def test_speeds_clamped_to_dvfs_box(self, cluster):
        wl = canonical_workload()
        res = simulate(
            cluster,
            wl,
            horizon=60.0,
            seed=2,
            epoch_times=[20.0],
            epoch_controller=lambda t, q, s: np.array([0.01, 99.0, 0.5]),
            allow_unstable=True,
        )
        lo = np.array([t.spec.min_speed for t in cluster.tiers])
        hi = np.array([t.spec.max_speed for t in cluster.tiers])
        trace = res.meta["epoch_trace"]
        assert len(trace) == 1
        applied = trace["speeds"][0]
        np.testing.assert_allclose(applied, [lo[0], hi[1], 0.5])
        np.testing.assert_allclose(res.meta["final_speeds"], applied)

    def test_epoch_trace_energy_monotone_and_consistent(self, cluster):
        wl = canonical_workload()

        def ctrl(t, q, s):
            return np.full(3, 0.6) if t < 100.0 else np.ones(3)

        res = simulate(
            cluster,
            wl,
            horizon=200.0,
            seed=4,
            warmup_fraction=0.0,
            epoch_times=np.arange(0.0, 200.0, 10.0),
            epoch_controller=ctrl,
            allow_unstable=True,
        )
        trace = res.meta["epoch_trace"]
        assert len(trace) == 20
        assert np.all(np.diff(trace["dynamic_energy"]) >= 0.0)
        assert trace["queues"].shape == (20, 3, 3) and trace[0]["queues"].shape == (3, 3)
        np.testing.assert_array_equal(trace["t"], np.arange(0.0, 200.0, 10.0))
        # Total power decomposes into idle floor + segmented dynamic.
        idle = sum(t.servers * t.spec.power.idle for t in cluster.tiers)
        assert res.average_power == pytest.approx(
            idle + res.meta["dynamic_energy"] / 200.0
        )

    def test_slow_speeds_cost_less_dynamic_power(self, cluster):
        # Cube-law sanity through the segmented accounting: halving all
        # speeds must cut dynamic energy despite longer busy periods
        # (power falls with s^3, busy time only grows with 1/s).
        wl = canonical_workload()
        fast = simulate(
            cluster, wl, horizon=300.0, seed=6,
            epoch_times=[0.0], epoch_controller=lambda t, q, s: np.ones(3),
        )
        slow = simulate(
            cluster, wl, horizon=300.0, seed=6,
            epoch_times=[0.0], epoch_controller=lambda t, q, s: np.full(3, 0.5),
            allow_unstable=True,
        )
        assert slow.meta["dynamic_energy"] < fast.meta["dynamic_energy"]
        # ... while delays lengthen.
        assert slow.mean_delay > fast.mean_delay


class TestRunControlled:
    def test_validation(self, cluster, trace):
        pol = StaticSpeedPolicy(np.ones(3))
        with pytest.raises(ModelValidationError):
            run_controlled(cluster, trace, pol, epoch_length=0.0, max_mean_delay=0.3)
        with pytest.raises(ModelValidationError):
            run_controlled(cluster, trace, pol, epoch_length=500.0, max_mean_delay=0.3)
        with pytest.raises(ModelValidationError):
            run_controlled(cluster, trace, pol, epoch_length=5.0, max_mean_delay=-1.0)

    def test_static_max_scorecard(self, cluster, trace):
        pol = StaticSpeedPolicy(np.ones(3), name="max")
        score = run_controlled(cluster, trace, pol, 5.0, max_mean_delay=0.35, seed=3)
        assert score.policy_name == "max"
        assert score.total_energy == pytest.approx(score.average_power * 120.0)
        assert score.sla_met == (score.mean_delay <= 0.35)
        assert len(score.epoch_trace) == 24
        np.testing.assert_array_equal(score.epoch_trace["speeds"], np.ones((24, 3)))
        np.testing.assert_allclose(score.mean_speeds, np.ones(3))

    def test_dpp_saves_energy_vs_max(self, cluster, trace):
        maxp = run_controlled(
            cluster, trace, StaticSpeedPolicy(np.ones(3)), 1.0, 0.35, seed=3
        )
        dpp = run_controlled(
            cluster, trace, DriftPlusPenaltyController(cluster, 5e-4), 1.0, 0.35, seed=3
        )
        assert dpp.total_energy < maxp.total_energy
        assert dpp.mean_delay > maxp.mean_delay

    def test_same_trace_same_seed_is_deterministic(self, cluster, trace):
        pol = DriftPlusPenaltyController(cluster, 5e-4)
        a = run_controlled(cluster, trace, pol, 2.0, 0.35, seed=7)
        b = run_controlled(cluster, trace, pol, 2.0, 0.35, seed=7)
        assert a.total_energy == b.total_energy
        np.testing.assert_array_equal(a.delays, b.delays)


class _DictLedger(simulator._SpeedLedger):
    """The speed ledger as it kept its trace before the trace became a
    structured array: one dict per boundary (its own queue array and
    applied-speed array), with the per-class energy in a NumPy array."""

    def __init__(self, cluster, controller, epoch_times):
        super().__init__(cluster, controller, epoch_times)
        self.class_energy = np.zeros(cluster.num_classes)
        self.records = []

    @property
    def trace(self):
        return self.records

    def decide(self, t, counts):
        counts = counts.copy()
        speeds_now = np.array(self.speeds)
        new_speeds = self.controller(t, counts, speeds_now.copy())
        changes = []
        if new_speeds is not None:
            new_arr = np.asarray(new_speeds, dtype=float)
            for i, (lo, hi) in enumerate(self.bounds):
                s_new = min(max(float(new_arr[i]), lo), hi)
                s_old = self.speeds[i]
                if s_new != s_old:
                    changes.append((i, s_old / s_new))
                    self.speeds[i] = s_new
                    speeds_now[i] = s_new
        self.records.append(
            {"t": t, "queues": counts, "speeds": speeds_now, "dynamic_energy": self.energy}
        )
        return changes


@pytest.mark.parametrize(
    "backend",
    ["python", pytest.param("compiled", marks=pytest.mark.skipif(
        not kernel_available(), reason="no C toolchain for the compiled kernel"))],
)
def test_epoch_trace_rows_are_the_old_dict_records(monkeypatch, cluster, trace, backend):
    """The structured trace holds, field by field, what the dict records
    held, and billing in Python floats leaves the energies' bits as the
    NumPy per-class array left them; the trace is the same array on
    both engines."""
    def run(seed):
        return run_controlled(
            cluster, trace, DriftPlusPenaltyController(cluster, 5e-4), 0.5, 0.35,
            seed=seed, backend=backend,
        )

    new = [run(seed) for seed in (3, 4)]
    monkeypatch.setattr(simulator, "_SpeedLedger", _DictLedger)
    monkeypatch.setattr(compiled, "_SpeedLedger", _DictLedger)
    old = [run(seed) for seed in (3, 4)]
    for a, b in zip(new, old):
        rows, records = a.epoch_trace, b.epoch_trace
        assert rows.dtype.names == ("t", "queues", "speeds", "dynamic_energy")
        assert len(rows) == len(records) == 240
        for row, rec in zip(rows, records):
            assert row["t"] == rec["t"]
            assert row["queues"].tobytes() == rec["queues"].tobytes()
            assert row["speeds"].tobytes() == rec["speeds"].tobytes()
            assert row["dynamic_energy"] == rec["dynamic_energy"]
        assert a.result.meta["dynamic_energy"] == b.result.meta["dynamic_energy"]
        assert a.result.meta["final_speeds"].tobytes() == b.result.meta["final_speeds"].tobytes()
        assert a.average_power == b.average_power
        assert a.result.per_class_dynamic_energy.tobytes() == (
            b.result.per_class_dynamic_energy.tobytes()
        )
        assert a.delays.tobytes() == b.delays.tobytes()
    if backend == "compiled":
        monkeypatch.undo()
        python = run_controlled(
            cluster, trace, DriftPlusPenaltyController(cluster, 5e-4), 0.5, 0.35,
            seed=3, backend="python",
        )
        assert python.epoch_trace.tobytes() == new[0].epoch_trace.tobytes()
        assert python.epoch_trace.dtype == new[0].epoch_trace.dtype
