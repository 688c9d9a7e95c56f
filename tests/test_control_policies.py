"""Epoch policy tests: drift-plus-penalty rule, static and planned."""

import numpy as np
import pytest

from repro.control import (
    DriftPlusPenaltyController,
    PlannedSpeedPolicy,
    StaticSpeedPolicy,
)
from repro.core.controller import plan_speed_schedule
from repro.exceptions import ModelValidationError
from repro.experiments.common import canonical_cluster, canonical_workload


@pytest.fixture
def cluster():
    return canonical_cluster()


class TestDriftPlusPenalty:
    def test_closed_form_minimizer(self, cluster):
        # The decision must equal the clipped stationary point of
        # V*kappa*s^alpha - Q*s per tier.
        v = 1e-3
        dpp = DriftPlusPenaltyController(cluster, v)
        backlog = np.array([0.3, 1.7, 0.9])
        kappa = np.array([t.spec.power.kappa for t in cluster.tiers])
        alpha = np.array([t.spec.power.alpha for t in cluster.tiers])
        lo = np.array([t.spec.min_speed for t in cluster.tiers])
        hi = np.array([t.spec.max_speed for t in cluster.tiers])
        expected = np.clip(
            (backlog / (v * kappa * alpha)) ** (1.0 / (alpha - 1.0)), lo, hi
        )
        np.testing.assert_allclose(dpp.speeds_for_backlog(backlog), expected)

    def test_speeds_box_respected(self, cluster):
        dpp = DriftPlusPenaltyController(cluster, 1e-3)
        lo = np.array([t.spec.min_speed for t in cluster.tiers])
        hi = np.array([t.spec.max_speed for t in cluster.tiers])
        for q in (np.zeros(3), np.full(3, 1e-6), np.full(3, 1e6)):
            s = dpp.speeds_for_backlog(q)
            assert np.all(s >= lo - 1e-12) and np.all(s <= hi + 1e-12)
        np.testing.assert_allclose(dpp.speeds_for_backlog(np.zeros(3)), lo)
        np.testing.assert_allclose(dpp.speeds_for_backlog(np.full(3, 1e6)), hi)

    def test_v_zero_is_pure_drift(self, cluster):
        dpp = DriftPlusPenaltyController(cluster, 0.0)
        lo = np.array([t.spec.min_speed for t in cluster.tiers])
        hi = np.array([t.spec.max_speed for t in cluster.tiers])
        np.testing.assert_allclose(
            dpp.speeds_for_backlog(np.array([0.0, 0.5, 0.0])), [lo[0], hi[1], lo[2]]
        )

    def test_larger_v_never_faster(self, cluster):
        backlog = np.array([0.5, 2.0, 1.0])
        speeds = [
            DriftPlusPenaltyController(cluster, v).speeds_for_backlog(backlog)
            for v in (1e-4, 1e-3, 1e-2)
        ]
        for s_small_v, s_large_v in zip(speeds, speeds[1:]):
            assert np.all(s_large_v <= s_small_v + 1e-12)

    def test_decide_converts_counts_to_work_backlog(self, cluster):
        dpp = DriftPlusPenaltyController(cluster, 1e-3)
        counts = np.array([[2, 0, 1], [0, 3, 0], [1, 1, 1]])
        demands = np.array([[d.mean for d in t.demands] for t in cluster.tiers])
        expected = dpp.speeds_for_backlog((counts * demands).sum(axis=1))
        np.testing.assert_allclose(
            dpp.decide(0.0, counts, np.ones(3)), expected
        )

    def test_class_weights_push_speeds(self, cluster):
        counts = np.array([[5, 0, 0], [5, 0, 0], [5, 0, 0]])
        plain = DriftPlusPenaltyController(cluster, 1e-3)
        gold_heavy = DriftPlusPenaltyController(
            cluster, 1e-3, class_weights=[10.0, 1.0, 1.0]
        )
        s_plain = plain.decide(0.0, counts, np.ones(3))
        s_heavy = gold_heavy.decide(0.0, counts, np.ones(3))
        assert np.all(s_heavy >= s_plain)
        assert np.any(s_heavy > s_plain)

    def test_validation(self, cluster):
        with pytest.raises(ModelValidationError):
            DriftPlusPenaltyController(cluster, -1.0)
        with pytest.raises(ModelValidationError):
            DriftPlusPenaltyController(cluster, float("nan"))
        with pytest.raises(ModelValidationError):
            DriftPlusPenaltyController(cluster, 1e-3, class_weights=[1.0])
        with pytest.raises(ModelValidationError):
            DriftPlusPenaltyController(cluster, 1e-3, class_weights=[1.0, -1.0, 1.0])

    def test_fresh_is_equivalent(self, cluster):
        dpp = DriftPlusPenaltyController(cluster, 2e-3)
        clone = dpp.fresh()
        q = np.array([0.1, 0.7, 0.2])
        np.testing.assert_allclose(
            clone.speeds_for_backlog(q), dpp.speeds_for_backlog(q)
        )
        assert clone.v_param == dpp.v_param


class TestStaticAndPlanned:
    def test_static_returns_fixed_vector(self):
        pol = StaticSpeedPolicy([0.7, 0.8, 0.9], name="s")
        out = pol.decide(12.0, np.zeros((3, 3)), np.ones(3))
        np.testing.assert_allclose(out, [0.7, 0.8, 0.9])
        assert pol.name == "s"

    def test_static_validation(self):
        with pytest.raises(ModelValidationError):
            StaticSpeedPolicy([])
        with pytest.raises(ModelValidationError):
            StaticSpeedPolicy([1.0, -0.5])

    def test_planned_looks_up_containing_epoch(self, cluster):
        names = list(canonical_workload().names)
        starts = np.array([0.0, 6.0, 12.0, 18.0])
        base = canonical_workload().arrival_rates
        rates = np.array([0.4, 0.8, 1.5, 1.0])[:, None] * base[None, :]
        plans = plan_speed_schedule(cluster, names, starts, rates, 24.0, 0.35)
        pol = PlannedSpeedPolicy(plans)
        # Decision instants inside each plan epoch pick that epoch's
        # speeds; instants before the first epoch clamp to it.
        np.testing.assert_allclose(pol.decide(7.5, None, None), plans[1].speeds)
        np.testing.assert_allclose(pol.decide(6.0, None, None), plans[1].speeds)
        np.testing.assert_allclose(pol.decide(23.9, None, None), plans[3].speeds)
        np.testing.assert_allclose(pol.decide(0.0, None, None), plans[0].speeds)

    def test_planned_validation(self):
        with pytest.raises(ModelValidationError):
            PlannedSpeedPolicy([])
