"""Variance-reduction toolkit: estimators, the CRN/antithetic RNG
contract, and simulation-backed unbiasedness.

Three layers:

* synthetic-data estimator tests — closed-form hand checks plus
  statistical claims strong enough to catch a broken estimator (CV
  corrected mean unbiased, variance strictly below naive, jackknife
  coefficients equal to the brute-force leave-one-out fit);
* the **CRN contract** pinned for :mod:`repro.simulation.rng`: a
  stream's values depend only on ``(master seed, stream name)``; the
  antithetic ``CoupledGenerator`` mirrors uniforms as ``1 - U``, never
  emits 1.0, and keeps non-invertible families independent between the
  pair members;
* simulation-backed unbiasedness on analytically solvable stations —
  M/M/1 and a two-class priority M/G/1 — where the analytic delay from
  :func:`repro.core.delay.end_to_end_delays` must fall inside the
  estimator's interval, and the variance-reduced intervals must be
  strictly tighter than the naive ones on the same runs.
"""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterModel, PowerModel, ServerSpec, Tier
from repro.core.delay import end_to_end_delays
from repro.distributions import Exponential, fit_two_moments
from repro.exceptions import ModelValidationError
from repro.simulation import (
    AntitheticSeed,
    CoupledGenerator,
    PrecisionTarget,
    VrEstimate,
    antithetic_estimate,
    control_variate_estimate,
    independent_difference,
    jackknife_cv_coefficients,
    naive_estimate,
    paired_difference,
    simulate_replications_adaptive,
    variance_reduction_factor,
)
from repro.simulation.rng import RngStreams
from repro.simulation.stats import confidence_halfwidth
from repro.workload import workload_from_rates

SPEC = ServerSpec(PowerModel(idle=10.0, kappa=50.0, alpha=3.0), min_speed=0.4, max_speed=1.0)


# ----------------------------------------------------------------------
# Estimators on synthetic data
# ----------------------------------------------------------------------
class TestNaiveEstimate:
    def test_matches_hand_computation(self):
        values = [1.0, 2.0, 3.0, 6.0]
        est = naive_estimate(values)
        assert est.value == pytest.approx(3.0)
        assert est.halfwidth == pytest.approx(
            confidence_halfwidth(float(np.std(values, ddof=1)), 4)
        )
        assert est.n_units == 4 and est.method == "naive"

    def test_single_value_has_nan_halfwidth(self):
        est = naive_estimate([5.0])
        assert est.value == 5.0 and np.isnan(est.halfwidth)
        assert est.rel_halfwidth == float("inf")

    def test_rel_halfwidth_edge_cases(self):
        assert VrEstimate(2.0, 0.5, 4, "naive").rel_halfwidth == pytest.approx(0.25)
        assert VrEstimate(0.0, 0.5, 4, "naive").rel_halfwidth == float("inf")
        assert VrEstimate(0.0, 0.0, 4, "naive").rel_halfwidth == 0.0

    def test_as_dict_round_trip(self):
        d = naive_estimate([1.0, 2.0, 3.0]).as_dict()
        assert set(d) == {
            "value", "halfwidth", "rel_halfwidth", "n_units", "method", "level", "beta",
        }


class TestAntitheticEstimate:
    def test_monotone_function_of_mirrored_uniforms(self, rng):
        # E[U^2] = 1/3; mirrored pairs (U, 1-U) are negatively
        # correlated through any monotone map, so pair means must beat
        # the naive estimator over the same 2n draws.
        u = rng.random(2000)
        primary, mirror = u**2, (1.0 - u) ** 2
        anti = antithetic_estimate(primary, mirror)
        naive = naive_estimate(np.concatenate([primary, mirror]))
        assert anti.value == pytest.approx(naive.value)  # same sample mean
        assert anti.value == pytest.approx(1.0 / 3.0, abs=0.02)
        assert anti.halfwidth < naive.halfwidth
        assert anti.method == "antithetic" and anti.n_units == 2000

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ModelValidationError):
            antithetic_estimate([1.0, 2.0], [1.0])


class TestJackknifeCv:
    def test_matches_brute_force_leave_one_out(self, rng):
        y = rng.normal(size=25)
        c = 0.7 * y + rng.normal(size=25)
        betas = jackknife_cv_coefficients(y, c)
        for j in range(25):
            mask = np.arange(25) != j
            yj, cj = y[mask], c[mask]
            expected = np.cov(yj, cj, ddof=1)[0, 1] / np.var(cj, ddof=1)
            assert betas[j] == pytest.approx(expected, rel=1e-9)

    def test_constant_control_gives_zero(self):
        betas = jackknife_cv_coefficients([1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0, 5.0])
        np.testing.assert_array_equal(betas, 0.0)

    def test_needs_three_observations(self):
        with pytest.raises(ModelValidationError):
            jackknife_cv_coefficients([1.0, 2.0], [1.0, 2.0])


class TestControlVariateEstimate:
    def test_unbiased_and_tighter_than_naive(self, rng):
        # y = 2 + 3 c + eps with E[c] known exactly: the CV estimate
        # must be unbiased for E[y] = 2 + 3 mu_c, and its interval must
        # collapse relative to the naive one (most of y's variance is
        # explained by the control).
        mu_c, n_trials, n = 1.5, 300, 16
        truth = 2.0 + 3.0 * mu_c
        estimates, naive_hw, cv_hw = [], [], []
        for _ in range(n_trials):
            c = mu_c + rng.normal(size=n)
            y = 2.0 + 3.0 * c + 0.1 * rng.normal(size=n)
            est = control_variate_estimate(y, c, mu_c)
            estimates.append(est.value)
            naive_hw.append(naive_estimate(y).halfwidth)
            cv_hw.append(est.halfwidth)
        bias = np.mean(estimates) - truth
        stderr = np.std(estimates, ddof=1) / np.sqrt(n_trials)
        assert abs(bias) < 4 * stderr  # unbiased within Monte Carlo error
        assert np.mean(cv_hw) < 0.2 * np.mean(naive_hw)  # strictly below naive

    def test_beta_recovered(self, rng):
        c = rng.normal(size=200)
        y = 1.0 + 3.0 * c + 0.05 * rng.normal(size=200)
        est = control_variate_estimate(y, c, 0.0)
        assert est.method == "cv"
        assert est.beta == pytest.approx(3.0, abs=0.05)

    def test_fewer_than_three_falls_back_to_naive(self):
        est = control_variate_estimate([1.0, 2.0], [0.5, 0.7], 0.6)
        assert est.method == "naive"
        assert est.value == pytest.approx(1.5)


class TestPairedDifference:
    def test_paired_beats_independent_on_correlated_scenarios(self, rng):
        base = rng.normal(size=30)
        a = base + 1.0 + 0.05 * rng.normal(size=30)
        b = base + 0.05 * rng.normal(size=30)
        paired = paired_difference(a, b)
        indep = independent_difference(a, b)
        assert paired.value == pytest.approx(indep.value)  # same point estimate
        assert paired.value == pytest.approx(1.0, abs=0.1)
        assert paired.halfwidth < indep.halfwidth
        assert variance_reduction_factor(indep, paired) > 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40),
        b=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40),
        level=st.sampled_from([0.8, 0.9, 0.95, 0.99]),
    )
    def test_welch_halfwidth_matches_t_ppf(self, a, b, level):
        # The Welch half-width as it read with scipy.stats.t.ppf: the
        # stdtrit form must reproduce it bit for bit at a float df.
        xa, xb = np.asarray(a), np.asarray(b)
        va = float(np.var(xa, ddof=1)) / xa.size
        vb = float(np.var(xb, ddof=1)) / xb.size
        se = float(np.sqrt(va + vb))
        if se == 0.0:
            expected = 0.0
        else:
            if va**2 / (xa.size - 1) + vb**2 / (xb.size - 1) == 0.0:
                va, vb = va / max(va, vb), vb / max(va, vb)
            df = (va + vb) ** 2 / (va**2 / (xa.size - 1) + vb**2 / (xb.size - 1))
            expected = float(scipy.stats.t.ppf(0.5 + level / 2.0, df=df) * se)
        assert independent_difference(a, b, level).halfwidth.hex() == expected.hex()

    def test_welch_df_survives_underflowing_variances(self):
        # va = 0 and vb**2 underflows to zero: df is nb - 1 = 1.
        est = independent_difference([0.0, 0.0], [0.0, 4.305699203637835e-158], 0.8)
        se = 4.305699203637835e-158 / np.sqrt(2.0) / np.sqrt(2.0)
        assert est.halfwidth == pytest.approx(float(scipy.stats.t.ppf(0.9, df=1)) * se)

    def test_variance_reduction_factor_arithmetic(self):
        a = VrEstimate(1.0, 0.6, 10, "naive")
        b = VrEstimate(1.0, 0.2, 10, "cv")
        assert variance_reduction_factor(a, b) == pytest.approx(9.0)


# ----------------------------------------------------------------------
# The CRN / antithetic RNG contract
# ----------------------------------------------------------------------
class TestCrnContract:
    def test_stream_depends_only_on_seed_and_name(self):
        s1 = RngStreams(7)
        s2 = RngStreams(7)
        # Different request orders, different co-existing streams.
        s1.stream("service/0/0")
        a = s1.stream("arrivals/0").random(8)
        s2.stream("routing/0")
        s2.stream("service/2/1")
        b = s2.stream("arrivals/0").random(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_names_are_independent_streams(self):
        s = RngStreams(7)
        a = s.stream("arrivals/0").random(8)
        b = s.stream("arrivals/1").random(8)
        assert not np.array_equal(a, b)

    def test_mirror_sees_one_minus_u(self):
        seq = np.random.SeedSequence(5)
        primary = CoupledGenerator(seq, mirror=False)
        mirror = CoupledGenerator(seq, mirror=True)
        u = primary.random(64)
        v = mirror.random(64)
        np.testing.assert_allclose(v, 1.0 - u, rtol=0, atol=1e-15)
        assert np.all(v < 1.0)  # clipped below 1.0, bisect-safe

    def test_exponentials_negatively_correlated(self):
        seq = np.random.SeedSequence(5)
        x = CoupledGenerator(seq, mirror=False).standard_exponential(512)
        y = CoupledGenerator(seq, mirror=True).standard_exponential(512)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
        assert np.corrcoef(x, y)[0, 1] < -0.5

    def test_fallback_families_independent_between_members(self):
        seq = np.random.SeedSequence(5)
        g = CoupledGenerator(seq, mirror=False).normal(size=256)
        h = CoupledGenerator(seq, mirror=True).normal(size=256)
        assert not np.array_equal(g, h)
        assert abs(np.corrcoef(g, h)[0, 1]) < 0.25

    def test_seed_pairs_share_the_plain_seed_tree(self):
        plain = RngStreams.replication_seeds(42, 3)
        pairs = RngStreams.replication_seed_pairs(42, 3)
        for child, (primary, mirror) in zip(plain, pairs):
            assert primary.seq.spawn_key == child.spawn_key
            assert mirror.seq.spawn_key == child.spawn_key
            assert primary.mirror is False and mirror.mirror is True

    def test_antithetic_seed_accepted_by_streams(self):
        child = RngStreams.replication_seeds(3, 1)[0]
        s = RngStreams(AntitheticSeed(child, True))
        gen = s.stream("arrivals/0")
        assert isinstance(gen, CoupledGenerator)


# ----------------------------------------------------------------------
# Simulation-backed unbiasedness on solvable stations
# ----------------------------------------------------------------------
def _mm1_cluster() -> ClusterModel:
    return ClusterModel(
        [Tier("mm1", (Exponential(1.0),), SPEC, servers=1, discipline="fcfs")]
    )


def _priority_mg1_cluster() -> ClusterModel:
    demands = (fit_two_moments(0.8, 2.0), fit_two_moments(1.2, 2.0))
    return ClusterModel(
        [Tier("mg1", demands, SPEC, servers=1, discipline="priority_np")]
    )


@pytest.mark.slow
class TestSimulationUnbiasedness:
    def _run(self, cluster, workload, estimator, seed=19):
        target = PrecisionTarget(
            rel_ci=1e-6,  # unreachable: always runs to the cap
            min_replications=4,
            max_replications=8,
            round_size=4,
            estimator=estimator,
        )
        rep = simulate_replications_adaptive(
            cluster, workload, horizon=1500.0, target=target, seed=seed
        )
        return rep.meta["adaptive"]

    def test_cv_estimate_covers_mm1_analytic_delay(self):
        cluster = _mm1_cluster()
        workload = workload_from_rates([0.6])
        analytic = float(end_to_end_delays(cluster, workload)[0])
        ad = self._run(cluster, workload, "cv")
        est = ad["estimates"]["mean_delay"]
        assert abs(est["value"] - analytic) < 4 * max(est["halfwidth"], 1e-12)

    def test_antithetic_estimate_covers_mm1_analytic_delay(self):
        cluster = _mm1_cluster()
        workload = workload_from_rates([0.6])
        analytic = float(end_to_end_delays(cluster, workload)[0])
        ad = self._run(cluster, workload, "antithetic")
        est = ad["estimates"]["mean_delay"]
        assert est["method"] == "antithetic"
        assert abs(est["value"] - analytic) < 4 * max(est["halfwidth"], 1e-12)

    def test_cv_estimate_covers_priority_mg1_analytic_delay(self):
        cluster = _priority_mg1_cluster()
        workload = workload_from_rates([0.25, 0.25], names=("hi", "lo"))
        analytic = end_to_end_delays(cluster, workload)
        mean_analytic = float(np.dot(workload.arrival_rates, analytic)) / float(
            sum(workload.arrival_rates)
        )
        ad = self._run(cluster, workload, "cv")
        est = ad["estimates"]["mean_delay"]
        assert abs(est["value"] - mean_analytic) < 4 * max(est["halfwidth"], 1e-12)

    def test_cv_interval_strictly_below_naive_on_power(self):
        # The utilization/power controls explain most across-replication
        # power variance, so the CV interval must beat the naive one
        # computed from the same runs.
        cluster = _mm1_cluster()
        workload = workload_from_rates([0.6])
        ad = self._run(cluster, workload, "cv")
        cv = ad["estimates"]["average_power"]
        naive = ad["naive_estimates"]["average_power"]
        assert cv["method"] == "cv"
        assert cv["halfwidth"] < naive["halfwidth"]
        assert ad["vr_factor"]["average_power"] > 1.0
