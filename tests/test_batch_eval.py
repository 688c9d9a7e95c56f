"""Batched analytic evaluation vs the scalar path, formula by formula.

``BatchEvaluator`` runs the tier kernels that reproduce every
per-station formula of :func:`repro.queueing.networks.station_delays`;
the contract is bit-for-bit agreement with the scalar path on *every*
discipline and dispatch branch. These tests sweep random speed/server
grids through both paths, pin the vector-friendly instability signal
(``inf`` rows where the scalar path raises), and check the batched
wrappers, the batched percentiles and the vectorized exhaustive
baseline against their scalar counterparts.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_speed_model import model_case

from repro.baselines.exhaustive import _scalar_search, exhaustive_cost_minimization
from repro.cluster import ClusterModel, PowerModel, ServerSpec, Tier
from repro.core.batch_eval import BatchEvaluator, erlang_b_vec, erlang_c_vec
from repro.core.delay import SpeedModel, end_to_end_delays, mean_end_to_end_delay
from repro.core.energy import average_power
from repro.core.percentile import all_class_percentiles, all_class_percentiles_batch
from repro.core.sla import SLA, ClassSLA
from repro.distributions import Exponential, fit_two_moments
from repro.exceptions import (
    InfeasibleProblemError,
    ModelValidationError,
    UnstableSystemError,
)
from repro.experiments.common import (
    canonical_cluster,
    canonical_sla,
    canonical_workload,
    small_cluster,
    small_sla,
    small_workload,
)
from repro.optimize.constrained import minimize_box_constrained
from repro.queueing import erlang_b, erlang_c
from repro.queueing.networks import _common_exponential_rate, checked_station_delays
from repro.workload import workload_from_rates

DISCIPLINES = ("fcfs", "ps", "loss", "priority_np", "priority_pr")


def _scalar_delays(cluster, workload, speeds, counts):
    """Per-class delays through the one-model-per-candidate path."""
    configured = cluster.with_servers(counts).with_speeds(speeds)
    return end_to_end_delays(configured, workload)


def _speed_server_grid(cluster, n, seed, lo=0.5, hi=1.0, cap=6):
    rng = np.random.default_rng(seed)
    speeds = rng.uniform(lo, hi, size=(n, cluster.num_tiers))
    servers = rng.integers(1, cap + 1, size=(n, cluster.num_tiers))
    return speeds, servers


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_batch_matches_scalar_canonical(discipline):
    """Random speed × server grid on the canonical instance: the batch
    agrees with the scalar model rebuilt per candidate."""
    cluster = canonical_cluster(discipline=discipline)
    workload = canonical_workload()
    speeds, servers = _speed_server_grid(cluster, n=25, seed=0)
    batch = BatchEvaluator(cluster, workload)
    delays = batch.end_to_end_delays(speeds, servers)
    means = batch.mean_delay(speeds, servers)
    power = batch.average_power(speeds, servers)
    for j in range(speeds.shape[0]):
        configured = cluster.with_servers(servers[j]).with_speeds(speeds[j])
        try:
            expected = end_to_end_delays(configured, workload)
        except UnstableSystemError:
            # The scalar path refuses unstable candidates; the batch
            # signals the same candidates with inf rows.
            assert np.all(np.isinf(delays[j])) and np.isinf(means[j])
            continue
        assert delays[j].tobytes() == expected.tobytes()
        assert means[j] == mean_end_to_end_delay(configured, workload)
        # The power closed form is not aligned with the scalar sum order.
        np.testing.assert_allclose(
            power[j], average_power(configured, workload), rtol=1e-12
        )


def test_batch_matches_scalar_small_instance():
    cluster, workload = small_cluster(), small_workload()
    speeds, servers = _speed_server_grid(cluster, n=30, seed=1, cap=4)
    delays = BatchEvaluator(cluster, workload).end_to_end_delays(speeds, servers)
    for j in range(speeds.shape[0]):
        try:
            expected = _scalar_delays(cluster, workload, speeds[j], servers[j])
        except UnstableSystemError:
            assert np.all(np.isinf(delays[j]))
            continue
        assert delays[j].tobytes() == expected.tobytes()


def _mixed_cluster():
    """One tier per discipline, including a common-exponential-demand
    priority tier (the Kella–Yechiali dispatch branch)."""
    spec = ServerSpec(
        PowerModel(idle=20.0, kappa=50.0, alpha=3.0),
        min_speed=0.3,
        max_speed=1.2,
        cost=1.0,
        name="mixed-node",
    )
    tiers = [
        Tier("t_fcfs", (fit_two_moments(0.03, 2.0), fit_two_moments(0.04, 1.5)), spec, servers=2, discipline="fcfs"),
        Tier("t_ps", (fit_two_moments(0.05, 3.0), fit_two_moments(0.04, 1.0)), spec, servers=1, discipline="ps"),
        Tier("t_loss", (fit_two_moments(0.02, 1.0), fit_two_moments(0.03, 2.5)), spec, servers=2, discipline="loss"),
        # All-Exponential equal-rate demands: the KY branch.
        Tier("t_ky", (Exponential(12.0), Exponential(12.0)), spec, servers=3, discipline="priority_np"),
        Tier("t_pr", (fit_two_moments(0.04, 2.0), fit_two_moments(0.05, 1.2)), spec, servers=2, discipline="priority_pr"),
    ]
    return ClusterModel(tiers)


def test_batch_matches_scalar_mixed_disciplines():
    """All five disciplines (and the KY common-rate branch) in one
    cluster, with per-candidate server counts."""
    cluster = _mixed_cluster()
    workload = workload_from_rates([3.0, 6.0], names=("gold", "bronze"))
    speeds, servers = _speed_server_grid(cluster, n=40, seed=2, lo=0.4, hi=1.2, cap=5)
    delays = BatchEvaluator(cluster, workload).end_to_end_delays(speeds, servers)
    for j in range(speeds.shape[0]):
        try:
            expected = _scalar_delays(cluster, workload, speeds[j], servers[j])
        except UnstableSystemError:
            assert np.all(np.isinf(delays[j]))
            continue
        assert delays[j].tobytes() == expected.tobytes()


@given(case=model_case(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_per_tier_sojourns_are_bitwise_the_scalar_station_delays(case, data):
    """Every row's per-tier sojourns are the bytes of the scalar
    ``checked_station_delays`` at that row's speeds and server counts,
    or an ``inf`` row exactly where the scalar path raises — over every
    discipline and demand SCV band, per-row server counts 1–4 and
    one-ulp speed moves, at loads from light to saturated."""
    cluster, workload = case
    # Finite buffers are refused by station_spec, not by the formulas.
    tiers = [dataclasses.replace(t, capacity=None) for t in cluster.tiers]
    cluster = ClusterModel(tiers, visit_ratios=cluster.visit_ratios)
    rates = cluster.visit_ratios * workload.arrival_rates[:, None]
    assume(np.all(rates.sum(axis=0) > 0.0))
    m = cluster.num_tiers
    base = np.array(
        data.draw(
            st.lists(
                st.lists(st.floats(min_value=0.3, max_value=1.0), min_size=m, max_size=m),
                min_size=1,
                max_size=4,
            )
        )
    )
    speeds = np.concatenate([base, np.nextafter(base, 2.0), np.nextafter(base, 0.0)])
    servers = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(min_value=1, max_value=4), min_size=m, max_size=m),
                min_size=speeds.shape[0],
                max_size=speeds.shape[0],
            )
        )
    )
    got = BatchEvaluator(cluster, workload).per_tier_sojourns(speeds, servers)
    for j in range(speeds.shape[0]):
        configured = cluster.with_servers(servers[j]).with_speeds(speeds[j])
        try:
            expected = np.stack(
                [
                    checked_station_delays(t.station_spec(), rates[:, i], i).mean_sojourns
                    for i, t in enumerate(configured.tiers)
                ]
            )
        except UnstableSystemError:
            assert np.all(np.isinf(got[j]))
            continue
        assert got[j].tobytes() == expected.tobytes()


def test_kella_yechiali_gate_is_decided_at_the_scaled_rates():
    """Two exponential demands whose rates tie only after scaling by the
    speed: the scalar dispatch takes Kella–Yechiali at that speed, and so
    must the batch kernel and SpeedModel (they once decided the gate at
    the speed-1 demand rates and took Bondi–Buzen)."""
    spec = ServerSpec(PowerModel(idle=20.0, kappa=60.0, alpha=3.0), min_speed=0.3, max_speed=1.0)
    demands = (Exponential(10.540707088297202), Exponential(10.540707088307743))
    cluster = ClusterModel([Tier("t", demands, spec, servers=3)])
    workload = workload_from_rates([1.0, 1.5])
    speed = 0.5045229447959845
    at_speed = cluster.with_speeds([speed])
    assert _common_exponential_rate(at_speed.tiers[0].service_times()) is not None
    assert _common_exponential_rate(demands) is None
    expected = end_to_end_delays(at_speed, workload)
    got = BatchEvaluator(cluster, workload).end_to_end_delays([speed])[0]
    assert got.tobytes() == expected.tobytes()
    assert SpeedModel(cluster, workload).end_to_end_delays([speed]).tobytes() == expected.tobytes()


def test_unstable_rows_are_inf_power_stays_finite():
    cluster, workload = canonical_cluster(), canonical_workload(load_factor=2.5)
    batch = BatchEvaluator(cluster, workload)
    speeds = np.array([[1.0, 1.0, 1.0], [0.5, 0.5, 0.5]])
    delays = batch.end_to_end_delays(speeds)
    assert np.all(np.isinf(delays))  # saturated at 2.5x load
    assert np.all(np.isinf(batch.mean_delay(speeds)))
    assert np.all(np.isfinite(batch.average_power(speeds)))
    # The scalar path refuses the same configuration outright.
    with pytest.raises(UnstableSystemError):
        end_to_end_delays(cluster, workload)


def test_a_class_skipping_an_unstable_tier_reads_inf_not_nan():
    # Class 0 never visits tier 1, which saturates at minimum speeds:
    # its delay is inf like the others', not 0 * inf = NaN.
    base = canonical_cluster()
    visits = base.visit_ratios.copy()
    visits[0, 1] = 0.0
    cluster = ClusterModel(list(base.tiers), visit_ratios=visits)
    batch = BatchEvaluator(cluster, canonical_workload())
    lowest = [[t.spec.min_speed for t in cluster.tiers], [1.0, 1.0, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delays = batch.end_to_end_delays(lowest)
        mean = batch.mean_delay(lowest)
    assert np.isposinf(delays[0]).all() and np.isposinf(mean[0])
    assert np.isfinite(delays[1]).all() and np.isfinite(mean[1])
    alone = BatchEvaluator(cluster, canonical_workload())
    assert delays[1].tobytes() == alone.end_to_end_delays([1.0, 1.0, 1.0])[0].tobytes()


def test_erlang_vec_matches_scalar():
    rng = np.random.default_rng(3)
    c = rng.integers(1, 40, size=200)
    a = rng.uniform(0.0, 1.0, size=200) * c  # keep a < c (stable)
    np.testing.assert_array_equal(
        erlang_b_vec(c, a), [erlang_b(int(ci), float(ai)) for ci, ai in zip(c, a)]
    )
    np.testing.assert_array_equal(
        erlang_c_vec(c, a), [erlang_c(int(ci), float(ai)) for ci, ai in zip(c, a)]
    )
    # One server count for every candidate.
    a7 = rng.uniform(0.0, 7.0, size=50)
    np.testing.assert_array_equal(erlang_b_vec(7, a7), [erlang_b(7, float(ai)) for ai in a7])
    np.testing.assert_array_equal(erlang_c_vec(7, a7), [erlang_c(7, float(ai)) for ai in a7])
    # Degenerate no-load case.
    np.testing.assert_array_equal(erlang_b_vec(np.array([3]), np.array([0.0])), [0.0])
    np.testing.assert_array_equal(erlang_b_vec(3, np.array([0.0])), [0.0])
    np.testing.assert_array_equal(erlang_c_vec(np.array([3]), np.array([0.0])), [0.0])


def test_one_dimensional_speeds_are_one_candidate():
    batch = BatchEvaluator(canonical_cluster(), canonical_workload())
    speeds = np.random.default_rng(4).uniform(0.6, 1.0, size=3)
    delays = batch.end_to_end_delays(speeds)
    assert delays.shape == (1, 3)
    np.testing.assert_array_equal(delays, batch.end_to_end_delays(speeds[None, :]))


def test_input_validation():
    cluster, workload = canonical_cluster(), canonical_workload()
    batch = BatchEvaluator(cluster, workload)
    with pytest.raises(ModelValidationError):
        batch.end_to_end_delays(np.ones((4, 2)))  # wrong tier count
    with pytest.raises(ModelValidationError):
        batch.end_to_end_delays(np.array([[1.0, -0.5, 1.0]]))
    with pytest.raises(ModelValidationError):
        batch.end_to_end_delays(np.ones((2, 3)), servers=np.zeros((2, 3), dtype=int))
    with pytest.raises(ModelValidationError):
        BatchEvaluator(cluster, workload_from_rates([1.0, 2.0]))


def test_percentile_batch_matches_scalar():
    cluster, workload = canonical_cluster(), canonical_workload()
    speeds = np.random.default_rng(5).uniform(0.7, 1.0, size=(8, 3))
    got = all_class_percentiles_batch(cluster, workload, speeds, 0.95)
    for j in range(speeds.shape[0]):
        expected = all_class_percentiles(cluster.with_speeds(speeds[j]), workload, 0.95)
        np.testing.assert_allclose(got[j], expected, rtol=1e-8)


def test_percentile_batch_repeated_visits_fallback():
    """Repeated tier visits (v > 1) have exactly repeated phase rates —
    the partial-fraction form degenerates, so the batch must fall back
    to the scalar matrix-exponential path and still agree."""
    base = canonical_cluster()
    visit_ratios = np.ones((3, 3))
    visit_ratios[0, 1] = 2.0  # gold visits the app tier twice
    cluster = ClusterModel(base.tiers, visit_ratios)
    workload = canonical_workload()
    speeds = np.random.default_rng(6).uniform(0.8, 1.0, size=(4, 3))
    got = all_class_percentiles_batch(cluster, workload, speeds, 0.9)
    for j in range(speeds.shape[0]):
        expected = all_class_percentiles(cluster.with_speeds(speeds[j]), workload, 0.9)
        np.testing.assert_allclose(got[j], expected, rtol=1e-8)


def test_percentile_batch_unstable_rows():
    cluster, workload = canonical_cluster(), canonical_workload(load_factor=2.5)
    out = all_class_percentiles_batch(cluster, workload, np.ones((2, 3)), 0.95)
    assert np.all(np.isinf(out))


def test_exhaustive_known_answers():
    """The vectorized grid search returns the pre-rewrite answers —
    including the path-dependent evaluation count of the prune loop."""
    counts, cost, evals = exhaustive_cost_minimization(
        canonical_cluster(), canonical_workload(), canonical_sla(), 10
    )
    assert counts.tolist() == [1, 3, 2] and cost == 16.5 and evals == 47
    counts, cost, evals = exhaustive_cost_minimization(
        small_cluster(), small_workload(), small_sla(), 12
    )
    assert counts.tolist() == [1, 2] and cost == 8.0 and evals == 3


def test_exhaustive_vectorized_equals_scalar_search():
    cluster, workload, sla = small_cluster(), small_workload(), small_sla()
    at_max = cluster.with_speeds([t.spec.max_speed for t in cluster.tiers])
    costs = np.array([t.spec.cost for t in at_max.tiers])
    expected = _scalar_search(at_max, workload, sla, 8, costs)
    got = exhaustive_cost_minimization(cluster, workload, sla, 8)
    assert got[0].tolist() == expected[0].tolist()
    assert got[1] == expected[1] and got[2] == expected[2]


def test_exhaustive_percentile_sla_uses_scalar_path():
    """A percentile-bearing SLA exercises the scalar fallback and still
    returns a feasible allocation."""
    workload = small_workload()
    sla = SLA(
        [
            ClassSLA("gold", 0.40, fee=1.0, percentile=0.95, max_percentile_delay=1.2),
            ClassSLA("bronze", 1.00, fee=0.2),
        ]
    )
    counts, cost, evals = exhaustive_cost_minimization(small_cluster(), workload, sla, 6)
    assert cost > 0 and evals >= 1 and np.all(counts >= 1)


def test_exhaustive_infeasible_raises():
    with pytest.raises(InfeasibleProblemError):
        exhaustive_cost_minimization(
            small_cluster(), small_workload(), small_sla(tightness=0.05), 4
        )


def test_objective_batch_seeding_matches_plain_solve():
    """Seeding the multistart from a batched objective reorders the
    starts but must not change the optimum."""

    def objective(x):
        return float((x[0] - 0.3) ** 2 + (x[1] - 0.7) ** 2)

    def objective_batch(points):
        return ((points - np.array([0.3, 0.7])) ** 2).sum(axis=1)

    bounds = [(0.0, 1.0), (0.0, 1.0)]
    plain = minimize_box_constrained(objective, bounds, n_starts=4)
    seeded = minimize_box_constrained(
        objective, bounds, n_starts=4, objective_batch=objective_batch
    )
    assert plain.success and seeded.success
    np.testing.assert_allclose(seeded.x, plain.x, atol=1e-8)
    np.testing.assert_allclose(seeded.fun, plain.fun, atol=1e-12)


def test_objective_batch_shape_mismatch_raises():
    def objective(x):
        return float(np.sum(x**2))

    with pytest.raises(ModelValidationError):
        minimize_box_constrained(
            objective,
            [(0.0, 1.0)],
            n_starts=3,
            objective_batch=lambda pts: np.zeros(len(pts) + 1),
        )


def _rate_rows(workload, factors):
    return workload.arrival_rates[None, :] * np.asarray(factors)[:, None]


@given(case=model_case(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_per_row_rates_are_one_evaluator_per_rate_row(case, data):
    """An evaluator whose rows carry their own arrival rates gives each
    row the bytes one evaluator on that row's workload gives: per-tier
    sojourns (``inf`` where unstable) and mean delay, over every
    discipline, SCV band and server count, and on rows picked out by
    :meth:`BatchEvaluator.rows`."""
    cluster, workload = case
    tiers = [dataclasses.replace(t, capacity=None) for t in cluster.tiers]
    cluster = ClusterModel(tiers, visit_ratios=cluster.visit_ratios)
    assume(np.all((cluster.visit_ratios * workload.arrival_rates[:, None]).sum(axis=0) > 0.0))
    m = cluster.num_tiers
    n = data.draw(st.integers(min_value=1, max_value=6))
    factors = data.draw(st.lists(st.floats(0.3, 1.4), min_size=n, max_size=n))
    speeds = np.array(
        data.draw(st.lists(st.lists(st.floats(0.3, 1.0), min_size=m, max_size=m),
                           min_size=n, max_size=n))
    )
    servers = np.array(
        data.draw(st.lists(st.lists(st.integers(1, 4), min_size=m, max_size=m),
                           min_size=n, max_size=n))
    )
    rates = _rate_rows(workload, factors)
    batch = BatchEvaluator(cluster, rates)
    got = batch.per_tier_sojourns(speeds, servers)
    power = batch.average_power(speeds, servers)
    mean = batch.mean_delay(speeds, servers)
    for j in range(n):
        alone = BatchEvaluator(cluster, workload_from_rates(rates[j].tolist()))
        assert got[j].tobytes() == alone.per_tier_sojourns(speeds[j], servers[j])[0].tobytes()
        assert power[j].tobytes() == alone.average_power(speeds[j], servers[j])[0].tobytes()
        assert mean[j].tobytes() == alone.mean_delay(speeds[j], servers[j]).tobytes()
    order = np.arange(n)[::-1]
    picked = batch.rows(order).per_tier_sojourns(speeds[order], servers[order])
    assert picked.tobytes() == got[order].tobytes()


@pytest.mark.parametrize("discipline", DISCIPLINES)
@pytest.mark.parametrize("k_classes", [1, 3, 4])
def test_tier_kernel_rows_match_one_kernel_per_rate_row(discipline, k_classes):
    """The tier kernel itself, one rate row per kernel row, against one
    kernel per rate row on one and on several servers: sojourns and the
    first failed stability guard, bit for bit. Four classes take the
    one-``ddot``-per-row path, whose rounding depends on the strides."""
    from repro.core.batch_eval import TierKernel

    spec = ServerSpec(PowerModel(idle=20.0, kappa=60.0, alpha=3.0), min_speed=0.3, max_speed=1.0)
    demands = tuple(
        fit_two_moments(0.05 + 0.03 * k, 2.5 if k % 2 else 0.5) for k in range(k_classes)
    )
    visits = np.linspace(0.5, 1.7, 2 * k_classes).reshape(k_classes, 2)
    rng = np.random.default_rng(k_classes)
    rates = rng.uniform(0.5, 4.0, size=(9, k_classes))
    station = (visits[None, :, :] * rates[:, :, None])[..., 1]  # strided rows, as in a cluster
    speeds = rng.uniform(0.3, 1.0, size=9)
    for servers in (1, 3):
        tier = Tier("t", demands, spec, servers=servers, discipline=discipline)
        got, failed = TierKernel(tier, station).sojourns(speeds, servers)
        for j in range(9):
            one, one_failed = TierKernel(tier, station[j]).sojourns(speeds[j : j + 1], servers)
            assert got[j].tobytes() == one[0].tobytes()
            expected = np.nan if one_failed is None else one_failed[0]
            assert np.array_equal(
                np.nan if failed is None else failed[j], expected, equal_nan=True
            )


def test_kella_yechiali_and_bondi_buzen_rows_split_with_their_rates():
    """Rows whose scaled exponential rates tie take Kella–Yechiali and the
    rest Bondi–Buzen, each on its own rate rows."""
    from repro.core.batch_eval import TierKernel

    spec = ServerSpec(PowerModel(idle=20.0, kappa=60.0, alpha=3.0), min_speed=0.3, max_speed=1.0)
    demands = (Exponential(10.540707088297202), Exponential(10.540707088307743))
    tier = Tier("t", demands, spec, servers=3)
    tie = 0.5045229447959845
    speeds = np.array([tie, 0.7, tie, 0.9, tie])
    rates = np.array([[1.0, 1.5], [2.0, 0.5], [0.5, 0.5], [1.2, 1.1], [3.0, 2.0]])
    got, _ = TierKernel(tier, rates).sojourns(speeds, 3)
    for j in range(speeds.size):
        one, _ = TierKernel(tier, rates[j]).sojourns(speeds[j : j + 1], 3)
        assert got[j].tobytes() == one[0].tobytes()
