"""SpeedModel: the memoized analytic model the P1/P2 solvers probe.

Two contracts are pinned here:

* every value :class:`SpeedModel` returns is bit-identical to the
  scalar path at ``cluster.with_speeds(s)``, and every failure raises
  the same exception type, over random clusters and speed sequences
  that revisit points and move one coordinate at a time (so memo hits
  are exercised);
* the solvers routed through it return bit-identical results, with the
  same iteration and evaluation counts, as a reference solve whose
  callbacks rebuild the cluster at every probe.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterModel, PowerModel, ServerSpec, Tier
from repro.core import controller, opt_delay, opt_energy
from repro.core.delay import SpeedModel, end_to_end_delays, mean_end_to_end_delay
from repro.core.opt_common import stability_speed_bounds
from repro.distributions import Exponential, fit_two_moments
from repro.experiments import exp_a7_online_control as a7
from repro.experiments import exp_f4_energy_opt_tradeoff as f4
from repro.experiments.common import (
    CLASS_NAMES,
    canonical_cluster,
    canonical_sla,
    canonical_workload,
)
from repro.experiments.registry import REGISTRY
from repro.queueing.networks import DISCIPLINES
from repro.workload import workload_from_rates

SPEC = ServerSpec(PowerModel(idle=20.0, kappa=60.0, alpha=3.0), min_speed=0.3, max_speed=1.0)

# SLSQP's finite-difference step.
FD_STEP = float(np.sqrt(np.finfo(float).eps))


@st.composite
def model_case(draw):
    """A random cluster and workload, any discipline, sometimes a finite
    buffer or a zero visit pattern, loaded from light to saturated."""
    k = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=3))
    tiers = []
    for i in range(m):
        if draw(st.booleans()):
            means = [draw(st.floats(min_value=0.02, max_value=0.3))] * k
        else:
            means = [draw(st.floats(min_value=0.02, max_value=0.3)) for _ in range(k)]
        scv = draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))
        servers = draw(st.integers(min_value=1, max_value=4))
        tiers.append(
            Tier(
                f"t{i}",
                tuple(fit_two_moments(mu, scv) for mu in means),
                SPEC,
                servers=servers,
                discipline=draw(st.sampled_from(DISCIPLINES)),
                capacity=draw(st.sampled_from([None, None, None, None, servers + 2])),
            )
        )
    visits = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.7]), min_size=k * m, max_size=k * m))
    ).reshape(k, m)
    cluster = ClusterModel(tiers, visit_ratios=visits)
    rates = np.array([draw(st.floats(min_value=0.1, max_value=3.0)) for _ in range(k)])
    rho = cluster.utilizations(rates).max()
    if rho > 0.0:
        rates *= draw(st.floats(min_value=0.2, max_value=1.3)) / rho
    return cluster, workload_from_rates(rates.tolist())


def _speed_sequence(base: np.ndarray, other: np.ndarray) -> list[np.ndarray]:
    """Points a solve visits: repeats, SLSQP-sized forward-difference
    probes, one-ulp moves and points sharing some coordinates."""
    points = [base, base.copy()]
    for i in range(base.size):
        for moved in (base[i] + 1.4901161193847656e-08 * max(1.0, abs(base[i])),
                      np.nextafter(base[i], 2.0)):
            probe = base.copy()
            probe[i] = moved
            points.append(probe)
    mixed = other.copy()
    mixed[0] = base[0]
    points += [other, mixed, base]
    return points


def _outcome(fn):
    """Bytes of the value, or the exception type raised."""
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return np.asarray(value, dtype=float).tobytes()


speeds_st = st.lists(st.floats(min_value=0.28, max_value=1.0), min_size=3, max_size=3)


class TestSpeedModelBitIdentity:
    @given(case=model_case(), a=speeds_st, b=speeds_st)
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_path(self, case, a, b):
        cluster, workload = case
        m = cluster.num_tiers
        model = SpeedModel(cluster, workload)
        lam = workload.arrival_rates
        for s in _speed_sequence(np.array(a[:m]), np.array(b[:m])):
            assert _outcome(lambda: model.end_to_end_delays(s)) == _outcome(
                lambda: end_to_end_delays(cluster.with_speeds(s), workload)
            )
            assert _outcome(lambda: model.mean_delay(s)) == _outcome(
                lambda: mean_end_to_end_delay(cluster.with_speeds(s), workload)
            )
            assert _outcome(lambda: model.average_power(s)) == _outcome(
                lambda: cluster.with_speeds(s).average_power(lam)
            )

    def test_unstable_tier_raises_every_time(self):
        from repro.exceptions import UnstableSystemError

        cluster, workload = canonical_cluster(), canonical_workload(1.8)
        model = SpeedModel(cluster, workload)
        slow = np.array([1.0, 1.0, 0.4])
        for _ in range(2):
            with pytest.raises(UnstableSystemError, match="db"):
                model.mean_delay(slow)
        assert model.mean_delay(np.ones(3)) == mean_end_to_end_delay(cluster, workload)

    def test_finite_buffer_tier_rejected(self):
        from repro.exceptions import ModelValidationError

        cluster = canonical_cluster()
        tiers = list(cluster.tiers)
        tiers[1] = Tier(
            tiers[1].name, tiers[1].demands, tiers[1].spec,
            servers=tiers[1].servers, capacity=8,
        )
        model = SpeedModel(ClusterModel(tiers), canonical_workload())
        with pytest.raises(ModelValidationError, match="finite buffer"):
            model.end_to_end_delays(np.ones(3))
        # Power has no buffer term, as on the scalar path.
        assert model.average_power(np.ones(3)) == ClusterModel(tiers).average_power(
            canonical_workload().arrival_rates
        )


class TestProbeRows:
    """Each tier solve also solves the speed SLSQP's forward-difference
    probe asks for next."""

    cluster = canonical_cluster()
    workload = canonical_workload()

    def test_step_is_slsqps(self):
        from scipy.optimize._slsqp_py import _epsilon

        assert FD_STEP == _epsilon

    @pytest.mark.parametrize(
        "x",
        [np.array([0.7, 0.8, 0.9]), np.array([0.7, 1.0, 0.9])],
        ids=["interior", "one_tier_at_max_speed"],
    )
    def test_gradient_probes_are_memo_hits(self, x):
        from scipy.optimize._numdiff import approx_derivative

        box = stability_speed_bounds(self.cluster, self.workload)
        bounds = (np.array([b[0] for b in box]), np.array([b[1] for b in box]))
        model = SpeedModel(self.cluster, self.workload)
        model.mean_delay(x)
        solves = model.tier_solves
        jac = approx_derivative(
            model.mean_delay, x, method="2-point", abs_step=FD_STEP, bounds=bounds
        )
        assert model.tier_solves == solves
        assert model.probe_hits == model.probe_rows == x.size
        reference = approx_derivative(
            ScalarModel(self.cluster, self.workload).mean_delay,
            x, method="2-point", abs_step=FD_STEP, bounds=bounds,
        )
        assert jac.tobytes() == reference.tobytes()

    def test_unstable_probe_row_is_not_memoized(self):
        from repro.exceptions import UnstableSystemError

        # Stable at the maximum speed, unstable one backward step below.
        tier = Tier("t", (Exponential(10.0),), SPEC, servers=1, discipline="fcfs")
        cluster = ClusterModel([tier])
        workload = workload_from_rates([10.0 * (1.0 - 5e-9)])
        model = SpeedModel(cluster, workload)
        assert model.mean_delay(np.ones(1)) == mean_end_to_end_delay(cluster, workload)
        assert (model.tier_solves, model.probe_rows) == (1, 1)
        probe = np.array([1.0 - FD_STEP])
        with pytest.raises(UnstableSystemError):
            mean_end_to_end_delay(cluster.with_speeds(probe), workload)
        for solves in (2, 3):
            with pytest.raises(UnstableSystemError):
                model.mean_delay(probe)
            assert model.tier_solves == solves
        assert model.probe_hits == 0

    def test_probe_outside_the_dvfs_range_is_not_solved(self):
        from repro.exceptions import ModelValidationError

        # A fixed-speed tier: the backward probe is below its minimum.
        fixed = ServerSpec(SPEC.power, min_speed=1.0, max_speed=1.0)
        cluster = ClusterModel([Tier("t", (Exponential(10.0),), fixed, discipline="fcfs")])
        model = SpeedModel(cluster, workload_from_rates([5.0]))
        model.mean_delay(np.ones(1))
        assert model.probe_rows == 0
        with pytest.raises(ModelValidationError, match="DVFS range"):
            model.mean_delay(np.array([1.0 - FD_STEP]))


class ScalarModel:
    """The solver callbacks before SpeedModel: rebuild the whole cluster
    at every probe."""

    def __init__(self, cluster, workload):
        self.cluster, self.workload = cluster, workload

    def end_to_end_delays(self, s):
        return end_to_end_delays(self.cluster.with_speeds(s), self.workload)

    def mean_delay(self, s):
        return mean_end_to_end_delay(self.cluster.with_speeds(s), self.workload)

    def average_power(self, s):
        return self.cluster.with_speeds(s).average_power(self.workload.arrival_rates)


def _fingerprint(res):
    return (
        res.x.tobytes(),
        res.fun,
        res.nit,
        res.nfev,
        res.n_evaluations,
        res.success,
        res.meta["constraint_residuals"],
    )


def _with_both_models(monkeypatch, solve):
    """``solve()`` through SpeedModel, then through the scalar closures
    handed to the same ``minimize_box_constrained`` call."""
    memoized = solve()
    with monkeypatch.context() as mp:
        mp.setattr(opt_delay, "SpeedModel", ScalarModel)
        mp.setattr(opt_energy, "SpeedModel", ScalarModel)
        reference = solve()
    return memoized, reference


class TestSolverParity:
    cluster = canonical_cluster()
    workload = canonical_workload()

    @pytest.mark.parametrize(
        "solve, gap_rtol",
        [
            (
                lambda c, w: opt_delay.minimize_delay(
                    c, w, 0.9 * c.average_power(w.arrival_rates), n_starts=3
                ),
                None,
            ),
            (lambda c, w: opt_energy.minimize_energy(c, w, max_mean_delay=0.3), None),
            # The SLSQP solve P2a falls back to, warm-started.
            (
                lambda c, w: opt_energy.minimize_energy(
                    c, w, max_mean_delay=0.3, n_starts=3, x0_hint=np.array([0.8, 0.7, 0.9])
                ),
                -1.0,
            ),
            (lambda c, w: opt_energy.minimize_energy(c, w, sla=canonical_sla(), n_starts=3), None),
            (lambda c, w: opt_energy.minimize_energy_robust(c, w, 0.1, max_mean_delay=0.3), None),
        ],
        ids=["p1", "p2a", "p2a_warm", "p2b", "p2_robust"],
    )
    def test_solve_is_bit_identical(self, monkeypatch, solve, gap_rtol):
        if gap_rtol is not None:
            monkeypatch.setattr(opt_energy, "P2A_GAP_RTOL", gap_rtol)
        memoized, reference = _with_both_models(
            monkeypatch, lambda: solve(self.cluster, self.workload)
        )
        if gap_rtol is not None:
            assert "warm_start" in memoized.meta and "duality_gap" not in memoized.meta
        assert _fingerprint(memoized) == _fingerprint(reference)
        assert memoized.meta["power"] == reference.meta["power"]
        assert memoized.meta.get("duality_gap") == reference.meta.get("duality_gap")
        assert np.asarray(memoized.meta.get("delays", ())).tobytes() == np.asarray(
            reference.meta.get("delays", ())
        ).tobytes()

    @pytest.mark.parametrize("policy", ["oracle", "forecast"])
    def test_a7_quick_plans_are_bit_identical(self, monkeypatch, policy):
        quick = REGISTRY["A7"].quick_kwargs
        history_rates, scenarios = a7.planning_inputs(quick["horizon"], quick["plan_window"])
        for trace in scenarios.values():
            starts, rates = a7.planner_rates(trace, history_rates, quick["plan_window"], policy)
            memoized, reference = _with_both_models(
                monkeypatch,
                lambda: controller.plan_speed_schedule(
                    canonical_cluster(), CLASS_NAMES, starts, rates, trace.horizon, 0.35 * 0.8
                ),
            )
            assert [
                (p.speeds.tobytes(), p.power, p.mean_delay, p.meets_bound) for p in memoized
            ] == [
                (p.speeds.tobytes(), p.power, p.mean_delay, p.meets_bound) for p in reference
            ]

    def test_f4_report_and_solver_effort_unchanged(self, monkeypatch):
        memoized, reference = _with_both_models(
            monkeypatch, lambda: f4.render(f4.run(n_points=8))
        )
        assert "model evaluations over 8 points" in memoized
        assert memoized == reference


def test_a7_quick_solves_each_schedule_once(monkeypatch):
    """The forecast schedule is the same on both traces and the V-sweep
    repeats the headline DPP run; each is run once, and the rendered
    output is the pinned ``repro run A7 --quick`` stdout."""
    calls = {"plan_speed_schedule": 0, "run_controlled": 0}
    for name in calls:
        real = getattr(a7, name)

        def spy(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(a7, name, spy)
    text = a7.render(a7.run(**REGISTRY["A7"].quick_kwargs))
    # Three schedules (oracle twice, forecast once); 2 x 4 policy runs
    # and two of the three V-sweep runs.
    assert calls == {"plan_speed_schedule": 3, "run_controlled": 10}
    pins = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "expected.json"
    assert text + "\n" == json.loads(pins.read_text())["online_control"]["*"]


def test_plan_bench_kernel_plans_a7_quick_diurnal_schedule():
    from repro.analysis.perf_bench import KERNELS

    plans = KERNELS["plan_schedule_p2a"]()()
    assert len(plans) == 8 and all(p.meets_bound for p in plans)
