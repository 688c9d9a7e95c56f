"""P2a by tier decomposition, checked against SLSQP as the oracle.

Over random clusters the decomposed solve must meet its bound on the
scalar path's bits, with no tolerance, and draw no more power than a
successful SLSQP solve of the same problem (to 1e-7 relative, with
SLSQP's overshoot of the bound priced at the multiplier) while its
duality gap stays under the fallback tolerance. The edges: a bound
looser than the delay at the lower box corner returns that corner, and
a bound tighter than the delay at maximum speeds raises as before. No
P2a solve of the experiments that run them falls back to SLSQP.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterModel, PowerModel, ServerSpec, Tier
from repro.core import opt_energy
from repro.core.batch_eval import BatchEvaluator
from repro.core.delay import SpeedModel
from repro.core.opt_common import stability_speed_bounds
from repro.core.opt_energy import P2A_GAP_RTOL, minimize_energy
from repro.distributions import fit_two_moments
from repro.exceptions import InfeasibleProblemError
from repro.experiments.common import canonical_cluster, canonical_workload
from repro.experiments.registry import REGISTRY
from repro.optimize.constrained import Constraint, minimize_box_constrained
from repro.workload import workload_from_rates


@st.composite
def p2a_case(draw):
    """A random cluster (1-4 tiers, 1-3 classes, alpha >= 2), a load
    and a bound between the delays at the box's two corners."""
    k = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=4))
    tiers = []
    for i in range(m):
        spec = ServerSpec(
            PowerModel(
                idle=draw(st.floats(min_value=0.0, max_value=80.0)),
                kappa=draw(st.floats(min_value=5.0, max_value=200.0)),
                alpha=draw(st.floats(min_value=2.0, max_value=3.5)),
            ),
            min_speed=draw(st.floats(min_value=0.2, max_value=0.6)),
            max_speed=1.0,
        )
        scv = draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))
        means = [draw(st.floats(min_value=0.02, max_value=0.3)) for _ in range(k)]
        tiers.append(
            Tier(
                f"t{i}",
                tuple(fit_two_moments(mu, scv) for mu in means),
                spec,
                servers=draw(st.integers(min_value=1, max_value=4)),
                discipline=draw(st.sampled_from(["priority_np", "priority_pr", "fcfs", "ps"])),
            )
        )
    visits = np.array(
        draw(st.lists(st.sampled_from([0.5, 1.0, 1.7]), min_size=k * m, max_size=k * m))
    ).reshape(k, m)
    cluster = ClusterModel(tiers, visit_ratios=visits)
    rates = np.array([draw(st.floats(min_value=0.1, max_value=3.0)) for _ in range(k)])
    # Peak utilization at maximum speed between 0.2 and 0.9.
    rates *= draw(st.floats(min_value=0.2, max_value=0.9)) / cluster.utilizations(rates).max()
    workload = workload_from_rates(rates.tolist())
    box = stability_speed_bounds(cluster, workload)
    model = SpeedModel(cluster, workload)
    fastest = model.mean_delay(np.array([b[1] for b in box]))
    slowest = model.mean_delay(np.array([b[0] for b in box]))
    share = draw(st.floats(min_value=0.01, max_value=0.99))
    return cluster, workload, fastest + share * (slowest - fastest)


def _slsqp_p2a(cluster, workload, bound):
    """P2a as the SLSQP path solves it: five multistart seeds, one
    aggregate delay constraint."""
    model = SpeedModel(cluster, workload)
    return minimize_box_constrained(
        model.average_power,
        stability_speed_bounds(cluster, workload),
        constraints=[Constraint(lambda s: bound - model.mean_delay(s), name="mean delay")],
        n_starts=5,
        objective_batch=BatchEvaluator(cluster, workload).average_power,
    )


@given(case=p2a_case())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_decomposition_is_feasible_and_no_worse_than_slsqp(case):
    cluster, workload, bound = case
    model = SpeedModel(cluster, workload)
    res = minimize_energy(cluster, workload, max_mean_delay=bound)
    assert res.meta["multiplier"] >= 0.0
    assert model.mean_delay(res.x) <= bound
    assert 0.0 <= res.meta["duality_gap"] <= P2A_GAP_RTOL * res.meta["power"]
    ref = _slsqp_p2a(cluster, workload, bound)
    if ref.success:
        # SLSQP succeeds up to 1e-6 s past the bound. The optimal power
        # is convex and falling in the bound, with slope -μ, so meeting
        # the bound exactly costs at most μ times that overshoot more.
        overshoot = max(0.0, model.mean_delay(ref.x) - bound)
        reference = model.average_power(ref.x) + res.meta["multiplier"] * overshoot
        assert res.meta["power"] <= reference * (1.0 + 1e-7)


def test_loose_bound_returns_the_lower_corner():
    cluster, workload = canonical_cluster(), canonical_workload()
    box = stability_speed_bounds(cluster, workload)
    lower = np.array([b[0] for b in box])
    slowest = SpeedModel(cluster, workload).mean_delay(lower)
    res = minimize_energy(cluster, workload, max_mean_delay=1.01 * slowest)
    assert res.x.tobytes() == lower.tobytes()
    assert res.meta["duality_gap"] == 0.0


def test_bound_below_the_fastest_delay_raises_as_before():
    cluster, workload = canonical_cluster(), canonical_workload()
    box = stability_speed_bounds(cluster, workload)
    fastest = SpeedModel(cluster, workload).mean_delay(np.array([b[1] for b in box]))
    with pytest.raises(InfeasibleProblemError, match="below the best achievable mean delay"):
        minimize_energy(cluster, workload, max_mean_delay=0.99 * fastest)


def test_gap_above_tolerance_falls_back_to_slsqp(monkeypatch, telemetry):
    """A decomposition whose gap is over the tolerance is replaced by
    the SLSQP solve and counted."""
    cluster, workload = canonical_cluster(), canonical_workload()
    monkeypatch.setattr(opt_energy, "P2A_GAP_RTOL", -1.0)
    res = minimize_energy(cluster, workload, max_mean_delay=0.3)
    assert "duality_gap" not in res.meta and res.nfev > 0
    assert res.meta["constraint_residuals"]["mean delay"] >= -1e-6
    assert telemetry.metrics.counter("opt.p2a_fallbacks").value == 1
    assert telemetry.metrics.counter("opt.solves").value == 1


@pytest.mark.parametrize("experiment", ["A7", "F4", "F8", "A4"])
def test_p2a_experiments_never_fall_back(telemetry, experiment):
    REGISTRY[experiment].run(quick=True)
    assert telemetry.metrics.counter("opt.solves").value > 0
    assert telemetry.metrics.counter("opt.p2a_fallbacks").value == 0
