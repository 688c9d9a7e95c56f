"""Bulk Lewis–Shedler thinning and array-evaluated profiles.

``NonHomogeneousPoisson.arrival_times`` draws its candidates in blocks
and calls ``rate_fn`` once per block; the base class's loop of scalar
``next_arrival`` calls is the oracle it is held to, bit for bit, on
both draw paths (the kernel export and the Python fallback).
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.model import ClusterModel
from repro.cluster.power import PowerModel
from repro.control import DriftPlusPenaltyController
from repro.exceptions import ModelValidationError
from repro.experiments.common import canonical_cluster
from repro.simulation import compiled
from repro.workload.arrivals import ArrivalProcess, NonHomogeneousPoisson
from repro.workload.timevarying import (
    diurnal_profile,
    flash_crowd_profile,
    profile_processes,
    profile_rates,
)

requires_kernel = pytest.mark.skipif(
    not compiled.kernel_available(), reason="no C toolchain for the compiled kernel"
)


def _loop(proc, seed, horizon):
    """The oracle: one scalar ``next_arrival`` per arrival on a fresh process."""
    return ArrivalProcess.arrival_times(proc.fresh(), np.random.default_rng(seed), horizon)


def _bulk(proc, seed, horizon):
    return proc.fresh().arrival_times(np.random.default_rng(seed), horizon)


def _bulk_both_paths(proc, seed, horizon):
    """Bulk stamps drawn through the kernel export (when it loads) and
    through the Python fallback."""
    drawn = [_bulk(proc, seed, horizon)] if compiled.loaded_kernel() is not None else []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(compiled, "loaded_kernel", lambda: None)
        drawn.append(_bulk(proc, seed, horizon))
    return drawn


@st.composite
def _processes(draw):
    """An NHPP and a horizon with 1000-4000 thinning candidates: a
    diurnal or flash-crowd profile through ``profile_processes``, or a
    ``rate_fn`` returning one scalar for any input."""
    kind = draw(st.sampled_from(["diurnal", "flash", "scalar"]))
    rate = draw(st.floats(1.0, 40.0))
    if kind == "scalar":
        level = draw(st.floats(0.05, 1.0))
        proc = NonHomogeneousPoisson(lambda t: level * rate, rate_max=rate)
    else:
        period = draw(st.floats(5.0, 500.0))
        trough = draw(st.floats(0.05, 1.0))
        peak = trough + draw(st.floats(0.0, 2.0))
        profile = diurnal_profile(period=period, trough=trough, peak=peak)
        factor_max = peak * 1.001
        if kind == "flash":
            surge = draw(st.floats(1.0, 4.0))
            profile = flash_crowd_profile(
                profile, draw(st.floats(0.0, 100.0)), draw(st.floats(0.1, 50.0)), surge
            )
            factor_max *= surge
        proc = profile_processes(profile, [rate], 1.0, factor_max=factor_max)[0]
    horizon = draw(st.integers(1000, 4000)) / proc.rate_max
    return proc, horizon


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=_processes(), seed=st.integers(0, 2**32 - 1))
def test_bulk_arrival_times_equal_the_scalar_loop(case, seed):
    proc, horizon = case
    oracle = _loop(proc, seed, horizon)
    assert oracle.size > 0
    for stamps in _bulk_both_paths(proc, seed, horizon):
        assert stamps.dtype == oracle.dtype
        assert stamps.tobytes() == oracle.tobytes()


@requires_kernel
def test_kernel_draws_equal_the_scalar_draws(monkeypatch):
    # ~40 000 candidate pairs per path: the ziggurat's slow path (~1% of
    # exponential draws) is hit hundreds of times.
    compiled.load_kernel()
    rng_a, rng_b = np.random.default_rng(17), np.random.default_rng(17)
    from repro.workload import arrivals

    native = arrivals._thinning_draws(rng_a, 0.25, 40_000)
    monkeypatch.setattr(compiled, "loaded_kernel", lambda: None)
    scalar = arrivals._thinning_draws(rng_b, 0.25, 40_000)
    for a, b in zip(native, scalar):
        assert a.tobytes() == b.tobytes()


def test_a7_style_traces_equal_on_every_path():
    profile = flash_crowd_profile(diurnal_profile(period=400.0, trough=0.4, peak=1.3),
                                  120.0, 40.0, 1.8)
    for proc in profile_processes(profile, [8.0, 5.0, 3.0], 400.0, factor_max=1.3 * 1.8 * 1.001):
        oracle = _loop(proc, 5, 400.0)
        for stamps in _bulk_both_paths(proc, 5, 400.0):
            assert stamps.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("bad", [3.0, -0.5])
def test_out_of_range_rate_raises_like_next_arrival(monkeypatch, bad):
    proc = NonHomogeneousPoisson(lambda t: np.where(t > 30.0, bad, 1.0), rate_max=2.0)
    with pytest.raises(ModelValidationError) as loop:
        _loop(proc, 3, 100.0)
    assert "outside [0, rate_max=2]" in str(loop.value)
    for path in range(2):
        with monkeypatch.context() as m:
            if path:
                m.setattr(compiled, "loaded_kernel", lambda: None)
            with pytest.raises(ModelValidationError) as bulk:
                _bulk(proc, 3, 100.0)
        assert str(bulk.value) == str(loop.value)


def test_out_of_range_rate_past_the_last_candidate_is_never_seen(monkeypatch):
    # The loop stops at the first accepted candidate past the horizon, so
    # it never evaluates the rate 30 time units on; the block does, and
    # must not raise for it.
    proc = NonHomogeneousPoisson(lambda t: np.where(t > 80.0, 3.0, 1.0), rate_max=2.0)
    oracle = _loop(proc, 4, 50.0)
    for stamps in _bulk_both_paths(proc, 4, 50.0):
        assert stamps.tobytes() == oracle.tobytes()


class TestProfilesOnArrays:
    def _profiles(self):
        day = diurnal_profile(period=24.0, trough=0.25, peak=1.6)
        return [day, flash_crowd_profile(day, 6.0, 3.0, 2.5)]

    def test_profile_on_an_array_is_the_profile_per_point(self):
        t = np.linspace(-3.0, 50.0, 4001)
        for profile in self._profiles():
            per_point = np.array([float(profile(float(x))) for x in t])
            assert np.asarray(profile(t)).tobytes() == per_point.tobytes()

    def test_profile_rates_are_the_per_point_rates(self):
        starts = np.arange(0.0, 48.0, 0.5)
        base = np.array([4.0, 2.5, 1.0])
        for profile in self._profiles():
            per_point = np.array([float(profile(t)) for t in starts])[:, None] * base[None, :]
            assert profile_rates(profile, base, starts).tobytes() == per_point.tobytes()

    def test_default_factor_max_is_the_per_point_maximum(self):
        for profile in self._profiles():
            grid = np.linspace(0.0, 48.0, 4097)
            expected = max(float(profile(t)) for t in grid) * 1.05
            proc = profile_processes(profile, [2.0], 48.0)[0]
            assert proc.rate_max == 2.0 * expected

    def test_rate_fn_on_an_array_is_the_scalar_rate(self):
        profile = self._profiles()[1]
        proc = profile_processes(profile, [3.0], 48.0, factor_max=2.0)[0]
        t = np.linspace(0.0, 48.0, 2001)
        scalar = np.array([float(proc.rate_fn(float(x))) for x in t])
        assert np.asarray(proc.rate_fn(t)).tobytes() == scalar.tobytes()


def _old_dpp_speeds(ctrl, counts):
    """The drift-plus-penalty decision as it was computed before its
    constants were hoisted out of the call."""
    q = (counts * ctrl._weights[None, :] * ctrl._demand_means).sum(axis=1)
    if ctrl.v_param == 0.0:
        return np.where(q > 0.0, ctrl._hi, ctrl._lo)
    with np.errstate(divide="ignore"):
        s_star = (q / (ctrl.v_param * ctrl._kappa * ctrl._alpha)) ** (1.0 / (ctrl._alpha - 1.0))
    return np.clip(s_star, ctrl._lo, ctrl._hi)


def _tiny_kappa_cluster():
    """The canonical cluster with kappa so small that ``V * kappa *
    alpha`` underflows to 0 for small V."""
    cluster = canonical_cluster()
    tiers = [
        replace(t, spec=replace(t.spec, power=PowerModel(idle=t.spec.power.idle, kappa=1e-300)))
        for t in cluster.tiers
    ]
    return ClusterModel(tiers)


_CLUSTERS = {"canonical": canonical_cluster(), "tiny-kappa": _tiny_kappa_cluster()}


_V = {
    "zero": st.just(0.0),
    "underflow": st.just(1e-30),
    "log-uniform": st.floats(-7.0, 3.0).map(lambda x: 10.0**x),
    # Mostly inside the canonical DVFS box rather than on its edges.
    "interior": st.floats(-1.5, -0.3).map(lambda x: 10.0**x),
}


@pytest.mark.parametrize("cluster", sorted(_CLUSTERS))
@pytest.mark.parametrize("v_kind", sorted(_V))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_lean_dpp_decision_equals_the_old_formula(cluster, v_kind, data):
    """Same bits and the same floating-point warnings (a zero backlog
    over an underflowed denominator is 0/0 in both), for drawn and for
    zero backlogs."""
    v = data.draw(_V[v_kind])
    weights = data.draw(
        st.one_of(st.none(), st.lists(st.floats(0.01, 100.0), min_size=3, max_size=3))
    )
    counts = data.draw(st.lists(st.integers(0, 200), min_size=9, max_size=9))
    ctrl = DriftPlusPenaltyController(_CLUSTERS[cluster], v, class_weights=weights)
    for q in (np.array(counts, dtype=np.int64).reshape(3, 3), np.zeros((3, 3), np.int64)):
        expected, old_warnings = _with_warnings(lambda: _old_dpp_speeds(ctrl, q))
        got, new_warnings = _with_warnings(lambda: ctrl.decide(0.0, q, np.ones(3)))
        assert got.tobytes() == expected.tobytes()
        assert new_warnings == old_warnings


def _with_warnings(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, [(w.category, str(w.message)) for w in caught]
