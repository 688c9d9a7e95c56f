"""Exact-moment and sampling checks for every distribution family."""

import numpy as np
import pytest

from repro.distributions import (
    Deterministic,
    Erlang,
    Exponential,
    Gamma,
    HyperExponential,
    LogNormal,
    Mixture,
    Pareto,
    Uniform,
    Weibull,
)
from repro.exceptions import ModelValidationError

N_SAMPLES = 200_000

ALL_DISTS = [
    Exponential(rate=2.0),
    Exponential.from_mean(0.25),
    Deterministic(3.0),
    Erlang(k=4, rate=8.0),
    Erlang.from_mean(0.5, k=3),
    HyperExponential(probs=[0.3, 0.7], rates=[1.0, 5.0]),
    HyperExponential.balanced_from_mean_scv(2.0, 4.0),
    LogNormal(mean=1.5, scv=0.8),
    Pareto(alpha=2.5, xm=1.0),
    Pareto.from_mean(2.0, alpha=3.0),
    Uniform(0.5, 2.5),
    Weibull(k=2.0, lam=1.0),
    Weibull.from_mean(0.7, k=1.5),
    Gamma(k=2.5, rate=5.0),
    Gamma.from_mean_scv(1.2, 0.4),
    Mixture(probs=[0.5, 0.5], components=[Exponential(1.0), Deterministic(2.0)]),
]


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_sample_mean_matches_analytic(dist, rng):
    samples = dist.sample(rng, N_SAMPLES)
    # 6-sigma tolerance on the sample mean.
    tol = 6.0 * dist.std / np.sqrt(N_SAMPLES) + 1e-12
    assert abs(samples.mean() - dist.mean) < max(tol, 1e-9)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_sample_second_moment_matches_analytic(dist, rng):
    samples = dist.sample(rng, N_SAMPLES)
    m2 = float(np.mean(samples**2))
    # Heavy-tailed second moments converge slowly; loose relative band.
    assert m2 == pytest.approx(dist.second_moment, rel=0.15)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_samples_nonnegative(dist, rng):
    assert np.all(dist.sample(rng, 10_000) >= 0.0)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_scalar_sample(dist, rng):
    x = dist.sample(rng)
    assert np.isscalar(x) or np.ndim(x) == 0


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: repr(d))
def test_variance_consistency(dist):
    assert dist.variance == pytest.approx(dist.second_moment - dist.mean**2, abs=1e-12)
    assert dist.variance >= 0.0


def test_exponential_moments_exact():
    d = Exponential(rate=4.0)
    assert d.mean == 0.25
    assert d.second_moment == pytest.approx(2 / 16)
    assert d.scv == pytest.approx(1.0)


def test_deterministic_scv_zero():
    assert Deterministic(5.0).scv == 0.0
    assert Deterministic(0.0).mean == 0.0


def test_erlang_scv_is_inverse_k():
    for k in (1, 2, 5, 10):
        assert Erlang(k=k, rate=1.0).scv == pytest.approx(1.0 / k)


def test_erlang_k1_equals_exponential():
    e1, ex = Erlang(k=1, rate=3.0), Exponential(rate=3.0)
    assert e1.mean == ex.mean
    assert e1.second_moment == pytest.approx(ex.second_moment)


def test_hyperexp_balanced_fit_hits_targets():
    for mean, scv in [(1.0, 1.0), (2.0, 1.5), (0.3, 8.0)]:
        h = HyperExponential.balanced_from_mean_scv(mean, scv)
        assert h.mean == pytest.approx(mean, rel=1e-12)
        assert h.scv == pytest.approx(scv, rel=1e-9)


def test_hyperexp_scv_at_least_one():
    h = HyperExponential(probs=[0.2, 0.8], rates=[0.5, 4.0])
    assert h.scv >= 1.0


def test_lognormal_moments():
    d = LogNormal(mean=2.0, scv=0.5)
    assert d.mean == 2.0
    assert d.second_moment == pytest.approx(4.0 * 1.5)


def test_pareto_requires_finite_second_moment():
    with pytest.raises(ModelValidationError):
        Pareto(alpha=2.0, xm=1.0)
    with pytest.raises(ModelValidationError):
        Pareto(alpha=1.5, xm=1.0)


def test_pareto_from_mean_roundtrip():
    d = Pareto.from_mean(3.0, alpha=4.0)
    assert d.mean == pytest.approx(3.0)


def test_uniform_moments():
    d = Uniform(1.0, 3.0)
    assert d.mean == 2.0
    assert d.variance == pytest.approx(4.0 / 12.0)


def test_weibull_k1_is_exponential():
    w = Weibull(k=1.0, lam=2.0)
    assert w.mean == pytest.approx(2.0)
    assert w.scv == pytest.approx(1.0, rel=1e-9)


def test_gamma_fit_exact():
    g = Gamma.from_mean_scv(1.7, 0.3)
    assert g.mean == pytest.approx(1.7)
    assert g.scv == pytest.approx(0.3)


def test_mixture_moments_are_linear():
    a, b = Exponential(1.0), Deterministic(2.0)
    m = Mixture(probs=[0.25, 0.75], components=[a, b])
    assert m.mean == pytest.approx(0.25 * a.mean + 0.75 * b.mean)
    assert m.second_moment == pytest.approx(
        0.25 * a.second_moment + 0.75 * b.second_moment
    )


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Exponential(0.0),
        lambda: Exponential(-1.0),
        lambda: Exponential(float("inf")),
        lambda: Deterministic(-0.1),
        lambda: Erlang(k=0, rate=1.0),
        lambda: Erlang(k=2.5, rate=1.0),
        lambda: Erlang(k=2, rate=-1.0),
        lambda: HyperExponential(probs=[0.5, 0.6], rates=[1.0, 2.0]),
        lambda: HyperExponential(probs=[0.5, 0.5], rates=[1.0, -2.0]),
        lambda: HyperExponential(probs=[1.0], rates=[1.0, 2.0]),
        lambda: HyperExponential.balanced_from_mean_scv(1.0, 0.5),
        lambda: LogNormal(mean=-1.0, scv=1.0),
        lambda: LogNormal(mean=1.0, scv=0.0),
        lambda: Uniform(2.0, 1.0),
        lambda: Uniform(-1.0, 1.0),
        lambda: Weibull(k=0.0, lam=1.0),
        lambda: Gamma(k=1.0, rate=0.0),
        lambda: Mixture(probs=[0.5, 0.5], components=[Exponential(1.0)]),
        lambda: Mixture(probs=[0.4, 0.4], components=[Exponential(1.0), Exponential(2.0)]),
    ],
)
def test_invalid_parameters_raise(bad):
    with pytest.raises(ModelValidationError):
        bad()


def test_float_square_is_the_scalar_float_power():
    # A float's ``**2`` is libm pow, not always the array's ``x*x``; the
    # array kernels square through float_square to match the properties.
    from repro.distributions.base import float_square

    x = np.random.default_rng(11).uniform(0.0, 10.0, size=(20_000, 3))
    expected = np.array([v**2 for v in x.ravel().tolist()]).reshape(x.shape)
    np.testing.assert_array_equal(float_square(x), expected)
    np.testing.assert_array_equal(float_square(x[:1, :1]), expected[:1, :1])


def test_fitted_moments_replay_fit_two_moments_on_mixed_bands():
    from repro.distributions.fitting import fit_two_moments, fitted_moments

    rng = np.random.default_rng(5)
    scv = np.concatenate(
        [[0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.5], rng.uniform(0.0, 4.0, size=40)]
    )
    mean = rng.uniform(0.01, 2.0, size=scv.size)
    factor = rng.uniform(0.2, 3.0, size=scv.size)
    fits = [fit_two_moments(m, v) for m, v in zip(mean.tolist(), scv.tolist())]
    expected = [
        [d.mean for d in fits],
        [d.second_moment for d in fits],
        [d.scv for d in fits],
        [d.scaled(f).mean for d, f in zip(fits, factor.tolist())],
        [d.scaled(f).second_moment for d, f in zip(fits, factor.tolist())],
    ]
    for got, want in zip(fitted_moments(mean, scv, factor), expected):
        np.testing.assert_array_equal(got, want)
    assert fitted_moments(mean, scv)[3:] == (None, None)
    for got, want in zip(fitted_moments(mean, scv)[:3], expected):
        np.testing.assert_array_equal(got, want)
