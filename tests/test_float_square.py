"""Vectorized moment arithmetic with the scalar path's bits.

``float_square`` must return what Python's ``v**2`` (the C library's
``pow``) returns for every element, while squaring most of them as
``x * x``; ``HyperExponential.moments`` must add its two branches as
``.sum(axis=-1)`` does; ``fitted_moments`` must pick each row's SCV
band as :func:`fit_two_moments` does.
"""

import numpy as np
import pytest

from repro.distributions import (
    Deterministic,
    Exponential,
    Gamma,
    HyperExponential,
    fit_two_moments,
)
from repro.distributions.base import _LIST_SQUARES, float_square
from repro.distributions.fitting import _bands, fitted_moments


def _reference(x: np.ndarray) -> np.ndarray:
    return np.array([v**2 for v in x.ravel().tolist()]).reshape(x.shape)


def _same_bits(got: np.ndarray, expected: np.ndarray) -> bool:
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_ten_million_doubles_across_exponents_match_pow():
    """10^7 doubles, in blocks: half over every exponent whose square
    stays finite (subnormals included), half near 1, where the solvers'
    speeds and moments live."""
    rng = np.random.default_rng(20261019)
    for block in range(10):
        if block % 2:
            exponents = rng.integers(-1074, 511, 1_000_000)
        else:
            exponents = rng.integers(-8, 8, 1_000_000)
        x = np.ldexp(rng.random(1_000_000) + 1.0, exponents)
        x[rng.random(x.size) < 0.5] *= -1.0
        assert _same_bits(float_square(x), _reference(x)), block


def test_near_ties_match_pow():
    """Inputs whose exact square lies within 0.1 ULP of a rounding tie,
    where ``pow`` and ``x * x`` disagree, and the squares of powers of
    two and their neighbours (the ULP halves below a power of two)."""
    rng = np.random.default_rng(7)
    x = rng.random(4_000_000) + 0.5
    sq = x * x
    hi = 134217729.0 * x
    hi = hi - (hi - x)
    lo = x - hi
    err = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo
    near = x[np.abs(err) >= 0.4 * np.spacing(sq)]
    differ = near[_reference(near) != near * near]
    assert differ.size > 100  # the cases this function exists for
    roots = np.sqrt(np.ldexp(1.0, np.arange(-530, 510)))
    edges = np.concatenate([roots, np.nextafter(roots, 0.0), np.nextafter(roots, 2.0)])
    for cases in (near, differ, edges, np.ldexp(1.0, np.arange(-537, 511))):
        assert _same_bits(float_square(cases), _reference(cases))


def test_special_values_match_pow():
    specials = np.array(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-200, 1e-160,
         np.inf, -np.inf, np.nan, 1e150, 1.3407807929942596e154]
    )
    x = np.concatenate([specials, np.linspace(0.5, 2.0, _LIST_SQUARES)])
    got, expected = float_square(x), _reference(x)
    assert _same_bits(got, expected)
    assert np.isnan(got[9]) and got[:2].tobytes() == np.zeros(2).tobytes()


@pytest.mark.parametrize("size", [1, _LIST_SQUARES - 1, _LIST_SQUARES, 3000])
def test_overflow_raises_as_pow_does(size):
    x = np.full(size, 1.5)
    x[-1] = 1e200
    with pytest.raises(OverflowError):
        _reference(x)
    with pytest.raises(OverflowError):
        float_square(x)


@pytest.mark.parametrize("shape", [(), (7,), (300,), (40, 3), (200, 3, 2)])
def test_shapes_are_kept(shape):
    x = np.random.default_rng(3).random(shape) + 0.25
    assert _same_bits(float_square(x), _reference(x))


def test_two_branch_moments_match_the_axis_sum():
    rng = np.random.default_rng(11)
    probs = rng.random((8000, 3, 2))
    rates = rng.random((8000, 3, 2)) * 50.0 + 0.1
    m, m2 = HyperExponential.moments(probs, rates)
    assert _same_bits(m, (probs / rates).sum(axis=-1))
    assert _same_bits(m2, (2.0 * probs / rates**2).sum(axis=-1))
    three = rng.random((100, 3))
    m = HyperExponential.moments(three, three + 1.0)[0]
    assert _same_bits(m, (three / (three + 1.0)).sum(axis=-1))


def test_scv_bands_are_the_fitted_families():
    scv = np.array([0.0, 1e-13, 1e-12, 2e-12, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12,
                    1.0 + 2e-12, 2.5, np.inf])
    families = (Deterministic, Exponential, Gamma, HyperExponential)
    bands = _bands(scv).tolist()
    assert bands == [0, 0, 0, 2, 2, 1, 1, 3, 3, 3, 3]
    for v, band in zip(scv.tolist()[:-1], bands):
        assert type(fit_two_moments(1.0, v)) is families[band]
    assert _bands(np.array([np.nan])).tolist() == [3]


def test_fitted_moments_mixed_bands_match_one_band_calls():
    rng = np.random.default_rng(5)
    mean = rng.random(600) + 0.1
    scv = rng.choice([0.0, 0.4, 1.0, 2.5, 7.0], size=600)
    factor = rng.random(600) + 0.5
    got = fitted_moments(mean, scv, factor)
    for j in range(0, 600, 37):
        one = fitted_moments(mean[j : j + 1], scv[j : j + 1], factor[j : j + 1])
        assert all(g[j] == o[0] for g, o in zip(got, one))
