"""Online statistics and RNG stream tests."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelValidationError
from repro.simulation import RngStreams, Welford, confidence_halfwidth
from repro.simulation.stats import _t_quantile


class TestWelford:
    def test_matches_numpy(self, rng):
        xs = rng.normal(3.0, 2.0, size=5000)
        w = Welford()
        for x in xs:
            w.add(float(x))
        assert w.mean == pytest.approx(xs.mean(), rel=1e-10)
        assert w.variance == pytest.approx(xs.var(ddof=1), rel=1e-8)
        assert w.n == 5000

    def test_empty_and_single(self):
        w = Welford()
        assert np.isnan(w.mean)
        w.add(2.0)
        assert w.mean == 2.0
        assert np.isnan(w.variance)

    def test_merge_equals_sequential(self, rng):
        xs = rng.exponential(1.0, size=2001)
        a, b, full = Welford(), Welford(), Welford()
        for x in xs[:700]:
            a.add(float(x))
            full.add(float(x))
        for x in xs[700:]:
            b.add(float(x))
            full.add(float(x))
        merged = a.merge(b)
        assert merged.n == full.n
        assert merged.mean == pytest.approx(full.mean, rel=1e-12)
        assert merged.variance == pytest.approx(full.variance, rel=1e-10)

    def test_merge_with_empty(self):
        a = Welford()
        a.add(1.0)
        a.add(3.0)
        merged = a.merge(Welford())
        assert merged.mean == 2.0
        assert Welford().merge(Welford()).n == 0


class TestConfidenceHalfwidth:
    def test_known_value(self):
        # 95% t-quantile with 9 dof is ~2.262.
        hw = confidence_halfwidth(std=1.0, n=10)
        assert hw == pytest.approx(2.2622 / np.sqrt(10), rel=1e-3)

    def test_nan_for_tiny_samples(self):
        assert np.isnan(confidence_halfwidth(1.0, 1))
        assert np.isnan(confidence_halfwidth(float("nan"), 10))

    def test_narrows_with_n(self):
        assert confidence_halfwidth(1.0, 100) < confidence_halfwidth(1.0, 10)

    def test_bad_level(self):
        with pytest.raises(ModelValidationError):
            confidence_halfwidth(1.0, 10, level=1.5)


def _t_ppf_hex(n: int, level: float) -> str:
    return float(scipy.stats.t.ppf(0.5 + level / 2, df=n - 1)).hex()


class TestTQuantileMatchesTPpf:
    """``stdtrit`` is what ``t.ppf`` evaluates; the bits must agree."""

    @pytest.mark.parametrize("level", [0.8, 0.9, 0.95, 0.99, 0.999])
    def test_every_n_up_to_2000(self, level):
        ns = range(1, 2001)
        got = [_t_quantile(n, level).hex() for n in ns]
        assert got == [_t_ppf_hex(n, level) for n in ns]
        assert got[0] == "nan"  # one observation: zero degrees of freedom

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=5000),
        level=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    def test_drawn_levels(self, n, level):
        assert _t_quantile(n, level).hex() == _t_ppf_hex(n, level)


class TestRngStreams:
    def test_deterministic(self):
        a = RngStreams(7).stream("x").random(5)
        b = RngStreams(7).stream("x").random(5)
        np.testing.assert_array_equal(a, b)

    def test_named_streams_differ(self):
        s = RngStreams(7)
        assert not np.array_equal(s.stream("a").random(5), s.stream("b").random(5))

    def test_order_independent(self):
        s1 = RngStreams(7)
        s1.stream("a")
        a_then = s1.stream("b").random(5)
        s2 = RngStreams(7)
        b_first = s2.stream("b").random(5)
        np.testing.assert_array_equal(a_then, b_first)

    def test_replication_seeds_independent(self):
        seeds = RngStreams.replication_seeds(0, 3)
        draws = [RngStreams(s).stream("x").random(4) for s in seeds]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_same_stream_cached(self):
        s = RngStreams(1)
        assert s.stream("x") is s.stream("x")

    def test_bad_seed(self):
        with pytest.raises(ModelValidationError):
            RngStreams(-1)
        with pytest.raises(ModelValidationError):
            RngStreams("seed")  # type: ignore[arg-type]

    def test_bad_replication_count(self):
        with pytest.raises(ModelValidationError):
            RngStreams.replication_seeds(0, 0)
