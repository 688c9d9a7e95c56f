"""Online statistics for simulation output analysis."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.exceptions import ModelValidationError

__all__ = [
    "Welford",
    "confidence_halfwidth",
    "confidence_halfwidths",
    "batch_means_ci",
]


#: ``_t_quantile(n, 0.95)`` for n = 2..64 observations (entry ``n - 2``):
#: ``stdtrit(n - 1, 0.975)`` as SciPy 1.17.1 evaluates it.
#: ``tests/test_simulation_stats.py`` pins every entry to ``t.ppf`` bit
#: for bit.  64 covers the default adaptive cap ``max(4 * reps, 16)``
#: up to 16 replications, every experiment's fixed count and the 20
#: batch means, so a run of up to 64 replications at the usual 95%
#: level imports no SciPy.
_T95 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454, 2.045229642132703, 2.0422724563012378,
    2.039513446396408, 2.0369333434601016, 2.0345152974493383,
    2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761,
    2.021075390306273, 2.019540970441376, 2.0180817028184443,
    2.016692199227824, 2.0153675744437636, 2.014103388880846,
    2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836,
    2.006646805061688, 2.0057459953178687, 2.0048792881880564,
    2.0040447832891455, 2.003240718847872, 2.002465459291007,
    2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741,
)


def _t_quantile_df(df: float, level: float) -> float:
    """Student-t two-sided ``level`` quantile at ``df`` (possibly
    fractional) degrees of freedom.

    ``stdtrit(df, p)`` is the inverse CDF that ``scipy.stats.t.ppf``
    itself evaluates (with ``loc=0``, ``scale=1``), so the result is
    bit-identical without importing ``scipy.stats``.  This is the one
    place a t quantile is computed with SciPy.
    """
    from scipy.special import stdtrit

    return float(stdtrit(df, 0.5 + level / 2.0))


@lru_cache(maxsize=512)
def _t_quantile(n: int, level: float) -> float:
    """Student-t two-sided quantile for ``n`` observations.

    Read from :data:`_T95` at the 95% level for ``2 <= n <= 64``,
    otherwise :func:`_t_quantile_df` at ``n - 1`` degrees of freedom.
    Every half-width in a run shares a handful of ``(n, level)`` pairs,
    so the quantile is memoized.
    """
    if level == 0.95 and 2 <= n < len(_T95) + 2:
        return _T95[n - 2]
    return _t_quantile_df(n - 1, level)


class Welford:
    """Numerically stable online mean/variance (Welford's algorithm)."""

    __slots__ = ("n", "_mean", "_m2")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, x: float) -> None:
        """Accumulate one observation."""
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)

    def add_batch(self, xs) -> None:
        """Accumulate a buffer of observations.

        Replays the scalar recurrence over local variables (one
        attribute load/store per *batch* instead of per sample), so the
        result is bit-identical to calling :meth:`add` on each element
        in order — Welford's update is sequential and order-sensitive,
        which rules out a closed-form vectorized merge here.
        """
        n = self.n
        mean = self._mean
        m2 = self._m2
        for x in xs:
            n += 1
            delta = x - mean
            mean += delta / n
            m2 += delta * (x - mean)
        self.n = n
        self._mean = mean
        self._m2 = m2

    @property
    def mean(self) -> float:
        """Sample mean (NaN when empty)."""
        return self._mean if self.n else float("nan")

    @property
    def variance(self) -> float:
        """Unbiased sample variance (NaN for fewer than 2 points)."""
        return self._m2 / (self.n - 1) if self.n > 1 else float("nan")

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return float(np.sqrt(self.variance)) if self.n > 1 else float("nan")

    def merge(self, other: "Welford") -> "Welford":
        """Combine two accumulators (Chan's parallel update)."""
        out = Welford()
        out.n = self.n + other.n
        if out.n == 0:
            return out
        delta = other._mean - self._mean
        out._mean = self._mean + delta * other.n / out.n
        out._m2 = self._m2 + other._m2 + delta**2 * self.n * other.n / out.n
        return out


def confidence_halfwidth(std: float, n: int, level: float = 0.95) -> float:
    """Half-width of a Student-t confidence interval for a mean.

    Returns NaN when fewer than two observations exist.
    """
    if not 0.0 < level < 1.0:
        raise ModelValidationError(f"confidence level must be in (0, 1), got {level}")
    if n < 2 or not np.isfinite(std):
        return float("nan")
    return float(_t_quantile(int(n), float(level)) * std / np.sqrt(n))


def confidence_halfwidths(stds: np.ndarray, n: int, level: float = 0.95) -> np.ndarray:
    """Vectorized :func:`confidence_halfwidth` over an array of stds.

    All entries share one sample count ``n``, so a single memoized
    t-quantile scales the whole array; non-finite stds propagate to
    NaN half-widths exactly as in the scalar version.
    """
    if not 0.0 < level < 1.0:
        raise ModelValidationError(f"confidence level must be in (0, 1), got {level}")
    stds = np.asarray(stds, dtype=float)
    if n < 2:
        return np.full(stds.shape, np.nan)
    out = _t_quantile(int(n), float(level)) * stds / np.sqrt(n)
    return np.where(np.isfinite(stds), out, np.nan)


def batch_means_ci(
    samples: np.ndarray, n_batches: int = 20, level: float = 0.95
) -> tuple[float, float]:
    """Batch-means confidence interval for the mean of an
    autocorrelated series (single long run).

    Consecutive sojourn times from one simulation run are positively
    correlated, so the naive iid CI is too narrow. Batch means — split
    the series into ``n_batches`` contiguous batches and treat the
    batch averages as approximately independent — is the standard
    single-run alternative to independent replications.

    Returns
    -------
    (mean, halfwidth)
        The overall sample mean and the Student-t half-width over the
        batch means (NaN when there are too few samples for two full
        batches).
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ModelValidationError("samples must be a 1-D series")
    if n_batches < 2:
        raise ModelValidationError(f"need at least 2 batches, got {n_batches}")
    mean = float(x.mean()) if x.size else float("nan")
    batch_size = x.size // n_batches
    if batch_size < 1:
        return mean, float("nan")
    trimmed = x[: batch_size * n_batches]
    means = trimmed.reshape(n_batches, batch_size).mean(axis=1)
    std = float(np.std(means, ddof=1))
    return mean, confidence_halfwidth(std, n_batches, level)
