"""Abstract base class and generic combinators for distributions.

The analytic queueing formulas in :mod:`repro.queueing` only ever need
the first two moments of a service-time distribution, but the simulator
needs to draw samples from exactly the same distribution — keeping both
behind one object guarantees the analytic model and the simulation are
parameterized identically (the whole point of the paper's validation
methodology).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import ModelValidationError

__all__ = ["Distribution", "ScaledDistribution", "ShiftedDistribution", "float_square"]


def float_square(x: np.ndarray) -> np.ndarray:
    """``v ** 2`` for every element, as Python computes it on a float.

    Python's float power calls the C library's ``pow``, which is not
    always the correctly rounded ``v * v`` that NumPy's array ``x**2``
    computes: on glibc about one input in a thousand differs in the last
    bit. Array code that must reproduce a scalar ``**2`` on floats (the
    moment properties below, ``agg_mean**2`` in the queueing formulas)
    squares through this.

    Each square is ``x * x`` unless its rounding error, found exactly
    by Dekker's two-product, is 0.45 ULP or more: there the rounding is
    close enough to a tie for ``pow`` to round the other way, and the
    element goes through Python's ``v**2``. That assumes the C
    library's ``pow`` is off by less than 0.55 ULP, so that it returns
    the correctly rounded square whenever the exact one is within 0.45
    ULP of it (glibc documents 0.52 ULP; every input seen to differ
    had an error of at least 0.49 ULP). Squares that are powers of two,
    below which the ULP is half as large, take ``v**2`` too, as do
    squares under ``2**-960``, where the error term could lose bits to
    underflow, and non-finite ones (infinite or NaN inputs, overflow),
    which keeps their results and ``OverflowError``.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    if flat.size < _LIST_SQUARES:
        # The vector test's passes cost more than a short list.
        return np.array([v**2 for v in flat.tolist()]).reshape(x.shape)
    with np.errstate(all="ignore"):
        sq = flat * flat
        big = _SPLITTER * flat
        hi = big - (big - flat)
        lo = flat - hi
        err = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo
        # The ULP of a positive double that is not a power of two is its
        # exponent bits' power of two times 2**-52 (inf for inf and NaN).
        bits = sq.view(np.int64)
        margin = (bits & _EXPONENT_BITS).view(np.float64) * (0.45 * 2.0**-52)
        libm = ~((np.abs(err) < margin) & (sq >= _SQUARE_MIN)) | ((bits & _FRACTION_BITS) == 0)
    if libm.any():
        sq[libm] = [v**2 for v in flat[libm].tolist()]
    return sq.reshape(x.shape)


# Veltkamp's splitter for Dekker's two-product, and the smallest square
# whose error term's underflow cannot matter at 0.4 ULP.
_SPLITTER = 2.0**27 + 1.0
_SQUARE_MIN = 2.0**-960
_EXPONENT_BITS = 0x7FF << 52
_FRACTION_BITS = (1 << 52) - 1
# Arrays shorter than this square through the list (measured crossover).
_LIST_SQUARES = 256


class Distribution(ABC):
    """A non-negative random variable with known first two moments.

    Subclasses implement :attr:`mean`, :attr:`second_moment` and
    :meth:`sample`; everything else (variance, SCV, scaling) derives
    from those.
    """

    #: Block-sampling determinism contract: True iff one
    #: ``sample(rng, size=n)`` call consumes the generator's bit stream
    #: in exactly the same order as ``n`` successive scalar
    #: ``sample(rng)`` calls, producing bit-identical values. The
    #: simulator only block-pregenerates variates for families that opt
    #: in (single-family NumPy draws and elementwise transforms of
    #: them); families with interleaved per-sample draws — e.g. a
    #: branch choice followed by the branch draw — must stay on the
    #: scalar path or seeded results would silently change.
    block_sampling_safe: bool = False

    @property
    @abstractmethod
    def mean(self) -> float:
        """First moment ``E[X]``."""

    @property
    @abstractmethod
    def second_moment(self) -> float:
        """Raw second moment ``E[X^2]`` (not the variance)."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw samples.

        Parameters
        ----------
        rng:
            NumPy random generator; the caller controls seeding so that
        simulation replications are reproducible.
        size:
            ``None`` for a scalar draw, otherwise the number of i.i.d.
            samples to return as a 1-D :class:`numpy.ndarray`.
        """

    @property
    def third_moment(self) -> float:
        """Raw third moment ``E[X^3]``.

        Needed by the Takács formula for the *variance* of M/G/1
        waiting times, which feeds the percentile-delay machinery.
        Families whose third moment is infinite return ``inf``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement third_moment"
        )

    @property
    def variance(self) -> float:
        """``Var[X] = E[X^2] - E[X]^2`` (clamped at 0 against round-off)."""
        return max(self.second_moment - self.mean**2, 0.0)

    @property
    def std(self) -> float:
        """Standard deviation."""
        return float(np.sqrt(self.variance))

    @property
    def scv(self) -> float:
        """Squared coefficient of variation ``Var[X] / E[X]^2``.

        The key shape parameter in the Pollaczek–Khinchine formula:
        ``scv = 0`` for deterministic, ``1`` for exponential, ``> 1``
        for hyperexponential/heavy-tailed demands.
        """
        if self.mean == 0.0:
            return 0.0
        return self.variance / self.mean**2

    @classmethod
    def moment_scaler(cls, dists, depth: int):
        """Array form of ``d.scaled(f_1).scaled(f_2)...`` moments.

        Returns ``scaled(*factors)``, which takes ``depth`` factors
        (arrays of a common length ``n``, or scalars) and returns the
        means and second moments, each ``(n, len(dists))``, that
        ``d.scaled(f_1[j])...scaled(f_depth[j])`` reports for every
        distribution ``d`` of this family and every row ``j`` — bit for
        bit. The default builds those objects row by row; the closed
        families override it with array code that keeps each property's
        operation order and precomputes the speed-independent parts (a
        subclass that changes its moments or ``scaled`` must override it
        again).
        """

        def scaled(*factors):
            rows = np.broadcast_arrays(*(np.atleast_1d(np.asarray(f, dtype=float)) for f in factors))
            n = rows[0].shape[0]
            means = np.empty((n, len(dists)))
            m2 = np.empty((n, len(dists)))
            for j, row in enumerate(zip(*(r.tolist() for r in rows))):
                for k, d in enumerate(dists):
                    for f in row:
                        d = d.scaled(f)
                    means[j, k], m2[j, k] = d.mean, d.second_moment
            return means, m2

        return scaled

    def scaled(self, factor: float) -> "Distribution":
        """Return the distribution of ``factor * X``.

        Used to convert a service *demand* (work, in cycles) into a
        service *time* at a server of speed ``s`` via
        ``demand.scaled(1.0 / s)``.
        """
        if factor <= 0.0 or not np.isfinite(factor):
            raise ModelValidationError(f"scale factor must be positive and finite, got {factor}")
        if factor == 1.0:
            return self
        return ScaledDistribution(self, factor)

    def shifted(self, offset: float) -> "Distribution":
        """Return the distribution of ``X + offset`` (``offset >= 0``).

        Models a fixed per-request overhead (e.g. dispatch latency) on
        top of a random demand.
        """
        if offset < 0.0 or not np.isfinite(offset):
            raise ModelValidationError(f"shift offset must be non-negative and finite, got {offset}")
        if offset == 0.0:
            return self
        return ShiftedDistribution(self, offset)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(mean={self.mean:.6g}, scv={self.scv:.6g})"


class ScaledDistribution(Distribution):
    """Distribution of ``c * X`` for a base distribution ``X`` and ``c > 0``."""

    def __init__(self, base: Distribution, factor: float):
        if factor <= 0.0:
            raise ModelValidationError(f"scale factor must be positive, got {factor}")
        # Collapse nested scalings so repeated speed changes stay O(1).
        if isinstance(base, ScaledDistribution):
            factor *= base.factor
            base = base.base
        self.base = base
        self.factor = float(factor)

    @property
    def block_sampling_safe(self) -> bool:
        # Scaling is elementwise, so block safety is the base family's.
        return self.base.block_sampling_safe

    @property
    def mean(self) -> float:
        return self.factor * self.base.mean

    @property
    def second_moment(self) -> float:
        return self.factor**2 * self.base.second_moment

    @property
    def third_moment(self) -> float:
        return self.factor**3 * self.base.third_moment

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return self.factor * self.base.sample(rng, size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScaledDistribution({self.base!r}, factor={self.factor:.6g})"


class ShiftedDistribution(Distribution):
    """Distribution of ``X + d`` for a base distribution ``X`` and ``d >= 0``."""

    def __init__(self, base: Distribution, offset: float):
        if offset < 0.0:
            raise ModelValidationError(f"shift offset must be non-negative, got {offset}")
        self.base = base
        self.offset = float(offset)

    @property
    def block_sampling_safe(self) -> bool:
        # Shifting is elementwise, so block safety is the base family's.
        return self.base.block_sampling_safe

    @property
    def mean(self) -> float:
        return self.base.mean + self.offset

    @property
    def second_moment(self) -> float:
        # E[(X+d)^2] = E[X^2] + 2 d E[X] + d^2
        return self.base.second_moment + 2.0 * self.offset * self.base.mean + self.offset**2

    @property
    def third_moment(self) -> float:
        # Binomial expansion of E[(X+d)^3].
        d = self.offset
        return (
            self.base.third_moment
            + 3.0 * d * self.base.second_moment
            + 3.0 * d**2 * self.base.mean
            + d**3
        )

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return self.base.sample(rng, size) + self.offset
