"""Arrival processes for the simulator.

The analytic model assumes Poisson arrivals; the simulator additionally
supports a two-state Markov-modulated Poisson process (MMPP-2, bursty)
and batch Poisson arrivals so the robustness experiments can measure
how far the analytic formulas drift when the Poisson assumption is
violated.

Each process generates *interarrival times*; the simulator advances a
clock by successive draws. Processes are stateful per simulation run,
so :meth:`ArrivalProcess.fresh` hands each run its own instance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import ModelValidationError

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "MMPP2",
    "BatchPoissonProcess",
    "NonHomogeneousPoisson",
    "RenewalProcess",
]


class ArrivalProcess(ABC):
    """Generator of successive interarrival gaps (and batch sizes)."""

    @property
    @abstractmethod
    def rate(self) -> float:
        """Long-run average arrival rate (jobs per unit time)."""

    @abstractmethod
    def next_arrival(self, rng: np.random.Generator) -> tuple[float, int]:
        """Return ``(gap, batch_size)``: time until the next arrival
        epoch and how many jobs arrive at it."""

    @abstractmethod
    def fresh(self) -> "ArrivalProcess":
        """A new instance with pristine state for an independent run."""

    def arrival_times(self, rng: np.random.Generator, horizon: float) -> np.ndarray:
        """Every arrival time in ``(0, horizon]``, one per job (a batch
        repeats its epoch), from successive :meth:`next_arrival` gaps
        summed from 0: what :func:`~repro.workload.traces.generate_trace`
        records for one class."""
        t = 0.0
        stamps: list[float] = []
        while True:
            gap, batch = self.next_arrival(rng)
            t += gap
            if t > horizon:
                return np.asarray(stamps)
            stamps.extend([t] * batch)


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson process at ``rate``."""

    def __init__(self, rate: float):
        if rate <= 0.0 or not np.isfinite(rate):
            raise ModelValidationError(f"Poisson rate must be positive and finite, got {rate}")
        self._rate = float(rate)

    @property
    def rate(self) -> float:
        return self._rate

    def next_arrival(self, rng: np.random.Generator) -> tuple[float, int]:
        return rng.exponential(1.0 / self._rate), 1

    def fresh(self) -> "PoissonProcess":
        return PoissonProcess(self._rate)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PoissonProcess(rate={self._rate:.6g})"


class MMPP2(ArrivalProcess):
    """Two-state Markov-modulated Poisson process.

    The modulating chain alternates between states 0 and 1 with
    exponential sojourns (rates ``r01`` out of 0, ``r10`` out of 1);
    arrivals are Poisson at ``rate0`` / ``rate1`` in the respective
    state. The long-run rate is the stationary mixture
    ``(r10·rate0 + r01·rate1) / (r01 + r10)``.
    """

    def __init__(self, rate0: float, rate1: float, r01: float, r10: float):
        for name, v in [("rate0", rate0), ("rate1", rate1), ("r01", r01), ("r10", r10)]:
            if v <= 0.0 or not np.isfinite(v):
                raise ModelValidationError(f"MMPP2 {name} must be positive and finite, got {v}")
        self.rate0, self.rate1 = float(rate0), float(rate1)
        self.r01, self.r10 = float(r01), float(r10)
        self._state = 0
        self._state_time_left: float | None = None

    @property
    def rate(self) -> float:
        return (self.r10 * self.rate0 + self.r01 * self.rate1) / (self.r01 + self.r10)

    def next_arrival(self, rng: np.random.Generator) -> tuple[float, int]:
        gap = 0.0
        while True:
            lam = self.rate0 if self._state == 0 else self.rate1
            switch_rate = self.r01 if self._state == 0 else self.r10
            if self._state_time_left is None:
                self._state_time_left = rng.exponential(1.0 / switch_rate)
            candidate = rng.exponential(1.0 / lam)
            if candidate <= self._state_time_left:
                # Arrival happens before the modulating chain switches.
                self._state_time_left -= candidate
                return gap + candidate, 1
            # Chain switches first; carry the elapsed time and re-draw
            # (memorylessness of the exponential justifies the re-draw).
            gap += self._state_time_left
            self._state = 1 - self._state
            self._state_time_left = None

    def fresh(self) -> "MMPP2":
        return MMPP2(self.rate0, self.rate1, self.r01, self.r10)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MMPP2(rate0={self.rate0:.6g}, rate1={self.rate1:.6g}, "
            f"r01={self.r01:.6g}, r10={self.r10:.6g})"
        )


class NonHomogeneousPoisson(ArrivalProcess):
    """Time-varying Poisson process via Lewis–Shedler thinning.

    ``rate_fn(t)`` gives the instantaneous rate at absolute time ``t``;
    ``rate_max`` must dominate it everywhere (candidate arrivals are
    drawn at ``rate_max`` and accepted with probability
    ``rate_fn(t) / rate_max``). Models diurnal load curves for the
    dynamic power-management experiments.

    :meth:`next_arrival` calls ``rate_fn`` on one float per candidate;
    :meth:`arrival_times` (trace synthesis) calls it on arrays of
    candidate times, so it must work elementwise on a float64 array and
    give each element the bits it gives that float alone (a scalar
    result broadcasts). NumPy ufuncs and ``np.where`` do.

    Parameters
    ----------
    rate_fn:
        Callable ``t -> λ(t) >= 0``, elementwise on arrays.
    rate_max:
        A finite upper bound on ``rate_fn`` over the simulated horizon.
    mean_rate:
        Reported long-run rate (for :attr:`rate`); defaults to
        ``rate_max`` when unknown.
    """

    def __init__(self, rate_fn, rate_max: float, mean_rate: float | None = None):
        if not callable(rate_fn):
            raise ModelValidationError("rate_fn must be callable")
        if rate_max <= 0.0 or not np.isfinite(rate_max):
            raise ModelValidationError(f"rate_max must be positive and finite, got {rate_max}")
        self.rate_fn = rate_fn
        self.rate_max = float(rate_max)
        self._mean_rate = float(mean_rate) if mean_rate is not None else self.rate_max
        self._clock = 0.0

    @property
    def rate(self) -> float:
        return self._mean_rate

    def next_arrival(self, rng: np.random.Generator) -> tuple[float, int]:
        start = self._clock
        t = start
        while True:
            t += rng.exponential(1.0 / self.rate_max)
            lam = float(self.rate_fn(t))
            if lam < 0.0 or lam > self.rate_max * (1.0 + 1e-9):
                raise ModelValidationError(
                    f"rate_fn({t:.6g}) = {lam:.6g} outside [0, rate_max={self.rate_max:.6g}]"
                )
            if rng.random() * self.rate_max <= lam:
                self._clock = t
                return t - start, 1

    def arrival_times(self, rng: np.random.Generator, horizon: float) -> np.ndarray:
        """The base method's arrival times, bit for bit, thinned in blocks.

        :meth:`next_arrival` draws one exponential gap and then one
        uniform per candidate, accepted or not, so the draws do not
        depend on ``rate_fn`` and the candidate times are one running
        sum.  Each block draws its candidate pairs at once, sums them
        with ``np.add.accumulate`` (sequential, like ``t += gap``),
        calls ``rate_fn`` once on the array, and rebuilds the stamps by
        summing the accepted candidates' gaps from 0.  Candidates past
        the loop's stopping point are drawn and dropped, so ``rng`` ends
        further on than the loop would leave it.
        """
        rate_max = self.rate_max
        bound = rate_max * (1.0 + 1e-9)
        start = clock = last = self._clock  # first / latest candidate, latest accepted
        stamp = 0.0
        parts = []
        while True:
            expected = rate_max * (horizon - (clock - start)) * 1.05
            gaps, uniforms = _thinning_draws(
                rng, 1.0 / rate_max, int(min(max(expected, 0.0), _THINNING_BLOCK)) + 64
            )
            gaps[0] += clock
            cand = np.add.accumulate(gaps, out=gaps)
            lam = np.broadcast_to(np.asarray(self.rate_fn(cand), dtype=float), cand.shape)
            taken = np.flatnonzero(uniforms * rate_max <= lam)
            stamps = np.diff(cand[taken], prepend=last)  # each accepted candidate's gap
            if stamps.size:
                stamps[0] += stamp
                np.add.accumulate(stamps, out=stamps)
            over = np.flatnonzero(stamps > horizon)
            stop = taken[over[0]] if over.size else cand.size  # the loop's last candidate
            bad = np.flatnonzero((lam[: stop + 1] < 0.0) | (lam[: stop + 1] > bound))
            if bad.size:
                i = bad[0]
                raise ModelValidationError(
                    f"rate_fn({float(cand[i]):.6g}) = {float(lam[i]):.6g} outside "
                    f"[0, rate_max={rate_max:.6g}]"
                )
            if over.size:
                self._clock = float(cand[stop])
                parts.append(stamps[: over[0]])
                return np.concatenate(parts)
            parts.append(stamps)
            clock = float(cand[-1])
            if stamps.size:
                last, stamp = float(cand[taken[-1]]), float(stamps[-1])

    def fresh(self) -> "NonHomogeneousPoisson":
        return NonHomogeneousPoisson(self.rate_fn, self.rate_max, self._mean_rate)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NonHomogeneousPoisson(rate_max={self.rate_max:.6g})"


#: Most thinning candidates :meth:`NonHomogeneousPoisson.arrival_times`
#: draws at once (two float64 arrays of this length, 0.5 MB each).
_THINNING_BLOCK = 1 << 16


def _thinning_draws(rng: np.random.Generator, scale: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` thinning candidates' ``(exponential(scale), random())``
    pairs, as that many alternating scalar calls draw them.

    The compiled kernel draws them with the C functions those methods
    run, when it loads without compiling; otherwise (same bits) the
    methods are called here.
    """
    from repro.simulation import compiled

    lib = compiled.loaded_kernel()
    if lib is None:
        exponential, uniform = rng.exponential, rng.random
        pairs = np.array([(exponential(scale), uniform()) for _ in range(n)]).reshape(n, 2)
        return pairs[:, 0].copy(), pairs[:, 1].copy()
    gaps, uniforms = np.empty(n), np.empty(n)
    bitgen = rng.bit_generator
    with bitgen.lock:
        lib.k_thinning_draws(
            bitgen.ctypes.bit_generator, scale, n, gaps.ctypes.data, uniforms.ctypes.data
        )
    return gaps, uniforms


class BatchPoissonProcess(ArrivalProcess):
    """Poisson arrival *epochs* carrying geometric batch sizes.

    Epochs occur at rate ``epoch_rate``; each epoch delivers
    ``Geometric(p)`` jobs (support 1, 2, ...; mean ``1/p``), so the job
    rate is ``epoch_rate / p``.
    """

    def __init__(self, epoch_rate: float, p: float):
        if epoch_rate <= 0.0 or not np.isfinite(epoch_rate):
            raise ModelValidationError(f"epoch rate must be positive and finite, got {epoch_rate}")
        if not 0.0 < p <= 1.0:
            raise ModelValidationError(f"geometric parameter must be in (0, 1], got {p}")
        self.epoch_rate = float(epoch_rate)
        self.p = float(p)

    @property
    def rate(self) -> float:
        return self.epoch_rate / self.p

    def next_arrival(self, rng: np.random.Generator) -> tuple[float, int]:
        return rng.exponential(1.0 / self.epoch_rate), int(rng.geometric(self.p))

    def fresh(self) -> "BatchPoissonProcess":
        return BatchPoissonProcess(self.epoch_rate, self.p)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchPoissonProcess(epoch_rate={self.epoch_rate:.6g}, p={self.p:.6g})"


class RenewalProcess(ArrivalProcess):
    """Renewal arrivals: i.i.d. interarrival times from any
    :class:`repro.distributions.Distribution`.

    Generalizes Poisson (exponential gaps) to arbitrary gap shapes —
    Erlang gaps are *smoother* than Poisson (SCV < 1), hyperexponential
    gaps *burstier* (SCV > 1) — the G in G/M/1 and the natural partner
    of the :class:`repro.queueing.GM1` analysis.
    """

    def __init__(self, interarrival):
        from repro.distributions.base import Distribution

        if not isinstance(interarrival, Distribution):
            raise ModelValidationError(
                f"interarrival must be a Distribution, got {type(interarrival).__name__}"
            )
        if interarrival.mean <= 0.0:
            raise ModelValidationError("interarrival mean must be positive")
        self.interarrival = interarrival

    @property
    def rate(self) -> float:
        return 1.0 / self.interarrival.mean

    def next_arrival(self, rng: np.random.Generator) -> tuple[float, int]:
        return float(self.interarrival.sample(rng)), 1

    def fresh(self) -> "RenewalProcess":
        return RenewalProcess(self.interarrival)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RenewalProcess({self.interarrival!r})"
