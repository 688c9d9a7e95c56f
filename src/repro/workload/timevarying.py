"""Time-varying workload profiles for the online-control experiments.

The paper's optimizers see one stationary rate vector; an online
controller earns its keep when the rates move. This module builds the
three canonical non-stationary shapes as rate profiles and turns them
into :class:`~repro.workload.traces.ArrivalTrace` instances the
trace-driven control harness replays:

* **diurnal** — a sinusoidal day (trough at dawn, peak in the
  afternoon), the planner-friendly case: tomorrow looks like today.
* **flash crowd** — a diurnal baseline with a rectangular surge
  multiplying every class's rate for a short window; invisible to any
  forecast trained on surge-free history.
* **bursty** — a two-state MMPP whose long-run rates match the
  nominal vector but whose arrivals clump; stresses queue-reactive
  control without moving the mean.

Profiles are plain ``t -> factor`` callables applied to a base rate
vector, so the same shape drives both trace synthesis (via
Lewis–Shedler thinning) and oracle/forecast rate grids (via
:func:`profile_rates`). Both call a profile on arrays of times, so a
profile must work elementwise on float64 arrays, giving each element
the bits it gives that time alone; a scalar result broadcasts. The
profiles built here are NumPy ufunc expressions and ``np.where``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.exceptions import ModelValidationError
from repro.workload.arrivals import MMPP2, NonHomogeneousPoisson
from repro.workload.traces import ArrivalTrace, generate_trace

__all__ = [
    "diurnal_profile",
    "flash_crowd_profile",
    "profile_rates",
    "profile_processes",
    "diurnal_trace",
    "flash_crowd_trace",
    "bursty_trace",
]


def diurnal_profile(
    period: float = 24.0,
    trough: float = 0.25,
    peak: float = 1.6,
    peak_time: float | None = None,
) -> Callable[[float], float]:
    """Sinusoidal load factor cycling between ``trough`` and ``peak``.

    The factor multiplies a base rate vector; the maximum lands at
    ``peak_time`` (defaults to 2/3 through the period, the canonical
    afternoon peak of F8's day).
    """
    if period <= 0.0 or not np.isfinite(period):
        raise ModelValidationError(f"period must be positive and finite, got {period}")
    if not 0.0 < trough <= peak:
        raise ModelValidationError(
            f"need 0 < trough <= peak, got trough={trough}, peak={peak}"
        )
    t_peak = 2.0 * period / 3.0 if peak_time is None else float(peak_time)
    mid = (peak + trough) / 2.0
    amp = (peak - trough) / 2.0
    two_pi = 2.0 * np.pi

    def factor(t):
        return mid + amp * np.cos(two_pi * (t - t_peak) / period)

    return factor


def flash_crowd_profile(
    base_profile: Callable[[float], float],
    surge_start: float,
    surge_duration: float,
    surge_factor: float,
) -> Callable[[float], float]:
    """Multiply ``base_profile`` by ``surge_factor`` inside the surge
    window ``[surge_start, surge_start + surge_duration)``."""
    if surge_duration <= 0.0:
        raise ModelValidationError(f"surge duration must be positive, got {surge_duration}")
    if surge_factor < 1.0:
        raise ModelValidationError(f"surge factor must be >= 1, got {surge_factor}")
    surge_end = surge_start + surge_duration

    def factor(t):
        f = base_profile(t)
        return np.where((surge_start <= t) & (t < surge_end), f * surge_factor, f)

    return factor


def profile_rates(
    profile: Callable[[float], float],
    base_rates: Sequence[float],
    epoch_starts: Sequence[float],
) -> np.ndarray:
    """Evaluate a profile on an epoch grid: the exact rate matrix a
    planning oracle sees. Shape ``(num_epochs, num_classes)``."""
    base = np.asarray(base_rates, dtype=float)
    if base.ndim != 1 or base.size == 0 or np.any(base < 0.0):
        raise ModelValidationError("base_rates must be a non-empty vector of rates >= 0")
    starts = np.asarray(epoch_starts, dtype=float)
    factors = np.broadcast_to(np.asarray(profile(starts), dtype=float), starts.shape)
    if np.any(factors < 0.0):
        raise ModelValidationError("profile produced a negative factor")
    return factors[:, None] * base[None, :]


def profile_processes(
    profile: Callable[[float], float],
    base_rates: Sequence[float],
    horizon: float,
    factor_max: float | None = None,
) -> list[NonHomogeneousPoisson]:
    """One thinned NHPP per class following ``profile * base_rate``.

    ``factor_max`` must dominate the profile over ``[0, horizon]``;
    when omitted it is bounded empirically on a dense grid (with a
    safety margin) — fine for the smooth profiles built here.
    """
    base = np.asarray(base_rates, dtype=float)
    if base.ndim != 1 or base.size == 0 or np.any(base <= 0.0):
        raise ModelValidationError("base_rates must be a non-empty vector of rates > 0")
    if horizon <= 0.0 or not np.isfinite(horizon):
        raise ModelValidationError(f"horizon must be positive and finite, got {horizon}")
    if factor_max is None:
        factor_max = float(np.max(profile(np.linspace(0.0, horizon, 4097)))) * 1.05
    if factor_max <= 0.0:
        raise ModelValidationError(f"factor_max must be positive, got {factor_max}")

    procs = []
    for r in base:
        def rate_fn(t, _r=float(r)):
            return np.minimum(_r * np.asarray(profile(t), dtype=float), _r * factor_max)

        procs.append(
            NonHomogeneousPoisson(rate_fn, rate_max=float(r) * factor_max, mean_rate=float(r))
        )
    return procs


def diurnal_trace(
    base_rates: Sequence[float],
    horizon: float,
    period: float = 24.0,
    trough: float = 0.25,
    peak: float = 1.6,
    seed: int = 0,
    class_names: Sequence[str] | None = None,
) -> ArrivalTrace:
    """Synthesize a sinusoidal-day arrival trace."""
    profile = diurnal_profile(period=period, trough=trough, peak=peak)
    procs = profile_processes(profile, base_rates, horizon, factor_max=peak * 1.001)
    return generate_trace(procs, horizon, seed=seed, class_names=class_names)


def flash_crowd_trace(
    base_rates: Sequence[float],
    horizon: float,
    surge_start: float,
    surge_duration: float,
    surge_factor: float,
    period: float = 24.0,
    trough: float = 0.25,
    peak: float = 1.6,
    seed: int = 0,
    class_names: Sequence[str] | None = None,
) -> ArrivalTrace:
    """A diurnal day with an unforecastable rectangular surge."""
    base_profile = diurnal_profile(period=period, trough=trough, peak=peak)
    profile = flash_crowd_profile(base_profile, surge_start, surge_duration, surge_factor)
    procs = profile_processes(
        profile, base_rates, horizon, factor_max=peak * surge_factor * 1.001
    )
    return generate_trace(procs, horizon, seed=seed, class_names=class_names)


def bursty_trace(
    base_rates: Sequence[float],
    horizon: float,
    burst_factor: float = 4.0,
    mean_burst: float = 1.0,
    mean_quiet: float = 4.0,
    seed: int = 0,
    class_names: Sequence[str] | None = None,
) -> ArrivalTrace:
    """MMPP-2 arrivals whose long-run per-class rates equal
    ``base_rates`` but which alternate quiet and burst phases.

    The burst state runs at ``burst_factor`` times the quiet state's
    rate; mean sojourns are ``mean_burst`` / ``mean_quiet`` time units.
    """
    base = np.asarray(base_rates, dtype=float)
    if base.ndim != 1 or base.size == 0 or np.any(base <= 0.0):
        raise ModelValidationError("base_rates must be a non-empty vector of rates > 0")
    if burst_factor <= 1.0:
        raise ModelValidationError(f"burst factor must exceed 1, got {burst_factor}")
    if mean_burst <= 0.0 or mean_quiet <= 0.0:
        raise ModelValidationError("mean sojourn times must be positive")
    r01 = 1.0 / mean_quiet  # quiet -> burst
    r10 = 1.0 / mean_burst  # burst -> quiet
    # Stationary mixture pi0*q + pi1*burst_factor*q = base rate.
    pi0 = r10 / (r01 + r10)
    pi1 = r01 / (r01 + r10)
    procs = []
    for r in base:
        quiet = float(r) / (pi0 + pi1 * burst_factor)
        procs.append(MMPP2(rate0=quiet, rate1=quiet * burst_factor, r01=r01, r10=r10))
    return generate_trace(procs, horizon, seed=seed, class_names=class_names)
