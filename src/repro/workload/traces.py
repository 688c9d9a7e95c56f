"""Arrival traces: record, persist, replay.

The paper evaluates against synthetic Poisson workloads; production
adopters replay *traces*. This module provides:

* :class:`ArrivalTrace` — an immutable, per-class sequence of arrival
  timestamps with CSV persistence.
* :func:`generate_trace` — synthesize a trace from any
  :class:`repro.workload.ArrivalProcess` mix (Poisson, MMPP, batch),
  so recorded and synthetic workloads share one format.
* :class:`TraceArrivalProcess` — replays one class's timestamps inside
  the simulator, making trace-driven simulation a drop-in for the
  stochastic arrival processes.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence

import numpy as np

from repro.exceptions import ModelValidationError
from repro.workload.arrivals import ArrivalProcess

__all__ = ["ArrivalTrace", "TraceArrivalProcess", "generate_trace"]


class ArrivalTrace:
    """Per-class arrival timestamps over a recording horizon.

    Parameters
    ----------
    arrivals:
        One sorted, non-negative timestamp array per class.
    horizon:
        Length of the recording window; must cover every timestamp.
    class_names:
        Optional labels (defaults to ``class1..classK``).
    """

    def __init__(
        self,
        arrivals: Sequence[np.ndarray],
        horizon: float,
        class_names: Sequence[str] | None = None,
    ):
        if len(arrivals) == 0:
            raise ModelValidationError("trace needs at least one class")
        if horizon <= 0.0 or not np.isfinite(horizon):
            raise ModelValidationError(f"horizon must be positive and finite, got {horizon}")
        cleaned = []
        for k, ts in enumerate(arrivals):
            arr = np.asarray(ts, dtype=float)
            if arr.ndim != 1:
                raise ModelValidationError(f"class {k}: timestamps must be 1-D")
            if arr.size and (np.any(arr < 0.0) or np.any(arr > horizon)):
                raise ModelValidationError(
                    f"class {k}: timestamps must lie in [0, {horizon}]"
                )
            if np.any(np.diff(arr) < 0.0):
                raise ModelValidationError(f"class {k}: timestamps must be sorted")
            cleaned.append(arr)
        self.arrivals = cleaned
        self.horizon = float(horizon)
        if class_names is None:
            class_names = [f"class{k + 1}" for k in range(len(cleaned))]
        if len(class_names) != len(cleaned):
            raise ModelValidationError(
                f"got {len(cleaned)} classes but {len(class_names)} names"
            )
        self.class_names = list(class_names)

    @property
    def num_classes(self) -> int:
        """Number of traced classes."""
        return len(self.arrivals)

    def rates(self) -> np.ndarray:
        """Empirical per-class arrival rates over the horizon."""
        return np.array([ts.size / self.horizon for ts in self.arrivals])

    def windowed_rates(self, window: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-class arrival rates in consecutive windows.

        Returns ``(window_starts, rates)`` with ``rates`` of shape
        ``(num_windows, num_classes)`` — what a forecasting controller
        consumes.
        """
        if window <= 0.0 or window > self.horizon:
            raise ModelValidationError(
                f"window must be in (0, {self.horizon}], got {window}"
            )
        edges = np.arange(0.0, self.horizon + 1e-12, window)
        if edges[-1] < self.horizon:
            edges = np.append(edges, self.horizon)
        starts = edges[:-1]
        rates = np.empty((starts.size, self.num_classes))
        for k, ts in enumerate(self.arrivals):
            counts, _ = np.histogram(ts, bins=edges)
            rates[:, k] = counts / np.diff(edges)
        return starts, rates

    # -- persistence --------------------------------------------------------
    def to_csv(self) -> str:
        """Serialize as ``class,timestamp`` rows (header carries the
        horizon)."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["# horizon", self.horizon])
        writer.writerow(["class", "timestamp"])
        for name, ts in zip(self.class_names, self.arrivals):
            for t in ts:
                writer.writerow([name, repr(float(t))])
        return buf.getvalue()

    def save_csv(self, path: str) -> None:
        """Write :meth:`to_csv` to ``path``."""
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(cls, text: str) -> "ArrivalTrace":
        """Parse a trace produced by :meth:`to_csv`."""
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
            if header[0] != "# horizon":
                raise ModelValidationError("missing horizon header")
            horizon = float(header[1])
            columns = next(reader)
            if columns != ["class", "timestamp"]:
                raise ModelValidationError(f"unexpected column header {columns}")
        except (StopIteration, IndexError, ValueError) as exc:
            raise ModelValidationError(f"malformed trace CSV: {exc}") from exc
        by_class: dict[str, list[float]] = {}
        order: list[str] = []
        for row in reader:
            if not row:
                continue
            name, t = row[0], float(row[1])
            if name not in by_class:
                by_class[name] = []
                order.append(name)
            by_class[name].append(t)
        if not order:
            raise ModelValidationError("trace CSV contains no arrivals")
        arrivals = [np.sort(np.asarray(by_class[name])) for name in order]
        return cls(arrivals, horizon=horizon, class_names=order)

    @classmethod
    def load_csv(cls, path: str) -> "ArrivalTrace":
        """Read a trace written by :meth:`save_csv`."""
        with open(path) as fh:
            return cls.from_csv(fh.read())


class TraceArrivalProcess(ArrivalProcess):
    """Replays one class's recorded timestamps.

    After the trace is exhausted the process goes silent (returns an
    infinite gap), so a simulation horizon at or below the trace
    horizon sees exactly the recorded arrivals.
    """

    def __init__(self, timestamps: np.ndarray, horizon: float):
        ts = np.asarray(timestamps, dtype=float)
        if ts.ndim != 1:
            raise ModelValidationError("timestamps must be 1-D")
        if np.any(np.diff(ts) < 0.0):
            raise ModelValidationError("timestamps must be sorted")
        if horizon <= 0.0:
            raise ModelValidationError(f"horizon must be positive, got {horizon}")
        self.timestamps = ts
        self.horizon = float(horizon)
        self._cursor = 0
        self._clock = 0.0

    @property
    def rate(self) -> float:
        return self.timestamps.size / self.horizon

    def next_arrival(self, rng: np.random.Generator) -> tuple[float, int]:
        if self._cursor >= self.timestamps.size:
            return float("inf"), 1  # silent forever
        t = self.timestamps[self._cursor]
        self._cursor += 1
        gap = t - self._clock
        self._clock = t
        return float(max(gap, 0.0)), 1

    def fresh(self) -> "TraceArrivalProcess":
        return TraceArrivalProcess(self.timestamps, self.horizon)

    @classmethod
    def from_trace(cls, trace: ArrivalTrace) -> list["TraceArrivalProcess"]:
        """One replay process per traced class (simulator-ready list)."""
        return [cls(ts, trace.horizon) for ts in trace.arrivals]


def generate_trace(
    processes: Sequence[ArrivalProcess],
    horizon: float,
    seed: int = 0,
    class_names: Sequence[str] | None = None,
) -> ArrivalTrace:
    """Synthesize a trace by running arrival processes to a horizon:
    class ``k`` is ``processes[k].fresh().arrival_times(rng, horizon)``
    on the ``k``-th stream spawned from ``seed``."""
    if len(processes) == 0:
        raise ModelValidationError("need at least one arrival process")
    if horizon <= 0.0 or not np.isfinite(horizon):
        raise ModelValidationError(f"horizon must be positive and finite, got {horizon}")
    rng_master = np.random.SeedSequence(seed).spawn(len(processes))
    arrivals = [
        proc.fresh().arrival_times(np.random.default_rng(seq), horizon)
        for proc, seq in zip(processes, rng_master)
    ]
    return ArrivalTrace(arrivals, horizon=horizon, class_names=class_names)
