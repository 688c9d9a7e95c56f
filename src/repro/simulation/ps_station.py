"""Simulated egalitarian processor-sharing station.

All jobs present share the station's total capacity equally: with
``n`` jobs on ``c`` speed-``s`` servers, each job progresses at rate
``s · min(1, c/n)`` (service times are sampled at speed ``s`` already,
so the internal rate is ``min(1, c/n)``).

Event handling is exact, not quantum-based: the station keeps each
job's remaining service time, elapses all of them lazily on every
event, and schedules only the *next* completion. Any arrival or
completion changes every job's finish time, so the previously
scheduled completion is cancelled by bumping the station's epoch —
the same O(1) cancellation trick the priority station uses for
re-arming its next-completion entry.
"""

from __future__ import annotations

from collections.abc import Callable
from heapq import heappush

from repro.exceptions import SimulationError
from repro.simulation.job import Job
from repro.simulation.station import COMPLETION

__all__ = ["PSStation"]


class PSStation:
    """Processor-sharing counterpart of
    :class:`repro.simulation.station.SimStation` (same engine-facing
    interface: ``arrive``, ``complete``, ``set_window``,
    ``close_open_intervals``)."""

    __slots__ = (
        "index",
        "capacity",
        "samplers",
        "heap",
        "next_seq",
        "jobs",
        "sched_epoch",
        "last_t",
        "t0",
        "t1",
        "busy_total",
        "class_busy_totals",
    )

    def __init__(
        self,
        index: int,
        num_classes: int,
        servers: int,
        samplers: list[Callable[[], float]],
        heap: list,
        next_seq: Callable[[], int],
    ):
        self.index = index
        self.capacity = servers
        self.samplers = samplers
        self.heap = heap
        self.next_seq = next_seq
        self.jobs: list[Job] = []
        self.sched_epoch = 0
        self.last_t = 0.0
        # Windowed busy-time accumulation (see SimStation.set_window).
        self.t0 = 0.0
        self.t1 = float("inf")
        self.busy_total = 0.0
        self.class_busy_totals = [0.0] * num_classes

    def set_window(self, t0: float, t1: float) -> None:
        """Clip busy-time accounting to ``[t0, t1]``."""
        if t1 <= t0:
            raise SimulationError(f"measurement window must have t1 > t0, got [{t0}, {t1}]")
        self.t0 = t0
        self.t1 = t1

    # -- engine interface -------------------------------------------------
    def arrive(self, t: float, job: Job) -> bool:
        """A job joins the sharing pool (PS never rejects)."""
        self._elapse(t)
        job.station_arrival = t
        job.remaining = self.samplers[job.cls]()
        job.service_total = job.remaining
        self.jobs.append(job)
        self._reschedule(t)
        return True

    def complete(self, t: float, epoch: int) -> Job | None:
        """Handle the scheduled next-completion event (stale events,
        cancelled by later arrivals, return ``None``)."""
        if epoch != self.sched_epoch:
            return None
        self._elapse(t)
        if not self.jobs:  # pragma: no cover - engine invariant
            raise SimulationError(f"PS completion with no jobs at station {self.index}")
        jobs = self.jobs
        idx = min(range(len(jobs)), key=lambda i: jobs[i].remaining)
        job = jobs.pop(idx)
        self._reschedule(t)
        return job

    def close_open_intervals(self, t: float) -> None:
        """Account busy time of jobs still in the pool at the horizon."""
        self._elapse(t)

    # -- internals ---------------------------------------------------------
    def _rate(self) -> float:
        """Per-job progress rate: min(1, c/n)."""
        n = len(self.jobs)
        return 1.0 if n <= self.capacity else self.capacity / n

    def _elapse(self, t: float) -> None:
        dt = t - self.last_t
        if dt > 0.0 and self.jobs:
            n = len(self.jobs)
            cap = self.capacity
            rate = 1.0 if n <= cap else cap / n
            # Clipped to the measurement window, so warmup work never counts.
            lo = self.last_t if self.last_t > self.t0 else self.t0
            hi = t if t < self.t1 else self.t1
            if hi > lo:
                w = hi - lo
                self.busy_total += w * (n if n < cap else cap)
                counts: dict[int, int] = {}
                for job in self.jobs:
                    counts[job.cls] = counts.get(job.cls, 0) + 1
                class_busy_totals = self.class_busy_totals
                for cls, n_k in counts.items():
                    class_busy_totals[cls] += w * (n_k * rate)
            dec = dt * rate
            for job in self.jobs:
                r = job.remaining - dec
                job.remaining = r if r > 0.0 else 0.0
        self.last_t = t

    def _reschedule(self, t: float) -> None:
        self.sched_epoch += 1
        if self.jobs:
            rate = self._rate()
            t_next = min(job.remaining for job in self.jobs) / rate
            heappush(
                self.heap,
                (t + t_next, self.next_seq(), COMPLETION, self.index, self.sched_epoch),
            )
