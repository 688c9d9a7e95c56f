"""A simulated multi-server station with FCFS or priority scheduling.

The station owns its waiting queues and server slots; the engine owns
the clock and the event heap. The station keeps **one** live heap entry
— its next completion — instead of one entry per in-service job:
server bookkeeping lives in parallel lists (job, busy-since,
completion-time, start-sequence per slot) and any state change that
moves the station's earliest completion re-arms the single entry by
bumping ``sched_epoch``, so the stale entry is ignored when popped —
O(1) cancellation without touching the heap, and a heap whose size is
bounded by the number of *stations*, not the number of busy servers.

Within a station, simultaneous completions (possible with
deterministic service) are resolved by ``srv_seq`` — the order the
services *started* — which reproduces the push-order tie-break of the
one-entry-per-job engine this replaced, keeping seeded runs
bit-identical.

Scheduling semantics:

* ``fcfs``        — single queue, arrival order across classes.
* ``priority_np`` — one queue per class; a freed server takes the head
  of the highest non-empty class; jobs in service are never disturbed.
* ``priority_pr`` — as above, plus an arrival that finds all servers
  busy preempts the lowest-priority running job if strictly lower than
  itself; the victim resumes later with its remaining service time
  (preemptive-resume).
* ``loss``        — no waiting room (M/G/c/c): an arrival finding every
  server busy is rejected outright (``arrive`` returns ``False``) and
  leaves the system — blocked calls cleared.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from heapq import heappush

from repro.exceptions import SimulationError
from repro.simulation.job import Job

__all__ = ["SimStation", "COMPLETION"]

#: Event-kind tag of the completion entries stations push onto the
#: engine's heap: ``(time, seq, COMPLETION, station_index, epoch)``.
COMPLETION = 1

_INF = float("inf")


class SimStation:
    """Simulation state of one tier.

    Parameters
    ----------
    index:
        Station index (used in completion events).
    num_classes:
        Number of customer classes.
    servers:
        Number of parallel servers.
    discipline:
        ``"fcfs"``, ``"priority_np"``, ``"priority_pr"`` or ``"loss"``.
    samplers:
        Per-class callables returning a fresh service time (a Python
        ``float``).
    heap:
        The engine's event heap; the station pushes its next-completion
        entries ``(time, seq, COMPLETION, index, epoch)`` directly
        (inlining the push shaves one Python call off every re-arm).
    next_seq:
        Shared push counter for the heap's equal-time tie-break.
    """

    __slots__ = (
        "index",
        "discipline",
        "samplers",
        "heap",
        "next_seq",
        "capacity",
        "srv_job",
        "srv_busy_since",
        "srv_completion",
        "srv_seq",
        "n_servers",
        "n_busy",
        "_start_counter",
        "sched_epoch",
        "sched_time",
        "fifo",
        "queues",
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
        discipline: str,
        samplers: list[Callable[[], float]],
        heap: list,
        next_seq: Callable[[], int],
        capacity: int | None = None,
    ):
        self.index = index
        self.discipline = discipline
        self.samplers = samplers
        self.heap = heap
        self.next_seq = next_seq
        self.capacity = capacity
        # Array-backed server slots (parallel lists, indexed by server).
        self.srv_job: list[Job | None] = [None] * servers
        self.srv_busy_since: list[float] = [0.0] * servers
        self.srv_completion: list[float] = [0.0] * servers
        self.srv_seq: list[int] = [0] * servers
        self.n_servers = servers
        self.n_busy = 0
        self._start_counter = 0
        # The single live next-completion entry: (sched_time, sched_epoch).
        self.sched_epoch = 0
        self.sched_time = _INF
        if discipline == "fcfs":
            self.fifo: deque[Job] = deque()
            self.queues: list[deque[Job]] = []
        else:
            self.fifo = deque()
            self.queues = [deque() for _ in range(num_classes)]
        # Windowed busy-time accumulation (set_window narrows it to the
        # post-warmup measurement window before the run starts).
        self.t0 = 0.0
        self.t1 = _INF
        self.busy_total = 0.0
        self.class_busy_totals = [0.0] * num_classes

    def set_window(self, t0: float, t1: float) -> None:
        """Clip busy-time accounting to ``[t0, t1]`` (the post-warmup
        measurement window)."""
        if t1 <= t0:
            raise SimulationError(f"measurement window must have t1 > t0, got [{t0}, {t1}]")
        self.t0 = t0
        self.t1 = t1

    # ------------------------------------------------------------------
    def arrive(self, t: float, job: Job) -> bool:
        """A job arrives at the station.

        Returns ``False`` iff the station is a loss system and rejected
        the job (every other outcome accepts it).
        """
        job.station_arrival = t
        job.remaining = None
        if self.capacity is not None and self._in_system() >= self.capacity:
            return False  # finite buffer full
        if self.n_busy < self.n_servers:
            # Inlined _start on the lowest-index idle server (the
            # arriving job's remaining is always None here, so the
            # service sample is drawn unconditionally).
            idx = self.srv_job.index(None)
            r = self.samplers[job.cls]()
            job.remaining = r
            job.service_total = r
            self.srv_job[idx] = job
            self.srv_busy_since[idx] = t
            c = t + r
            self.srv_completion[idx] = c
            self._start_counter += 1
            self.srv_seq[idx] = self._start_counter
            self.n_busy += 1
            if c < self.sched_time:
                epoch = self.sched_epoch + 1
                self.sched_epoch = epoch
                self.sched_time = c
                heappush(self.heap, (c, self.next_seq(), COMPLETION, self.index, epoch))
            return True
        if self.discipline == "loss":
            return False  # blocked call cleared
        if self.discipline == "priority_pr":
            victim_idx = self._preemption_victim(job.cls)
            if victim_idx is not None:
                self._preempt(t, victim_idx)
                self._start(t, job, victim_idx)
                # Preemption may have cancelled the completion the live
                # entry pointed at — always re-arm from scratch.
                self._resync()
                return True
        if self.discipline == "fcfs":
            self.fifo.append(job)
        else:
            self.queues[job.cls].append(job)
        return True

    def complete(self, t: float, epoch: int) -> Job | None:
        """Handle the station's next-completion event; returns the
        finished job, or ``None`` if the event was stale (re-armed by a
        preemption or an earlier-finishing start since it was pushed)."""
        if epoch != self.sched_epoch:
            return None  # cancelled
        # One pass finds the completing server — earliest completion,
        # ties broken by start order (matching the old per-job heap's
        # push-order ties) — and the runner-up time, which becomes the
        # re-armed entry without a second scan.
        srv_job = self.srv_job
        srv_completion = self.srv_completion
        srv_seq = self.srv_seq
        idx = -1
        best_t = _INF
        best_seq = 0
        runner_up = _INF
        for i, j in enumerate(srv_job):
            if j is not None:
                ci = srv_completion[i]
                if idx < 0:
                    idx = i
                    best_t = ci
                    best_seq = srv_seq[i]
                elif ci < best_t or (ci == best_t and srv_seq[i] < best_seq):
                    if best_t < runner_up:
                        runner_up = best_t
                    idx = i
                    best_t = ci
                    best_seq = srv_seq[i]
                elif ci < runner_up:
                    runner_up = ci
        if idx < 0:  # pragma: no cover - engine invariant
            raise SimulationError(f"completion with no busy server at station {self.index}")
        job = srv_job[idx]
        # Inlined _record_busy (same clip-then-add arithmetic).
        a = self.srv_busy_since[idx]
        lo = a if a > self.t0 else self.t0
        hi = t if t < self.t1 else self.t1
        if hi > lo:
            d = hi - lo
            self.busy_total += d
            self.class_busy_totals[job.cls] += d
        srv_job[idx] = None
        self.n_busy -= 1
        # Inlined dispatch of the next queued job onto the freed server.
        nxt = None
        if self.discipline == "fcfs":
            if self.fifo:
                nxt = self.fifo.popleft()
        else:
            for q in self.queues:  # highest priority first
                if q:
                    nxt = q.popleft()
                    break
        new_min = runner_up
        if nxt is not None:
            r = nxt.remaining
            if r is None:
                r = self.samplers[nxt.cls]()
                nxt.remaining = r
                nxt.service_total = r
            srv_job[idx] = nxt
            self.srv_busy_since[idx] = t
            c = t + r
            srv_completion[idx] = c
            self._start_counter += 1
            srv_seq[idx] = self._start_counter
            self.n_busy += 1
            if c < new_min:
                new_min = c
        epoch = self.sched_epoch + 1
        self.sched_epoch = epoch
        self.sched_time = new_min
        if new_min != _INF:
            heappush(self.heap, (new_min, self.next_seq(), COMPLETION, self.index, epoch))
        return job

    # ------------------------------------------------------------------
    # observation / control hooks (epoch controllers)
    # ------------------------------------------------------------------
    def class_counts(self) -> list[int]:
        """Per-class jobs in the station (in service + waiting).

        The queue-length observation an online controller feeds on;
        called at epoch boundaries only, never in the event hot path.
        """
        counts = [0] * len(self.class_busy_totals)
        for j in self.srv_job:
            if j is not None:
                counts[j.cls] += 1
        for j in self.fifo:
            counts[j.cls] += 1
        for q in self.queues:
            for j in q:
                counts[j.cls] += 1
        return counts

    def rescale_remaining(self, t: float, ratio: float) -> None:
        """Apply a DVFS speed change at time ``t`` to in-service jobs.

        ``ratio = old_speed / new_speed``: the work remaining on each
        busy server is invariant, so its remaining *time* scales by the
        ratio. ``service_total`` is adjusted by the same delta so it
        keeps measuring the actual time the job spends in service.
        Re-arms the next-completion entry (the old one goes stale).
        """
        if ratio == 1.0:
            return
        if ratio <= 0.0:
            raise SimulationError(f"speed rescale ratio must be positive, got {ratio}")
        changed = False
        for i, j in enumerate(self.srv_job):
            if j is not None:
                rem = self.srv_completion[i] - t
                if rem > 0.0:
                    new_rem = rem * ratio
                    self.srv_completion[i] = t + new_rem
                    j.service_total += new_rem - rem
                    changed = True
        if changed:
            self._resync()

    def _in_system(self) -> int:
        """Jobs in service plus waiting (the finite-buffer occupancy)."""
        return self.n_busy + len(self.fifo) + sum(len(q) for q in self.queues)

    def _preemption_victim(self, arriving_cls: int) -> int | None:
        """Server running the lowest-priority job strictly below the
        arriving class, or None."""
        worst_idx, worst_cls = None, arriving_cls
        for i, j in enumerate(self.srv_job):
            if j is not None and j.cls > worst_cls:
                worst_idx, worst_cls = i, j.cls
        return worst_idx

    def _preempt(self, t: float, server_idx: int) -> None:
        victim = self.srv_job[server_idx]
        assert victim is not None
        self._record_busy(victim.cls, self.srv_busy_since[server_idx], t)
        victim.remaining = max(self.srv_completion[server_idx] - t, 0.0)
        self.srv_job[server_idx] = None
        self.n_busy -= 1
        # The victim resumes ahead of queued same-class jobs (it arrived
        # earlier than all of them, by FCFS-within-class).
        self.queues[victim.cls].appendleft(victim)

    def _start(self, t: float, job: Job, server_idx: int) -> None:
        r = job.remaining
        if r is None:
            r = self.samplers[job.cls]()
            job.remaining = r
            job.service_total = r
        self.srv_job[server_idx] = job
        self.srv_busy_since[server_idx] = t
        self.srv_completion[server_idx] = t + r
        self._start_counter += 1
        self.srv_seq[server_idx] = self._start_counter
        self.n_busy += 1

    def _resync(self) -> None:
        """Re-arm the next-completion entry from current server state."""
        self.sched_epoch += 1
        best = _INF
        srv_completion = self.srv_completion
        for i, j in enumerate(self.srv_job):
            if j is not None and srv_completion[i] < best:
                best = srv_completion[i]
        self.sched_time = best
        if best != _INF:
            heappush(self.heap, (best, self.next_seq(), COMPLETION, self.index, self.sched_epoch))

    def _record_busy(self, cls: int, a: float, b: float) -> None:
        # Clipped to the measurement window, so warmup work never counts.
        lo = a if a > self.t0 else self.t0
        hi = b if b < self.t1 else self.t1
        if hi > lo:
            d = hi - lo
            self.busy_total += d
            self.class_busy_totals[cls] += d

    def close_open_intervals(self, t: float) -> None:
        """At the end of the run, account for servers still busy."""
        for i, j in enumerate(self.srv_job):
            if j is not None:
                self._record_busy(j.cls, self.srv_busy_since[i], t)
                self.srv_busy_since[i] = t  # idempotent if called twice
