"""One worker pool for independent tasks.

The replication manager (:mod:`repro.simulation.replications`) runs
blocks of statistically independent replications,
:func:`repro.optimize.sweep.run_series` runs several independent
analytic series, and :func:`repro.simulation.fleet.run_fleet` runs
chunks of fleet units. Each call is a pure function of its payload (a
block's replication seeds, a series' arguments, a chunk's scenario and
unit indices), so the calls can execute in-process or across a process
pool without changing the numbers. :class:`WorkerPool` owns that
choice: one worker runs inline, more fan out over one
:class:`concurrent.futures.ProcessPoolExecutor`.

The pool holds no configuration: each payload names the simulation
engine its parent resolved, and a task warms what it uses before its
timed window.

Each result is handed to the caller's ``on_done`` once, as it
finishes; callers key results by replication number, series name or
chunk, so aggregation downstream is bit-identical regardless of worker
count or completion order. Per-replication wall time is measured
inside the worker and travels back with the result.

A pool supports **incremental dispatch**: the adaptive engine
(:mod:`repro.simulation.adaptive`) submits one *round* of payloads,
collects it, decides whether the precision target is met, and submits
the next round, all against one live executor instead of paying
process start-up per round.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable

from repro.exceptions import ModelValidationError

__all__ = [
    "ReplicationTiming",
    "WorkerPool",
    "resolve_n_jobs",
    "payload_is_picklable",
]


@dataclass
class ReplicationTiming:
    """Observability record for one replication.

    ``events_per_sec`` is the simulator's event-loop throughput
    (``meta["n_events"] / wall_time_s``); ``cached`` marks results that
    were loaded from the on-disk cache instead of being simulated.
    """

    index: int
    wall_time_s: float
    n_events: int
    cached: bool = False

    @property
    def events_per_sec(self) -> float:
        """Event-loop throughput of this replication (0 when cached)."""
        if self.wall_time_s <= 0.0 or self.cached:
            return 0.0
        return self.n_events / self.wall_time_s

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view for ``ReplicatedResult.meta``."""
        return {
            "index": self.index,
            "wall_time_s": self.wall_time_s,
            "n_events": self.n_events,
            "events_per_sec": self.events_per_sec,
            "cached": self.cached,
        }


def payload_is_picklable(payload: Any) -> bool:
    """Whether a replication payload can cross a process boundary.

    Custom arrival processes built on closures (e.g.
    :class:`repro.workload.arrivals.NonHomogeneousPoisson` with a
    lambda rate function) cannot be pickled; callers run those on a
    one-worker (inline) pool instead of crashing.
    """
    try:
        pickle.dumps(payload)
        return True
    except Exception:
        return False


class WorkerPool:
    """Run independent tasks in-process or over one warm process pool.

    Context manager; :meth:`run` may be called any number of times. With
    one worker every call runs inline. With more, the first non-empty
    call starts a :class:`ProcessPoolExecutor` and every later call
    reuses it, so a multi-round adaptive run pays worker start-up once.
    An exception
    leaving the ``with`` block cancels the payloads still queued instead
    of running them first. A worker that dies fails every queued
    payload of its call with :class:`BrokenExecutor`; the pool drops
    that executor, so the next call starts a fresh one.
    """

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ModelValidationError(f"need at least one worker, got {n_workers}")
        self.n_workers = n_workers
        self._executor: ProcessPoolExecutor | None = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type=None, *exc) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=exc_type is not None)
            self._executor = None

    def run(
        self,
        fn: Callable[[Any], Any],
        payloads: list[Any],
        on_done: Callable[[Any], None],
    ) -> None:
        """Call ``on_done(fn(p))`` once for every payload.

        Values arrive as they finish (payload order inline, completion
        order otherwise), and the pool keeps none of them, so a caller
        that stores each value as it comes holds one at a time. A pool
        submits a payload only when a worker is about to be free, so a
        call's bookkeeping does not grow with its payload count. Blocks
        until the whole round finishes: the adaptive stopping decision
        needs the round's results before choosing whether to submit
        another. ``fn`` must be module-level so the pool can pickle it.
        """
        if self.n_workers == 1:
            for payload in payloads:
                on_done(fn(payload))
            return
        if not payloads:
            return
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.n_workers)
        submit = self._executor.submit
        queue = iter(payloads)
        try:
            # Two payloads per worker keep each worker fed while the
            # parent handles the result it just returned.
            running = {submit(fn, p) for p in islice(queue, 2 * self.n_workers)}
            while running:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                running.update(submit(fn, p) for p in islice(queue, len(done)))
                for fut in done:
                    on_done(fut.result())
        except BrokenExecutor:
            self.__exit__(BrokenExecutor)  # the next call starts a fresh executor
            raise


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` request into a concrete worker count.

    ``None`` and ``1`` mean serial; ``-1`` (or ``0``) means "all
    cores"; anything else is taken literally.
    """
    if n_jobs is None:
        return 1
    if int(n_jobs) != n_jobs:
        raise ModelValidationError(f"n_jobs must be an integer, got {n_jobs}")
    n_jobs = int(n_jobs)
    if n_jobs in (0, -1):
        return os.cpu_count() or 1
    if n_jobs < -1:
        raise ModelValidationError(f"n_jobs must be >= -1, got {n_jobs}")
    return n_jobs
