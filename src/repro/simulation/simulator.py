"""The discrete-event simulation engine and its result record.

One :func:`simulate` call runs a single replication of a cluster +
workload for a fixed simulated horizon, discarding a warmup prefix,
and measures exactly the quantities the analytic model predicts:
per-class end-to-end delays, per-tier waits/sojourns, tier
utilizations, average power and per-class dynamic energy. Replication
management and confidence intervals live in
:mod:`repro.simulation.replications`.

The event core is built for single-core throughput while staying
bit-identical for a given seed:

* arrival gaps (Poisson), service variates (block-safe families) and
  routing uniforms are pregenerated in NumPy chunks through
  :class:`repro.simulation.rng.BlockCursor` — per-stream draw order is
  unchanged, so seeded results and common-random-numbers comparisons
  are preserved exactly;
* each station keeps a single next-completion heap entry instead of
  one per in-service job (see :mod:`repro.simulation.station`);
* per-event statistics go into plain Python accumulators (list-of-list
  sums, per-class delay buffers flushed through
  :meth:`repro.simulation.stats.Welford.add_batch`) instead of NumPy
  fancy indexing and per-sample Welford updates.
"""

from __future__ import annotations

import heapq
import os
import sys
import time
import warnings
from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain, count
from typing import Any

import numpy as np

from repro import obs
from repro.cluster.model import ClusterModel
from repro.distributions.exponential import Exponential
from repro.distributions.hyperexponential import HyperExponential
from repro.distributions.uniform_dist import Uniform
from repro.exceptions import ModelValidationError, WarmupDiscardWarning
from repro.simulation.job import Job
from repro.simulation.ps_station import PSStation
from repro.simulation.rng import _TINY, AntitheticSeed, BlockCursor, CoupledGenerator, RngStreams
from repro.simulation.station import SimStation
from repro.simulation.stats import Welford, confidence_halfwidth
from repro.workload.arrivals import ArrivalProcess, PoissonProcess
from repro.workload.classes import Workload

__all__ = ["SimulationResult", "simulate"]

_ARRIVAL = 0
_COMPLETION = 1

#: Every module of the simulation package lives here (see :func:`_account`).
_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: Record layout of ``SimulationResult.job_log``.
_JOB_LOG_DTYPE = np.dtype(
    [("jid", np.int64), ("cls", np.int32), ("arrival", float), ("exit", float)]
)


@dataclass
class SimulationResult:
    """Measured steady-state metrics of one simulation replication.

    All quantities are measured over the post-warmup window; a request
    contributes iff it *arrived* after warmup and completed before the
    horizon.
    """

    class_names: tuple[str, ...]
    n_completed: np.ndarray
    delays: np.ndarray
    delay_std: np.ndarray
    station_waits: np.ndarray
    station_sojourns: np.ndarray
    utilizations: np.ndarray
    average_power: float
    energy_per_request: float
    per_class_dynamic_energy: np.ndarray
    horizon: float
    warmup: float
    meta: dict[str, Any] = field(default_factory=dict)
    delay_samples: list[np.ndarray] | None = None
    job_log: np.ndarray | None = None

    def delay_percentile(self, k: int, p: float) -> float:
        """Empirical ``p``-percentile of class ``k``'s end-to-end delay.

        Requires the run to have been started with
        ``collect_delay_samples=True``.
        """
        if self.delay_samples is None:
            raise ModelValidationError(
                "per-job delay samples were not collected; pass "
                "collect_delay_samples=True to simulate()"
            )
        if not 0.0 < p < 1.0:
            raise ModelValidationError(f"percentile level must be in (0, 1), got {p}")
        samples = self.delay_samples[k]
        if samples.size == 0:
            return float("nan")
        return float(np.quantile(samples, p))

    @property
    def delay_ci(self) -> np.ndarray:
        """Per-class 95% within-run Student-t half-width of the delay
        (NaN below two completions), formed from ``delay_std`` and
        ``n_completed`` when read."""
        moments = zip(self.delay_std.tolist(), self.n_completed.tolist())
        return np.array([confidence_halfwidth(std, n) for std, n in moments])

    @property
    def mean_delay(self) -> float:
        """Completion-weighted mean end-to-end delay over all classes."""
        return float(_mean_delay(self.n_completed, self.delays))


def _mean_delay(n_completed: np.ndarray, delays: np.ndarray) -> np.ndarray:
    """Completion-weighted mean of per-class delays over the last axis
    (NaN where nothing completed), for one replication or a block.  The
    weighted sum is a stacked ``matmul``, which NumPy evaluates with the
    same dot kernel for every row."""
    n = n_completed.sum(axis=-1)
    dots = np.matmul(n_completed.astype(np.float64)[..., None, :], delays[..., :, None])
    return np.divide(dots[..., 0, 0], n, out=np.full(n.shape, np.nan), where=n > 0)


def simulate(
    cluster: ClusterModel,
    workload: Workload,
    horizon: float,
    warmup_fraction: float = 0.1,
    seed: int | np.random.SeedSequence | AntitheticSeed = 0,
    arrival_processes: list[ArrivalProcess] | None = None,
    allow_unstable: bool = False,
    collect_delay_samples: bool = False,
    collect_job_log: bool = False,
    routing: list | None = None,
    epoch_times: Sequence[float] | None = None,
    epoch_controller: Callable[[float, np.ndarray, np.ndarray], np.ndarray | None] | None = None,
    backend: str | None = None,
) -> SimulationResult:
    """Run one replication of the cluster under the workload.

    Parameters
    ----------
    cluster:
        The configuration to simulate. Visit ratios must be integers
        (a class visits tier ``i`` exactly ``v_{ik}`` consecutive
        times).
    workload:
        Multi-class workload; by default each class arrives Poisson at
        its declared rate.
    horizon:
        Simulated time to run for.
    warmup_fraction:
        Fraction of the horizon discarded as warmup, in ``[0, 0.9]``.
    seed:
        Master seed (or a SeedSequence from the replication manager,
        or an :class:`~repro.simulation.rng.AntitheticSeed` naming one
        member of an antithetic pair).
    arrival_processes:
        Optional per-class overrides (e.g. :class:`MMPP2` for the
        robustness experiments). Each is ``fresh()``-ed, so a template
        can be reused across replications.
    allow_unstable:
        By default a configuration whose analytic utilization reaches 1
        is rejected (the run would never reach steady state); set True
        to simulate it anyway (e.g. to *watch* the divergence).
    collect_delay_samples:
        Keep every counted job's end-to-end delay per class (memory:
        one float per completed request) so empirical percentiles can
        be read off the result.
    collect_job_log:
        Keep a structured record per counted job — fields ``jid``,
        ``cls``, ``arrival``, ``exit`` — exposed as
        ``result.job_log`` (a NumPy structured array) for downstream
        analysis and trace export.
    routing:
        Optional per-class :class:`repro.queueing.routing.ClassRouting`
        list. Each job then walks the Markov routing chain (entry
        station drawn from the entry distribution, each hop from the
        matrix) instead of the fixed tandem itinerary. The cluster's
        visit ratios must equal the routing's expected visits (so the
        analytic model being validated describes the same system).
    epoch_times:
        Strictly increasing decision instants for ``epoch_controller``.
        Must be given together with it.
    epoch_controller:
        Online speed controller called at each epoch boundary with
        ``(t, queue_counts, speeds)`` — ``queue_counts`` is the
        ``(num_tiers, num_classes)`` matrix of jobs in system (in
        service + waiting) and ``speeds`` the current per-tier speeds.
        Returns the new per-tier speed vector (clamped to each tier's
        DVFS range) or ``None`` to keep the current speeds. Speed
        changes apply mid-run with preserved *work*: the remaining time
        of every in-service job rescales by ``old_speed / new_speed``,
        and dynamic energy is accounted per constant-speed segment.
        Per-boundary records land in ``result.meta["epoch_trace"]``, a
        structured array with one row per boundary that fired: ``t``,
        ``queues``, the applied ``speeds`` and the cumulative
        ``dynamic_energy``.
        Not supported with PS tiers. When no controller is attached the
        engine takes the exact static path (seeded runs stay
        bit-identical).
    backend:
        ``python``, ``compiled`` or ``auto`` (:func:`resolve_backend`;
        ``None`` reads ``REPRO_SIM_BACKEND``). Results are bit-identical.

    Raises
    ------
    ModelValidationError
        On class-count mismatch, non-integer visit ratios, bad horizon,
        or (unless ``allow_unstable``) a saturated tier.
    """
    _validate(
        cluster,
        workload,
        horizon,
        warmup_fraction,
        arrival_processes,
        allow_unstable,
        epoch_times,
        epoch_controller,
    )

    # Backend dispatch: ``backend`` selects the C event-loop
    # kernel (repro.simulation.compiled), which produces bit-identical
    # results for every configuration it accepts — including epoch
    # controllers (Python decisions at kernel-yielded boundaries),
    # antithetic seeds (Python-refilled variate blocks), PS tiers and
    # telemetry queue sampling — and returns None to fall back to this
    # engine otherwise (unknown tier disciplines, kernel build failure).
    backend = resolve_backend(backend)
    if backend != "python":
        from repro.simulation import compiled as _compiled

        compiled_result = _compiled.maybe_simulate_compiled(
            backend,
            cluster,
            workload,
            horizon,
            warmup_fraction,
            seed,
            arrival_processes,
            collect_delay_samples,
            collect_job_log,
            routing,
            epoch_times,
            epoch_controller,
        )
        if compiled_result is not None:
            return compiled_result
    else:
        _annotate_backend("python", "python")
    warmup = warmup_fraction * horizon
    block = _Tallies(
        1, workload.num_classes, cluster.num_tiers, collect_delay_samples, collect_job_log
    )
    _simulate_python(
        block, 0, cluster, workload, horizon, warmup, seed, arrival_processes, routing,
        epoch_times, epoch_controller,
    )
    return _finalize(cluster, workload, horizon, warmup, block).result(0)


def _simulate_python(
    block: _Tallies,
    row: int,
    cluster: ClusterModel,
    workload: Workload,
    horizon: float,
    warmup: float,
    seed,
    arrival_processes: list[ArrivalProcess] | None = None,
    routing: list | None = None,
    epoch_times: Sequence[float] | None = None,
    epoch_controller: Callable | None = None,
) -> None:
    """The pure-Python event loop, the oracle the compiled kernel is held
    to bit for bit: one replication of a validated scenario, written
    into row ``row`` of ``block`` (which also says whether delay
    samples and a job log are kept)."""
    start_ns = time.perf_counter_ns()
    k_classes = workload.num_classes
    m_stations = cluster.num_tiers
    ledger = (
        None
        if epoch_controller is None
        else _SpeedLedger(cluster, epoch_controller, epoch_times)
    )

    with obs.span("sim.setup", classes=k_classes, stations=m_stations, horizon=horizon):
        streams = RngStreams(seed)
        if routing is None:
            routes = _build_routes(cluster)
            routing_tables = None
            routing_uniforms = None
        else:
            routes = None
            routing_tables = _build_routing_tables(cluster, routing)
            # One uniform per routing decision, from each class's stream.
            routing_uniforms = [
                _draw_plan(_ROUTING_UNIFORM, streams.stream(f"routing/{k}"))
                for k in range(k_classes)
            ]

        if arrival_processes is None:
            arrival_processes = [PoissonProcess(c.arrival_rate) for c in workload.classes]
        arrival_pull = []
        for k, proc in enumerate(arrival_processes):
            plan = _draw_plan(proc, streams.stream(f"arrivals/{k}"))
            if isinstance(plan, BlockCursor):  # Poisson gaps, one job each
                plan = partial(_single, plan)
            arrival_pull.append(plan)

        heap: list[tuple[float, int, int, int, int]] = []
        # One global push counter (C-level itertools.count) keeps the
        # heap's equal-time tie-break identical to push order. Stations
        # share the heap and counter and push their next-completion
        # entries directly (no callback indirection per re-arm).
        next_seq = count(1).__next__
        heappush = heapq.heappush

        stations: list[SimStation | PSStation] = []
        for i, tier in enumerate(cluster.tiers):
            samplers = []
            for k in range(k_classes):
                rng = streams.stream(f"service/{i}/{k}")
                if ledger is not None:
                    # Under dynamic speed control samplers draw the
                    # *demand* (work at speed 1) and divide by the
                    # tier's current speed at pull time, so a mid-run
                    # speed change affects every subsequent draw.
                    samplers.append(
                        _make_dynamic_sampler(
                            _draw_plan(tier.demands[k], rng), ledger.speeds, i
                        )
                    )
                else:
                    dist = tier.demands[k].scaled(1.0 / tier.speed)
                    samplers.append(_draw_plan(dist, rng))
            if tier.discipline == "ps":
                st = PSStation(i, k_classes, tier.servers, samplers, heap, next_seq)
            else:
                st = SimStation(
                    i,
                    k_classes,
                    tier.servers,
                    tier.discipline,
                    samplers,
                    heap,
                    next_seq,
                    capacity=tier.capacity,
                )
            st.set_window(warmup, horizon)
            stations.append(st)

        # Statistics tallies. Plain Python list-of-lists beat NumPy
        # fancy indexing for single-cell updates by an order of
        # magnitude; each cell accumulates in the same order as before,
        # so the float sums are bit-identical.
        e2e = [Welford() for _ in range(k_classes)]
        delay_buf: list[list[float]] = [[] for _ in range(k_classes)]
        log_rows: list[tuple[int, int, float, float]] | None = (
            None if block.job_logs is None else []
        )
        wait_sum = [[0.0] * m_stations for _ in range(k_classes)]
        sojourn_sum = [[0.0] * m_stations for _ in range(k_classes)]
        visit_count = [[0] * m_stations for _ in range(k_classes)]
        n_blocked = [[0] * m_stations for _ in range(k_classes)]
        offered = [[0] * m_stations for _ in range(k_classes)]
        # Per-class (wait, sojourn, count) row triples: one subscript in
        # the hot loop instead of three nested ones.
        stats_rows = [
            (wait_sum[k], sojourn_sum[k], visit_count[k]) for k in range(k_classes)
        ]

        # Per-class arrival context for the fixed-itinerary mode: the
        # route, the prebound entry-station arrive and the entry-row
        # counters, resolved once instead of per arrival.
        if routes is not None:
            entry_info = [
                (routes[k], stations[routes[k][0]].arrive, offered[k], n_blocked[k], routes[k][0])
                for k in range(k_classes)
            ]
        else:
            entry_info = None

        # Seed initial arrivals.
        jid = 0
        for k in range(k_classes):
            gap, batch = arrival_pull[k]()
            heappush(heap, (gap, next_seq(), _ARRIVAL, k, batch))

    # Optional per-tier queue sampling (telemetry detail flag). The
    # disabled path costs one float comparison per event: next_sample
    # is +inf, so the branch below never fires.
    tel = obs.TELEMETRY
    sample_interval = tel.queue_sample_interval if (tel.enabled and tel.sample_queues) else 0.0
    next_sample = warmup if sample_interval > 0.0 else float("inf")

    # Epoch-boundary controller hook. Mirrors the telemetry sampler
    # above: with no controller attached, next_epoch stays +inf and the
    # hook costs one float comparison per event.
    if ledger is not None:
        epoch_schedule = np.asarray(epoch_times, dtype=float)
        epoch_idx = 0
        next_epoch = float(epoch_schedule[0])

        def _fire_epoch(tb: float) -> None:
            """One controller decision at boundary ``tb``: close and bill
            the busy segments, observe queues, apply the returned speeds
            (work-preserving rescale of in-service jobs)."""
            for st in stations:
                st.close_open_intervals(tb)
            ledger.bill(
                [st.busy_total for st in stations],
                [st.class_busy_totals for st in stations],
            )
            counts = np.array([st.class_counts() for st in stations], dtype=np.int64)
            for i, ratio in ledger.decide(tb, counts):
                stations[i].rescale_remaining(tb, ratio)
    else:
        next_epoch = float("inf")

    n_warmup_discarded = 0
    hit_horizon = False
    has_routing = routing_tables is not None
    heappop = heapq.heappop
    with obs.span("sim.event_loop", horizon=horizon):
        while heap:
            t, _, kind, a, b = heappop(heap)
            if t > horizon:
                hit_horizon = True
                break
            if t >= next_sample:
                _sample_queues(tel, t, stations)
                while next_sample <= t:
                    next_sample += sample_interval
            if t >= next_epoch:
                # Fire at the boundary's nominal time: no event lies in
                # (previous event, t), so the system state is valid
                # there, and a rescaled completion popped this iteration
                # is caught by the sched_epoch staleness check below.
                while next_epoch <= t:
                    _fire_epoch(next_epoch)
                    epoch_idx += 1
                    next_epoch = (
                        float(epoch_schedule[epoch_idx])
                        if epoch_idx < epoch_schedule.size
                        else float("inf")
                    )
            if kind:  # _COMPLETION
                st = stations[a]
                if b != st.sched_epoch:
                    continue  # stale event, re-armed since it was pushed
                job = st.complete(t, b)
                counted = job.arrival >= warmup
                route = job.route
                hop = job.hop
                here = route[hop]
                kcls = job.cls
                if counted:
                    sj = t - job.station_arrival
                    wrow, srow, crow = stats_rows[kcls]
                    wrow[here] += sj - job.service_total
                    srow[here] += sj
                    crow[here] += 1
                if has_routing:
                    nxt = _draw_from_cumulative(
                        routing_tables[kcls][1][here], routing_uniforms[kcls]()
                    )
                    if nxt >= 0:
                        route = route + (nxt,)
                        job.route = route
                hop += 1
                job.hop = hop
                if hop < len(route):
                    nxt_station = route[hop]
                    # Offered/blocked counters use the job-arrival window
                    # (``counted``), not the hop's event time: the simulated
                    # blocking probability must be measured over the same
                    # population as the delays it is compared against.
                    if counted:
                        offered[kcls][nxt_station] += 1
                        if not stations[nxt_station].arrive(t, job):
                            n_blocked[kcls][nxt_station] += 1
                    else:
                        stations[nxt_station].arrive(t, job)
                elif counted:
                    delay_buf[kcls].append(t - job.arrival)
                    if log_rows is not None:
                        log_rows.append((job.jid, kcls, job.arrival, t))
                else:
                    n_warmup_discarded += 1
            else:
                k = a
                # Blocking counters share the job-arrival measurement
                # window with the delay statistics (here t *is* the
                # job's arrival time).
                if entry_info is not None:
                    route, entry_arrive, off_row, blk_row, r0 = entry_info[k]
                    for _ in range(b):
                        jid += 1
                        job = Job(jid, k, t, route)
                        if t >= warmup:
                            off_row[r0] += 1
                            if not entry_arrive(t, job):
                                blk_row[r0] += 1
                        else:
                            entry_arrive(t, job)
                else:
                    for _ in range(b):
                        jid += 1
                        entry = _draw_from_cumulative(
                            routing_tables[k][0], routing_uniforms[k]()
                        )
                        job = Job(jid, k, t, (entry,))
                        if t >= warmup:
                            offered[k][entry] += 1
                            if not stations[entry].arrive(t, job):
                                n_blocked[k][entry] += 1
                        else:
                            stations[entry].arrive(t, job)
                gap, batch = arrival_pull[k]()
                heappush(heap, (t + gap, next_seq(), _ARRIVAL, k, batch))

    # Every pushed event was either processed, is still in the heap, or
    # is the single post-horizon pop that ended the loop — so the
    # processed-event count follows from the push counter without a
    # per-event increment in the hot loop.
    n_events = (next_seq() - 1) - len(heap) - (1 if hit_horizon else 0)

    for st in stations:
        st.close_open_intervals(horizon)
    busy = [st.busy_total for st in stations]
    class_busy = [st.class_busy_totals for st in stations]
    if ledger is not None:
        ledger.bill(busy, class_busy)  # the horizon closes the last segment
    # Flush the per-class delay buffers into the Welford accumulators in
    # one batched pass (bit-identical to per-event adds; see
    # Welford.add_batch).
    for k in range(k_classes):
        w = e2e[k]
        w.add_batch(delay_buf[k])
        block.wf_n[row, k], block.wf_mean[row, k], block.wf_m2[row, k] = w.n, w._mean, w._m2
    block.wait[row], block.sojourn[row], block.visit[row] = wait_sum, sojourn_sum, visit_count
    block.blocked[row], block.offered[row] = n_blocked, offered
    block.busy[row], block.class_busy[row] = busy, class_busy
    block.ledgers[row] = ledger
    if block.delay_samples is not None:
        block.delay_samples[row] = [np.asarray(s) for s in delay_buf]
    if log_rows is not None:
        block.job_logs[row] = np.array(log_rows, dtype=_JOB_LOG_DTYPE)
    wall_ns = time.perf_counter_ns() - start_ns
    block.scalars[row] = jid, n_events, n_warmup_discarded, hit_horizon, wall_ns


class _Tallies:
    """The raw measurements of ``n`` replications of one scenario, as
    either engine leaves them: the kernel fills every row of one call,
    the Python engine one row per replication.

    :func:`_finalize` adds the result columns (``delays``,
    ``average_power``, ...: one row per replication, named as in
    :class:`SimulationResult`), so every result formula, warning and
    ``sim.*`` counter is defined once for both engines, and a
    replication's result and a fleet store row are read off the same
    row.  Per-visit arrays are ``[rep, class, tier]``; busy times
    ``[rep, tier]`` and ``[rep, tier, class]``.  A failed replication
    has a nonzero ``rc`` and its exception in ``errors``.
    """

    def __init__(
        self,
        n: int,
        k_classes: int,
        m_stations: int,
        delay_samples: bool = False,
        job_log: bool = False,
    ) -> None:
        shape = (n, k_classes, m_stations)
        self.wait, self.sojourn = np.zeros(shape), np.zeros(shape)
        self.visit, self.blocked, self.offered = (np.zeros(shape, np.int64) for _ in range(3))
        self.busy = np.zeros((n, m_stations))
        self.class_busy = np.zeros((n, m_stations, k_classes))
        # jobs, events, warmup-discarded, hit-horizon flag, wall ns
        self.scalars = np.zeros((n, 5), dtype=np.int64)
        # Welford moments of each class's end-to-end delays
        self.wf_n = np.zeros((n, k_classes), dtype=np.int64)
        self.wf_mean, self.wf_m2 = np.zeros((n, k_classes)), np.zeros((n, k_classes))
        self.rc = np.zeros(n, dtype=np.int32)
        self.errors: dict[int, BaseException] = {}
        self.ledgers: list[_SpeedLedger | None] = [None] * n
        self.delay_samples: list | None = [None] * n if delay_samples else None
        self.job_logs: list | None = [None] * n if job_log else None

    def result(self, b: int) -> SimulationResult:
        """Finalized replication ``b`` (which succeeded) as a
        :class:`SimulationResult`."""
        n_jobs, n_events, n_discarded, _hit_horizon, _wall_ns = self.scalars[b].tolist()
        # A counted visit completes at the station exactly when it is
        # counted toward per-visit delay statistics, so the completion
        # matrix equals the visit-count matrix (kept as separate meta
        # arrays for API compatibility).
        meta: dict[str, Any] = {
            "n_jobs_created": n_jobs,
            "n_events": n_events,
            "n_warmup_discarded": n_discarded,
            "station_completions": self.visit[b].copy(),
            "n_blocked": self.blocked[b],
            "n_offered": self.offered[b],
        }
        ledger = self.ledgers[b]
        if ledger is not None:
            meta["epoch_trace"] = ledger.trace
            meta["final_speeds"] = np.array(ledger.speeds)
            meta["dynamic_energy"] = float(ledger.energy)
        return SimulationResult(
            class_names=self.class_names,
            n_completed=self.wf_n[b],
            delays=self.delays[b],
            delay_std=self.delay_std[b],
            station_waits=self.station_waits[b],
            station_sojourns=self.station_sojourns[b],
            utilizations=self.utilizations[b],
            average_power=float(self.average_power[b]),
            energy_per_request=float(self.energy_per_request[b]),
            per_class_dynamic_energy=self.per_class_dynamic_energy[b],
            horizon=self.horizon,
            warmup=self.warmup,
            meta=meta,
            delay_samples=None if self.delay_samples is None else self.delay_samples[b],
            job_log=None if self.job_logs is None else self.job_logs[b],
        )

    def fleet_rows(self, scenario: int, reps) -> tuple[np.ndarray, list[tuple[int, str]]]:
        """The fleet store rows of the finalized block's successful
        replications (row ``b`` is replication ``reps[b]`` of
        ``scenario``; ``wall_s`` is its own time in the engine), and
        ``(b, "ExcType: message")`` for each failed one."""
        failures = []
        for b, exc in self.errors.items():
            if not isinstance(exc, Exception):
                raise exc  # an interrupt or exit is not a unit failure
            failures.append((b, f"{type(exc).__name__}: {exc}"))
        ok = self.rc == 0
        rows = np.empty(int(ok.sum()), dtype=_row_dtype(len(self.class_names)))
        rows["scenario"] = scenario
        rows["replication"] = np.asarray(reps)[ok]
        rows["n_events"] = self.scalars[ok, 1]
        rows["n_completed"] = self.wf_n[ok].sum(axis=1)
        rows["mean_delay"] = self.mean_delay[ok]
        for k in range(len(self.class_names)):
            rows[f"delay_c{k}"] = self.delays[ok, k]
        rows["average_power"] = self.average_power[ok]
        rows["energy_per_request"] = self.energy_per_request[ok]
        rows["wall_s"] = self.scalars[ok, 4] / 1e9
        return rows, failures


def _finalize(
    cluster: ClusterModel, workload: Workload, horizon: float, warmup: float, t: _Tallies
) -> _Tallies:
    """Add every result column to the block ``t``, each computed once
    for all its rows, after warning for and counting its successful
    replications; returns ``t``."""
    with obs.span("sim.finalize", reps=len(t.rc)):
        window = horizon - warmup
        n_completed = t.wf_n
        t.class_names, t.horizon, t.warmup = tuple(workload.names), horizon, warmup
        # Power: the idle floor plus each tier's dynamic draw at its
        # static speed, summed in tier order, or what the speed ledger
        # billed per constant-speed segment.
        idle = float(sum(tier.servers * tier.spec.power.idle for tier in cluster.tiers))
        dynamic = np.zeros(len(t.rc))
        dyn_rate = np.zeros(n_completed.shape)  # per class
        for i, tier in enumerate(cluster.tiers):
            p_dyn = tier.spec.power.kappa * tier.speed**tier.spec.power.alpha
            dynamic = dynamic + p_dyn * t.busy[:, i] / window
            dyn_rate += p_dyn * t.class_busy[:, i] / window
        t.average_power = idle + dynamic
        for b, ledger in enumerate(t.ledgers):
            if ledger is not None:
                t.average_power[b] = idle + ledger.energy / window
                dyn_rate[b] = np.array(ledger.class_energy) / window
        servers = np.array([tier.servers for tier in cluster.tiers])
        t.utilizations = t.busy / (servers * window)
        throughput = n_completed / window
        total_throughput = throughput.sum(axis=-1)
        visits = np.maximum(t.visit, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            t.delays = np.where(n_completed > 0, t.wf_mean, np.nan)
            t.delay_std = np.where(n_completed > 1, np.sqrt(t.wf_m2 / (n_completed - 1)), np.nan)
            t.mean_delay = _mean_delay(n_completed, t.delays)
            t.station_waits = np.where(t.visit > 0, t.wait / visits, np.nan)
            t.station_sojourns = np.where(t.visit > 0, t.sojourn / visits, np.nan)
            # Average power over total measured throughput, and per class
            # the dynamic energy rate over the class's throughput.
            t.energy_per_request = np.divide(
                t.average_power,
                total_throughput,
                out=np.full(total_throughput.shape, np.nan),
                where=total_throughput > 0,
            )
            t.per_class_dynamic_energy = np.where(
                throughput > 0, dyn_rate / np.maximum(throughput, 1e-300), np.nan
            )
        ok = t.rc == 0
        jobs, events, discarded = t.scalars[ok, :3].T
        _account(jobs, events, discarded, n_completed[ok].sum(axis=1), horizon, warmup)
    return t


@lru_cache(maxsize=None)
def _row_dtype(n_classes: int) -> np.dtype:
    """A fleet store row of one replication: every fleet column but the
    fleet's own ``unit`` id."""
    ints = ("scenario", "replication", "n_events", "n_completed")
    floats = (
        "mean_delay",
        *(f"delay_c{k}" for k in range(n_classes)),
        "average_power",
        "energy_per_request",
        "wall_s",
    )
    return np.dtype([(c, np.int64) for c in ints] + [(c, np.float64) for c in floats])


def _account(n_jobs, n_events, n_discarded, n_counted, horizon: float, warmup: float) -> None:
    """Warn for each replication whose warmup window discarded most
    completions, and add the replications to the ``sim.*`` telemetry
    counters.  Takes one replication's counts or a block's arrays."""
    n_discarded, n_counted = np.atleast_1d(n_discarded, n_counted)
    n_finished = n_counted + n_discarded
    # Delay statistics on a thin post-warmup tail are noisy; surface it
    # both as a Python warning and as a structured telemetry event.
    for b in np.flatnonzero((n_finished > 0) & (n_discarded > 0.5 * n_finished)).tolist():
        discarded, counted, finished = int(n_discarded[b]), int(n_counted[b]), int(n_finished[b])
        discard_fraction = discarded / finished
        # Attribute the warning to the first caller outside this package,
        # however deep below it the engine that finalized the block sits.
        frame, stacklevel = sys._getframe(1), 2
        while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
            frame, stacklevel = frame.f_back, stacklevel + 1
        warnings.warn(
            WarmupDiscardWarning(
                f"warmup window ({warmup:g} of horizon {horizon:g}) discarded "
                f"{discarded} of {finished} completed jobs "
                f"({discard_fraction:.0%}); delay statistics rest on only "
                f"{counted} jobs — lengthen the horizon or shrink "
                f"warmup_fraction"
            ),
            stacklevel=stacklevel,
        )
        obs.event(
            "sim.warmup_discard",
            warmup=warmup,
            horizon=horizon,
            n_discarded=discarded,
            n_counted=counted,
            discard_fraction=discard_fraction,
        )
    obs.counter("sim.events").add(int(np.sum(n_events)))
    obs.counter("sim.jobs_created").add(int(np.sum(n_jobs)))
    obs.counter("sim.jobs_counted").add(int(n_counted.sum()))


@lru_cache(maxsize=None)
def _epoch_dtype(m_stations: int, k_classes: int) -> np.dtype:
    """One epoch-trace row: the boundary time, the queue counts the
    controller saw, the speeds applied and the dynamic energy so far."""
    return np.dtype(
        [
            ("t", np.float64),
            ("queues", np.int64, (m_stations, k_classes)),
            ("speeds", np.float64, (m_stations,)),
            ("dynamic_energy", np.float64),
        ]
    )


class _SpeedLedger:
    """Online speed control state shared by both engines: the current
    per-tier speeds, the controller's decisions, dynamic energy billed
    per constant-speed segment, and the epoch trace, one row of
    :func:`_epoch_dtype` per boundary of ``epoch_times`` that fired."""

    def __init__(self, cluster: ClusterModel, controller: Callable, epoch_times) -> None:
        self.controller = controller
        self.power = [(t.spec.power.kappa, t.spec.power.alpha) for t in cluster.tiers]
        self.bounds = [(t.spec.min_speed, t.spec.max_speed) for t in cluster.tiers]
        self.speeds = [float(t.speed) for t in cluster.tiers]
        self.busy_mark = [0.0] * cluster.num_tiers
        self.class_busy_mark = [[0.0] * cluster.num_classes for _ in cluster.tiers]
        self.energy = 0.0
        self.class_energy = [0.0] * cluster.num_classes
        self._trace = np.zeros(
            len(epoch_times), dtype=_epoch_dtype(cluster.num_tiers, cluster.num_classes)
        )
        self._columns = [self._trace[name] for name in self._trace.dtype.names]
        self.fired = 0

    @property
    def trace(self) -> np.ndarray:
        """The rows of the boundaries that fired."""
        return self._trace[: self.fired]

    def bill(self, busy: Sequence[float], class_busy: Sequence[Sequence[float]]) -> None:
        """Bill the busy time closed since the last call at each tier's
        current speed."""
        energy, class_energy = self.energy, self.class_energy
        for i, (kappa, alpha) in enumerate(self.power):
            p_dyn = kappa * self.speeds[i] ** alpha
            delta = busy[i] - self.busy_mark[i]
            if delta > 0.0:
                energy += p_dyn * delta
                self.busy_mark[i] = busy[i]
            mark = self.class_busy_mark[i]
            for k, cbk in enumerate(class_busy[i]):
                dk = cbk - mark[k]
                if dk > 0.0:
                    class_energy[k] += p_dyn * dk
                    mark[k] = cbk
        self.energy = energy

    def decide(self, t: float, counts: np.ndarray) -> list[tuple[int, float]]:
        """One controller decision at boundary ``t`` on the ``(tiers,
        classes)`` queue ``counts``: clamp the returned speeds to each
        tier's DVFS range, record the epoch, and return the ``(tier,
        old_speed / new_speed)`` rescales to apply."""
        e = self.fired
        times, queue_rows, speed_rows, energies = self._columns
        # The controller sees the trace row's own queue counts.
        queue_rows[e] = counts
        queues = queue_rows[e]
        new_speeds = self.controller(t, queues, np.array(self.speeds))
        changes: list[tuple[int, float]] = []
        if new_speeds is not None:
            new_arr = np.asarray(new_speeds, dtype=float)
            if new_arr.shape != (len(self.speeds),):
                raise ModelValidationError(
                    f"epoch controller must return {len(self.speeds)} speeds, "
                    f"got shape {new_arr.shape}"
                )
            for i, ((lo, hi), s_new) in enumerate(zip(self.bounds, new_arr.tolist())):
                s_new = min(max(s_new, lo), hi)
                s_old = self.speeds[i]
                if s_new != s_old:
                    changes.append((i, s_old / s_new))
                    self.speeds[i] = s_new
        times[e], speed_rows[e], energies[e] = t, self.speeds, self.energy
        self.fired = e + 1
        # Controller-trace telemetry: epochs are decision instants
        # (hundreds per run, never per-event), so the epoch trace stays
        # ingestable from events.jsonl without touching the hot loop.
        if obs.TELEMETRY.enabled:
            obs.event(
                "sim.epoch",
                epoch=e,
                t=t,
                queues=queues,
                speeds=speed_rows[e],
                dynamic_energy=self.energy,
            )
        return changes


_BACKENDS = ("python", "compiled", "auto")


def resolve_backend(raw: str | None) -> str:
    """Validate and normalize a simulation backend selector.

    ``python`` runs this engine; ``compiled`` requires the C kernel
    (warns once and falls back if unavailable); ``auto`` uses the
    kernel opportunistically and falls back silently. ``None`` takes
    the ``REPRO_SIM_BACKEND`` environment variable, or ``python`` when
    it is unset: the one place the library reads it.
    """
    if raw is None:
        raw = os.environ.get("REPRO_SIM_BACKEND", "python")
    value = raw.strip().lower()
    if value not in _BACKENDS:
        raise ModelValidationError(
            f"backend (or REPRO_SIM_BACKEND) must be one of {_BACKENDS}, got {raw!r}"
        )
    return value


def _annotate_backend(resolved: str, requested: str, fallback: str | None = None) -> None:
    """Record the resolved simulation backend (and any fallback reason)
    in the telemetry run context, so the manifest / run store / dashboard
    can attribute perf differences across runs.  The first request
    recorded stands: a pooled run's parent records what was asked, and
    its tasks, handed the engine it decided, do not overwrite it.
    No-op when telemetry is disabled."""
    tel = obs.TELEMETRY
    if not tel.enabled:
        return
    tel.run_context.setdefault("sim_backend_requested", requested)
    tel.annotate(sim_backend=resolved)
    if fallback is not None:
        tel.annotate(sim_backend_fallback=fallback)


def resolve_engine(backend: str, cluster: ClusterModel) -> str:
    """``"compiled"`` when ``backend`` runs ``cluster`` on the kernel,
    else ``"python"`` (warning once under ``compiled``): what a pooled
    run decides in its parent and hands its tasks."""
    if backend == "python":
        return "python"
    from repro.simulation import compiled

    return "python" if compiled._kernel_for(backend, cluster) is None else "compiled"


def _validate(
    cluster: ClusterModel,
    workload: Workload,
    horizon: float,
    warmup_fraction: float,
    arrival_processes: list[ArrivalProcess] | None = None,
    allow_unstable: bool = False,
    epoch_times: Sequence[float] | None = None,
    epoch_controller: Callable | None = None,
) -> None:
    """The input gate of both engines and the batched fleet path, run
    once before backend dispatch so every message comes from here."""
    if cluster.num_classes != workload.num_classes:
        raise ModelValidationError(
            f"cluster is parameterized for {cluster.num_classes} classes "
            f"but workload has {workload.num_classes}"
        )
    if horizon <= 0.0 or not np.isfinite(horizon):
        raise ModelValidationError(f"horizon must be positive and finite, got {horizon}")
    if not 0.0 <= warmup_fraction <= 0.9:
        raise ModelValidationError(f"warmup fraction must be in [0, 0.9], got {warmup_fraction}")
    if (epoch_controller is None) != (epoch_times is None):
        raise ModelValidationError("epoch_times and epoch_controller must be provided together")
    if epoch_controller is not None:
        epoch_schedule = np.asarray(epoch_times, dtype=float)
        if epoch_schedule.ndim != 1 or epoch_schedule.size == 0:
            raise ModelValidationError("epoch_times must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(epoch_schedule)) or epoch_schedule[0] < 0.0:
            raise ModelValidationError("epoch times must be finite and non-negative")
        if np.any(np.diff(epoch_schedule) <= 0.0):
            raise ModelValidationError("epoch times must be strictly increasing")
        for tier in cluster.tiers:
            if tier.discipline == "ps":
                raise ModelValidationError(
                    f"tier {tier.name!r}: dynamic speed control does not support PS "
                    "tiers (their shared-rate completions cannot be rescaled mid-run)"
                )
    if not allow_unstable:
        # Loss and finite-buffer tiers cannot be unstable (nothing
        # unbounded can accumulate); only open queueing tiers gate.
        rho = cluster.utilizations(workload.arrival_rates)
        queueing = np.array(
            [t.discipline != "loss" and t.capacity is None for t in cluster.tiers]
        )
        if np.any(rho[queueing] >= 1.0):
            raise ModelValidationError(
                f"configuration is unstable (utilizations {np.round(rho, 4).tolist()}); "
                "pass allow_unstable=True to simulate it anyway"
            )
    if arrival_processes is not None and len(arrival_processes) != workload.num_classes:
        raise ModelValidationError(
            f"expected {workload.num_classes} arrival processes, got {len(arrival_processes)}"
        )
    for tier in cluster.tiers:
        if tier.discipline == "ps" and tier.capacity is not None:
            raise ModelValidationError(
                f"tier {tier.name!r}: finite buffers are not supported for PS tiers"
            )


def _build_routes(cluster: ClusterModel) -> list[tuple[int, ...]]:
    """Per-class station itineraries from the (integer) visit ratios."""
    routes = []
    v = cluster.visit_ratios
    for k in range(cluster.num_classes):
        row = v[k]
        if not np.allclose(row, np.round(row)):
            raise ModelValidationError(
                f"the simulator needs integer visit ratios, got {row.tolist()} for class {k}"
            )
        route = tuple(
            chain.from_iterable([i] * int(round(vi)) for i, vi in enumerate(row))
        )
        if len(route) == 0:
            raise ModelValidationError(f"class {k} visits no station")
        routes.append(route)
    return routes


def _build_routing_tables(cluster: ClusterModel, routing: list) -> list[tuple]:
    """Per-class (entry_cumulative, per-station transition cumulative)
    lookup tables for the routing walk, validated against the cluster's
    visit ratios so the simulated system matches the analytic one."""
    from repro.queueing.routing import ClassRouting

    if len(routing) != cluster.num_classes:
        raise ModelValidationError(
            f"expected {cluster.num_classes} class routings, got {len(routing)}"
        )
    tables = []
    for k, cr in enumerate(routing):
        if not isinstance(cr, ClassRouting):
            raise ModelValidationError(
                f"routing[{k}] must be a ClassRouting, got {type(cr).__name__}"
            )
        if cr.num_stations != cluster.num_tiers:
            raise ModelValidationError(
                f"routing[{k}] covers {cr.num_stations} stations but the cluster has "
                f"{cluster.num_tiers} tiers"
            )
        if not np.allclose(cr.visit_ratios, cluster.visit_ratios[k], rtol=1e-6, atol=1e-9):
            raise ModelValidationError(
                f"routing[{k}]'s expected visits {cr.visit_ratios.tolist()} do not match "
                f"the cluster's visit ratios {cluster.visit_ratios[k].tolist()}; build the "
                "cluster with visit_ratio_matrix(...) from the same routing"
            )
        entry_cum = np.cumsum(cr.entry)
        trans_cum = [np.cumsum(cr.matrix[i]) for i in range(cr.num_stations)]
        tables.append((entry_cum, trans_cum))
    return tables


def _sample_queues(tel, t: float, stations: list) -> None:
    """Record per-tier population and busy-server counts at time ``t``.

    Only reached when telemetry is enabled with ``sample_queues=True``;
    works for both head-of-line stations (idle/busy server slots) and
    processor-sharing stations (one job list).
    """
    populations = []
    busy_counts = []
    for st in stations:
        if isinstance(st, PSStation):
            n = len(st.jobs)
            busy = min(n, st.capacity)
        else:
            n = st._in_system()
            busy = st.n_busy
        populations.append(n)
        busy_counts.append(busy)
    _emit_queue_sample(tel, t, populations, busy_counts)


def _emit_queue_sample(tel, t: float, populations: list[int], busy: list[int]) -> None:
    """Publish one queue-length sample: per-tier gauges, then the
    ``sim.queue_sample`` event (both engines emit through here)."""
    for i, (n, b) in enumerate(zip(populations, busy)):
        tel.metrics.gauge(f"sim.tier.{i}.population").set(n)
        tel.metrics.gauge(f"sim.tier.{i}.busy_servers").set(b)
    tel.tracer.event("sim.queue_sample", t=t, population=populations, busy=busy)


def _draw_from_cumulative(cum: np.ndarray, u: float) -> int:
    """Index drawn from a (sub)probability cumulative array; ``-1``
    when the uniform ``u`` falls in the residual (exit) mass."""
    if u > cum[-1]:
        return -1
    return int(cum.searchsorted(u, side="left"))


#: Routing decisions draw U(0, 1) uniforms (``uniform(0, 1)`` returns
#: the bits ``random`` does, on a plain or a coupled generator).
_ROUTING_UNIFORM = Uniform(0.0, 1.0)


def _draw_plan(source, rng):
    """How one stream is drawn, decided here for both engines.

    ``source`` is a distribution or an arrival process and ``rng`` its
    named stream.  When ``n`` draws may be taken as one vectorized block
    (a ``block_sampling_safe`` family, Poisson gaps, routing uniforms,
    and HyperExponential on a coupled antithetic generator) the plan is
    a :class:`~repro.simulation.rng.BlockCursor`: the Python engine
    reads it one value at a time, and the compiled kernel refills a
    buffer with each :meth:`BlockCursor.next_block`, so both engines
    draw the stream in the same blocks.  Anything else
    is a zero-argument scalar: a sampler for a distribution, a puller
    returning ``(gap, batch_size)`` for an arrival process (MMPP, batch,
    renewal, NHPP, trace), which the kernel calls once per draw.

    HyperExponential — the paper's canonical high-variability demand,
    so the most common *unsafe* family — takes its scalar draw as
    (branch uniform, ``standard_exponential``).  On a plain generator
    that is a closure inlining the draw: branch by
    :func:`bisect.bisect_right` on the Python-list CDF (same
    count-of-entries-<=-u semantics as
    ``ndarray.searchsorted(side="right")``, which itself emulates
    ``Generator.choice`` bit-exactly), then ``scale *
    standard_exponential()``.  On a coupled generator the exponential
    is ``-log(1 - U)`` of the next uniform, so the pair of uniforms per
    draw is one ``random(2n)`` block (:func:`_draw_coupled_hyper`).
    """
    if isinstance(source, ArrivalProcess):
        if type(source) is not PoissonProcess:
            return partial(source.fresh().next_arrival, rng)
        source = Exponential(source.rate)  # the gaps of a Poisson process
    if source.block_sampling_safe:
        return BlockCursor(rng, source.sample)
    if isinstance(source, HyperExponential):
        if isinstance(rng, CoupledGenerator):
            cdf, scales = np.asarray(source._cdf), np.asarray(source._scales)
            return BlockCursor(rng, partial(_draw_coupled_hyper, cdf, scales))
        cdf = source._cdf.tolist()
        scales = source._scales
        random = rng.random
        std_exp = rng.standard_exponential

        def sampler() -> float:
            return scales[bisect_right(cdf, random())] * std_exp()

        return sampler
    sample = source.sample

    def generic_sampler() -> float:
        return float(sample(rng))

    return generic_sampler


def _draw_coupled_hyper(cdf, scales, rng: CoupledGenerator, n: int) -> np.ndarray:
    """``n`` HyperExponential draws on a coupled generator as one block.

    The scalar draw consumes (branch uniform, exponential uniform) per
    value, so one ``random(2n)`` sliced even/odd reproduces its stream
    consumption and values: ``random(2n)`` advances the bit generator
    as 2n scalar calls do, ``searchsorted(side="right")`` matches
    ``bisect_right``, and the exponential is
    :meth:`CoupledGenerator.standard_exponential`'s expression.
    """
    u = rng.random(2 * n)
    branch = np.searchsorted(cdf, u[0::2], side="right")
    return scales[branch] * -np.log(np.maximum(1.0 - u[1::2], _TINY))


def _single(gaps: BlockCursor) -> tuple[float, int]:
    """The next Poisson arrival: a block-drawn gap and one job."""
    return gaps(), 1


def _make_dynamic_sampler(base, speeds, i):
    """Service sampler under dynamic speed control.

    ``base`` draws the class's *demand* (work at speed 1); every pull
    divides by tier ``i``'s current speed, read from the ``speeds``
    list the epoch controller mutates on DVFS changes.
    """

    def sampler() -> float:
        return base() / speeds[i]

    return sampler
