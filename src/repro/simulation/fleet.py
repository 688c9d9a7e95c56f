"""Fleet-scale sweep runner: thousands of (scenario × replication) units.

The replication engine in :mod:`repro.simulation.replications` is
shaped for *one* scenario at a time; a policy-evaluation grid in the
style of Neely's trace-driven studies is thousands of independent
units spanning many scenarios, where static per-scenario chunking
leaves workers idle whenever scenarios have unequal cost (higher load
⇒ more events ⇒ slower units). :func:`run_fleet` shards the flat unit
index space into chunks and runs them on one
:class:`~repro.simulation.parallel.WorkerPool` (work stealing: each
worker takes the next queued chunk the moment it goes idle; one worker
runs them inline), runs each chunk's replications through one batched
:func:`~repro.simulation.compiled.maybe_simulate_fleet_batch` kernel
call (falling back to unit-at-a-time
:func:`~repro.simulation.simulator.simulate` when the batch path does
not apply), and writes the result rows columnar into a
:class:`~repro.simulation.results_store.FleetStore` — no per-run
pickles, one queryable artifact per sweep.

Three layers keep the path batch-native end to end:

* **Chunked dispatch** — work units travel as ``(scenario, rep0,
  count)`` chunks (never crossing a scenario boundary) whose payload
  carries only that chunk's own scenario, auto-sized to a budget of
  expected kernel events per chunk (and ~8 chunks per worker in a
  pool) or pinned with ``batch_size``. :func:`run_fleet` decides each
  scenario's engine once, and every chunk payload names it.
* **Batched kernel dispatch** — a chunk of B replications of one
  scenario (B = 1 included) is a single C call: kernel state, station
  arrays and RNG arenas are allocated once and reset between
  replications, with the per-unit ``SeedSequence(seed,
  spawn_key=(scenario, replication))`` streams preserved so every row
  is bit-identical to the unit-at-a-time path for any chunk size,
  worker count or steal order. The chunk's seed words are built from
  ``(seed, scenario, rep0, count)`` as one NumPy block; ``SeedSequence``
  objects are made only for streams Python still draws from.
* **Columnar rows** — one vectorized builder
  (:func:`~repro.simulation.simulator._summary_rows`) turns a block of
  replications into a structured array of store rows, from the
  kernel's per-replication arrays or from the python fallback's
  results alike; no row is ever a dict. A chunk's columns come back
  to the parent as the task's return value and go into the store as
  one block.

A worker that dies breaks its pool, and every chunk not yet returned
is rerun on a fresh one, one chunk per call and at most ``_RERUNS``
times each, so a chunk that always kills its worker costs only its own
units; units still missing after that are counted as failed. Chunks
that did return are kept, so no unit is stored twice.

Determinism is scheduling-independent: unit ``(s, r)`` always runs
under ``SeedSequence(master_seed, spawn_key=(s, r))``, computed inside
the worker from the indices alone, so the stored rows are bit-identical
for any worker count, chunk size or steal order (rows are written in
completion order; the ``unit`` column recovers the canonical order).

Progress rides the existing telemetry seam: a throttled ``fleet.unit``
event plus a terminal ``fleet.done`` event flow through the global
tracer, land in ``progress.jsonl`` when the run is under
``--telemetry``, and surface in ``repro status``.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro import obs
from repro.exceptions import ModelValidationError
from repro.simulation.parallel import WorkerPool, payload_is_picklable, resolve_n_jobs
from repro.simulation.results_store import FleetStore
from repro.simulation.simulator import (
    _build_routes,
    _row_dtype,
    _summary_rows,
    resolve_backend,
    resolve_engine,
    simulate,
)

__all__ = ["FleetScenario", "FleetSummary", "run_fleet", "fleet_columns"]

#: Expected kernel events one auto-sized chunk may run (~0.2 s of event
#: loop at ~90 ns/event). Each kernel call pays ~0.6 ms of fixed Python
#: setup, a sixth of a 64-unit call when units are 5 s long (~3 ms of
#: loop); budgeting events rather than units keeps that share small for
#: any unit length while chunks stay near 0.2 s of loop.
_CHUNK_EVENTS = 2**21

#: Times each chunk a dead worker lost is rerun, alone, on a fresh pool
#: before its units are counted as failed. Per-unit seeds make a rerun's
#: rows bit-identical to a first run's.
_RERUNS = 2


@dataclass(frozen=True)
class FleetScenario:
    """One cell of a sweep grid: a cluster + workload + horizon.

    ``params`` carries the grid coordinates (e.g. ``{"load_factor":
    0.9}``) into the store manifest so queries can join metric rows
    back to what was swept.
    """

    label: str
    cluster: Any
    workload: Any
    horizon: float
    warmup_fraction: float = 0.1
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class FleetSummary:
    """What :func:`run_fleet` returns: the sweep's vital signs."""

    store_path: str
    n_scenarios: int
    n_replications: int
    n_units: int
    n_done: int
    n_failed: int
    n_workers: int
    wall_time_s: float
    units_per_sec: float


def fleet_columns(n_classes: int) -> tuple[str, ...]:
    """The store schema for a fleet over ``n_classes``-class scenarios."""
    return ("unit", *_row_dtype(n_classes).names)


def _unit_seed(master_seed: int, scenario: int, replication: int) -> np.random.SeedSequence:
    """The deterministic per-unit seed, computable from indices alone."""
    return np.random.SeedSequence(master_seed, spawn_key=(scenario, replication))


def _unit_events(sc: FleetScenario) -> float:
    """Expected kernel events of one unit of ``sc``: every arrival is one
    event, and so is each of its completions along the class route."""
    try:
        routes = _build_routes(sc.cluster)
    except ModelValidationError:
        return 0.0  # rejected per unit whatever the chunk size
    hops = np.array([1 + len(r) for r in routes], dtype=float)
    return sc.horizon * float(np.dot(sc.workload.arrival_rates, hops))


def _resolve_batch_size(
    batch_size: int | str,
    scenarios: list[FleetScenario],
    n_replications: int,
    n_workers: int,
) -> int:
    """Pin or auto-size the replication chunk.

    Auto sizing balances two pressures: big chunks amortize the
    per-call kernel setup (the point of batching), so a chunk holds as
    many units of the grid's costliest scenario as fit in
    ``_CHUNK_EVENTS`` expected events; and the pool needs enough chunks
    in flight that work stealing can still level uneven scenario costs,
    so the parallel path caps chunks at roughly eight per worker across
    the whole grid.
    """
    if batch_size == "auto":
        unit_events = max(_unit_events(sc) for sc in scenarios)
        batch = min(n_replications, int(_CHUNK_EVENTS // max(unit_events, 1.0)))
        if n_workers > 1:
            n_units = len(scenarios) * n_replications
            batch = min(batch, math.ceil(n_units / (n_workers * 8)))
        return max(1, batch)
    if (
        not isinstance(batch_size, (int, np.integer))
        or isinstance(batch_size, bool)
        or batch_size < 1
    ):
        raise ModelValidationError(
            f"batch_size must be a positive integer or 'auto', got {batch_size!r}"
        )
    return int(min(batch_size, n_replications))


def _chunk_plan(
    n_scenarios: int, n_replications: int, batch: int
) -> list[tuple[int, int, int]]:
    """Split the unit grid into ``(scenario, rep0, count)`` chunks.

    Chunks never cross a scenario boundary (a batched kernel call runs
    one scenario), so the last chunk of each scenario may be short.
    """
    chunks: list[tuple[int, int, int]] = []
    for sid in range(n_scenarios):
        rep0 = 0
        while rep0 < n_replications:
            count = min(batch, n_replications - rep0)
            chunks.append((sid, rep0, count))
            rep0 += count
    return chunks


def _simulate_units(
    sc: FleetScenario, master_seed: int, sid: int, reps: range, backend: str
) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """Run replications ``reps`` of scenario ``sid`` one :func:`simulate`
    call at a time; returns the same ``(rows, failures)`` as the batched
    kernel path, with ``failures`` indexed into ``reps``."""
    done: list[int] = []
    results = []
    walls: list[float] = []
    failures: list[tuple[int, str]] = []
    for j, rep in enumerate(reps):
        start = time.perf_counter()
        try:
            res = simulate(
                sc.cluster,
                sc.workload,
                horizon=sc.horizon,
                warmup_fraction=sc.warmup_fraction,
                seed=_unit_seed(master_seed, sid, rep),
                backend=backend,
            )
        except Exception as exc:
            failures.append((j, f"{type(exc).__name__}: {exc}"))
            continue
        walls.append(time.perf_counter() - start)
        done.append(rep)
        results.append(res)
    n_classes = len(tuple(sc.workload.names))
    rows = _summary_rows(
        sid,
        np.array(done, dtype=np.int64),
        np.array([res.meta.get("n_events", 0) for res in results], dtype=np.int64),
        np.array([res.n_completed for res in results], dtype=np.int64).reshape(-1, n_classes),
        np.array([res.delays for res in results], dtype=np.float64).reshape(-1, n_classes),
        np.array([res.average_power for res in results], dtype=np.float64),
        np.array(walls),
        sc.horizon - sc.warmup_fraction * sc.horizon,
    )
    return rows, failures


def _run_chunk(
    sc: FleetScenario,
    master_seed: int,
    n_replications: int,
    sid: int,
    rep0: int,
    count: int,
    backend: str,
) -> tuple[dict[str, np.ndarray], list[tuple[int, str]]]:
    """Run one chunk of replications of one scenario.

    Tries the batched compiled path first (one kernel call for the
    whole chunk, a one-unit chunk included); falls back to
    unit-at-a-time :func:`simulate` when batching does not apply
    (python backend, kernel unavailable, or a tier discipline the
    kernel does not model). Either way the rows are bit-identical.

    Returns ``(columns, failures)``: the rows of the units that
    succeeded as schema-dtyped column arrays (their ids in
    ``columns["unit"]``), and ``(unit, "ExcType: message")`` failure
    pairs.
    """
    reps = range(rep0, rep0 + count)
    first_unit = sid * n_replications  # the unit id of replication 0
    batch = None
    if backend != "python":
        from repro.simulation.compiled import maybe_simulate_fleet_batch

        try:
            batch = maybe_simulate_fleet_batch(
                backend, sc.cluster, sc.workload, sc.horizon, sc.warmup_fraction, reps,
                master_seed, sid,
            )
        except Exception as exc:
            # Scenario-level rejection (validation, instability): every
            # unit of the chunk fails with the message the unit path
            # would have raised per unit.
            msg = f"{type(exc).__name__}: {exc}"
            rows = np.empty(0, _row_dtype(len(tuple(sc.workload.names))))
            batch = rows, [(j, msg) for j in range(count)]
    if batch is None:
        batch = _simulate_units(sc, master_seed, sid, reps, backend)
    rows, failures = batch
    columns = {"unit": first_unit + rows["replication"]}
    columns.update((c, rows[c]) for c in rows.dtype.names)
    return columns, [(first_unit + rep0 + j, msg) for j, msg in failures]


def _run_chunk_task(
    payload: tuple[FleetScenario, int, int, int, int, int, str],
) -> tuple[tuple[int, int], dict[str, np.ndarray] | None, list[tuple[int, str]]]:
    """Pool entry point: :func:`_run_chunk` on ``(sc, seed,
    n_replications, sid, rep0, count, engine)``, keyed by the chunk's
    ``(sid, rep0)``. A chunk that raises fails each of its units
    instead of the sweep."""
    sc, seed, n_replications, sid, rep0, count, backend = payload
    try:
        cols, failures = _run_chunk(sc, seed, n_replications, sid, rep0, count, backend)
    except Exception as exc:  # defensive: the whole chunk is lost
        msg = f"{type(exc).__name__}: {exc}"
        base = sid * n_replications + rep0
        cols, failures = None, [(base + j, msg) for j in range(count)]
    return (sid, rep0), cols, failures


def run_fleet(
    scenarios: list[FleetScenario],
    n_replications: int,
    out: str | os.PathLike,
    *,
    seed: int = 0,
    n_jobs: int | None = None,
    backend: str | None = None,
    batch_size: int | str = "auto",
    rows_per_group: int = 4096,
    store_format: str | None = None,
    progress: Callable[[int, int, int], None] | None = None,
    progress_every: float = 0.5,
) -> FleetSummary:
    """Run a (scenario × replication) sweep into one columnar store.

    Parameters
    ----------
    scenarios:
        The sweep grid. All scenarios must share one class structure
        (same class names) — the store schema is rectangular.
    n_replications:
        Independent replications per scenario; unit ``u`` maps to
        ``(scenario, replication) = divmod(u, n_replications)``.
    out:
        Directory the :class:`FleetStore` is created in (must not
        already hold a store).
    seed:
        Master seed; unit seeds are ``SeedSequence(seed,
        spawn_key=(scenario, replication))`` regardless of scheduling.
    n_jobs:
        Worker processes (``None``/``1`` serial, ``-1`` all cores),
        same convention as the replication engine. Scenarios that
        cannot be pickled (e.g. holding a lambda) run inline.
    backend:
        ``python`` / ``compiled`` / ``auto``; ``None`` reads
        ``REPRO_SIM_BACKEND``. Each scenario's engine is decided here.
    batch_size:
        Replications per kernel call / work-stealing chunk (chunks
        never cross a scenario boundary). ``"auto"`` (default) fills
        each chunk up to a fixed budget of expected kernel events
        (``horizon × Σ_k λ_k × (1 + route length)`` of the costliest
        scenario), capped at ~8 chunks per worker in a pool; any
        positive integer (NumPy integers included) pins it. Rows are
        bit-identical for every value.
    progress:
        Optional ``progress(n_done, n_failed, n_units)`` callback,
        invoked at most every ``progress_every`` seconds plus once at
        the end.

    Returns a :class:`FleetSummary`; the rows live in the store at
    ``out``.
    """
    if not scenarios:
        raise ModelValidationError("run_fleet needs at least one scenario")
    if n_replications < 1:
        raise ModelValidationError(
            f"need at least one replication per scenario, got {n_replications}"
        )
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ModelValidationError(f"seed must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    class_names = tuple(scenarios[0].workload.names)
    for sc in scenarios[1:]:
        if tuple(sc.workload.names) != class_names:
            raise ModelValidationError(
                "fleet scenarios must share one class structure "
                f"({sc.label!r} has {tuple(sc.workload.names)}, "
                f"expected {class_names})"
            )
    resolved_backend = resolve_backend(backend)
    n_units = len(scenarios) * n_replications
    n_workers = resolve_n_jobs(n_jobs)
    if n_workers > 1 and not payload_is_picklable(scenarios):
        n_workers = 1
    batch = _resolve_batch_size(batch_size, scenarios, n_replications, n_workers)
    chunks = _chunk_plan(len(scenarios), n_replications, batch)
    columns = fleet_columns(len(class_names))
    store = FleetStore.create(
        out,
        columns,
        meta={
            "seed": seed,
            "n_replications": n_replications,
            "class_names": list(class_names),
            "backend": resolved_backend,
            "batch_size": batch,
            "transport": "inline" if n_workers == 1 else "process_pool",
            "scenarios": [
                {
                    "scenario": i,
                    "label": sc.label,
                    "horizon": sc.horizon,
                    "warmup_fraction": sc.warmup_fraction,
                    "params": dict(sc.params),
                }
                for i, sc in enumerate(scenarios)
            ],
        },
        rows_per_group=rows_per_group,
        fmt=store_format,
    )

    start = time.perf_counter()
    n_done = 0
    n_failed = 0
    failures: list[tuple[int, str]] = []
    last_report = 0.0

    def report(force: bool = False) -> None:
        nonlocal last_report
        now = time.perf_counter()
        if not force and now - last_report < progress_every:
            return
        last_report = now
        obs.event(
            "fleet.unit",
            n_done=n_done,
            n_failed=n_failed,
            n_total=n_units,
            units_per_sec=n_done / max(now - start, 1e-9),
        )
        if progress is not None:
            progress(n_done, n_failed, n_units)

    # Each scenario's engine is decided here, once, so a fallback warns
    # in this process and no chunk falls back on its own.
    engines = [resolve_engine(resolved_backend, sc.cluster) for sc in scenarios]
    # Chunks not yet returned, keyed by (sid, rep0): what a dead worker
    # lost is exactly what is left here after its pool broke.
    todo = {
        (sid, rep0): (scenarios[sid], seed, n_replications, sid, rep0, count, engines[sid])
        for sid, rep0, count in chunks
    }

    def on_done(result) -> None:
        nonlocal n_done, n_failed
        key, cols, chunk_failures = result
        del todo[key]
        if cols is not None and len(cols["unit"]):
            store.append_columns(cols)
            n_done += len(cols["unit"])
            # The pool keeps each returned value until the call ends;
            # emptying the dict leaves the rows to the store alone, so a
            # sweep holds one chunk and one row group, not every row.
            cols.clear()
        n_failed += len(chunk_failures)
        failures.extend(chunk_failures)
        report()

    with obs.span(
        "fleet.run", n_units=n_units, n_workers=n_workers, batch_size=batch
    ):
        try:
            with WorkerPool(n_workers) as pool:
                try:
                    pool.run(_run_chunk_task, list(todo.values()), on_done)
                except BrokenExecutor:
                    # A worker died and took every unreturned chunk with
                    # it. Rerun those one call each, so a chunk that
                    # keeps killing its worker breaks only its own call
                    # and spends only its own rerun budget.
                    for key in list(todo):
                        for _ in range(_RERUNS):
                            try:
                                pool.run(_run_chunk_task, [todo[key]], on_done)
                                break
                            except BrokenExecutor:
                                pass  # the pool starts afresh next call
            lost = sum(count for *_, count, _engine in todo.values())
            if lost:
                failures.append((-1, f"{lost} unit(s) lost to dead workers"))
                n_failed += lost
        finally:
            wall = time.perf_counter() - start
            store.close(
                extra_meta={
                    "n_done": n_done,
                    "n_failed": n_failed,
                    "failures": failures[:32],
                    "n_workers": n_workers,
                    "wall_time_s": wall,
                }
            )
    report(force=True)
    obs.event(
        "fleet.done",
        n_done=n_done,
        n_failed=n_failed,
        n_total=n_units,
        wall_s=wall,
    )
    obs.counter("fleet.units").add(n_done)
    return FleetSummary(
        store_path=str(store.path),
        n_scenarios=len(scenarios),
        n_replications=n_replications,
        n_units=n_units,
        n_done=n_done,
        n_failed=n_failed,
        n_workers=n_workers,
        wall_time_s=wall,
        units_per_sec=n_done / max(wall, 1e-9),
    )

