"""Fleet-scale sweep runner: thousands of (scenario × replication) units.

The replication engine in :mod:`repro.simulation.replications` is
shaped for *one* scenario at a time; a policy-evaluation grid in the
style of Neely's trace-driven studies is thousands of independent
units spanning many scenarios, where static per-scenario chunking
leaves workers idle whenever scenarios have unequal cost (higher load
⇒ more events ⇒ slower units). :func:`run_fleet` shards the flat unit
index space across worker processes through a **shared chunk queue**
(work stealing: each worker pulls the next chunk the moment it goes
idle), runs each chunk's replications through one batched
:func:`~repro.simulation.compiled.maybe_simulate_fleet_batch` kernel
call (falling back to unit-at-a-time
:func:`~repro.simulation.simulator.simulate` when the batch path does
not apply), and writes the result rows columnar into a
:class:`~repro.simulation.results_store.FleetStore` — no per-run
pickles, one queryable artifact per sweep.

Four layers keep the path batch-native end to end:

* **Chunked dispatch** — work units travel as ``(scenario, rep0,
  count)`` chunks (never crossing a scenario boundary), auto-sized
  from the grid shape and worker count or pinned with ``batch_size``;
  the simulation backend is resolved once in :func:`run_fleet` and
  threaded explicitly to every worker instead of re-read from the
  environment per unit.
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
  results alike; no row is ever a dict.
* **Zero-copy result transport** — pool workers write finished rows
  straight into one preallocated ``multiprocessing.shared_memory``
  segment (one dtype-correct column block per store column, indexed
  by absolute unit id); the result queue carries only small control
  messages (chunk handoff + failures), drained in batches, and the
  parent copies each chunk's contiguous unit slice (minus its failed
  units) out of the shared block without pickling a row.

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
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro import obs
from repro.exceptions import ModelValidationError
from repro.simulation.parallel import resolve_n_jobs
from repro.simulation.results_store import FleetStore, _column_dtype
from repro.simulation.simulator import _row_dtype, _summary_rows, resolve_backend, simulate

__all__ = ["FleetScenario", "FleetSummary", "run_fleet", "fleet_columns"]

#: Largest replication chunk a single kernel call runs; beyond this the
#: per-call amortization is flat while failure blast radius and latency
#: to first result keep growing.
_MAX_BATCH = 64


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


def _resolve_batch_size(
    batch_size: int | str, n_replications: int, n_units: int, n_workers: int
) -> int:
    """Pin or auto-size the replication chunk.

    Auto sizing balances two pressures: big chunks amortize the
    per-call kernel setup (the point of batching), while the pool needs
    enough chunks in flight that work stealing can still level uneven
    scenario costs — so the parallel path caps chunks at roughly eight
    per worker across the whole grid.
    """
    if batch_size == "auto":
        if n_workers == 1:
            return max(1, min(n_replications, _MAX_BATCH))
        return max(1, min(n_replications, _MAX_BATCH, math.ceil(n_units / (n_workers * 8))))
    if not isinstance(batch_size, int) or isinstance(batch_size, bool) or batch_size < 1:
        raise ModelValidationError(
            f"batch_size must be a positive integer or 'auto', got {batch_size!r}"
        )
    return min(batch_size, n_replications)


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
    sc: FleetScenario, master_seed: int, sid: int, reps: range
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
    scenarios: list[FleetScenario],
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
    sc = scenarios[sid]
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
    rows, failures = batch if batch is not None else _simulate_units(sc, master_seed, sid, reps)
    columns = {"unit": first_unit + rows["replication"]}
    columns.update((c, rows[c]) for c in rows.dtype.names)
    return columns, [(first_unit + rep0 + j, msg) for j, msg in failures]


def _shm_views(
    buf: memoryview, columns: tuple[str, ...], n_units: int
) -> dict[str, np.ndarray]:
    """Per-column views into the shared result block.

    Column ``j`` owns bytes ``[j*n_units*8, (j+1)*n_units*8)`` — every
    store dtype is 8 bytes wide, so one flat segment of
    ``n_columns * n_units * 8`` bytes holds the whole sweep, indexed by
    absolute unit id.
    """
    return {
        c: np.ndarray(
            (n_units,), dtype=_column_dtype(c), buffer=buf, offset=j * n_units * 8
        )
        for j, c in enumerate(columns)
    }


def _fleet_worker(
    task_queue: Any,
    result_queue: Any,
    scenarios: list[FleetScenario],
    master_seed: int,
    n_replications: int,
    backend: str,
    shm_name: str,
    n_units: int,
) -> None:
    """Worker loop: steal chunks until the queue hands a sentinel.

    Runs in a child process; pulls from the shared queue so fast
    workers automatically absorb slow scenarios' chunks. The backend
    is pinned once (resolved by the parent — never re-read from the
    environment per unit) and the compiled kernel is warmed once per
    process before the first chunk so its one-time cost never lands
    inside a unit timing. Finished rows go straight into the shared
    result block at their absolute unit index; only the control tuple
    ``("chunk", sid, rep0, count, failures)`` rides the queue.
    """
    from multiprocessing import shared_memory

    os.environ["REPRO_SIM_BACKEND"] = backend
    if backend != "python":
        from repro.simulation.compiled import warm_kernel

        warm_kernel()
    columns = fleet_columns(len(tuple(scenarios[0].workload.names)))
    shm = shared_memory.SharedMemory(name=shm_name)
    views = _shm_views(shm.buf, columns, n_units)
    try:
        while True:
            chunk = task_queue.get()
            if chunk is None:
                return
            sid, rep0, count = chunk
            try:
                cols, failures = _run_chunk(
                    scenarios, master_seed, n_replications, sid, rep0, count, backend
                )
            except Exception as exc:  # defensive: the whole chunk is lost
                msg = f"{type(exc).__name__}: {exc}"
                base = sid * n_replications + rep0
                failures = [(base + j, msg) for j in range(count)]
            else:
                for c in columns:
                    views[c][cols["unit"]] = cols[c]
            result_queue.put(("chunk", sid, rep0, count, failures))
    finally:
        del views
        shm.close()


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
        same convention as the replication engine.
    backend:
        Simulation backend for the workers (``python`` / ``compiled``
        / ``auto``); default inherits ``REPRO_SIM_BACKEND``. Resolved
        once here and threaded explicitly.
    batch_size:
        Replications per kernel call / work-stealing chunk (chunks
        never cross a scenario boundary). ``"auto"`` (default) sizes
        from the grid shape and worker count; any positive int pins
        it. Rows are bit-identical for every value.
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
    resolved_backend = resolve_backend(
        backend if backend is not None else os.environ.get("REPRO_SIM_BACKEND")
    )
    n_units = len(scenarios) * n_replications
    n_workers = resolve_n_jobs(n_jobs)
    batch = _resolve_batch_size(batch_size, n_replications, n_units, n_workers)
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
            "transport": "inline" if n_workers == 1 else "shared_memory",
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

    with obs.span(
        "fleet.run", n_units=n_units, n_workers=n_workers, batch_size=batch
    ):
        try:
            if n_workers == 1:
                prev_backend = os.environ.get("REPRO_SIM_BACKEND")
                os.environ["REPRO_SIM_BACKEND"] = resolved_backend
                try:
                    for sid, rep0, count in chunks:
                        cols, chunk_failures = _run_chunk(
                            scenarios,
                            seed,
                            n_replications,
                            sid,
                            rep0,
                            count,
                            resolved_backend,
                        )
                        if len(cols["unit"]):
                            store.append_columns(cols)
                            n_done += len(cols["unit"])
                        n_failed += len(chunk_failures)
                        failures.extend(chunk_failures)
                        report()
                finally:
                    if prev_backend is None:
                        os.environ.pop("REPRO_SIM_BACKEND", None)
                    else:
                        os.environ["REPRO_SIM_BACKEND"] = prev_backend
            else:
                n_done, n_failed, failures = _run_fleet_pool(
                    scenarios,
                    seed,
                    n_replications,
                    n_units,
                    n_workers,
                    resolved_backend,
                    chunks,
                    store,
                    report,
                )
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


def _run_fleet_pool(
    scenarios: list[FleetScenario],
    seed: int,
    n_replications: int,
    n_units: int,
    n_workers: int,
    backend: str,
    chunks: list[tuple[int, int, int]],
    store: FleetStore,
    report: Callable[..., None],
) -> tuple[int, int, list[tuple[int, str]]]:
    """The multi-process path: shared chunk queue + shared result block.

    The task queue is loaded with every chunk up front (small: three
    ints each) followed by one ``None`` sentinel per worker. Result
    rows never ride the queue — workers write them into one
    ``SharedMemory`` segment holding a dtype-correct block per store
    column, indexed by absolute unit id; the queue only carries
    ``("chunk", sid, rep0, count, failures)`` control tuples, which the
    parent drains in batches (one blocking ``get`` then ``get_nowait``
    until empty) and turns into zero-copy column slices appended to the
    store. A worker that dies mid-chunk is detected by liveness checks
    on the drain loop so the parent cannot hang on a lost chunk.
    """
    import multiprocessing as mp
    from multiprocessing import shared_memory

    ctx = mp.get_context()
    columns = store.columns
    shm = shared_memory.SharedMemory(
        create=True, size=max(len(columns) * n_units * 8, 8)
    )
    task_queue: Any = ctx.Queue()
    result_queue: Any = ctx.Queue()
    for chunk in chunks:
        task_queue.put(chunk)
    for _ in range(n_workers):
        task_queue.put(None)
    workers = [
        ctx.Process(
            target=_fleet_worker,
            args=(
                task_queue,
                result_queue,
                scenarios,
                seed,
                n_replications,
                backend,
                shm.name,
                n_units,
            ),
            daemon=True,
        )
        for _ in range(n_workers)
    ]
    for w in workers:
        w.start()

    n_done = 0
    n_failed = 0
    failures: list[tuple[int, str]] = []
    received_units = 0
    views = _shm_views(shm.buf, columns, n_units)
    try:
        while received_units < n_units:
            try:
                messages = [result_queue.get(timeout=1.0)]
            except queue_mod.Empty:
                if not any(w.is_alive() for w in workers):
                    # All workers gone with chunks outstanding: crashed
                    # mid-chunk (OOM/kill). Report what's missing.
                    missing = n_units - received_units
                    failures.append((-1, f"{missing} unit(s) lost to dead workers"))
                    n_failed += missing
                    break
                continue
            while True:  # batch-drain whatever else already arrived
                try:
                    messages.append(result_queue.get_nowait())
                except queue_mod.Empty:
                    break
            for _kind, sid, rep0, count, chunk_failures in messages:
                received_units += count
                # A chunk's units are contiguous: copy the slice out of
                # the shared block, minus the units that failed.
                base = sid * n_replications + rep0
                ok = np.ones(count, dtype=bool)
                ok[[u - base for u, _ in chunk_failures]] = False
                n_ok = int(ok.sum())
                if n_ok:
                    store.append_columns({c: views[c][base : base + count][ok] for c in columns})
                    n_done += n_ok
                n_failed += len(chunk_failures)
                failures.extend(chunk_failures)
            report()
    finally:
        for w in workers:
            w.join(timeout=5.0)
        for w in workers:
            if w.is_alive():
                w.terminate()
        del views
        shm.close()
        shm.unlink()
    return n_done, n_failed, failures
