"""Warm-start continuation sweeps over constraint grids.

Every trade-off figure in the paper (F3/F4/F5/F6/F9, the A4/T4 studies,
the F8 controller) is a sweep of *adjacent* optimization problems: the
same cluster and workload, one constraint value moving along a grid.
Solving each point cold re-pays the full multistart bill at every grid
value even though neighboring optima sit next to each other (P2a, solved
exactly by tier decomposition, has no such bill and sweeps cold).

:func:`continuation_sweep` solves an ordered grid by **continuation**:
each point's solve is seeded with the previous point's optimum (the
``x0_hint`` / ``counts_hint`` threading in the P1/P2b/P3 solvers), and
the solver's batch-scored multistart seeds act as the fallback — a warm
start that fails its acceptance guard degenerates to today's cold
solve, so the frontier *values* are unchanged while the solver effort
drops severalfold (see ``tests/test_sweep_continuation.py`` and the
``frontier_sweep_*`` kernels in ``repro bench``).

:func:`run_series` adds the orthogonal axis: a figure usually has
several *independent* series (the optimizer plus baselines), which can
run in parallel worker processes on the replication engine's
:class:`~repro.simulation.parallel.WorkerPool`: inline unless ``n_jobs``
asks for workers, inline when a payload cannot cross a process
boundary, and results keyed by series name so the output is
bit-identical for any worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro import obs
from repro.exceptions import InfeasibleProblemError, ModelValidationError, UnstableSystemError

__all__ = ["SweepPoint", "ContinuationSweep", "continuation_sweep", "run_series"]


@dataclass
class SweepPoint:
    """One grid point of a continuation sweep.

    Attributes
    ----------
    value:
        The grid value (constraint level) this point was solved at.
    result:
        Whatever the ``solve`` callable returned, or ``None`` when the
        point raised one of the caught exceptions.
    warm:
        True when the solve was seeded with a hint from an earlier
        point (false for the first point and for cold sweeps).
    accepted:
        Whether the solver accepted the warm start (``None`` when the
        result does not report it, e.g. integer solvers).
    nfev, nit, n_evaluations:
        Solver-effort counters read off the result (0 when absent).
    wall_s:
        Wall-clock seconds spent in ``solve`` for this point.
    error:
        The caught exception for infeasible/unstable points.
    """

    value: Any
    result: Any
    warm: bool
    accepted: bool | None
    nfev: int
    nit: int
    n_evaluations: int
    wall_s: float
    error: Exception | None = None


@dataclass
class ContinuationSweep:
    """An ordered frontier: one :class:`SweepPoint` per grid value."""

    points: list[SweepPoint] = field(default_factory=list)
    label: str = ""

    @property
    def values(self) -> list[Any]:
        """The grid values in sweep order."""
        return [p.value for p in self.points]

    @property
    def results(self) -> list[Any]:
        """Per-point results (``None`` where the point failed)."""
        return [p.result for p in self.points]

    @property
    def n_solved(self) -> int:
        """Points that produced a result."""
        return sum(1 for p in self.points if p.result is not None)

    @property
    def total_evaluations(self) -> int:
        """Total objective/feasibility evaluations across the sweep —
        the headline continuation-vs-cold efficiency metric."""
        return sum(p.n_evaluations for p in self.points)

    @property
    def total_nfev(self) -> int:
        """Total winning-start SLSQP function evaluations."""
        return sum(p.nfev for p in self.points)

    @property
    def total_wall_s(self) -> float:
        """Total solve wall-clock across the sweep."""
        return sum(p.wall_s for p in self.points)

    def column(self, extract: Callable[[Any], float], default: float = float("nan")) -> np.ndarray:
        """Map ``extract`` over the results into a float column,
        filling failed points with ``default`` (NaN)."""
        out = []
        for p in self.points:
            out.append(default if p.result is None else float(extract(p.result)))
        return np.array(out)


def _as_float(value: Any) -> float | None:
    """``value`` as a plain float when it is scalar-like, else None.

    Grid values are usually floats (budgets, bounds, loads); telemetry
    consumers (the run store's frontier overlays) need them numeric,
    while exotic grid values (tuples, configs) stay repr-only.
    """
    if isinstance(value, (bool, np.bool_)):
        return None
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value)
    return None


def _objective_of(result: Any) -> float | None:
    """The scalar objective of one solved point, if it exposes one
    (``fun`` for the continuous solvers, ``total_cost`` for P3)."""
    for attr in ("fun", "total_cost"):
        v = getattr(result, attr, None)
        if v is not None:
            try:
                return float(v)
            except (TypeError, ValueError):
                return None
    return None


def continuation_sweep(
    solve: Callable[[Any, Any | None], Any],
    grid: Iterable[Any],
    warm_start: bool = True,
    hint_of: Callable[[Any], Any] | None = None,
    catch: tuple[type[Exception], ...] = (InfeasibleProblemError, UnstableSystemError),
    label: str = "",
) -> ContinuationSweep:
    """Solve an ordered grid of constraint values by continuation.

    Parameters
    ----------
    solve:
        ``solve(value, hint)`` solves one grid point; ``hint`` is
        ``None`` for the first point and for cold sweeps, otherwise the
        previous successful point's optimum. The callable decides what
        a hint means (``x0_hint`` for the continuous solvers,
        ``counts_hint`` for P3).
    grid:
        Ordered constraint values. Order matters: continuation assumes
        neighboring values have neighboring optima, so sweep
        monotonically.
    warm_start:
        ``False`` solves every point cold (the comparison baseline —
        the bench ``frontier_sweep_cold`` kernel and the equivalence
        tests run exactly this).
    hint_of:
        Extracts the next hint from a result; defaults to the
        ``x`` attribute (``OptimizationResult``), with ``server_counts``
        (``CostAllocation``) as fallback.
    catch:
        Exceptions recorded as failed points instead of aborting the
        sweep (the hint then carries over from the last good point).
    label:
        Telemetry label; each point emits a ``sweep.point`` event.
    """
    if hint_of is None:
        def hint_of(result: Any) -> Any:
            x = getattr(result, "x", None)
            if x is not None:
                return x
            return getattr(result, "server_counts", None)

    out = ContinuationSweep(label=label)
    hint: Any = None
    grid = list(grid)
    with obs.span("sweep.run", label=label, warm=warm_start):
        for value in grid:
            t0 = time.perf_counter()
            error: Exception | None = None
            try:
                result = solve(value, hint if warm_start else None)
            except catch as exc:
                result, error = None, exc
            wall = time.perf_counter() - t0
            accepted = None
            if result is not None:
                meta = getattr(result, "meta", None)
                if isinstance(meta, dict) and "warm_start" in meta:
                    accepted = bool(meta["warm_start"]["accepted"])
            point = SweepPoint(
                value=value,
                result=result,
                warm=bool(warm_start and hint is not None),
                accepted=accepted,
                nfev=int(getattr(result, "nfev", 0) or 0),
                nit=int(getattr(result, "nit", 0) or 0),
                n_evaluations=int(getattr(result, "n_evaluations", 0) or 0),
                wall_s=wall,
                error=error,
            )
            out.points.append(point)
            obs.event(
                "sweep.point",
                label=label,
                value=repr(value),
                value_num=_as_float(value),
                fun=_objective_of(result),
                index=len(out.points) - 1,
                n_total=len(grid),
                warm=point.warm,
                accepted=accepted,
                n_evaluations=point.n_evaluations,
                failed=result is None,
                wall_s=wall,
            )
            if result is not None and warm_start:
                new_hint = hint_of(result)
                if new_hint is not None:
                    hint = np.array(new_hint, copy=True)
    obs.counter("sweep.points").add(len(out.points))
    return out


def _run_task(payload: tuple[str, Callable[..., Any], tuple[Any, ...]]) -> tuple[str, Any]:
    """Worker entry point: one named series. Module-level so a process
    pool can pickle it."""
    name, fn, args = payload
    return name, fn(*args)


def run_series(
    tasks: Mapping[str, tuple[Callable[..., Any], Sequence[Any]]],
    n_jobs: int | None = None,
) -> dict[str, Any]:
    """Run independent named series, optionally in worker processes.

    Parameters
    ----------
    tasks:
        ``{name: (fn, args)}`` — each ``fn(*args)`` computes one series
        (e.g. the optimal frontier vs. a baseline). Functions must be
        module-level (picklable) for the parallel path; closures fall
        back to serial execution, same as the replication engine.
    n_jobs:
        Worker processes (:func:`repro.simulation.parallel.resolve_n_jobs`
        semantics: ``None``/``1`` serial, ``-1`` all cores).

    Returns
    -------
    dict
        ``{name: series_result}`` in task insertion order — identical
        for any worker count, since every series is independent and
        results are keyed by name, never by completion order.
    """
    from repro.simulation.parallel import WorkerPool, payload_is_picklable, resolve_n_jobs

    if not tasks:
        raise ModelValidationError("run_series needs at least one task")
    payloads = [(name, fn, tuple(args)) for name, (fn, args) in tasks.items()]
    n = resolve_n_jobs(n_jobs)
    n_workers = min(n, len(payloads))
    if n_workers > 1 and not all(payload_is_picklable(p) for p in payloads):
        n_workers = 1
    results: dict[str, Any] = {}

    def on_done(done: tuple[str, Any]) -> None:
        name, value = done
        results[name] = value

    with obs.span("sweep.series", n_tasks=len(payloads), n_jobs=n, parallel=n_workers > 1):
        with WorkerPool(n_workers) as pool:
            pool.run(_run_task, payloads, on_done)
    return {name: results[name] for name in tasks}
