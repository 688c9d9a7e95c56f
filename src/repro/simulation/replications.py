"""Independent replications and across-replication confidence intervals.

Within-run confidence intervals understate the truth because
consecutive sojourn times are autocorrelated; the statistically honest
estimate averages *independent replications*, each with its own RNG
tree. :func:`simulate_replications` is what the validation experiments
(T1/T2, A2, A3, F7) call.

The replication engine is parallel and cached:

* ``n_jobs`` fans replications out over a
  :class:`~repro.simulation.parallel.WorkerPool`, sized to
  ``min(n_jobs, replications still to run)`` when the first round is
  dispatched and reused by every later round; a one-worker pool (or a
  payload that cannot be pickled) runs inline. Each round is split
  into at most one contiguous block of seeds per worker: a compiled
  block is one kernel call, a Python block one :func:`simulate` call
  per seed. Every replication's RNG tree still comes from the same
  ``RngStreams.replication_seeds`` SeedSequence child, and aggregation
  is ordered by replication index, so the numbers are
  **bit-identical for any worker count**.
* ``cache_dir`` memoizes per-replication results on disk
  (:mod:`repro.simulation.cache`), keyed by a content hash of the full
  configuration; re-running a suite skips already-computed work.
* ``progress`` receives one observability record per finished
  replication (wall time, events/sec, cache status); the same records
  land on ``ReplicatedResult.meta["replications"]``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.cluster.model import ClusterModel
from repro.exceptions import ModelValidationError
from repro.simulation.cache import (
    CacheUnsupportedError,
    SimulationCache,
    simulation_fingerprint,
)
from repro.simulation.parallel import (
    ReplicationTiming,
    WorkerPool,
    payload_is_picklable,
    resolve_n_jobs,
)
from repro.simulation.rng import RngStreams
from repro.simulation.simulator import SimulationResult, resolve_backend, resolve_engine, simulate
from repro.simulation.stats import confidence_halfwidth, confidence_halfwidths
from repro.workload.arrivals import ArrivalProcess
from repro.workload.classes import Workload

__all__ = ["ReplicatedResult", "simulate_replications"]


@dataclass
class ReplicatedResult:
    """Across-replication means and 95% CIs of the simulated metrics.

    ``delays`` etc. are means over replications; the matching ``*_ci``
    fields are Student-t half-widths with ``n_replications - 1``
    degrees of freedom. ``meta`` carries engine observability (per
    replication: wall time, events/sec, cached flag; plus backend name,
    worker count and cache hit/miss totals) and is **excluded** from
    the bit-identical reproducibility guarantee — timings obviously
    vary run to run.
    """

    class_names: tuple[str, ...]
    n_replications: int
    delays: np.ndarray
    delays_ci: np.ndarray
    mean_delay: float
    mean_delay_ci: float
    utilizations: np.ndarray
    average_power: float
    average_power_ci: float
    energy_per_request: float
    per_class_dynamic_energy: np.ndarray
    station_sojourns: np.ndarray
    station_waits: np.ndarray
    replications: list[SimulationResult]
    meta: dict[str, Any] = field(default_factory=dict)

    def delay_percentiles(
        self, p: float, with_counts: bool = False
    ) -> tuple[np.ndarray, ...]:
        """Across-replication mean and CI of the per-class empirical
        ``p``-percentile delay (requires ``collect_delay_samples=True``).

        A replication in which a class completed zero jobs yields a NaN
        percentile for that class; such replications are *excluded*
        per class rather than poisoning the mean/CI: the mean is the
        ``nanmean`` over replications and the CI uses the effective
        (finite) replication count per class. Classes with fewer than
        two finite replications get a NaN CI.

        Parameters
        ----------
        p:
            Percentile level in ``(0, 1)``.
        with_counts:
            When True, also return the per-class effective replication
            count, i.e. ``(means, cis, counts)``.
        """
        per_rep = np.array(
            [
                [r.delay_percentile(k, p) for k in range(len(self.class_names))]
                for r in self.replications
            ]
        )
        finite = np.isfinite(per_rep)
        counts = finite.sum(axis=0)
        # Nan-aware column means/stds in one pass: masked entries enter
        # the sums as exact additive zeros, so each column's mean and
        # ddof=1 deviation sum match the compacted per-column
        # computation bit for bit at these replication counts.
        sums = np.where(finite, per_rep, 0.0).sum(axis=0)
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        dev2 = np.where(finite, np.square(per_rep - means), 0.0).sum(axis=0)
        cis = np.full(per_rep.shape[1], np.nan)
        # The t-quantile depends on each column's *effective* count, so
        # columns are grouped by count (few distinct values) rather
        # than sharing one quantile.
        for c in np.unique(counts):
            if c >= 2:
                mask = counts == c
                stds = np.sqrt(dev2[mask] / (c - 1))
                cis[mask] = confidence_halfwidths(stds, int(c))
        if with_counts:
            return means, cis, counts
        return means, cis


def _aggregate(
    runs: list[SimulationResult], n_replications: int, meta: dict[str, Any]
) -> ReplicatedResult:
    """Fold per-replication results into across-replication statistics.

    Pure function of the *ordered* run list — the source of the
    any-worker-count reproducibility guarantee.
    """
    delays = np.stack([r.delays for r in runs])
    means = np.array([r.mean_delay for r in runs])
    powers = np.array([r.average_power for r in runs])

    def ci_over_reps(samples: np.ndarray) -> np.ndarray:
        # One vectorized std over the replication axis (every column
        # shares the same count, hence one memoized t-quantile) instead
        # of a Python lambda per column through apply_along_axis.
        if n_replications < 2:
            return np.full(samples.shape[1:], np.nan)
        return confidence_halfwidths(np.std(samples, axis=0, ddof=1), n_replications)

    return ReplicatedResult(
        class_names=runs[0].class_names,
        n_replications=n_replications,
        delays=delays.mean(axis=0),
        delays_ci=ci_over_reps(delays),
        mean_delay=float(means.mean()),
        mean_delay_ci=float(
            confidence_halfwidth(float(np.std(means, ddof=1)), n_replications)
        )
        if n_replications > 1
        else float("nan"),
        utilizations=np.stack([r.utilizations for r in runs]).mean(axis=0),
        average_power=float(powers.mean()),
        average_power_ci=float(
            confidence_halfwidth(float(np.std(powers, ddof=1)), n_replications)
        )
        if n_replications > 1
        else float("nan"),
        energy_per_request=float(np.mean([r.energy_per_request for r in runs])),
        per_class_dynamic_energy=np.stack(
            [r.per_class_dynamic_energy for r in runs]
        ).mean(axis=0),
        station_sojourns=np.stack([r.station_sojourns for r in runs]).mean(axis=0),
        station_waits=np.stack([r.station_waits for r in runs]).mean(axis=0),
        replications=runs,
        meta=meta,
    )


def simulate_replications(
    cluster: ClusterModel,
    workload: Workload,
    horizon: float,
    n_replications: int = 5,
    warmup_fraction: float = 0.1,
    seed: int = 0,
    arrival_processes: list[ArrivalProcess] | None = None,
    collect_delay_samples: bool = False,
    *,
    routing: list | None = None,
    allow_unstable: bool = False,
    collect_job_log: bool = False,
    n_jobs: int | None = None,
    cache_dir: str | SimulationCache | None = None,
    progress: Callable[[ReplicationTiming, int, int], None] | None = None,
    backend: str | None = None,
) -> ReplicatedResult:
    """Run ``n_replications`` independent replications and aggregate.

    Every replication draws its RNG tree from an independent child of
    the master seed, so the across-replication CI is statistically
    valid. All per-run :func:`simulate` options (``routing``,
    ``allow_unstable``, ``collect_job_log``, ...) are forwarded to
    every replication.

    Parameters
    ----------
    n_jobs:
        Worker processes: ``None``/``1`` serial (default), ``-1`` all
        cores, ``k > 1`` a pool of ``k``. Results are bit-identical for
        any value; only wall-clock changes.
    cache_dir:
        Directory (or a :class:`SimulationCache`) memoizing finished
        replications on disk by a content hash of the configuration.
        A warm cache returns without running the simulator at all.
        Configurations that cannot be fingerprinted (e.g. closure-based
        arrival-rate functions) silently bypass the cache
        (``meta["cache"] == "unsupported"``).
    progress:
        Callback invoked once per finished replication (in completion
        order) with ``(timing_record, n_done, n_total)``.
    backend:
        As for :func:`simulate`; every replication runs on the engine
        decided once, before the first is dispatched.
    """
    with obs.span(
        "sim.replications",
        n_replications=n_replications,
        horizon=horizon,
        n_jobs=n_jobs,
        cache=cache_dir is not None,
    ):
        if n_replications < 1:
            raise ModelValidationError(f"need at least one replication, got {n_replications}")
        t_start = time.perf_counter()
        runner = _ReplicationRunner(
            _sim_kwargs_common(
                cluster,
                workload,
                horizon,
                warmup_fraction,
                arrival_processes,
                collect_delay_samples,
                routing,
                allow_unstable,
                collect_job_log,
                backend,
            ),
            RngStreams.replication_seeds(seed, n_replications),
            cache=_resolve_cache(cache_dir),
            n_jobs=n_jobs,
            progress=progress,
        )
        with runner:
            runner.ensure(range(n_replications))
        meta = runner.meta(time.perf_counter() - t_start)
        return _aggregate(runner.runs(n_replications), n_replications, meta)


def _resolve_cache(cache_dir: str | SimulationCache | None) -> SimulationCache | None:
    if cache_dir is None:
        return None
    if isinstance(cache_dir, SimulationCache):
        return cache_dir
    return SimulationCache(cache_dir)


class _ReplicationRunner:
    """Cache-aware incremental dispatcher for one replication family.

    Owns the seed list, the on-disk cache pass, payload construction
    and pool dispatch for a fixed configuration. The fixed-count
    engine asks for every index at once; the adaptive engine
    (:mod:`repro.simulation.adaptive`) calls :meth:`ensure` round by
    round against one :class:`WorkerPool` (use the runner as a context
    manager so the pool is torn down).

    ``results`` is keyed by replication index; aggregation over an
    *ordered prefix* of it is what makes the numbers independent of
    worker count, completion order and round size.
    """

    def __init__(
        self,
        sim_kwargs_common: dict[str, Any],
        seeds: list,
        *,
        cache: SimulationCache | None = None,
        n_jobs: int | None = None,
        progress: Callable[[ReplicationTiming, int, int], None] | None = None,
    ):
        self.sim_kwargs = sim_kwargs_common
        self.seeds = seeds
        self.cache = cache
        self.progress = progress
        self.results: dict[int, SimulationResult] = {}
        self.timings: list[ReplicationTiming] = []
        self.cache_state = "disabled" if cache is None else "enabled"
        self._fingerprints: dict[int, str] = {}
        self._n_jobs = resolve_n_jobs(n_jobs)
        self._pool: WorkerPool | None = None
        self._n_workers = 0  # the pool's size once dispatched; survives __exit__
        self._n_done = 0

    def __enter__(self) -> "_ReplicationRunner":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.__exit__(*exc)
            self._pool = None

    def _notify(self, timing: ReplicationTiming) -> None:
        self._n_done += 1
        self.timings.append(timing)
        obs.event(
            "sim.replication",
            index=timing.index,
            wall_s=timing.wall_time_s,
            n_events=timing.n_events,
            events_per_sec=timing.events_per_sec,
            cached=timing.cached,
            n_done=self._n_done,
            n_total=len(self.seeds),
        )
        if self.progress is not None:
            self.progress(timing, self._n_done, len(self.seeds))

    def _fingerprint(self, index: int) -> str | None:
        """The cache fingerprint for one index, or ``None`` when the
        configuration cannot be fingerprinted (cache bypassed)."""
        if self.cache is None or self.cache_state.startswith("unsupported"):
            return None
        fp = self._fingerprints.get(index)
        if fp is None:
            kw = self.sim_kwargs
            try:
                fp = simulation_fingerprint(
                    kw["cluster"],
                    kw["workload"],
                    kw["horizon"],
                    kw["warmup_fraction"],
                    self.seeds[index],
                    arrival_processes=kw["arrival_processes"],
                    routing=kw["routing"],
                    allow_unstable=kw["allow_unstable"],
                    collect_delay_samples=kw["collect_delay_samples"],
                    collect_job_log=kw["collect_job_log"],
                )
            except CacheUnsupportedError:
                # Fingerprints differ per index only in the seed child,
                # so one failure means every index fails.
                self._fingerprints.clear()
                self.cache_state = "unsupported" + self.cache_state.removeprefix("enabled")
                return None
            self._fingerprints[index] = fp
        return fp

    def ensure(self, indices) -> None:
        """Make ``results[i]`` available for every ``i`` in ``indices``.

        Cache pass first (hits are notified with a zero-cost timing
        record), then one pool round for whatever is left: at most one
        contiguous block of indices per worker (one inline block when
        serial). A failed replication raises, once every replication
        its block finished is stored.
        """
        needed = [i for i in indices if i not in self.results]
        if self.cache is not None:
            for i in needed:
                fp = self._fingerprint(i)
                if fp is None:
                    break
                hit = self.cache.load(fp)
                if hit is not None:
                    self.results[i] = hit
                    self._notify(
                        ReplicationTiming(index=i, wall_time_s=0.0, n_events=0, cached=True)
                    )
        needed = [i for i in needed if i not in self.results]
        if not needed:
            return
        if self._pool is None:
            # The engine is decided here, once, so a fallback warns in
            # this process and no replication falls back on its own.
            kw = self.sim_kwargs
            kw["backend"] = resolve_engine(kw["backend"], kw["cluster"])
            # One sizing rule: no more workers than the work still to
            # come, and one (inline) when the payload cannot be pickled.
            n = min(self._n_jobs, len(self.seeds) - len(self.results))
            if self._n_jobs > 1 and not payload_is_picklable((kw, self.seeds[needed[0]])):
                n = 1
                self.cache_state += "+serial-fallback"
            self._pool = WorkerPool(n)
            self._n_workers = n
        n = min(self._pool.n_workers, len(needed))
        blocks = [needed[len(needed) * j // n : len(needed) * (j + 1) // n] for j in range(n)]
        payloads = [(b, self.sim_kwargs, [self.seeds[i] for i in b]) for b in blocks]

        def on_done(done: tuple[list[tuple[int, SimulationResult, float]], Any]) -> None:
            finished, error = done
            for index, result, wall in finished:
                self.results[index] = result
                fp = self._fingerprints.get(index)
                if self.cache is not None and fp is not None:
                    self.cache.store(fp, result)
                self._notify(
                    ReplicationTiming(
                        index=index,
                        wall_time_s=wall,
                        n_events=int(result.meta.get("n_events", 0)),
                    )
                )
            if error is not None:
                raise error

        self._pool.run(_run_block, payloads, on_done)

    def runs(self, n: int) -> list[SimulationResult]:
        """The ordered result prefix ``[0, n)`` (every index must exist)."""
        return [self.results[i] for i in range(n)]

    def meta(self, wall_time_s: float, **extra: Any) -> dict[str, Any]:
        """Engine observability dict for ``ReplicatedResult.meta``."""
        timings = sorted(self.timings, key=lambda rec: rec.index)
        cache_hits = sum(1 for rec in timings if rec.cached)
        # Misses count only replications the cache was actually
        # consulted for — an unfingerprintable configuration bypasses
        # the cache entirely, so it has no misses.
        cache_misses = sum(
            1 for rec in timings if not rec.cached and rec.index in self._fingerprints
        )
        obs.counter("sim.cache.hits").add(cache_hits)
        obs.counter("sim.cache.misses").add(cache_misses)
        # Process-pool workers run un-traced (the registry lives in the
        # parent), so their event totals are recorded here from the
        # counts that traveled back with each result.
        if self._n_workers > 1:
            obs.counter("sim.events").add(sum(rec.n_events for rec in timings if not rec.cached))
        return {
            "backend": {0: "cache", 1: "serial"}.get(self._n_workers, "process"),
            "n_jobs": self._n_workers,
            "cache": self.cache_state,
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "wall_time_s": wall_time_s,
            "replications": [rec.as_dict() for rec in timings],
            **extra,
        }


def _run_block(payload: tuple[list[int], dict[str, Any], list]) -> tuple[list, Any]:
    """Pool entry point: replications ``indices`` of one family, under
    their ``seeds``, as one block.

    ``payload`` is ``(indices, simulate_kwargs, seeds)`` with
    ``backend`` ``"python"`` or ``"compiled"``.  On the compiled engine
    the block is one kernel call; on the Python engine it is one
    :func:`simulate` call per seed.  Returns ``(finished, error)``:
    ``(index, result, wall_s)`` for each replication that finished, in
    index order, and the exception of the lowest index that failed
    (``None`` when none did).  The block's clock starts once the kernel
    is loaded, and the ``wall_s`` of a block that did not fail add up
    to its elapsed time on either engine: a compiled replication is
    charged its own kernel time plus an equal share of the block's
    descriptor setup and finalize.
    """
    indices, kwargs, seeds = payload
    if kwargs["backend"] != "python":
        from repro.simulation.compiled import kernel_available, simulate_block

        kernel_available()  # loads the kernel outside the block's clock
        t0 = time.perf_counter()
        block = simulate_block(seeds, **kwargs)
        if block is not None:
            finished = [
                (i, block.result(b), block.scalars[b, 4] / 1e9)
                for b, i in enumerate(indices)
                if b not in block.errors
            ]
            kernel_s = block.scalars[:, 4].sum() / 1e9
            share = (time.perf_counter() - t0 - kernel_s) / len(indices)
            finished = [(i, result, float(wall + share)) for i, result, wall in finished]
            return finished, block.errors[min(block.errors)] if block.errors else None
    finished = []
    t0 = time.perf_counter()
    for index, seed in zip(indices, seeds):
        try:
            result = simulate(**kwargs, seed=seed)
        except Exception as exc:
            return finished, exc
        t1 = time.perf_counter()
        finished.append((index, result, t1 - t0))
        t0 = t1
    return finished, None


def _sim_kwargs_common(
    cluster: ClusterModel,
    workload: Workload,
    horizon: float,
    warmup_fraction: float,
    arrival_processes: list[ArrivalProcess] | None,
    collect_delay_samples: bool,
    routing: list | None,
    allow_unstable: bool,
    collect_job_log: bool,
    backend: str | None,
) -> dict[str, Any]:
    return dict(
        cluster=cluster,
        workload=workload,
        horizon=horizon,
        warmup_fraction=warmup_fraction,
        arrival_processes=arrival_processes,
        collect_delay_samples=collect_delay_samples,
        routing=routing,
        allow_unstable=allow_unstable,
        collect_job_log=collect_job_log,
        backend=resolve_backend(backend),
    )
