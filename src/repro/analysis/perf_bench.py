"""Timed micro-benchmarks of the library's hot kernels.

``python -m repro bench`` times each kernel (min over several repeats,
the standard noise-robust statistic), writes the results as JSON, and
— in ``--check`` mode — compares against a committed baseline so CI
can fail on real regressions.

Raw wall times are not comparable across machines, so every run also
times a **calibration kernel**: a fixed pure-Python spin loop whose
cost tracks the host's single-core speed. The check compares
*calibration-normalized* times (kernel seconds per calibration
second), which cancels the machine-speed factor between the committed
baseline and the CI runner. The spin is also timed right before each
timed repeat of every kernel, so a kernel is normalized by the host
speed it saw, not the speed at the start of the run. Gated kernels
(default: the simulation kernel) fail the check when their normalized
time regresses beyond the tolerance; everything else is reported but
informational.
"""

from __future__ import annotations

import json
import platform
import time
from collections.abc import Callable

import numpy as np

__all__ = [
    "run_benchmarks",
    "compare_to_baseline",
    "history_entry",
    "append_history",
    "load_history",
    "check_history",
    "BenchSkip",
    "KERNELS",
    "DEFAULT_GATES",
    "DEFAULT_HISTORY",
]


class BenchSkip(Exception):
    """A kernel's setup declined to run on this host (missing optional
    capability, e.g. no C toolchain for the compiled simulation
    backend). The kernel is recorded as skipped instead of timed; a
    skipped *gated* kernel still fails ``--check`` — a gate that cannot
    run cannot vouch that it didn't regress."""

#: Default location of the append-only bench history (one JSON line per
#: recorded run; read by ``check_history`` and the dashboard).
DEFAULT_HISTORY = "benchmarks/results/BENCH_history.jsonl"

#: Kernels whose regression fails ``--check`` (others only report).
#: ``frontier_sweep_warm`` gates the continuation machinery: if warm
#: starts stop being accepted, the kernel collapses to the cold path
#: and its normalized time blows past the tolerance.
#: ``adaptive_vs_fixed`` gates the precision-targeted engine twice
#: over: the kernel itself *raises* when the adaptive run silently
#: falls back to the fixed replication count (so the bench errors out
#: long before any timing comparison), and its normalized time is
#: checked like the other gates.
#: ``sim_replication_h500_compiled`` gates the compiled event-loop
#: kernel: its setup *raises* when the compiled backend fails to beat
#: the pure-Python loop by the 10x acceptance floor, and its normalized
#: time is checked like the other gates (a fallback to pure Python is
#: ~15x slower and blows the tolerance immediately).
#: ``fleet_sweep_1k`` gates the fleet runner end to end: 1000
#: (scenario × replication) units through the work-stealing dispatch
#: path into a columnar store.
#: ``fleet_sweep_batched`` gates batched kernel dispatch: the same
#: 1000-unit sweep with multi-replication C calls must sustain at
#: least 3x the ``batch_size=1`` unit-at-a-time throughput (its setup
#: *raises* below the floor — losing the batch path is a regression
#: of the fleet throughput claim).
#: ``a7_epoch_compiled``, ``adaptive_antithetic_compiled`` and
#: ``sim_ps_h500_compiled`` gate the closed kernel support envelope:
#: epoch-controlled runs (the yield protocol), antithetic mirrored
#: streams and PS tiers each *raise* in setup when the compiled path
#: is less than 5x faster than the pure-Python engine — a silent
#: fallback for any of these classes re-opens the envelope and must
#: fail the bench outright, not drift past as a slowdown.
#: ``plan_schedule_p2a`` gates the analytic layer: A7's quick diurnal
#: schedule spends most of its time in SpeedModel's tier solves through
#: the tier kernels, so a slower kernel, a lost memo or a fallback to
#: building station specs per probe shows up here.
DEFAULT_GATES = (
    "sim_replication_h500",
    "sim_replication_h500_compiled",
    "fleet_sweep_1k",
    "fleet_sweep_batched",
    "frontier_sweep_warm",
    "adaptive_vs_fixed",
    "a7_epoch_compiled",
    "adaptive_antithetic_compiled",
    "sim_ps_h500_compiled",
    "plan_schedule_p2a",
)

#: Name of the machine-speed calibration kernel.
CALIBRATION = "calibration_spin"


def _kernel_calibration_spin() -> Callable[[], object]:
    def spin() -> int:
        acc = 0
        for i in range(2_000_000):
            acc += i & 7
        return acc

    return spin


def _kernel_sim_replication_h500() -> Callable[[], object]:
    from repro.experiments.common import canonical_cluster, canonical_workload
    from repro.simulation import simulate

    cluster, workload = canonical_cluster(), canonical_workload()
    return lambda: simulate(cluster, workload, horizon=500.0, seed=99)


def _kernel_sim_replication_h500_compiled() -> Callable[[], object]:
    """The same replication as ``sim_replication_h500`` on the compiled
    C event-loop kernel.

    Setup enforces the acceptance floor through
    :func:`_compiled_floor_setup`: it **raises** when the compiled
    kernel is less than 10x faster than the pure-Python loop — a silent
    fallback or a de-optimized kernel is a correctness-of-claim
    regression, not a slowdown, and must fail the bench outright. Hosts
    without a C toolchain skip via :class:`BenchSkip` (which still
    fails the gate under ``--check``).
    """
    from repro.experiments.common import canonical_cluster, canonical_workload
    from repro.simulation import simulate

    cluster, workload = canonical_cluster(), canonical_workload()

    def once(backend: str) -> object:
        return simulate(cluster, workload, horizon=500.0, seed=99, backend=backend)

    _extra, run = _compiled_floor_setup(once, 10.0, "sim_replication_h500_compiled")
    return run


def _compiled_floor_setup(
    once: Callable[[str], object], floor: float, label: str
) -> tuple[dict, Callable[[], object]]:
    """Shared setup for the compiled-envelope gate kernels.

    Times ``once(backend)`` (min over 3) for each backend, **raises**
    when the compiled path is less than ``floor``x faster than the pure-Python
    engine — for these kernels a silent fallback is a correctness-of-
    claim regression, not a slowdown — and returns the ``bench_extra``
    speedup record plus a closure running ``once`` compiled. Hosts
    without a C toolchain skip via :class:`BenchSkip`.
    """
    from repro.simulation.compiled import kernel_available, kernel_status

    if not kernel_available():
        raise BenchSkip(f"compiled kernel unavailable: {kernel_status()['error']}")

    def timed(backend: str) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            once(backend)
            best = min(best, time.perf_counter() - t0)
        return best

    t_compiled = timed("compiled")  # first call also pays the one-time build
    t_python = timed("python")
    speedup = t_python / t_compiled if t_compiled > 0 else float("inf")
    if speedup < floor:
        raise RuntimeError(
            f"{label}: compiled speedup {speedup:.1f}x below the {floor:g}x "
            f"acceptance floor (python {t_python * 1e3:.2f} ms, "
            f"compiled {t_compiled * 1e3:.2f} ms)"
        )
    extra = {"speedup_vs_python": round(speedup, 2)}

    def run() -> dict:
        once("compiled")
        return {"bench_extra": extra}

    return extra, run


def _kernel_a7_epoch_compiled() -> Callable[[], object]:
    """The A7 controller-in-the-loop run on the compiled kernel.

    Same scenario as ``controller_epoch`` (drift-plus-penalty speed
    decisions on a diurnal trace; 100 epoch boundaries at epoch length
    2.0), but through the kernel's epoch-boundary yield protocol: the
    C loop pauses at each boundary, surfaces queue backlogs and
    segmented energy to the Python controller, applies the returned
    speeds via the work-preserving rescale, and resumes. The per-epoch
    controller work runs in Python under *both* backends, so finer
    epochs shrink the measurable gap (Amdahl); length 2.0 keeps the
    yield protocol hot while the event loop still dominates. Setup
    raises below the 5x acceptance floor vs the pure-Python engine.
    """
    from repro.control import DriftPlusPenaltyController, run_controlled
    from repro.experiments.common import CLASS_NAMES, canonical_cluster, canonical_workload
    from repro.workload.timevarying import diurnal_trace

    cluster = canonical_cluster()
    base = canonical_workload().arrival_rates
    horizon = 200.0
    trace = diurnal_trace(
        base, horizon, period=horizon, trough=0.5, peak=1.3, seed=17,
        class_names=CLASS_NAMES,
    )
    policy = DriftPlusPenaltyController(cluster, v_param=5e-4)

    def once(backend: str) -> object:
        return run_controlled(
            cluster, trace, policy, 2.0, max_mean_delay=0.35, seed=17, backend=backend
        )

    _extra, run = _compiled_floor_setup(once, 5.0, "a7_epoch_compiled")
    return run


def _kernel_adaptive_antithetic_compiled() -> Callable[[], object]:
    """The adaptive precision engine's antithetic estimator on the
    compiled kernel.

    One precision-targeted run (5% relative CI on mean delay) with
    ``estimator="antithetic"``: every replication is a mirrored-stream
    pair, exercising the kernel's pre-drawn coupled uniform blocks.
    Setup raises below the 5x acceptance floor vs the pure-Python
    engine, and the timed closure raises if the run stops certifying
    its target.
    """
    from repro.experiments.common import small_cluster, small_workload
    from repro.simulation import PrecisionTarget, simulate_replications_adaptive

    cluster, workload = small_cluster(), small_workload()
    target = PrecisionTarget(
        estimator="antithetic",
        rel_ci={"mean_delay": 0.05},
        min_replications=4,
        max_replications=32,
        round_size=2,
    )

    def once(backend: str) -> object:
        rep = simulate_replications_adaptive(
            cluster, workload, horizon=500.0, target=target, seed=123, backend=backend
        )
        if not rep.meta["adaptive"]["target_met"]:
            raise RuntimeError(
                "antithetic adaptive run missed the precision target it is "
                f"benched on (n_simulated={rep.meta['adaptive']['n_simulated']})"
            )
        return rep

    _extra, run = _compiled_floor_setup(once, 5.0, "adaptive_antithetic_compiled")
    return run


def _kernel_sim_ps_h500_compiled() -> Callable[[], object]:
    """One h=500 replication of the canonical cluster with PS tiers on
    the compiled kernel (the C processor-sharing service law: equal
    shares above capacity, remaining-work rescheduling on every
    arrival/departure). Setup raises below the 5x acceptance floor vs
    the pure-Python engine.
    """
    from repro.experiments.common import canonical_cluster, canonical_workload
    from repro.simulation import simulate

    cluster = canonical_cluster(discipline="ps")
    workload = canonical_workload()

    def once(backend: str) -> object:
        return simulate(cluster, workload, horizon=500.0, seed=99, backend=backend)

    _extra, run = _compiled_floor_setup(once, 5.0, "sim_ps_h500_compiled")
    return run


def _kernel_fleet_sweep_1k() -> Callable[[], object]:
    """1000 (scenario × replication) units through the fleet runner.

    Serial dispatch (process-pool start-up would dominate a micro
    benchmark and add scheduler noise) on the small validation
    cluster, streaming into an npz-format columnar store in a
    temporary directory — the end-to-end per-unit overhead of the
    fleet path: seed derivation, simulation, row distillation, and
    buffered columnar writes. Raises when any unit fails.
    """
    import shutil
    import tempfile

    from repro.experiments.common import small_cluster, small_workload
    from repro.simulation import FleetScenario, run_fleet

    cluster = small_cluster()
    scenarios = [
        FleetScenario(
            label=f"load={f:g}",
            cluster=cluster,
            workload=small_workload(f),
            horizon=10.0,
            params={"load_factor": f},
        )
        for f in (0.5, 0.7, 0.9, 1.1)
    ]

    def run() -> dict:
        tmp = tempfile.mkdtemp(prefix="repro-fleet-bench-")
        try:
            summary = run_fleet(
                scenarios,
                250,
                f"{tmp}/store",
                seed=7,
                n_jobs=1,
                store_format="npz",
                progress_every=1e9,
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if summary.n_done != 1000 or summary.n_failed:
            raise RuntimeError(
                f"fleet sweep completed {summary.n_done}/1000 units "
                f"({summary.n_failed} failed)"
            )
        return {
            "bench_extra": {
                "n_units": summary.n_done,
                "units_per_sec": round(summary.units_per_sec, 1),
            }
        }

    return run


def _kernel_fleet_sweep_batched() -> Callable[[], object]:
    """The ``fleet_sweep_1k`` workload through batched kernel dispatch.

    Same 1000-unit grid as ``fleet_sweep_1k``, compiled backend,
    serial: each replication chunk is one multi-replication C call
    (kernel state and RNG arenas allocated once per chunk, reset
    between replications) with chunk results appended columnar. Setup
    times the same sweep at ``batch_size=1`` (the unit-at-a-time
    dispatch path) and **raises** when batching is less than 3x the
    unbatched units/sec — losing the batch path is a regression of the
    fleet throughput claim, not a slowdown. Hosts without a C
    toolchain skip. Rows are bit-identical either way (covered by
    ``tests/test_fleet_batch.py``); this kernel gates only the
    throughput.

    It barely sees the event loop: most of the ~19 ms sweep is
    per-chunk and per-unit fixed cost (descriptor setup, finalize,
    store writes), so a sweep with 1.5x the events can still pass.
    ``sim_replication_h500_compiled`` is the event-loop gate; this one
    mostly guards the per-chunk and per-unit cost.
    """
    import shutil
    import tempfile

    from repro.experiments.common import small_cluster, small_workload
    from repro.simulation import FleetScenario, run_fleet
    from repro.simulation.compiled import kernel_available, kernel_status

    if not kernel_available():  # also loads the kernel, outside the timing
        raise BenchSkip(f"compiled kernel unavailable: {kernel_status()['error']}")

    cluster = small_cluster()
    scenarios = [
        FleetScenario(
            label=f"load={f:g}",
            cluster=cluster,
            workload=small_workload(f),
            horizon=10.0,
            params={"load_factor": f},
        )
        for f in (0.5, 0.7, 0.9, 1.1)
    ]

    def sweep(batch_size: int | str) -> float:
        tmp = tempfile.mkdtemp(prefix="repro-fleet-batch-bench-")
        try:
            summary = run_fleet(
                scenarios,
                250,
                f"{tmp}/store",
                seed=7,
                n_jobs=1,
                backend="compiled",
                batch_size=batch_size,
                store_format="npz",
                progress_every=1e9,
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if summary.n_done != 1000 or summary.n_failed:
            raise RuntimeError(
                f"batched fleet sweep completed {summary.n_done}/1000 units "
                f"({summary.n_failed} failed)"
            )
        return summary.wall_time_s

    t_unbatched = min(sweep(1) for _ in range(2))
    t_batched = min(sweep("auto") for _ in range(2))
    speedup = t_unbatched / t_batched if t_batched > 0 else float("inf")
    if speedup < 3.0:
        raise RuntimeError(
            f"fleet_sweep_batched: batched dispatch {speedup:.1f}x below the 3x "
            f"acceptance floor vs batch_size=1 (unbatched {t_unbatched * 1e3:.0f} ms, "
            f"batched {t_batched * 1e3:.0f} ms)"
        )
    extra = {"speedup_vs_unbatched": round(speedup, 2)}

    def run() -> dict:
        wall = sweep("auto")
        return {
            "bench_extra": {
                **extra,
                "units_per_sec": round(1000.0 / wall, 1),
            }
        }

    return run


def _kernel_analytic_eval_x100() -> Callable[[], object]:
    from repro.core.delay import end_to_end_delays
    from repro.core.energy import average_power
    from repro.experiments.common import canonical_cluster, canonical_workload

    cluster, workload = canonical_cluster(), canonical_workload()

    def run() -> float:
        total = 0.0
        for _ in range(100):
            total += float(end_to_end_delays(cluster, workload).sum())
            total += average_power(cluster, workload)
        return total

    return run


def _kernel_batch_eval_100() -> Callable[[], object]:
    from repro.core.batch_eval import BatchEvaluator
    from repro.experiments.common import canonical_cluster, canonical_workload

    cluster, workload = canonical_cluster(), canonical_workload()
    evaluator = BatchEvaluator(cluster, workload)
    rng = np.random.default_rng(0)
    speeds = rng.uniform(0.6, 1.0, size=(100, cluster.num_tiers))
    return lambda: (
        evaluator.end_to_end_delays(speeds),
        evaluator.average_power(speeds),
    )


def _kernel_percentile_batch_x50() -> Callable[[], object]:
    from repro.core.percentile import all_class_percentiles_batch
    from repro.experiments.common import canonical_cluster, canonical_workload

    cluster, workload = canonical_cluster(), canonical_workload()
    rng = np.random.default_rng(1)
    speeds = rng.uniform(0.7, 1.0, size=(50, cluster.num_tiers))
    return lambda: all_class_percentiles_batch(cluster, workload, speeds, 0.95)


def _kernel_p1_solve_3starts() -> Callable[[], object]:
    from repro.core import minimize_delay
    from repro.experiments.common import canonical_cluster, canonical_workload

    cluster, workload = canonical_cluster(), canonical_workload()
    budget = 0.9 * cluster.average_power(workload.arrival_rates)
    return lambda: minimize_delay(cluster, workload, budget, n_starts=3)


def _kernel_plan_schedule_p2a() -> Callable[[], object]:
    """P2a planning (gated): the A7 quick diurnal oracle schedule, one
    SLSQP solve of P2a per planning epoch."""
    from repro.core.controller import plan_speed_schedule
    from repro.experiments import exp_a7_online_control as a7
    from repro.experiments.common import CLASS_NAMES, canonical_cluster
    from repro.experiments.registry import REGISTRY

    quick = REGISTRY["A7"].quick_kwargs
    history_rates, scenarios = a7.planning_inputs(quick["horizon"], quick["plan_window"])
    trace = scenarios["diurnal"]
    starts, rates = a7.planner_rates(trace, history_rates, quick["plan_window"], "oracle")
    cluster = canonical_cluster()
    # A7's planners solve at its default bound: 0.35 s times the 0.8 margin.
    return lambda: plan_speed_schedule(
        cluster, CLASS_NAMES, starts, rates, trace.horizon, 0.35 * 0.8, n_starts=1
    )


def _frontier_sweep(warm_start: bool) -> Callable[[], object]:
    from repro.core.opt_delay import minimize_delay
    from repro.experiments.common import canonical_cluster, canonical_workload, stability_box_profile
    from repro.optimize.sweep import continuation_sweep

    cluster, workload = canonical_cluster(), canonical_workload()
    profile = stability_box_profile(cluster, workload)
    budgets = np.linspace(profile.min_power * 1.02, profile.max_power, 6)

    def solve(budget, hint):
        return minimize_delay(
            cluster, workload, power_budget=float(budget), n_starts=3, x0_hint=hint
        )

    return lambda: continuation_sweep(solve, budgets, warm_start=warm_start)


def _kernel_frontier_sweep_warm() -> Callable[[], object]:
    return _frontier_sweep(warm_start=True)


def _kernel_frontier_sweep_cold() -> Callable[[], object]:
    return _frontier_sweep(warm_start=False)


def _total_events(rep) -> int:
    return sum(int(rec["n_events"]) for rec in rep.meta["replications"])


def _kernel_adaptive_vs_fixed() -> Callable[[], object]:
    """Adaptive CV-stopping engine vs the naive-stopping baseline.

    Both engines chase the same absolute precision target (5% relative
    CI on mean delay, 0.4% on average power — the T1/T2 headline
    metrics) on the small validation cluster. The *untimed* setup runs
    the baseline: the replication count a fixed-count engine with
    plain sample-mean CIs needs to certify that target. The timed
    closure is the adaptive run with the control-variate stopping
    estimator, which certifies the same target from far fewer
    replications. The closure **raises** when the engine fails to beat
    the baseline by the 30% simulated-event acceptance floor — a
    silent fallback to naive stopping is a correctness regression, not
    a slowdown, and must fail the bench outright. The ``bench_extra``
    record carries the event savings and the realized variance-
    reduction factors.
    """
    from repro.experiments.common import small_cluster, small_workload
    from repro.simulation import PrecisionTarget, simulate_replications_adaptive

    cluster, workload = small_cluster(), small_workload()
    horizon, seed = 500.0, 123
    rel_targets = {"mean_delay": 0.05, "average_power": 0.004}
    common = dict(rel_ci=rel_targets, min_replications=3, max_replications=32, round_size=1)
    baseline = simulate_replications_adaptive(
        cluster,
        workload,
        horizon=horizon,
        target=PrecisionTarget(estimator="naive", **common),
        seed=seed,
    )
    base_ad = baseline.meta["adaptive"]
    if not base_ad["target_met"]:
        raise RuntimeError(
            "naive baseline no longer certifies the bench precision target "
            f"within {common['max_replications']} replications"
        )
    events_fixed = _total_events(baseline)
    target = PrecisionTarget(estimator="cv", **common)

    def run() -> dict:
        rep = simulate_replications_adaptive(
            cluster, workload, horizon=horizon, target=target, seed=seed
        )
        ad = rep.meta["adaptive"]
        events_adaptive = _total_events(rep)
        savings = 1.0 - events_adaptive / events_fixed
        if not ad["target_met"]:
            raise RuntimeError(
                "adaptive engine missed the precision target it is benched on "
                f"(n_simulated={ad['n_simulated']})"
            )
        if savings < 0.30:
            raise RuntimeError(
                f"adaptive event savings {savings:.1%} below the 30% acceptance "
                f"floor (naive n={base_ad['n_simulated']}, cv n={ad['n_simulated']})"
            )
        return {
            "bench_extra": {
                "n_fixed": base_ad["n_simulated"],
                "n_adaptive": ad["n_simulated"],
                "events_fixed": events_fixed,
                "events_adaptive": events_adaptive,
                "event_savings": round(savings, 4),
                "target_rel_ci": rel_targets,
                "achieved_rel_ci": {
                    m: round(e["rel_halfwidth"], 5) for m, e in ad["estimates"].items()
                },
                "vr_factor": {m: round(v, 2) for m, v in ad["vr_factor"].items()},
            }
        }

    return run


def _kernel_crn_paired() -> Callable[[], object]:
    """CRN-paired scenario comparison (NP vs PR discipline).

    Times one :func:`compare_scenarios` call and records — via
    ``bench_extra`` — how much tighter the paired-t difference CI is
    than the independent-streams Welch CI at the same replication
    count. Raises when CRN pairing stops helping on the headline
    metric (correlation lost ⇒ the shared-seed contract broke).
    """
    from repro.experiments.common import canonical_cluster, canonical_workload
    from repro.simulation import Scenario, compare_scenarios

    workload = canonical_workload()
    scenario_np = Scenario(
        canonical_cluster(discipline="priority_np"), workload, label="priority_np"
    )
    scenario_pr = Scenario(
        canonical_cluster(discipline="priority_pr"), workload, label="priority_pr"
    )

    def run() -> dict:
        comp = compare_scenarios(
            scenario_np, scenario_pr, horizon=400.0, n_replications=5, seed=321
        )
        headline = comp.metrics["mean_delay"]
        if headline["vr_factor"] <= 1.0:
            raise RuntimeError(
                "CRN pairing no longer reduces the mean-delay difference CI "
                f"(vr_factor={headline['vr_factor']:.2f}) — shared-seed contract broken"
            )
        return {
            "bench_extra": {
                "metrics": {
                    m: {
                        "paired_hw": round(rec["paired"].halfwidth, 6),
                        "independent_hw": round(rec["independent"].halfwidth, 6),
                        "correlation": round(rec["correlation"], 4),
                        "vr_factor": round(rec["vr_factor"], 2),
                    }
                    for m, rec in comp.metrics.items()
                }
            }
        }

    return run


def _kernel_controller_epoch() -> Callable[[], object]:
    """Controller-in-the-loop simulation (info-only, not gated).

    Times one trace-driven run with a drift-plus-penalty controller
    firing every 0.5 time units — 400 epoch boundaries, each doing a
    queue observation, a closed-form speed decision, a work-preserving
    rescale and a segmented-energy accrual. Records the per-epoch
    overhead via ``bench_extra``.
    """
    import numpy as np

    from repro.control import DriftPlusPenaltyController, run_controlled
    from repro.experiments.common import CLASS_NAMES, canonical_cluster, canonical_workload
    from repro.workload.timevarying import diurnal_trace

    cluster = canonical_cluster()
    base = canonical_workload().arrival_rates
    horizon = 200.0
    trace = diurnal_trace(
        base, horizon, period=horizon, trough=0.5, peak=1.3, seed=17,
        class_names=CLASS_NAMES,
    )
    policy = DriftPlusPenaltyController(cluster, v_param=5e-4)
    epoch_length = 0.5

    def run() -> dict:
        score = run_controlled(
            cluster, trace, policy, epoch_length, max_mean_delay=0.35, seed=17
        )
        n_epochs = len(score.epoch_trace)
        if n_epochs != int(np.ceil(horizon / epoch_length)):
            raise RuntimeError(
                f"epoch hook fired {n_epochs} times, expected "
                f"{int(np.ceil(horizon / epoch_length))} — boundary scheduling broke"
            )
        return {
            "bench_extra": {
                "n_epochs": n_epochs,
                "mean_delay": round(score.mean_delay, 4),
                "average_power": round(score.average_power, 2),
            }
        }

    return run


def _kernel_exhaustive_small_12() -> Callable[[], object]:
    from repro.baselines.exhaustive import exhaustive_cost_minimization
    from repro.experiments.common import small_cluster, small_sla, small_workload

    cluster, workload, sla = small_cluster(), small_workload(), small_sla()
    return lambda: exhaustive_cost_minimization(cluster, workload, sla, max_servers_per_tier=12)


def _kernel_exhaustive_canonical_10() -> Callable[[], object]:
    from repro.baselines.exhaustive import exhaustive_cost_minimization
    from repro.experiments.common import canonical_cluster, canonical_sla, canonical_workload

    cluster, workload, sla = canonical_cluster(), canonical_workload(), canonical_sla()
    return lambda: exhaustive_cost_minimization(cluster, workload, sla, max_servers_per_tier=10)


#: name -> zero-arg setup function returning the timed closure. Setup
#: cost (model construction, RNG draws) stays outside the timing.
KERNELS: dict[str, Callable[[], Callable[[], object]]] = {
    CALIBRATION: _kernel_calibration_spin,
    "sim_replication_h500": _kernel_sim_replication_h500,
    "sim_replication_h500_compiled": _kernel_sim_replication_h500_compiled,
    "a7_epoch_compiled": _kernel_a7_epoch_compiled,
    "adaptive_antithetic_compiled": _kernel_adaptive_antithetic_compiled,
    "sim_ps_h500_compiled": _kernel_sim_ps_h500_compiled,
    "fleet_sweep_1k": _kernel_fleet_sweep_1k,
    "fleet_sweep_batched": _kernel_fleet_sweep_batched,
    "analytic_eval_x100": _kernel_analytic_eval_x100,
    "batch_eval_100": _kernel_batch_eval_100,
    "percentile_batch_x50": _kernel_percentile_batch_x50,
    "p1_solve_3starts": _kernel_p1_solve_3starts,
    "plan_schedule_p2a": _kernel_plan_schedule_p2a,
    "adaptive_vs_fixed": _kernel_adaptive_vs_fixed,
    "crn_paired": _kernel_crn_paired,
    "controller_epoch": _kernel_controller_epoch,
    "frontier_sweep_warm": _kernel_frontier_sweep_warm,
    "frontier_sweep_cold": _kernel_frontier_sweep_cold,
    "exhaustive_small_12": _kernel_exhaustive_small_12,
    "exhaustive_canonical_10": _kernel_exhaustive_canonical_10,
}


def run_benchmarks(
    repeats: int = 5, only: list[str] | None = None
) -> dict:
    """Time every kernel; returns the JSON-serializable result document.

    Each kernel runs once untimed (warm-up: imports, caches) and then
    ``repeats`` timed runs; ``min_s`` is the minimum — the repeat least
    disturbed by other load, the standard micro-benchmark statistic.
    The calibration kernel runs first, for the comparison, and again
    last (``calibration_end``), to show host-speed drift over the run.
    """
    names = list(KERNELS) if only is None else list(only)
    unknown = [n for n in names if n not in KERNELS]
    if unknown:
        raise ValueError(f"unknown kernels {unknown}; available: {list(KERNELS)}")
    if CALIBRATION not in names:
        names.insert(0, CALIBRATION)
    kernels: dict[str, dict] = {}
    for name in names:
        try:
            kernels[name] = _time_kernel(name, repeats)
        except BenchSkip as exc:
            kernels[name] = {"skipped": str(exc)}
    return {
        "schema": 1,
        "created_unix": int(time.time()),
        "repeats": repeats,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "kernels": kernels,
        "calibration_end": _time_kernel(CALIBRATION, repeats),
    }


def _time_kernel(name: str, repeats: int) -> dict:
    """Set up ``name``, run it once untimed, then time ``repeats`` runs.

    Each timed run of a kernel other than the calibration is preceded by
    one timed calibration spin; their min (``calibration_min_s``) is the
    host speed this kernel saw, which can drift from the run-start
    calibration by ±30% on a shared host.  Each repeat's kernel/spin
    ratio compares two timings taken at one moment of host speed; the
    least disturbed of them (``min_ratio``) is what the check gates on.
    """
    fn = KERNELS[name]()
    spin = _kernel_calibration_spin() if name != CALIBRATION else None
    fn()  # warm-up, untimed
    runs = []
    spins = []
    last = None
    for _ in range(max(repeats, 1)):
        if spin is not None:
            t0 = time.perf_counter()
            spin()
            spins.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        last = fn()
        runs.append(time.perf_counter() - t0)
    record = {"min_s": min(runs), "runs_s": [round(r, 6) for r in runs]}
    if spins:
        record["calibration_min_s"] = min(spins)
        record["min_ratio"] = min(r / c for r, c in zip(runs, spins))
    # Kernels measuring more than speed (event savings, variance
    # reduction) return {"bench_extra": ...}; the record rides along
    # in the JSON document next to the timings.
    if isinstance(last, dict) and "bench_extra" in last:
        record["extra"] = last["bench_extra"]
    return record


def compare_to_baseline(
    current: dict,
    baseline: dict,
    tolerance: float = 0.25,
    gates: tuple[str, ...] = DEFAULT_GATES,
) -> tuple[list[str], list[str]]:
    """Compare a bench run against a baseline document.

    Returns ``(report_lines, failures)``: one human-readable line per
    kernel present in both documents, and the subset of *gated* kernels
    whose calibration-normalized time regressed by more than
    ``tolerance`` (25% default). An empty ``failures`` list means the
    check passed. Each side normalizes a kernel by the calibration
    timed next to it (``calibration_min_s``) when its record has one,
    and by the document's run-start calibration otherwise; a current
    record with a ``min_ratio`` is normalized by that instead, its best
    kernel/spin ratio over the repeats.
    """
    cur_k = current["kernels"]
    base_k = baseline["kernels"]
    cal_cur = cur_k.get(CALIBRATION, {}).get("min_s")
    cal_base = base_k.get(CALIBRATION, {}).get("min_s")
    normalized = bool(cal_cur and cal_base)
    scale = (cal_base / cal_cur) if normalized else 1.0
    lines = []
    failures = []
    for name in sorted(set(cur_k) & set(base_k)):
        if name == CALIBRATION:
            continue
        gated_now = name in gates
        if "min_s" not in cur_k[name] or "min_s" not in base_k[name]:
            # Skipped on this host (or in the baseline): a gated kernel
            # that cannot run cannot vouch that it didn't regress.
            reason = cur_k[name].get("skipped") or base_k[name].get("skipped") or "?"
            status = "SKIPPED-GATE-FAILED" if gated_now else "skipped"
            if gated_now:
                failures.append(name)
            lines.append(
                f"{name:28s} skipped ({reason}) [{'gate' if gated_now else 'info'}] {status}"
            )
            continue
        cur = cur_k[name]["min_s"]
        base = base_k[name]["min_s"]
        kernel_scale = 1.0
        if normalized:
            base_cal = base_k[name].get("calibration_min_s", cal_base)
            own_ratio = cur_k[name].get("min_ratio")
            if own_ratio is not None:
                # The minima of kernel and spin times may come from
                # different repeats; a ratio of one repeat may not.
                kernel_scale = own_ratio * base_cal / cur
            else:
                kernel_scale = base_cal / cur_k[name].get("calibration_min_s", cal_cur)
        # >1 means slower than baseline after machine-speed correction.
        ratio = (cur * kernel_scale) / base if base > 0 else float("inf")
        gated = name in gates
        status = "ok"
        if gated and ratio > 1.0 + tolerance:
            status = "REGRESSION"
            failures.append(name)
        # Median and max beside a gated min: a regression moves all
        # three, host noise mostly the upper two.
        runs = cur_k[name].get("runs_s") if gated else None
        spread = f", median {np.median(runs) * 1e3:.2f}, max {max(runs) * 1e3:.2f}" if runs else ""
        lines.append(
            f"{name:28s} {cur * 1e3:9.2f}{spread} ms (baseline {base * 1e3:9.2f} ms, "
            f"calibration x{kernel_scale:.2f}, normalized x{ratio:.2f}) "
            f"[{'gate' if gated else 'info'}] {status}"
        )
    if normalized:
        lines.append(
            f"run-start machine-speed correction x{scale:.2f} "
            f"(calibration {cal_cur * 1e3:.1f} ms vs baseline {cal_base * 1e3:.1f} ms); "
            "a kernel timed beside its own calibration uses that instead"
        )
    else:
        lines.append("no calibration kernel in one of the documents — raw-time comparison")
    return lines, failures


def history_entry(doc: dict) -> dict:
    """Distill one bench document into an append-only history line.

    Times are stored **calibration-normalized** (kernel seconds per
    calibration second), so entries recorded on different machines sit
    on one comparable series — the same trick ``compare_to_baseline``
    uses, applied at write time instead of read time.
    """
    kernels = doc.get("kernels", {})
    cal = kernels.get(CALIBRATION, {}).get("min_s")
    if not cal:
        raise ValueError(f"bench document has no {CALIBRATION} kernel — cannot normalize")
    return {
        "schema": 1,
        "created_unix": doc.get("created_unix", int(time.time())),
        "host": doc.get("host", {}).get("platform"),
        "kernels": {
            name: round(rec["min_s"] / cal, 6)
            for name, rec in kernels.items()
            if name != CALIBRATION and "min_s" in rec
        },
    }


def load_history(path: str) -> list[dict]:
    """Parse a ``BENCH_history.jsonl`` (missing file → empty history)."""
    entries: list[dict] = []
    try:
        fh = open(path)
    except FileNotFoundError:
        return entries
    with fh:
        for line in fh:
            if line.strip():
                entries.append(json.loads(line))
    return entries


def append_history(doc: dict, path: str) -> dict:
    """Append ``doc``'s history entry to the JSONL at ``path``."""
    import os

    entry = history_entry(doc)
    dirname = os.path.dirname(path)
    if dirname:
        os.makedirs(dirname, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def check_history(
    doc: dict,
    history: list[dict],
    tolerance: float = 0.5,
    window: int = 5,
    gates: tuple[str, ...] = DEFAULT_GATES,
    min_entries: int = 3,
) -> tuple[list[str], list[str]]:
    """Rolling-median regression detection against recorded history.

    For every gated kernel, the current run's calibration-normalized
    time is compared against the **median of the last** ``window``
    **recorded entries** — the median absorbs one-off noisy runs that a
    single-baseline comparison would anchor on forever. A kernel fails
    when its current normalized time exceeds ``(1 + tolerance) x
    median``. Kernels with fewer than ``min_entries`` historical
    samples are reported but never fail (a young history can't
    distinguish regression from variance).

    Returns ``(report_lines, failures)`` like :func:`compare_to_baseline`.
    """
    current = history_entry(doc)["kernels"]
    lines: list[str] = []
    failures: list[str] = []
    for name in sorted(current):
        samples = [
            e["kernels"][name]
            for e in history[-window:]
            if isinstance(e.get("kernels"), dict) and name in e["kernels"]
        ]
        gated = name in gates
        cur = current[name]
        if len(samples) < min_entries:
            lines.append(
                f"{name:28s} norm {cur:9.4f} — only {len(samples)} history "
                f"entr{'y' if len(samples) == 1 else 'ies'} (need {min_entries}), skipped"
            )
            continue
        med = sorted(samples)[len(samples) // 2]
        ratio = cur / med if med > 0 else float("inf")
        status = "ok"
        if gated and ratio > 1.0 + tolerance:
            status = "REGRESSION"
            failures.append(name)
        lines.append(
            f"{name:28s} norm {cur:9.4f} vs rolling median {med:9.4f} "
            f"(x{ratio:.2f} over last {len(samples)}) [{'gate' if gated else 'info'}] {status}"
        )
    return lines, failures


def main_bench(
    out: str | None,
    repeats: int,
    check: str | None,
    tolerance: float,
    gates: list[str] | None,
    record: bool = False,
    history: str | None = None,
    history_tolerance: float = 0.5,
    history_window: int = 5,
) -> int:
    """Implementation of ``repro bench`` (returns the exit code)."""
    doc = run_benchmarks(repeats=repeats)
    for name, rec in doc["kernels"].items():
        if "min_s" in rec:
            print(f"{name:28s} min {rec['min_s'] * 1e3:9.2f} ms over {repeats} runs")
        else:
            print(f"{name:28s} skipped ({rec.get('skipped', '?')})")
    cal_start = doc["kernels"][CALIBRATION]["min_s"]
    cal_end = doc["calibration_end"]["min_s"]
    print(
        f"{CALIBRATION} at start {cal_start * 1e3:.2f} ms, at end {cal_end * 1e3:.2f} ms "
        f"(x{cal_end / cal_start:.2f}; the check normalizes each kernel by the spin "
        "timed beside it)"
    )
    if out:
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[written to {out}]")
    exit_code = 0
    if check:
        with open(check) as fh:
            baseline = json.load(fh)
        lines, failures = compare_to_baseline(
            doc, baseline, tolerance=tolerance,
            gates=tuple(gates) if gates else DEFAULT_GATES,
        )
        print(f"\ncheck against {check} (tolerance {tolerance:.0%}):")
        for line in lines:
            print(f"  {line}")
        if failures:
            print(f"FAILED: {', '.join(failures)} regressed beyond {tolerance:.0%}")
            exit_code = 1
        else:
            print("check passed")
    # History pass: consulted whenever a history file is in play
    # (--record and/or an explicit/existing --history), always BEFORE
    # this run is appended so a regressed run cannot vouch for itself.
    history_path = history or DEFAULT_HISTORY
    if record or history is not None:
        entries = load_history(history_path)
        if entries:
            lines, failures = check_history(
                doc, entries, tolerance=history_tolerance,
                window=history_window,
                gates=tuple(gates) if gates else DEFAULT_GATES,
            )
            print(
                f"\nhistory check against {history_path} "
                f"({len(entries)} entries, tolerance {history_tolerance:.0%}, "
                f"window {history_window}):"
            )
            for line in lines:
                print(f"  {line}")
            if failures:
                print(
                    f"FAILED: {', '.join(failures)} regressed beyond "
                    f"{history_tolerance:.0%} of rolling median"
                )
                exit_code = 1
            else:
                print("history check passed")
        else:
            print(f"\nno bench history at {history_path} yet — nothing to check")
        if record:
            append_history(doc, history_path)
            print(f"[recorded to {history_path}]")
    return exit_code
