"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    The experiment registry: every reconstructed table/figure with its
    ID and title.
``run <ID> [--quick] [--out FILE] [--jobs N] [--cache-dir DIR]``
    Execute one experiment and print (optionally save) its rendered
    table. ``--quick`` uses the registry's fast parameters; ``--jobs``
    parallelizes the simulation replications of simulation-backed
    experiments and the independent series of the analytic sweeps
    (F3/F4/F5/F6/A4); ``--cache-dir`` memoizes replications on disk.
    Numbers are unchanged by either flag. ``--target-rel-ci FRAC``
    (with optional ``--max-reps N``) switches the adaptive-capable
    experiments (T1/T2/F7) to the precision-targeted replication
    engine: replications stop as soon as the headline metrics reach
    the requested relative CI half-width.
``simulate [--jobs N] [--cache-dir DIR] [--target-rel-ci FRAC] ...``
    Replicated simulation of the canonical cluster with live
    per-replication progress (wall time, events/sec, cache hits).
    With ``--target-rel-ci`` the adaptive engine picks the
    replication count and reports the per-round precision trace.
``fleet --out DIR [--load-factors ...] [--replications N] [--jobs N]``
    Fleet-scale sweep: (scenario × replication) units run in chunks
    on the worker pool, each worker taking the next chunk as it goes
    idle, one compact metric row per unit streamed into a columnar
    result store (Parquet when
    ``pyarrow`` is importable, uncompressed npz otherwise). With
    ``--telemetry DIR``, ``repro status DIR`` tails live progress;
    ``repro telemetry ingest --fleet DIR`` folds per-scenario
    aggregates into the SQLite store.
``report [--load-factor F]``
    Analytic delay/energy report of the canonical cluster under the
    canonical workload — the fastest way to see claim-1 numbers.
``solve {p1,p2,p3} [options]``
    Run one of the paper's optimizers on the canonical instance.
``bench [--out FILE] [--check BASELINE] [--repeats N]``
    Time the library's hot kernels (simulation replication, scalar and
    batched analytic evaluation, optimizer solves, the exhaustive
    baseline) and optionally compare calibration-normalized times
    against a committed JSON baseline — the CI perf-smoke gate.
``telemetry summarize <DIR> [DIR...]``
    Human-readable summary of telemetry artifacts (manifest +
    events.jsonl) produced by ``--telemetry DIR`` on ``run`` /
    ``run-all`` / ``simulate``: slowest spans, per-replication event
    throughput, solver iteration counts, cache hit ratio. With several
    directories, adds a side-by-side comparison table grouped by
    configuration fingerprint.
``telemetry ingest <DIR> [DIR...] [--store FILE]``
    Load telemetry artifacts into the cross-run SQLite store
    (idempotent per directory) that ``repro dashboard`` renders.
``status <DIR>``
    Live progress of a run writing telemetry to ``<DIR>`` — tails the
    append-only ``progress.jsonl`` heartbeat without touching the run.
``dashboard [--store FILE] [--out FILE]``
    Render the run store as one self-contained static HTML page (run
    table, span timings, adaptive/controller traces, frontier
    overlays, optional bench history).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro._version import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Power & performance management in priority-type clusters (IPDPS 2011 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the reproducible experiments")

    def add_engine_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker processes for simulation replications and analytic "
            "sweep series (-1 = all cores)",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            help="directory memoizing finished replications (content-addressed)",
        )
        p.add_argument(
            "--telemetry",
            metavar="DIR",
            default=None,
            help="write a run manifest + JSONL telemetry events to this directory "
            "(read back with: repro telemetry summarize DIR)",
        )
        p.add_argument(
            "--telemetry-sample-queues",
            action="store_true",
            help="with --telemetry: also sample per-tier queue lengths inside the simulator",
        )
        p.add_argument(
            "--target-rel-ci",
            type=float,
            default=None,
            metavar="FRAC",
            help="adaptive precision target: stop replicating once the 95%% CI "
            "half-width of the headline metrics (mean delay, average power) "
            "falls below this fraction of their values (e.g. 0.02)",
        )
        p.add_argument(
            "--max-reps",
            type=int,
            default=None,
            help="with --target-rel-ci: hard cap on replications (default: engine-chosen)",
        )

    run_p = sub.add_parser("run", help="run one experiment by ID")
    run_p.add_argument("experiment_id", help="experiment ID, e.g. T1, F3, A4")
    run_p.add_argument("--quick", action="store_true", help="use fast parameters")
    run_p.add_argument("--out", help="also write the rendered table to this file")
    run_p.add_argument(
        "--controller",
        choices=["all", "oracle", "forecast", "max-speed", "dpp"],
        default=None,
        help="online-control experiment (A7) only: run a single policy",
    )
    run_p.add_argument(
        "--v-param",
        type=float,
        default=None,
        help="online-control experiment (A7) only: drift-plus-penalty V knob",
    )
    add_engine_options(run_p)

    all_p = sub.add_parser("run-all", help="run every experiment (quick parameters)")
    all_p.add_argument("--out-dir", help="write each rendered table to <out-dir>/<ID>.txt")
    all_p.add_argument(
        "--full", action="store_true", help="use full parameters (slow; use the benchmarks instead)"
    )
    add_engine_options(all_p)

    sim_p = sub.add_parser(
        "simulate", help="replicated simulation of the canonical cluster with progress"
    )
    sim_p.add_argument("--load-factor", type=float, default=1.0)
    sim_p.add_argument("--horizon", type=float, default=1000.0)
    sim_p.add_argument("--replications", type=int, default=5)
    sim_p.add_argument("--seed", type=int, default=0)
    sim_p.add_argument("--warmup-fraction", type=float, default=0.1)
    add_engine_options(sim_p)

    fleet_p = sub.add_parser(
        "fleet",
        help="fleet-scale (scenario x replication) sweep into a columnar result store",
    )
    fleet_p.add_argument(
        "--load-factors",
        default="0.6,0.8,1.0,1.2",
        help="comma-separated load factors defining the scenario grid",
    )
    fleet_p.add_argument(
        "--replications", type=int, default=25, help="replications per scenario"
    )
    fleet_p.add_argument("--horizon", type=float, default=200.0)
    fleet_p.add_argument("--warmup-fraction", type=float, default=0.1)
    fleet_p.add_argument("--seed", type=int, default=0)
    fleet_p.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help="directory the columnar store is created in (must not already hold one)",
    )
    fleet_p.add_argument(
        "--backend",
        choices=["python", "compiled", "auto"],
        default=None,
        help="simulation backend (default: REPRO_SIM_BACKEND, else python)",
    )
    fleet_p.add_argument(
        "--format",
        choices=["parquet", "npz"],
        default=None,
        help="row-group format (default: parquet when pyarrow is importable, else npz)",
    )
    fleet_p.add_argument(
        "--jobs",
        type=int,
        default=-1,
        help="worker processes, each taking the next chunk as it goes idle (-1 = all cores)",
    )
    fleet_p.add_argument(
        "--batch-size",
        default="auto",
        help="replications per kernel call / work-stealing chunk "
        "(positive int, or 'auto' to fill each chunk up to a fixed budget of "
        "expected kernel events, ~8 chunks per worker at most; "
        "rows are bit-identical for every value)",
    )
    fleet_p.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="write a run manifest + progress heartbeat to this directory "
        "(watch with: repro status DIR)",
    )
    fleet_p.add_argument(
        "--telemetry-sample-queues", action="store_true", help=argparse.SUPPRESS
    )

    rep_p = sub.add_parser("report", help="analytic report of the canonical cluster")
    rep_p.add_argument("--load-factor", type=float, default=1.0)

    sum_p = sub.add_parser("summary", help="assemble experiment artifacts into one report")
    sum_p.add_argument("--results-dir", default="benchmarks/results")
    sum_p.add_argument("--out", help="write the Markdown report to this file")

    diag_p = sub.add_parser("diagnose", help="pre-flight diagnostics of the canonical cluster")
    diag_p.add_argument("--load-factor", type=float, default=1.0)

    solve_p = sub.add_parser("solve", help="run a paper optimizer on the canonical instance")
    solve_p.add_argument("problem", choices=["p1", "p2", "p3"])
    solve_p.add_argument("--load-factor", type=float, default=1.0)
    solve_p.add_argument(
        "--budget-fraction",
        type=float,
        default=0.9,
        help="p1: power budget as a fraction of the full-speed power",
    )
    solve_p.add_argument(
        "--delay-slack",
        type=float,
        default=1.25,
        help="p2: per-class delay bounds as a multiple of the full-speed delays",
    )

    bench_p = sub.add_parser(
        "bench", help="time the hot kernels; write or check a JSON baseline"
    )
    bench_p.add_argument("--out", help="write the timing document to this JSON file")
    bench_p.add_argument("--repeats", type=int, default=5, help="timed runs per kernel (min wins)")
    bench_p.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against this baseline JSON; exit 1 if a gated kernel regressed",
    )
    bench_p.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative slowdown of gated kernels before --check fails",
    )
    bench_p.add_argument(
        "--gate",
        action="append",
        help="kernel that fails --check on regression (repeatable; default: the sim kernel)",
    )
    bench_p.add_argument(
        "--record",
        action="store_true",
        help="append this run (calibration-normalized) to the bench history JSONL",
    )
    bench_p.add_argument(
        "--history",
        metavar="FILE",
        default=None,
        help="bench history JSONL to check against / record to "
        "(default: benchmarks/results/BENCH_history.jsonl)",
    )
    bench_p.add_argument(
        "--history-tolerance",
        type=float,
        default=0.5,
        help="allowed slowdown of gated kernels over the rolling history median",
    )
    bench_p.add_argument(
        "--history-window",
        type=int,
        default=5,
        help="history entries the rolling median is taken over",
    )

    tel_p = sub.add_parser("telemetry", help="inspect telemetry artifacts")
    tel_sub = tel_p.add_subparsers(dest="telemetry_command", required=True)
    tel_sum = tel_sub.add_parser(
        "summarize", help="render --telemetry artifacts as human-readable tables"
    )
    tel_sum.add_argument(
        "paths",
        nargs="+",
        metavar="path",
        help="directory (or manifest.json) written by --telemetry; several "
        "directories add a side-by-side comparison",
    )
    tel_sum.add_argument("--top", type=int, default=10, help="number of slowest spans to show")
    tel_ing = tel_sub.add_parser(
        "ingest", help="load telemetry artifacts into the cross-run SQLite store"
    )
    tel_ing.add_argument("paths", nargs="*", metavar="path",
                         help="telemetry directories to ingest")
    tel_ing.add_argument(
        "--fleet",
        action="append",
        metavar="DIR",
        default=None,
        help="also ingest this columnar fleet store (repeatable; per-scenario "
        "aggregates land in the fleet_sweeps/fleet_scenarios tables)",
    )
    tel_ing.add_argument(
        "--store",
        default=None,
        help="SQLite store file (default: runs.sqlite in the current directory)",
    )

    status_p = sub.add_parser(
        "status", help="live progress of a run writing telemetry to a directory"
    )
    status_p.add_argument("path", help="telemetry directory (or progress.jsonl) of the run")

    dash_p = sub.add_parser(
        "dashboard", help="render the run store as one self-contained HTML page"
    )
    dash_p.add_argument(
        "--store",
        default=None,
        help="SQLite store file (default: runs.sqlite in the current directory)",
    )
    dash_p.add_argument(
        "--out", default="dashboard.html", help="output HTML file (default: dashboard.html)"
    )
    dash_p.add_argument(
        "--bench-history",
        metavar="FILE",
        default=None,
        help="also chart this bench history JSONL (e.g. benchmarks/results/BENCH_history.jsonl)",
    )
    return parser


def _cmd_list() -> int:
    from repro.analysis.tables import ascii_table
    from repro.experiments.registry import REGISTRY

    rows = [[e.id, e.title] for e in REGISTRY.values()]
    print(ascii_table(["ID", "experiment"], rows, title="Reproducible experiments"))
    print("\nrun one with: python -m repro run <ID> [--quick]")
    return 0


def _cmd_run(
    experiment_id: str,
    quick: bool,
    out: str | None,
    jobs: int | None = None,
    cache_dir: str | None = None,
    target_rel_ci: float | None = None,
    max_reps: int | None = None,
    controller: str | None = None,
    v_param: float | None = None,
) -> int:
    from repro import obs
    from repro.experiments.registry import run_experiment

    obs.TELEMETRY.annotate(config={"experiment": experiment_id.upper(), "quick": quick})
    text = run_experiment(
        experiment_id,
        quick=quick,
        n_jobs=jobs,
        cache_dir=cache_dir,
        target_rel_ci=target_rel_ci,
        max_reps=max_reps,
        controller=controller,
        v_param=v_param,
    )
    print(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"[written to {out}]")
    return 0


def _cmd_run_all(
    out_dir: str | None,
    full: bool,
    jobs: int | None = None,
    cache_dir: str | None = None,
    target_rel_ci: float | None = None,
    max_reps: int | None = None,
) -> int:
    import pathlib

    from repro import obs
    from repro.experiments.registry import REGISTRY

    obs.TELEMETRY.annotate(config={"experiment": "ALL", "quick": not full})
    target = pathlib.Path(out_dir) if out_dir else None
    if target:
        target.mkdir(parents=True, exist_ok=True)
    failures = []
    for exp in REGISTRY.values():
        with obs.span("cli.run_experiment", id=exp.id) as sp:
            try:
                text = exp.render(
                    exp.run(
                        quick=not full,
                        n_jobs=jobs,
                        cache_dir=cache_dir,
                        target_rel_ci=target_rel_ci,
                        max_reps=max_reps,
                    )
                )
            except Exception as exc:  # surface, keep going
                failures.append(exp.id)
                print(f"== {exp.id} FAILED: {exc}")
                continue
        print(f"== {exp.id} ({sp.wall_s:.1f}s)\n{text}\n")
        if target:
            (target / f"{exp.id}.txt").write_text(text + "\n")
    if failures:
        print(f"failed experiments: {failures}")
        return 1
    print(f"all {len(REGISTRY)} experiments completed")
    return 0


def _cmd_report(load_factor: float) -> int:
    from repro.analysis.tables import ascii_table
    from repro.core.perf_model import ClusterPerformanceModel
    from repro.experiments.common import canonical_cluster, canonical_workload

    model = ClusterPerformanceModel(canonical_cluster(), canonical_workload(load_factor))
    rep = model.report()
    rows = [
        [name, round(t, 4), round(e, 2)]
        for name, t, e in zip(rep.class_names, rep.delays, rep.energy_per_class)
    ]
    print(
        ascii_table(
            ["class", "mean delay (s)", "energy (J/req)"],
            rows,
            title=f"Canonical cluster at load factor {load_factor:g}",
        )
    )
    print(f"mean delay {rep.mean_delay:.4f} s | power {rep.average_power:.1f} W")
    print(f"tier utilizations: {np.round(rep.utilizations, 3).tolist()}")
    return 0


def _cmd_simulate(
    load_factor: float,
    horizon: float,
    replications: int,
    seed: int,
    warmup_fraction: float,
    jobs: int | None,
    cache_dir: str | None,
    target_rel_ci: float | None = None,
    max_reps: int | None = None,
) -> int:
    """Replicated simulation of the canonical cluster with live
    per-replication progress — the CLI surface of the parallel
    replication engine's observability. With ``--target-rel-ci`` the
    adaptive engine decides how many replications the precision target
    actually needs."""
    from repro import obs
    from repro.analysis.tables import ascii_table
    from repro.experiments.common import canonical_cluster, canonical_workload
    from repro.simulation import (
        PrecisionTarget,
        simulate_replications,
        simulate_replications_adaptive,
    )

    cluster = canonical_cluster()
    workload = canonical_workload(load_factor)
    obs.TELEMETRY.annotate(seed=seed, config={"cluster": cluster, "workload": workload})

    def progress(rec, done, total):
        if rec.cached:
            print(f"  [{done}/{total}] replication {rec.index}: cache hit")
        else:
            print(
                f"  [{done}/{total}] replication {rec.index}: "
                f"{rec.wall_time_s:.2f}s, {rec.events_per_sec:,.0f} events/s"
            )

    if target_rel_ci is not None:
        target = PrecisionTarget(
            rel_ci=target_rel_ci,
            max_replications=max_reps if max_reps is not None else max(4 * replications, 16),
        )
        rep = simulate_replications_adaptive(
            cluster,
            workload,
            horizon=horizon,
            target=target,
            warmup_fraction=warmup_fraction,
            seed=seed,
            n_jobs=jobs,
            cache_dir=cache_dir,
            progress=progress,
        )
        n_used = rep.meta["adaptive"]["n_used"]
        title_reps = f"{n_used} adaptive replications"
    else:
        rep = simulate_replications(
            cluster,
            workload,
            horizon=horizon,
            n_replications=replications,
            warmup_fraction=warmup_fraction,
            seed=seed,
            n_jobs=jobs,
            cache_dir=cache_dir,
            progress=progress,
        )
        title_reps = f"{replications} replications"
    rows = [
        [name, round(float(rep.delays[k]), 4), round(float(rep.delays_ci[k]), 4)]
        for k, name in enumerate(rep.class_names)
    ]
    print(
        ascii_table(
            ["class", "mean delay (s)", "95% CI"],
            rows,
            title=f"Simulated canonical cluster at load factor {load_factor:g} "
            f"({title_reps})",
        )
    )
    print(f"mean delay {rep.mean_delay:.4f} s | power {rep.average_power:.1f} W")
    m = rep.meta
    print(
        f"engine: backend={m['backend']} jobs={m['n_jobs']} cache={m['cache']} "
        f"hits={m['cache_hits']} misses={m['cache_misses']} wall={m['wall_time_s']:.2f}s"
    )
    ad = m.get("adaptive")
    if ad:
        print(
            f"adaptive: target met={ad['target_met']} rounds={ad['n_rounds']} "
            f"used={ad['n_used']}/{ad['n_simulated']} simulated "
            f"(cap {ad['target']['max_replications']}, "
            f"{ad['reps_saved_vs_cap']} saved vs cap)"
        )
        for metric, est in ad["estimates"].items():
            rel = est["rel_halfwidth"]
            print(
                f"  {metric}: {est['value']:.4g} ± {est['halfwidth']:.2g} "
                f"(rel {rel:.2%}, {est['method']})"
            )
    return 0


def _cmd_fleet(
    load_factors: str,
    replications: int,
    horizon: float,
    warmup_fraction: float,
    seed: int,
    out: str,
    backend: str | None,
    store_format: str | None,
    jobs: int | None,
    batch_size: str = "auto",
) -> int:
    """Sweep the canonical cluster over a load-factor grid into one
    columnar store — the CLI surface of the fleet runner."""
    import time

    from repro.analysis.tables import ascii_table
    from repro.experiments.common import canonical_cluster, canonical_workload
    from repro.simulation import FleetScenario, FleetStore, run_fleet

    try:
        factors = [float(x) for x in load_factors.split(",") if x.strip()]
    except ValueError:
        print(f"error: --load-factors must be comma-separated numbers, got {load_factors!r}")
        return 1
    if not factors:
        print("error: --load-factors produced an empty grid")
        return 1
    batch: int | str = batch_size
    if batch != "auto":
        try:
            batch = int(batch)
        except (TypeError, ValueError):
            print(f"error: --batch-size must be a positive integer or 'auto', got {batch_size!r}")
            return 1
        if batch < 1:
            print(f"error: --batch-size must be a positive integer or 'auto', got {batch_size!r}")
            return 1
    cluster = canonical_cluster()
    scenarios = [
        FleetScenario(
            label=f"load={f:g}",
            cluster=cluster,
            workload=canonical_workload(f),
            horizon=horizon,
            warmup_fraction=warmup_fraction,
            params={"load_factor": f},
        )
        for f in factors
    ]
    n_units = len(scenarios) * replications
    print(
        f"fleet: {len(scenarios)} scenarios x {replications} replications "
        f"= {n_units} units -> {out}"
    )
    start = time.perf_counter()
    last_line_len = 0

    def progress(n_done: int, n_failed: int, n_total: int) -> None:
        nonlocal last_line_len
        rate = n_done / max(time.perf_counter() - start, 1e-9)
        failed = f", {n_failed} failed" if n_failed else ""
        line = f"  {n_done}/{n_total} units ({rate:,.0f} units/s{failed})"
        pad = " " * max(0, last_line_len - len(line))
        print("\r" + line + pad, end="", flush=True)
        last_line_len = len(line)

    summary = run_fleet(
        scenarios,
        replications,
        out,
        seed=seed,
        n_jobs=jobs,
        backend=backend,
        batch_size=batch,
        store_format=store_format,
        progress=progress,
    )
    print()
    store = FleetStore.open(out)
    rows = [
        [
            rec["label"],
            rec["n"],
            round(rec["mean_delay"]["mean"], 4),
            round(rec["mean_delay"]["std"], 4),
            round(rec["average_power"]["mean"], 1),
        ]
        for rec in store.scenario_table(metrics=["mean_delay", "average_power"])
    ]
    print(
        ascii_table(
            ["scenario", "units", "mean delay (s)", "std", "power (W)"],
            rows,
            title=f"Fleet sweep ({summary.n_done}/{summary.n_units} units, "
            f"{summary.wall_time_s:.1f}s, {summary.units_per_sec:,.0f} units/s, "
            f"{summary.n_workers} workers)",
        )
    )
    print(
        f"[store: {summary.store_path} ({store.fmt}, {store.n_rows} rows); "
        f"query with repro.simulation.FleetStore.open(...) or ingest with: "
        f"repro telemetry ingest --fleet {summary.store_path}]"
    )
    if summary.n_failed:
        print(f"WARNING: {summary.n_failed} unit(s) failed — see the store manifest")
        return 1
    return 0


def _cmd_solve(problem: str, load_factor: float, budget_fraction: float, delay_slack: float) -> int:
    from repro.core import minimize_cost, minimize_delay, minimize_energy
    from repro.experiments.common import canonical_cluster, canonical_sla, canonical_workload

    cluster = canonical_cluster()
    workload = canonical_workload(load_factor)
    if problem == "p1":
        full = cluster.average_power(workload.arrival_rates)
        res = minimize_delay(cluster, workload, power_budget=budget_fraction * full)
        print(f"P1 @ budget {budget_fraction:.0%} of {full:.1f} W:")
        print(f"  speeds {np.round(res.x, 3).tolist()}")
        print(f"  mean delay {res.fun:.4f} s at {res.meta['power']:.1f} W")
    elif problem == "p2":
        from repro.core.delay import end_to_end_delays

        bounds = end_to_end_delays(cluster, workload) * delay_slack
        res = minimize_energy(cluster, workload, class_delay_bounds=bounds)
        print(f"P2b @ per-class bounds {np.round(bounds, 3).tolist()}:")
        print(f"  speeds {np.round(res.x, 3).tolist()}")
        print(f"  power {res.meta['power']:.1f} W")
    else:
        alloc = minimize_cost(cluster, workload, canonical_sla())
        print("P3 @ canonical SLA:")
        print(f"  servers {alloc.server_counts.tolist()} (cost {alloc.total_cost:g})")
        print(f"  speeds {np.round(alloc.speeds, 3).tolist()}")
        print(f"  delays {np.round(alloc.delays, 3).tolist()} | power {alloc.average_power:.1f} W")
    return 0


def _cmd_telemetry_summarize(path: str, top: int = 10) -> int:
    """Render a ``--telemetry`` artifact as human-readable tables."""
    import json
    import pathlib
    import time

    from repro.analysis.tables import ascii_table
    from repro.obs import EVENTS_FILENAME, MANIFEST_FILENAME

    root = pathlib.Path(path)
    manifest_path = root if root.is_file() else root / MANIFEST_FILENAME
    events_path = manifest_path.parent / EVENTS_FILENAME
    if not manifest_path.exists():
        print(f"error: no {MANIFEST_FILENAME} under {root} — was the run started with --telemetry?")
        return 1
    manifest = json.loads(manifest_path.read_text())
    events: list[dict] = []
    if events_path.exists():
        with open(events_path) as fh:
            events = [json.loads(line) for line in fh if line.strip()]

    cmd = manifest.get("command")
    fingerprint = manifest.get("config_fingerprint")
    created = manifest.get("created_unix")
    print(f"repro {manifest.get('version', '?')} telemetry run")
    if created:
        print(f"  created  {time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(created))}")
    if cmd:
        print(f"  command  {' '.join(cmd) if isinstance(cmd, list) else cmd}")
    if manifest.get("seed") is not None:
        print(f"  seed     {manifest['seed']}")
    if fingerprint:
        print(f"  config   {fingerprint[:16]}… (canonical SHA-256)")
    host = manifest.get("host", {})
    if host:
        print(f"  host     {host.get('hostname')} ({host.get('platform')}, "
              f"{host.get('cpu_count')} cores)")
    print(f"  events   {len(events)} in {events_path.name}")
    dropped = int((manifest.get("events") or {}).get("dropped", 0) or 0)
    if dropped:
        print(f"  WARNING  {dropped} event(s) failed serialization and were "
              "dropped — the event log is incomplete")

    spans = [e for e in events if e.get("type") == "span"]
    if spans:
        slowest = sorted(spans, key=lambda e: -e.get("wall_s", 0.0))[:top]
        rows = [
            [
                ("· " * e.get("depth", 0)) + e["name"],
                round(e.get("wall_s", 0.0) * 1e3, 2),
                round(e.get("cpu_s", 0.0) * 1e3, 2),
                ", ".join(f"{k}={v}" for k, v in sorted(e.get("tags", {}).items()))[:48],
            ]
            for e in slowest
        ]
        print()
        print(ascii_table(["span", "wall ms", "cpu ms", "tags"], rows,
                          title=f"Slowest spans (top {len(rows)} of {len(spans)})"))

    reps = [e["fields"] for e in events
            if e.get("type") == "event" and e.get("name") == "sim.replication"]
    if reps:
        rows = [
            [
                r.get("index"),
                r.get("n_events"),
                round(r.get("wall_s", 0.0), 3),
                f"{r.get('events_per_sec', 0.0):,.0f}",
                "yes" if r.get("cached") else "no",
            ]
            for r in sorted(reps, key=lambda r: (r.get("index", 0),))
        ]
        print()
        print(ascii_table(["replication", "events", "wall s", "events/s", "cached"],
                          rows, title=f"Replications ({len(rows)})"))

    rounds = [e["fields"] for e in events
              if e.get("type") == "event" and e.get("name") == "sim.adaptive.round"]
    if rounds:
        rel_keys = sorted({k for r in rounds for k in r if k.startswith("rel_ci.")})
        rows = [
            [
                r.get("round"),
                r.get("n_available"),
                r.get("stop_at") if r.get("stop_at") is not None else "-",
                *(f"{r.get(k, float('nan')):.2%}" for k in rel_keys),
            ]
            for r in sorted(rounds, key=lambda r: (r.get("round", 0),))
        ]
        print()
        print(ascii_table(
            ["round", "reps available", "stop at", *(k.removeprefix("rel_ci.") for k in rel_keys)],
            rows, title=f"Adaptive precision rounds ({len(rows)})"))

    solves = [e["fields"] for e in events
              if e.get("type") == "event" and e.get("name") == "solver.result"]
    if solves:
        rows = [
            [
                s.get("label") or "?",
                s.get("method"),
                s.get("nit"),
                s.get("nfev"),
                s.get("n_evaluations"),
                s.get("status"),
                "yes" if s.get("success") else "no",
                round(s.get("wall_s", 0.0) * 1e3, 1),
            ]
            for s in solves
        ]
        print()
        print(ascii_table(
            ["problem", "method", "nit", "nfev", "total evals", "status", "ok", "wall ms"],
            rows, title=f"Optimizer solves ({len(rows)})"))

    metrics = manifest.get("metrics", {})
    hits = metrics.get("sim.cache.hits", {}).get("value", 0)
    misses = metrics.get("sim.cache.misses", {}).get("value", 0)
    interesting = {
        "sim.events": "simulator events",
        "sim.jobs_created": "jobs created",
        "sim.jobs_counted": "jobs counted",
        "sim.adaptive.rounds": "adaptive rounds",
        "sim.adaptive.reps_saved": "adaptive replications saved",
        "opt.solves": "optimizer solves",
        "opt.evaluations": "model evaluations",
    }
    counter_rows = [
        [label, metrics[name]["value"]]
        for name, label in interesting.items()
        if name in metrics
    ]
    if hits or misses:
        ratio = hits / (hits + misses) if (hits + misses) else 0.0
        counter_rows.append(["cache hits / misses", f"{hits} / {misses} ({ratio:.0%} hit ratio)"])
    if counter_rows:
        print()
        print(ascii_table(["counter", "value"], counter_rows, title="Counters"))
    return 0


def _telemetry_compare(paths: list[str]) -> int:
    """Side-by-side comparison of several telemetry artifacts.

    Rows are the cross-run vitals (wall time, events, dropped events,
    cache hits, solver evaluations); columns are the runs. Runs are
    grouped by configuration fingerprint — numbers are only directly
    comparable within one group, and the table says which runs share
    one.
    """
    import json
    import pathlib

    from repro.analysis.tables import ascii_table
    from repro.obs import EVENTS_FILENAME, MANIFEST_FILENAME

    loaded = []
    for path in paths:
        root = pathlib.Path(path)
        manifest_path = root if root.is_file() else root / MANIFEST_FILENAME
        if not manifest_path.exists():
            print(f"error: no {MANIFEST_FILENAME} under {root}")
            return 1
        manifest = json.loads(manifest_path.read_text())
        events_path = manifest_path.parent / EVENTS_FILENAME
        events: list[dict] = []
        if events_path.exists():
            with open(events_path) as fh:
                events = [json.loads(line) for line in fh if line.strip()]
        loaded.append((manifest_path.parent.name or str(manifest_path.parent), manifest, events))

    fingerprints = [(m.get("config_fingerprint") or "")[:10] or "?" for _, m, _ in loaded]
    groups: dict[str, list[int]] = {}
    for i, fp in enumerate(fingerprints):
        groups.setdefault(fp, []).append(i)

    def metric(m: dict, name: str) -> object:
        return (m.get("metrics", {}).get(name) or {}).get("value", 0)

    def wall(m: dict) -> float:
        return sum(s.get("wall_s", 0.0) for s in m.get("spans", []))

    rows = [
        ["fingerprint", *fingerprints],
        ["seed", *(m.get("seed") for _, m, _ in loaded)],
        ["version", *(m.get("version") for _, m, _ in loaded)],
        ["wall s (root spans)", *(round(wall(m), 3) for _, m, _ in loaded)],
        ["events", *(len(ev) for _, _, ev in loaded)],
        ["events dropped", *((m.get("events") or {}).get("dropped", 0) for _, m, _ in loaded)],
        ["sim events", *(metric(m, "sim.events") for _, m, _ in loaded)],
        ["cache hits", *(metric(m, "sim.cache.hits") for _, m, _ in loaded)],
        ["cache misses", *(metric(m, "sim.cache.misses") for _, m, _ in loaded)],
        ["solver evals", *(metric(m, "opt.evaluations") for _, m, _ in loaded)],
    ]
    print()
    print(ascii_table(
        ["", *(name for name, _, _ in loaded)],
        rows,
        title=f"Run comparison ({len(loaded)} runs)",
    ))
    shared = [fp for fp, idx in groups.items() if len(idx) > 1]
    if shared:
        print(f"runs sharing a fingerprint (directly comparable): {', '.join(shared)}")
    elif len(loaded) > 1:
        print("note: no two runs share a configuration fingerprint — "
              "numbers are not directly comparable")
    return 0


def _cmd_telemetry_ingest(
    paths: list[str], store_path: str | None, fleet: list[str] | None = None
) -> int:
    """Load telemetry directories (and fleet stores) into the cross-run
    SQLite store."""
    from repro.exceptions import ModelValidationError
    from repro.obs import STORE_FILENAME, RunStore

    if not paths and not fleet:
        print("error: nothing to ingest — give telemetry directories and/or --fleet DIR")
        return 1
    target = store_path or STORE_FILENAME
    code = 0
    with RunStore(target) as store:
        for path in paths:
            try:
                run_id = store.ingest(path)
            except (FileNotFoundError, ValueError) as exc:
                print(f"error: {exc}")
                code = 1
                continue
            run = store.run(run_id)
            dropped = run.get("n_dropped") or 0
            note = f" (WARNING: {dropped} dropped events)" if dropped else ""
            n_records = len(store.spans(run_id)) + len(store.events(run_id))
            print(f"ingested {path} as run {run_id} "
                  f"({n_records} records, seed {run.get('seed')}){note}")
        for path in fleet or []:
            try:
                sweep_id = store.ingest_fleet(path)
            except (FileNotFoundError, ModelValidationError) as exc:
                print(f"error: {exc}")
                code = 1
                continue
            scen = store.fleet_scenarios(sweep_id)
            n_units = sum(r["n"] for r in scen)
            print(f"ingested fleet store {path} as sweep {sweep_id} "
                  f"({len(scen)} scenarios, {n_units} units)")
        n = len(store.runs())
        n_sweeps = len(store.fleet_sweeps())
    sweeps_s = f" and {n_sweeps} fleet sweep(s)" if n_sweeps else ""
    print(f"[store {target} now holds {n} run(s){sweeps_s}; render with: repro dashboard "
          f"--store {target}]")
    return code


def _cmd_status(path: str) -> int:
    """Live progress of a run streaming telemetry to ``path``."""
    import pathlib
    import time

    from repro.obs import PROGRESS_FILENAME, progress_snapshot, read_progress

    root = pathlib.Path(path)
    progress_path = root if root.is_file() else root / PROGRESS_FILENAME
    if not progress_path.exists():
        print(f"error: no {PROGRESS_FILENAME} under {root} — is a run writing "
              "telemetry there?")
        return 1
    snap = progress_snapshot(read_progress(progress_path))
    state = "finished" if snap["finished"] else ("running" if snap["started"] else "unknown")
    age = f", last record {time.time() - snap['last_ts']:.0f}s ago" if snap["last_ts"] else ""
    print(f"{root}: {state} ({snap['n_records']} progress records{age})")
    reps = snap.get("replications")
    if reps:
        total = reps.get("n_total")
        total_s = f"/{total}" if total is not None else ""
        rate = reps.get("last_events_per_sec")
        rate_s = f", {rate:,.0f} events/s" if rate else ""
        print(f"  replications  {reps['n_done']}{total_s} done "
              f"({reps['cache_hits']} cache hits{rate_s})")
    ad = snap.get("adaptive")
    if ad:
        rel = ", ".join(f"{k}={v:.2%}" for k, v in sorted(ad["rel_ci"].items()))
        stop = f", stop at {ad['stop_at']}" if ad.get("stop_at") is not None else ""
        print(f"  adaptive      round {ad['n_rounds']}: {ad['n_available']} "
              f"replications available{stop}; rel CI {rel}")
    for label, rec in (snap.get("sweeps") or {}).items():
        total = rec.get("n_total")
        total_s = f"/{total}" if total is not None else ""
        failed = f", {rec['n_failed']} failed" if rec.get("n_failed") else ""
        print(f"  sweep {label or '(unlabeled)'}  {rec['n_done']}{total_s} points{failed}")
    ep = snap.get("epochs")
    if ep:
        print(f"  controller    {ep['n_fired']} epochs fired (t={ep['last_t']:g})")
    fleet = snap.get("fleet")
    if fleet:
        total = fleet.get("n_total")
        total_s = f"/{total}" if total is not None else ""
        rate = fleet.get("units_per_sec")
        rate_s = f", {rate:,.1f} units/s" if rate else ""
        failed = f", {fleet['n_failed']} failed" if fleet.get("n_failed") else ""
        state = "done" if fleet.get("finished") else "running"
        print(f"  fleet         {fleet['n_done']}{total_s} units ({state}{rate_s}{failed})")
    return 0


def _cmd_dashboard(store_path: str | None, out: str, bench_history: str | None) -> int:
    """Render the run store into one self-contained HTML file."""
    import pathlib

    from repro.obs import STORE_FILENAME, RunStore, render_dashboard

    target = store_path or STORE_FILENAME
    if not pathlib.Path(target).exists():
        print(f"error: no store at {target} — build one with: "
              "repro telemetry ingest DIR [DIR...]")
        return 1
    with RunStore(target) as store:
        n = len(store.runs())
        render_dashboard(store, out, bench_history=bench_history)
    print(f"[dashboard over {n} run(s) written to {out}]")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    When the command carries ``--telemetry DIR``, the whole dispatch
    runs inside a telemetry session: spans, events and metrics stream
    to ``DIR/events.jsonl`` and a run manifest is finalized atomically
    on the way out — even if the command fails.
    """
    args = build_parser().parse_args(argv)
    telemetry_dir = getattr(args, "telemetry", None)
    if telemetry_dir is not None:
        from repro.obs import telemetry_session

        command = ["repro", *(argv if argv is not None else sys.argv[1:])]
        with telemetry_session(
            telemetry_dir,
            command=command,
            sample_queues=getattr(args, "telemetry_sample_queues", False),
        ):
            code = _dispatch(args)
        print(f"[telemetry written to {telemetry_dir}; "
              f"read with: repro telemetry summarize {telemetry_dir}]")
        return code
    return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    """Route parsed arguments to their command implementation."""
    if args.command == "telemetry":
        if args.telemetry_command == "summarize":
            code = 0
            for path in args.paths:
                code = max(code, _cmd_telemetry_summarize(path, args.top))
                print()
            if len(args.paths) > 1 and code == 0:
                code = _telemetry_compare(args.paths)
            return code
        if args.telemetry_command == "ingest":
            return _cmd_telemetry_ingest(args.paths, args.store, args.fleet)
        raise AssertionError(
            f"unhandled telemetry command {args.telemetry_command!r}"
        )  # pragma: no cover
    if args.command == "status":
        return _cmd_status(args.path)
    if args.command == "dashboard":
        return _cmd_dashboard(args.store, args.out, args.bench_history)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(
            args.experiment_id,
            args.quick,
            args.out,
            args.jobs,
            args.cache_dir,
            args.target_rel_ci,
            args.max_reps,
            args.controller,
            args.v_param,
        )
    if args.command == "run-all":
        return _cmd_run_all(
            args.out_dir,
            args.full,
            args.jobs,
            args.cache_dir,
            args.target_rel_ci,
            args.max_reps,
        )
    if args.command == "simulate":
        return _cmd_simulate(
            args.load_factor,
            args.horizon,
            args.replications,
            args.seed,
            args.warmup_fraction,
            args.jobs,
            args.cache_dir,
            args.target_rel_ci,
            args.max_reps,
        )
    if args.command == "report":
        return _cmd_report(args.load_factor)
    if args.command == "diagnose":
        from repro.analysis.diagnostics import diagnose
        from repro.experiments.common import canonical_cluster, canonical_workload

        findings = diagnose(canonical_cluster(), canonical_workload(args.load_factor))
        if not findings:
            print("no findings — configuration looks healthy")
        for f in findings:
            print(f"[{f.severity.value}] {f.code}: {f.message}")
        return 0
    if args.command == "summary":
        from repro.analysis.summary import build_summary

        text = build_summary(args.results_dir)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"[written to {args.out}]")
        else:
            print(text)
        return 0
    if args.command == "fleet":
        return _cmd_fleet(
            args.load_factors,
            args.replications,
            args.horizon,
            args.warmup_fraction,
            args.seed,
            args.out,
            args.backend,
            args.format,
            args.jobs,
            args.batch_size,
        )
    if args.command == "solve":
        return _cmd_solve(args.problem, args.load_factor, args.budget_fraction, args.delay_slack)
    if args.command == "bench":
        from repro.analysis.perf_bench import main_bench

        return main_bench(
            args.out,
            args.repeats,
            args.check,
            args.tolerance,
            args.gate,
            record=args.record,
            history=args.history,
            history_tolerance=args.history_tolerance,
            history_window=args.history_window,
        )
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
