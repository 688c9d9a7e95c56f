"""Batched fleet execution tests.

The batched path's contract is the same as the fleet runner's overall
contract — *bit-identical rows for any scheduling* — extended over a
new axis: chunk size. Every (batch_size, jobs, backend) combination
must reproduce the PR 8 unit-at-a-time rows exactly, a replication
failing mid-batch must cost exactly one unit (the rest of the chunk
survives on fresh kernel state), and the columnar ingest + streaming
aggregate must hold at most one row group in memory.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.cluster import ClusterModel, Tier
from repro.distributions import Exponential, Gamma, HyperExponential, Pareto
from repro.distributions.base import Distribution
from repro.exceptions import ModelValidationError
from repro.experiments.common import small_cluster, small_workload
from repro.queueing.routing import ClassRouting, visit_ratio_matrix
from repro.simulation import FleetScenario, FleetStore, run_fleet, simulate
from repro.simulation.compiled import kernel_available
from repro.simulation.fleet import _chunk_plan, _resolve_batch_size

needs_kernel = pytest.mark.skipif(
    not kernel_available(), reason="no C toolchain for the compiled kernel"
)


def _scenarios(loads=(0.5, 0.8), horizon=8.0):
    return [
        FleetScenario(
            label=f"load={f}",
            cluster=small_cluster(),
            workload=small_workload(f),
            horizon=horizon,
            params={"load_factor": f},
        )
        for f in loads
    ]


def _canonical_rows(path):
    """Rows in unit order with the timing column dropped."""
    data = FleetStore.open(path).read()
    order = np.argsort(data["unit"])
    return {k: v[order].tolist() for k, v in data.items() if k != "wall_s"}


# ---------------------------------------------------------------------------
# bit-identity across batch size, scheduling, backend
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch_size", [1, 7, 64])
@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_fleet_batched_rows_bit_identical(tmp_path, batch_size, n_jobs, backend):
    if backend == "compiled" and not kernel_available():
        pytest.skip("no C toolchain for the compiled kernel")
    scenarios = _scenarios()
    ref = run_fleet(
        scenarios,
        10,
        tmp_path / "ref",
        seed=11,
        n_jobs=1,
        backend="python",
        batch_size=1,
        store_format="npz",
    )
    got = run_fleet(
        scenarios,
        10,
        tmp_path / "got",
        seed=11,
        n_jobs=n_jobs,
        backend=backend,
        batch_size=batch_size,
        store_format="npz",
    )
    assert ref.n_done == got.n_done == 20
    assert ref.n_failed == got.n_failed == 0
    assert _canonical_rows(tmp_path / "got") == _canonical_rows(tmp_path / "ref")


@needs_kernel
def test_fleet_batched_chunk_boundaries(tmp_path):
    # 70 replications under batch 64: a full chunk plus a 6-unit tail
    # per scenario — the resume/reset seams land mid-scenario.
    scenarios = _scenarios(loads=(0.6,))
    ref = run_fleet(
        scenarios,
        70,
        tmp_path / "ref",
        seed=3,
        n_jobs=1,
        backend="python",
        batch_size=1,
        store_format="npz",
    )
    got = run_fleet(
        scenarios,
        70,
        tmp_path / "got",
        seed=3,
        n_jobs=1,
        backend="compiled",
        batch_size=64,
        store_format="npz",
    )
    assert ref.n_done == got.n_done == 70
    assert _canonical_rows(tmp_path / "got") == _canonical_rows(tmp_path / "ref")


@needs_kernel
def test_queue_sampling_chunk_runs_batched(tmp_path):
    # Telemetry queue sampling is inside the batched driver's envelope:
    # the chunk runs as one kernel call (rows, not None) with the
    # sampling tap live, and its rows equal the python backend's.
    import json

    from repro.obs import telemetry_session
    from repro.simulation.compiled import maybe_simulate_fleet_batch
    from repro.simulation.fleet import _run_chunk, _unit_seed

    scenarios = _scenarios(loads=(0.7,))
    sc = scenarios[0]
    seeds = [_unit_seed(5, 0, r) for r in range(4)]
    with telemetry_session(tmp_path / "tel", sample_queues=True, queue_sample_interval=1.0):
        batched = maybe_simulate_fleet_batch(
            "compiled", sc.cluster, sc.workload, sc.horizon, sc.warmup_fraction, seeds
        )
    assert batched is not None
    rows, failures = batched
    assert failures == []
    samples = [
        rec
        for path in (tmp_path / "tel").glob("*.jsonl")
        for rec in map(json.loads, path.read_text().splitlines())
        if rec.get("name") == "sim.queue_sample"
    ]
    assert samples

    ok_units, cols, ref_failures = _run_chunk(scenarios, 5, 4, 0, 0, 4, "python")
    assert ok_units == [0, 1, 2, 3] and ref_failures == []
    for j, row in enumerate(rows):
        metrics = {c: v for c, v in row.items() if c != "wall_s"}
        assert metrics == {c: cols[c][j].item() for c in metrics}, j


def test_fleet_batch_size_recorded_and_validated(tmp_path):
    summary = run_fleet(
        _scenarios(loads=(0.5,)),
        4,
        tmp_path / "s",
        seed=0,
        n_jobs=1,
        batch_size=2,
        store_format="npz",
    )
    assert summary.n_done == 4
    meta = FleetStore.open(tmp_path / "s").meta
    assert meta["batch_size"] == 2
    assert meta["transport"] == "inline"
    for bad in (0, -3, 2.5, "huge", True):
        with pytest.raises(ModelValidationError):
            run_fleet(
                _scenarios(loads=(0.5,)),
                2,
                tmp_path / f"bad-{bad}",
                batch_size=bad,
            )


def test_chunk_plan_and_auto_sizing():
    assert _chunk_plan(2, 5, 2) == [
        (0, 0, 2),
        (0, 2, 2),
        (0, 4, 1),
        (1, 0, 2),
        (1, 2, 2),
        (1, 4, 1),
    ]
    # serial: as large as the scenario allows, capped at 64
    assert _resolve_batch_size("auto", 250, 1000, 1) == 64
    assert _resolve_batch_size("auto", 10, 20, 1) == 10
    # pool: keep ~8 chunks per worker in flight for stealing
    assert _resolve_batch_size("auto", 250, 1000, 4) == 32
    assert _resolve_batch_size("auto", 250, 1000, 64) == 2
    assert _resolve_batch_size(100, 30, 60, 1) == 30  # clamped to scenario


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------


class _FailingNthDraw(Distribution):
    """Wraps a distribution; the ``fail_at``-th sample call raises."""

    def __init__(self, inner, fail_at: int):
        self.inner = inner
        self.fail_at = fail_at
        self.calls = 0

    @property
    def mean(self) -> float:
        return self.inner.mean

    @property
    def second_moment(self) -> float:
        return self.inner.second_moment

    def sample(self, rng, size=None):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("injected draw failure")
        return self.inner.sample(rng, size)


def _bombed_scenario(fail_at: int, horizon=8.0) -> FleetScenario:
    clean = small_cluster()
    t0 = clean.tiers[0]
    cluster = ClusterModel(
        [
            Tier(
                t0.name,
                (_FailingNthDraw(t0.demands[0], fail_at), t0.demands[1]),
                t0.spec,
                servers=t0.servers,
                speed=t0.speed,
                discipline=t0.discipline,
            ),
            clean.tiers[1],
        ]
    )
    return FleetScenario(
        label="bombed", cluster=cluster, workload=small_workload(0.5), horizon=horizon
    )


@needs_kernel
def test_mid_batch_failure_costs_one_unit(tmp_path):
    # One replication's service draw raises partway through a batched
    # chunk: exactly that unit fails, and the replications after it
    # complete on reset kernel state with their own streams — rows
    # bit-identical to a clean unit-at-a-time run.
    n_reps = 6
    summary = run_fleet(
        [_bombed_scenario(fail_at=30)],
        n_reps,
        tmp_path / "bombed",
        seed=4,
        n_jobs=1,
        backend="compiled",
        batch_size=n_reps,
        store_format="npz",
    )
    assert summary.n_failed == 1
    assert summary.n_done == n_reps - 1
    store = FleetStore.open(tmp_path / "bombed")
    (failure,) = store.meta["failures"]
    failed_unit, message = failure
    assert "RuntimeError: injected draw failure" in message
    survivors = sorted(store.read(["unit"])["unit"].tolist())
    assert survivors == [u for u in range(n_reps) if u != failed_unit]

    ref = run_fleet(
        [
            FleetScenario(
                label="clean",
                cluster=small_cluster(),
                workload=small_workload(0.5),
                horizon=8.0,
            )
        ],
        n_reps,
        tmp_path / "clean",
        seed=4,
        n_jobs=1,
        backend="python",
        batch_size=1,
        store_format="npz",
    )
    assert ref.n_failed == 0
    clean_rows = _canonical_rows(tmp_path / "clean")
    got_rows = _canonical_rows(tmp_path / "bombed")
    keep = [i for i, u in enumerate(clean_rows["unit"]) if u != failed_unit]
    for col, values in clean_rows.items():
        assert got_rows[col] == [values[i] for i in keep], col


@needs_kernel
def test_unstable_scenario_fails_whole_chunks_batched(tmp_path):
    # Scenario-level rejection under batching: every unit of the
    # unstable scenario fails with the validation message, the stable
    # scenario's rows all land.
    scenarios = _scenarios(loads=(0.5,)) + [
        FleetScenario(
            label="unstable",
            cluster=small_cluster(),
            workload=small_workload(load_factor=50.0),
            horizon=8.0,
        )
    ]
    summary = run_fleet(
        scenarios,
        4,
        tmp_path / "s",
        seed=1,
        n_jobs=1,
        backend="compiled",
        batch_size=4,
        store_format="npz",
    )
    assert summary.n_failed == 4
    assert summary.n_done == 4
    store = FleetStore.open(tmp_path / "s")
    assert set(store.read(["scenario"])["scenario"].tolist()) == {0}
    failures = store.meta["failures"]
    assert len(failures) == 4
    assert all(u >= 4 for u, _ in failures)
    assert all("unstable" in msg for _, msg in failures)


def _mixed_stream_scenario(pareto):
    """Three tiers, two classes, Markov routing: Pareto (drawn through
    the per-draw Python callback, on RngStreams' stream) next to
    HyperExponential / Gamma / Exponential tiers and Poisson arrivals
    and routing uniforms (all seeded inside the kernel)."""
    spec = small_cluster().tiers[0].spec
    p0 = np.array([[0.0, 0.6, 0.3], [0.0, 0.0, 0.5], [0.2, 0.0, 0.0]])
    p1 = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 0.4], [0.0, 0.1, 0.0]])
    entries = [np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.0, 0.5])]
    tiers = [
        Tier("pareto", (pareto, Pareto(2.5, 0.03)), spec, servers=2),
        Tier(
            "hyper",
            (HyperExponential(probs=[0.3, 0.7], rates=[5.0, 30.0]), Gamma(2.0, 30.0)),
            spec,
            servers=2,
        ),
        Tier("gamma", (Gamma(3.0, 60.0), Exponential(25.0)), spec, servers=2),
    ]
    cluster = ClusterModel(tiers, visit_ratios=visit_ratio_matrix([p0, p1], entries=entries))
    routing = [ClassRouting(p, e) for p, e in zip((p0, p1), entries)]
    return cluster, small_workload(0.5), routing


@needs_kernel
@pytest.mark.parametrize("batch_size", [1, 7])
def test_mixed_stream_batch_bit_identical_after_failure(batch_size, monkeypatch):
    # Kernel-seeded and Python-seeded streams in one multi-replication
    # call, with one replication failing mid-batch: every other
    # replication's slots take its own seed (the b-th), so its metrics
    # equal the python engine's for that seed bit for bit.  (Fleet
    # scenarios carry no routing, so this drives the batch driver
    # directly.)
    from repro.simulation.compiled import _run_kernel, load_kernel
    from repro.simulation.fleet import _unit_seed
    from repro.simulation.simulator import _finalize

    seeds = [_unit_seed(9, 0, r) for r in range(7)]
    horizon = 30.0
    warmup = 0.1 * horizon
    clean, workload, routing = _mixed_stream_scenario(Pareto(2.5, 0.03))
    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    ref = [
        simulate(clean, workload, horizon=horizon, warmup_fraction=0.1, seed=s, routing=routing)
        for s in seeds
    ]

    # Count the class-0 Pareto draws of replications 0-2 (fail_at=0
    # never fires), then arm the 40th draw of replication 3.
    bombed = _FailingNthDraw(Pareto(2.5, 0.03), fail_at=0)
    cluster, _, _ = _mixed_stream_scenario(bombed)
    _run_kernel(load_kernel(), cluster, workload, horizon, warmup, seeds[:3], routing=routing)
    bombed.calls, bombed.fail_at = 0, bombed.calls + 40

    got = []
    for b0 in range(0, len(seeds), batch_size):
        outcomes, _walls = _run_kernel(
            load_kernel(), cluster, workload, horizon, warmup, seeds[b0 : b0 + batch_size],
            routing=routing,
        )
        got.extend(outcomes)
    failed = [b for b, t in enumerate(got) if isinstance(t, BaseException)]
    assert failed == [3], failed
    assert "injected draw failure" in str(got[3])
    for b, t in enumerate(got):
        if b == 3:
            continue
        res = _finalize(cluster, workload, horizon, warmup, t)
        assert res.delays.tobytes() == ref[b].delays.tobytes(), b
        assert res.average_power == ref[b].average_power, b
        assert res.meta["n_events"] == ref[b].meta["n_events"], b


@needs_kernel
def test_batched_rows_carry_per_unit_kernel_wall():
    # wall_s of a batched row is that unit's own time in the kernel,
    # not the chunk average: positive, not all equal, and summing to
    # no more than the chunk's wall time.
    from repro.simulation.fleet import _run_chunk

    scenarios = _scenarios(loads=(0.7,), horizon=20.0)
    start = time.perf_counter()
    ok_units, cols, failures = _run_chunk(scenarios, 3, 8, 0, 0, 8, "compiled")
    chunk_wall = time.perf_counter() - start
    walls = cols["wall_s"]
    assert failures == [] and ok_units == list(range(8))
    assert (walls > 0).all()
    assert len(set(walls.tolist())) > 1
    assert walls.sum() <= chunk_wall


# ---------------------------------------------------------------------------
# columnar ingest + streaming aggregate
# ---------------------------------------------------------------------------


def test_append_columns_roundtrip_and_validation(tmp_path):
    store = FleetStore.create(
        tmp_path / "s", ("unit", "scenario", "y"), meta={}, rows_per_group=4
    )
    store.append({"unit": 0, "scenario": 0, "y": 1.5})
    store.append_columns(
        {
            "unit": np.array([1, 2]),
            "scenario": np.array([0, 1]),
            "y": np.array([2.5, 3.5]),
        }
    )
    store.append({"unit": 3, "scenario": 1, "y": 4.5})  # seals a group of 4
    store.append_columns(
        {"unit": np.array([4]), "scenario": np.array([1]), "y": np.array([5.5])}
    )
    with pytest.raises(ModelValidationError):
        store.append_columns({"unit": np.array([9])})  # missing columns
    with pytest.raises(ModelValidationError):
        store.append_columns(
            {
                "unit": np.array([9]),
                "scenario": np.array([1, 2]),  # ragged lengths
                "y": np.array([1.0]),
            }
        )
    store.append_columns(
        {"unit": np.array([], dtype=np.int64), "scenario": np.array([], dtype=np.int64), "y": np.array([])}
    )  # empty block is a no-op
    store.close()

    data = FleetStore.open(tmp_path / "s").read()
    # arrival order preserved across interleaved row/column appends
    assert data["unit"].tolist() == [0, 1, 2, 3, 4]
    assert data["y"].tolist() == [1.5, 2.5, 3.5, 4.5, 5.5]
    assert data["unit"].dtype == np.int64 and data["y"].dtype == np.float64


def test_streaming_aggregate_is_memory_bound(tmp_path):
    # 40 npz row groups; the streaming fold must peak well below the
    # materialized size of the store (one group resident at a time).
    n_groups, rows_per_group = 40, 2000
    rng = np.random.default_rng(0)
    with FleetStore.create(
        tmp_path / "s",
        ("unit", "scenario", "y"),
        meta={},
        rows_per_group=rows_per_group,
    ) as store:
        for g in range(n_groups):
            base = g * rows_per_group
            store.append_columns(
                {
                    "unit": np.arange(base, base + rows_per_group, dtype=np.int64),
                    "scenario": np.full(rows_per_group, g % 4, dtype=np.int64),
                    "y": rng.normal(size=rows_per_group),
                }
            )
    store = FleetStore.open(tmp_path / "s")
    total_bytes = n_groups * rows_per_group * 3 * 8

    tracemalloc.start()
    agg = store.aggregate(metrics=["y"])
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < total_bytes / 4, f"aggregate peaked at {peak} B of {total_bytes} B"

    # and the folded moments still match the materialized computation
    data = store.read()
    for sid, rec in agg.items():
        mask = data["scenario"] == sid
        col = data["y"][mask]
        assert rec["n"] == int(mask.sum())
        assert rec["y"]["mean"] == pytest.approx(col.mean(), rel=1e-12)
        assert rec["y"]["std"] == pytest.approx(col.std(ddof=1), rel=1e-10)
        assert rec["y"]["min"] == col.min() and rec["y"]["max"] == col.max()
