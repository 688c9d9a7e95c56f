"""Fleet sweep runner + columnar result store tests.

The fleet runner's contract is *scheduling-independent determinism*:
unit ``u``'s row depends only on ``(master_seed, scenario,
replication)``, never on which worker ran it, in what order workers
took chunks, or whether a chunk was rerun after a worker died. These
tests pin that, plus the store's schema validation, aggregation math,
reopen semantics, the sqlite summary ingest, live progress, and the
CLI surface.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import signal
import sys
import tracemalloc
import types
import zipfile

import numpy as np
import pytest

from repro import obs
from repro.cluster import ClusterModel, Tier
from repro.distributions.base import Distribution
from repro.exceptions import ModelValidationError
from repro.experiments.common import small_cluster, small_workload
from repro.obs.progress import PROGRESS_FILENAME, progress_snapshot, read_progress
from repro.obs.store import RunStore
from repro.simulation import FleetScenario, FleetStore, fleet_columns, run_fleet
from repro.simulation.compiled import kernel_available


def _scenarios(loads=(0.5, 0.8), horizon=8.0):
    return [
        FleetScenario(
            label=f"load={f}",
            cluster=small_cluster(),
            workload=small_workload(load_factor=f),
            horizon=horizon,
            params={"load_factor": f},
        )
        for f in loads
    ]


# ---------------------------------------------------------------------------
# FleetStore
# ---------------------------------------------------------------------------


def _row(**values):
    """One row as a column block of length-1 arrays."""
    return {name: np.array([v]) for name, v in values.items()}


def test_store_roundtrip_and_dtypes(tmp_path):
    cols = ("unit", "scenario", "metric")
    with FleetStore.create(tmp_path / "s", cols, meta={"seed": 3}, rows_per_group=2) as store:
        for u in range(5):
            store.append_columns(_row(unit=u, scenario=u % 2, metric=0.5 * u))
    again = FleetStore.open(tmp_path / "s")
    assert again.final
    assert again.n_rows == 5
    assert tuple(again.columns) == cols
    data = again.read()
    assert data["unit"].dtype == np.int64
    assert data["metric"].dtype == np.float64
    # rows land in append order; rows_per_group=2 means 3 row groups
    assert [g["n_rows"] for g in again._groups] == [2, 2, 1]
    assert data["unit"].tolist() == [0, 1, 2, 3, 4]
    assert data["metric"].tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
    sub = again.read(columns=["metric"])
    assert list(sub) == ["metric"]


def test_store_validates_rows_and_refuses_overwrite(tmp_path):
    store = FleetStore.create(tmp_path / "s", ("unit", "x"), meta={})
    with pytest.raises(ModelValidationError):
        store.append_columns(_row(unit=0))  # missing column
    with pytest.raises(ModelValidationError):
        store.append_columns(_row(unit=0, x=1.0, extra=2.0))  # unknown column
    store.close()
    with pytest.raises(ModelValidationError):
        store.append_columns(_row(unit=1, x=1.0))  # closed store is immutable
    with pytest.raises(ModelValidationError):
        FleetStore.create(tmp_path / "s", ("unit", "x"), meta={})  # exists


def test_store_aggregate_matches_numpy(tmp_path):
    with FleetStore.create(tmp_path / "s", ("unit", "scenario", "y"), meta={}) as store:
        values = {0: [1.0, 3.0, 5.0], 1: [2.0, 4.0]}
        u = 0
        for sid, ys in values.items():
            for y in ys:
                store.append_columns(_row(unit=u, scenario=sid, y=y))
                u += 1
    agg = FleetStore.open(tmp_path / "s").aggregate(metrics=["y"])
    for sid, ys in values.items():
        rec = agg[sid]
        assert rec["n"] == len(ys)
        assert rec["y"]["mean"] == pytest.approx(np.mean(ys))
        assert rec["y"]["std"] == pytest.approx(np.std(ys, ddof=1))
        assert rec["y"]["min"] == min(ys) and rec["y"]["max"] == max(ys)


def test_store_empty_read_has_schema(tmp_path):
    with FleetStore.create(tmp_path / "s", ("unit", "x"), meta={}) as store:
        pass
    data = FleetStore.open(tmp_path / "s").read()
    assert data["unit"].size == 0 and data["unit"].dtype == np.int64


@pytest.fixture
def importable_pyarrow(monkeypatch):
    """Make ``import pyarrow.parquet`` succeed with empty stand-in modules."""
    pa = types.ModuleType("pyarrow")
    pa.parquet = types.ModuleType("pyarrow.parquet")
    monkeypatch.setitem(sys.modules, "pyarrow", pa)
    monkeypatch.setitem(sys.modules, "pyarrow.parquet", pa.parquet)


def _assert_npz_store(path, n_rows):
    manifest = json.loads((path / "manifest.json").read_text())
    assert manifest["fmt"] == "npz"
    assert manifest["row_groups"]
    assert all(g["file"].endswith(".npz") for g in manifest["row_groups"])
    assert FleetStore.open(path).n_rows == n_rows


def test_run_fleet_writes_npz_whatever_is_importable(tmp_path, importable_pyarrow):
    run_fleet(_scenarios(), 2, tmp_path / "s", seed=1, n_jobs=1, rows_per_group=3)
    _assert_npz_store(tmp_path / "s", 4)


def test_cli_fleet_writes_npz_whatever_is_importable(tmp_path, capsys, importable_pyarrow):
    from repro.cli import main

    argv = ["fleet", "--load-factors", "0.5", "--replications", "2", "--horizon", "8",
            "--jobs", "1", "--out", str(tmp_path / "s")]
    assert main(argv) == 0
    capsys.readouterr()
    _assert_npz_store(tmp_path / "s", 2)
    with pytest.raises(SystemExit):  # npz is the only --format choice
        main([*argv[:-1], str(tmp_path / "p"), "--format", "parquet"])
    assert not (tmp_path / "p").exists()


def test_store_open_rejects_other_formats(tmp_path):
    with FleetStore.create(tmp_path / "s", ("unit", "x"), meta={}) as store:
        store.append_columns(_row(unit=0, x=1.5))
    manifest_path = tmp_path / "s" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["fmt"] = "parquet"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ModelValidationError, match="'parquet'"):
        FleetStore.open(tmp_path / "s")


def test_store_reads_compressed_row_groups(tmp_path):
    # Row groups are written with np.savez; stores whose groups were
    # written with np.savez_compressed (the earlier encoding) must read,
    # aggregate and join to the same values.
    run_fleet(_scenarios(), 3, tmp_path / "new", seed=4, n_jobs=1, rows_per_group=2)
    shutil.copytree(tmp_path / "new", tmp_path / "old")
    new, old = FleetStore.open(tmp_path / "new"), FleetStore.open(tmp_path / "old")
    group = old.path / old._groups[1]["file"]
    with zipfile.ZipFile(group) as zf:
        assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}
    with np.load(group) as npz:
        arrays = {n: npz[n] for n in npz.files}
    with open(group, "wb") as fh:
        np.savez_compressed(fh, **arrays)
    with zipfile.ZipFile(group) as zf:
        assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_DEFLATED}

    a, b = new.read(), old.read()
    assert a.keys() == b.keys()
    for c in a:
        assert a[c].dtype == b[c].dtype and np.array_equal(a[c], b[c]), c
    assert new.aggregate() == old.aggregate()
    assert new.scenario_table() == old.scenario_table()


# ---------------------------------------------------------------------------
# run_fleet determinism and failure accounting
# ---------------------------------------------------------------------------


def _canonical_rows(store_path):
    """Store rows re-keyed to canonical unit order, wall_s dropped."""
    data = FleetStore.open(store_path).read()
    order = np.argsort(data["unit"])
    return {
        c: data[c][order].tolist() for c in sorted(data) if c != "wall_s"
    }


def test_fleet_serial_vs_pool_bit_identical(tmp_path):
    scenarios = _scenarios()
    a = run_fleet(scenarios, 4, tmp_path / "serial", seed=11, n_jobs=1)
    b = run_fleet(scenarios, 4, tmp_path / "pool", seed=11, n_jobs=3)
    assert a.n_done == b.n_done == 8
    assert a.n_failed == b.n_failed == 0
    assert _canonical_rows(tmp_path / "serial") == _canonical_rows(tmp_path / "pool")


class _WrappedDraw(Distribution):
    """Delegates every draw to ``inner``."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def mean(self) -> float:
        return self.inner.mean

    @property
    def second_moment(self) -> float:
        return self.inner.second_moment

    def sample(self, rng, size=None):
        return self.inner.sample(rng, size)


class _KillingDraw(_WrappedDraw):
    """Its ``kill_at``-th sample call SIGKILLs the pool worker drawing
    it. With a ``marker`` path it kills only while the marker is absent,
    creating it first: one kill per test. It never kills the process
    that built it, so a serial run draws cleanly."""

    def __init__(self, inner, marker: str | None, kill_at: int = 20):
        super().__init__(inner)
        self.marker = marker
        self.kill_at = kill_at
        self.owner = os.getpid()
        self.calls = 0

    def sample(self, rng, size=None):
        self.calls += 1
        if self.calls == self.kill_at and os.getpid() != self.owner:
            if self.marker is None or not os.path.exists(self.marker):
                if self.marker is not None:
                    open(self.marker, "w").close()
                os.kill(os.getpid(), signal.SIGKILL)
        return super().sample(rng, size)


class _LambdaDraw(_WrappedDraw):
    """Draws through a lambda attribute, so it cannot be pickled."""

    def __init__(self, inner):
        super().__init__(inner)
        self.draw = lambda rng, size: inner.sample(rng, size)

    def sample(self, rng, size=None):
        return self.draw(rng, size)


def _wrapped_scenario(label, wrap) -> FleetScenario:
    """The small cluster with its first tier's first demand wrapped."""
    clean = small_cluster()
    t0 = clean.tiers[0]
    tier = Tier(
        t0.name,
        (wrap(t0.demands[0]), *t0.demands[1:]),
        t0.spec,
        servers=t0.servers,
        speed=t0.speed,
        discipline=t0.discipline,
    )
    cluster = ClusterModel([tier, *clean.tiers[1:]])
    return FleetScenario(label, cluster, small_workload(load_factor=0.5), horizon=8.0)


def _pool_and_serial(tmp_path, scenarios, n_reps):
    kwargs = dict(seed=3, backend="python", batch_size=2)
    pool = run_fleet(scenarios, n_reps, tmp_path / "pool", n_jobs=2, **kwargs)
    serial = run_fleet(scenarios, n_reps, tmp_path / "serial", n_jobs=1, **kwargs)
    return pool, serial


def test_worker_killed_mid_chunk_loses_no_unit(tmp_path):
    # A worker SIGKILLed mid-chunk breaks the pool; the chunks that
    # had not come back rerun on a fresh one, bit-identically.
    marker = tmp_path / "killed"
    scenarios = _scenarios() + [
        _wrapped_scenario("killer", lambda d: _KillingDraw(d, str(marker)))
    ]
    pool, serial = _pool_and_serial(tmp_path, scenarios, 6)
    assert marker.exists()
    assert pool.n_failed == serial.n_failed == 0
    assert pool.n_done == serial.n_done == 18
    assert _canonical_rows(tmp_path / "pool") == _canonical_rows(tmp_path / "serial")


def test_units_lost_to_dead_workers_on_every_rerun_count_as_failed(tmp_path):
    # A chunk that kills every worker that runs it is rerun a bounded
    # number of times, then its units are counted failed and the store
    # is closed with a final manifest.
    killer = _wrapped_scenario("killer", lambda d: _KillingDraw(d, None))
    summary = run_fleet(
        [killer], 4, tmp_path / "s", seed=3, n_jobs=2, backend="python", batch_size=2
    )
    assert summary.n_done == 0 and summary.n_failed == 4
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert manifest["final"] and manifest["n_rows"] == 0
    assert manifest["meta"]["n_failed"] == 4
    assert manifest["meta"]["failures"] == [[-1, "4 unit(s) lost to dead workers"]]


def test_a_chunk_that_always_kills_loses_only_its_own_units(tmp_path):
    # The killer sorts first, so its chunk breaks the first pool before
    # the good chunks run. Each rerun runs one chunk alone: the killer
    # spends only its own budget and every good chunk still lands.
    killer = _wrapped_scenario("killer", lambda d: _KillingDraw(d, None))
    scenarios = [killer] + _scenarios()
    pool, serial = _pool_and_serial(tmp_path, scenarios, 4)
    assert pool.n_failed == 4 and pool.n_done == 8
    assert serial.n_failed == 0 and serial.n_done == 12
    assert FleetStore.open(tmp_path / "pool").meta["failures"] == [
        [-1, "4 unit(s) lost to dead workers"]
    ]
    serial_rows = _canonical_rows(tmp_path / "serial")
    good = np.asarray(serial_rows["scenario"]) != 0
    expected = {c: np.asarray(v)[good].tolist() for c, v in serial_rows.items()}
    assert _canonical_rows(tmp_path / "pool") == expected


def test_unpicklable_scenario_runs_under_a_pool_request(tmp_path):
    scenarios = _scenarios(loads=(0.5,)) + [_wrapped_scenario("lambda", _LambdaDraw)]
    pool, serial = _pool_and_serial(tmp_path, scenarios, 4)
    assert pool.n_failed == serial.n_failed == 0
    assert pool.n_done == serial.n_done == 8
    assert _canonical_rows(tmp_path / "pool") == _canonical_rows(tmp_path / "serial")


@pytest.mark.skipif(not kernel_available(), reason="no C toolchain for the compiled kernel")
@pytest.mark.parametrize("n_jobs", [1, 2])
def test_sweep_memory_does_not_grow_with_its_rows(tmp_path, n_jobs):
    # Rows leave for the store a row group at a time. A sweep that kept
    # them until the end would grow by at least one stored row per unit.
    # A pool's parent runs no chunk itself and keeps only a few chunks
    # in flight, so it must stay under half a row per unit; one holding
    # a future per chunk grows by about 56 bytes per unit here.
    def peak(n_reps: int) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            run_fleet(
                _scenarios(), n_reps, tmp_path / str(n_reps), seed=0, n_jobs=n_jobs,
                backend="compiled", batch_size=40, rows_per_group=200,
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(40)  # imports, the kernel build and the pool's start stay out
    small, big = peak(200), peak(3200)
    row_bytes = sum(a.itemsize for a in FleetStore.open(tmp_path / "40").read().values())
    bound = row_bytes if n_jobs == 1 else row_bytes / 2
    assert (big - small) / (2 * 3000) < bound


def test_fleet_failures_counted_not_fatal(tmp_path):
    # An unstable scenario makes every one of its units raise; the
    # sweep must finish, count them, and keep the stable scenario's rows.
    scenarios = _scenarios(loads=(0.5,)) + [
        FleetScenario(
            label="unstable",
            cluster=small_cluster(),
            workload=small_workload(load_factor=50.0),
            horizon=8.0,
        )
    ]
    summary = run_fleet(scenarios, 3, tmp_path / "s", seed=1, n_jobs=1)
    assert summary.n_failed == 3
    assert summary.n_done == 3
    store = FleetStore.open(tmp_path / "s")
    assert store.n_rows == 3
    assert set(store.read()["scenario"].tolist()) == {0}
    failures = store.meta["failures"]
    assert len(failures) == 3 and all(u >= 3 for u, _msg in failures)


def test_fleet_validates_inputs(tmp_path):
    with pytest.raises(ModelValidationError):
        run_fleet([], 2, tmp_path / "a")
    with pytest.raises(ModelValidationError):
        run_fleet(_scenarios(), 0, tmp_path / "b")
    from repro.workload.generator import workload_from_rates

    mixed = _scenarios(loads=(0.5,)) + [
        FleetScenario(
            label="other-classes",
            cluster=small_cluster(),
            workload=workload_from_rates([1.0, 2.0], names=("vip", "basic")),
            horizon=8.0,
        )
    ]
    with pytest.raises(ModelValidationError):
        run_fleet(mixed, 2, tmp_path / "c")


def test_fleet_manifest_and_scenario_table(tmp_path):
    scenarios = _scenarios()
    run_fleet(scenarios, 2, tmp_path / "s", seed=5, n_jobs=1)
    store = FleetStore.open(tmp_path / "s")
    assert store.meta["seed"] == 5
    assert [s["label"] for s in store.meta["scenarios"]] == ["load=0.5", "load=0.8"]
    table = store.scenario_table(metrics=["mean_delay"])
    assert [r["label"] for r in table] == ["load=0.5", "load=0.8"]
    assert all(r["n"] == 2 for r in table)
    assert all(r["params"]["load_factor"] in (0.5, 0.8) for r in table)


# ---------------------------------------------------------------------------
# telemetry / progress / sqlite ingest
# ---------------------------------------------------------------------------


def test_fleet_progress_stream_and_snapshot(tmp_path):
    tel_dir = tmp_path / "tel"
    with obs.telemetry_session(tel_dir, command=["test-fleet"]):
        run_fleet(_scenarios(), 2, tmp_path / "s", seed=2, n_jobs=1)
    records = read_progress(tel_dir / PROGRESS_FILENAME)
    snap = progress_snapshot(records)
    assert snap["fleet"]["n_done"] == 4
    assert snap["fleet"]["n_failed"] == 0
    assert snap["fleet"]["n_total"] == 4
    assert snap["fleet"]["finished"] is True


def test_runstore_ingest_fleet_idempotent(tmp_path):
    run_fleet(_scenarios(), 2, tmp_path / "s", seed=2, n_jobs=1)
    with RunStore(tmp_path / "runs.sqlite") as rs:
        sweep_id = rs.ingest_fleet(tmp_path / "s")
        again = rs.ingest_fleet(tmp_path / "s")  # re-ingest replaces, not duplicates
        sweeps = rs.fleet_sweeps()
        assert len(sweeps) == 1
        assert sweeps[0]["n_rows"] == 4
        assert sweeps[0]["n_scenarios"] == 2
        rows = rs.fleet_scenarios(again)
        assert [r["label"] for r in rows] == ["load=0.5", "load=0.8"]
        assert all(r["n"] == 2 for r in rows)
        assert all(np.isfinite(r["mean_delay"]) for r in rows)
        assert isinstance(sweep_id, int) and isinstance(again, int)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_fleet_status_ingest_roundtrip(tmp_path, capsys):
    from repro.cli import main

    store_dir = tmp_path / "fleet-store"
    tel_dir = tmp_path / "tel"
    rc = main(
        [
            "fleet",
            "--load-factors",
            "0.5,0.8",
            "--replications",
            "2",
            "--horizon",
            "8",
            "--jobs",
            "1",
            "--format",
            "npz",
            "--out",
            str(store_dir),
            "--telemetry",
            str(tel_dir),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "load=0.5" in out and "load=0.8" in out
    assert FleetStore.open(store_dir).n_rows == 4

    rc = main(["status", str(tel_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fleet" in out.lower()
    assert "4/4" in out or "4" in out

    db = tmp_path / "runs.sqlite"
    rc = main(["telemetry", "ingest", "--store", str(db), "--fleet", str(store_dir)])
    assert rc == 0
    capsys.readouterr()
    with RunStore(db) as rs:
        assert len(rs.fleet_sweeps()) == 1


def test_fleet_columns_schema():
    cols = fleet_columns(2)
    assert cols[:3] == ("unit", "scenario", "replication")
    assert "delay_c0" in cols and "delay_c1" in cols and "delay_c2" not in cols
    assert cols[-1] == "wall_s"


def test_store_manifest_is_valid_json(tmp_path):
    run_fleet(_scenarios(loads=(0.5,)), 1, tmp_path / "s", n_jobs=1)
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert manifest["kind"] == "fleet_store"
    assert manifest["final"] is True
    assert manifest["n_rows"] == 1
