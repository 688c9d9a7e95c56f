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
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterModel, Tier
from repro.distributions import Exponential, Gamma, HyperExponential, Pareto
from repro.distributions.base import Distribution
from repro.exceptions import ModelValidationError
from repro.experiments.common import (
    canonical_cluster,
    canonical_workload,
    small_cluster,
    small_workload,
)
from repro.queueing.routing import ClassRouting, visit_ratio_matrix
from repro.simulation import FleetScenario, FleetStore, run_fleet, simulate
from repro.simulation.compiled import _IndexSeeds, _seed_block, kernel_available
from repro.simulation.fleet import (
    _CHUNK_EVENTS,
    _chunk_plan,
    _resolve_batch_size,
    _run_chunk,
    _unit_events,
)
from repro.workload import workload_from_rates

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
    )
    got = run_fleet(
        scenarios,
        10,
        tmp_path / "got",
        seed=11,
        n_jobs=n_jobs,
        backend=backend,
        batch_size=batch_size,
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
    )
    got = run_fleet(
        scenarios,
        70,
        tmp_path / "got",
        seed=3,
        n_jobs=1,
        backend="compiled",
        batch_size=64,
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
    from repro.simulation.fleet import _run_chunk

    scenarios = _scenarios(loads=(0.7,))
    sc = scenarios[0]
    with telemetry_session(tmp_path / "tel", sample_queues=True, queue_sample_interval=1.0):
        batched = maybe_simulate_fleet_batch(
            "compiled", sc.cluster, sc.workload, sc.horizon, sc.warmup_fraction, range(4), 5, 0
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

    cols, ref_failures = _run_chunk(sc, 5, 4, 0, 0, 4, "python")
    assert cols["unit"].tolist() == [0, 1, 2, 3] and ref_failures == []
    for j, row in enumerate(rows):
        metrics = {c: row[c].item() for c in rows.dtype.names if c != "wall_s"}
        assert metrics == {c: cols[c][j].item() for c in metrics}, j


def test_fleet_batch_size_recorded_and_validated(tmp_path):
    summary = run_fleet(
        _scenarios(loads=(0.5,)),
        4,
        tmp_path / "s",
        seed=0,
        n_jobs=1,
        batch_size=2,
    )
    assert summary.n_done == 4
    meta = FleetStore.open(tmp_path / "s").meta
    assert meta["batch_size"] == 2
    assert meta["transport"] == "inline"
    summary = run_fleet(
        _scenarios(loads=(0.5,)),
        4,
        tmp_path / "np",
        seed=0,
        n_jobs=1,
        batch_size=np.int64(2),
    )
    assert summary.n_done == 4
    assert FleetStore.open(tmp_path / "np").meta["batch_size"] == 2
    for bad in (0, -3, 2.5, "huge", True, np.float64(2.0), np.bool_(True)):
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

    # Each unit costs ~horizon × Σ_k λ_k × (1 + route length) kernel
    # events; "auto" packs the costliest scenario's units into one
    # _CHUNK_EVENTS budget, and a pool keeps ~8 chunks per worker.
    def grid(horizon):
        return [
            FleetScenario(f"load={f:g}", canonical_cluster(), canonical_workload(f), horizon)
            for f in (0.6, 0.8, 1.0, 1.2)
        ]

    unit_events = _unit_events(grid(5.0)[-1])
    assert unit_events == pytest.approx(5.0 * (4.8 + 9.6 + 14.4) * 4)
    # 4 × 5000 short units on 2 workers: the pool bound decides.
    assert _resolve_batch_size("auto", grid(5.0), 5000, 2) == 1250
    assert _resolve_batch_size("auto", grid(5.0), 250, 64) == 2
    # 4 × 500 long units, serial: the event budget decides, not the
    # replication count.
    serial = _resolve_batch_size("auto", grid(200.0), 500, 1)
    assert serial == _CHUNK_EVENTS // _unit_events(grid(200.0)[-1]) == 91
    assert len(_chunk_plan(4, 500, serial)) == 24
    # one unit over budget still runs, one per chunk
    assert _resolve_batch_size("auto", grid(1e6), 10, 1) == 1
    # the budget never asks for more units than a scenario has
    assert _resolve_batch_size("auto", grid(5.0), 10, 1) == 10
    # pinned sizes are taken as given, clamped to the scenario
    assert _resolve_batch_size(7, grid(5.0), 250, 4) == 7
    assert _resolve_batch_size(100, grid(5.0), 30, 1) == 30


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
    )
    assert summary.n_failed == 4
    assert summary.n_done == 4
    store = FleetStore.open(tmp_path / "s")
    assert set(store.read(["scenario"])["scenario"].tolist()) == {0}
    failures = store.meta["failures"]
    assert len(failures) == 4
    assert all(u >= 4 for u, _ in failures)
    assert all("unstable" in msg for _, msg in failures)


def test_unroutable_scenario_fails_its_units_under_auto_sizing(tmp_path):
    # Auto sizing reads every scenario's routes; a cluster the simulator
    # cannot route (fractional visit ratios, no routing given) must still
    # cost only its own units, not abort the sweep.
    cluster, workload, _routing = _mixed_stream_scenario(Pareto(2.5, 0.03))
    scenarios = _scenarios(loads=(0.5,)) + [
        FleetScenario(label="markov", cluster=cluster, workload=workload, horizon=8.0)
    ]
    summary = run_fleet(scenarios, 3, tmp_path / "s", seed=1, n_jobs=1)
    assert (summary.n_done, summary.n_failed) == (3, 3)
    failures = FleetStore.open(tmp_path / "s").meta["failures"]
    assert [u for u, _ in failures] == [3, 4, 5]
    assert all("integer visit ratios" in msg for _, msg in failures)


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
        run = _run_kernel(
            load_kernel(), cluster, workload, horizon, warmup, seeds[b0 : b0 + batch_size],
            routing=routing,
        )
        cols = _finalize(cluster, workload, horizon, warmup, run)
        got.extend(run.errors.get(b) or cols.result(b) for b in range(len(run.rc)))
    failed = [b for b, t in enumerate(got) if isinstance(t, BaseException)]
    assert failed == [3], failed
    assert "injected draw failure" in str(got[3])
    for b, res in enumerate(got):
        if b == 3:
            continue
        assert res.delays.tobytes() == ref[b].delays.tobytes(), b
        assert res.average_power == ref[b].average_power, b
        assert res.meta["n_events"] == ref[b].meta["n_events"], b


@needs_kernel
def test_batched_rows_carry_per_unit_kernel_wall():
    # wall_s of a batched row is that unit's own time in the kernel,
    # not the chunk average: positive, not all equal, and summing to
    # no more than the chunk's wall time.
    from repro.simulation.fleet import _run_chunk

    (sc,) = _scenarios(loads=(0.7,), horizon=20.0)
    start = time.perf_counter()
    cols, failures = _run_chunk(sc, 3, 8, 0, 0, 8, "compiled")
    chunk_wall = time.perf_counter() - start
    walls = cols["wall_s"]
    assert failures == [] and cols["unit"].tolist() == list(range(8))
    assert (walls > 0).all()
    assert len(set(walls.tolist())) > 1
    assert walls.sum() <= chunk_wall


# ---------------------------------------------------------------------------
# seed words from indices
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    master=st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 1, 2**128]) | st.integers(0, 2**140),
    scenario=st.sampled_from([0, 2**32 - 1, 2**32]) | st.integers(0, 2**70),
    rep0=st.sampled_from([0, 2**32 - 9]) | st.integers(0, 2**32 - 9),
    count=st.integers(1, 9),
)
@example(master=2**128, scenario=2**32, rep0=2**32 - 9, count=9)
@example(master=2**64 + 1, scenario=2**32 - 1, rep0=0, count=1)
def test_index_seed_block_matches_seed_sequences(master, scenario, rep0, count):
    # The chunk's seed words, built from (master, scenario, reps) in
    # NumPy, equal the words of the per-unit SeedSequence objects word
    # for word, with the same offsets (multi-word masters, scenarios on
    # both sides of 2**32, replications up to the last one-word index).
    reps = range(rep0, rep0 + count)
    seqs = [np.random.SeedSequence(master, spawn_key=(scenario, r)) for r in reps]
    words, offsets = _IndexSeeds(master, scenario, reps).words()
    ref_words, ref_offsets = _seed_block(seqs)
    assert words.dtype == ref_words.dtype == np.uint32
    assert offsets.dtype == ref_offsets.dtype
    assert words.tolist() == ref_words.tolist()
    assert offsets.tolist() == ref_offsets.tolist()
    lazy = list(_IndexSeeds(master, scenario, reps))
    assert [(s.entropy, s.spawn_key) for s in lazy] == [(s.entropy, s.spawn_key) for s in seqs]


def test_index_seeds_reject_out_of_range_indices():
    # A replication index from 2**32 on would take a second seed word.
    with pytest.raises(ModelValidationError, match="2\\*\\*32"):
        _IndexSeeds(0, 0, range(2**32 - 2, 2**32 + 1))
    _IndexSeeds(0, 0, range(2**32 - 2, 2**32))
    with pytest.raises(ModelValidationError):
        _IndexSeeds(0, -1, range(3))
    with pytest.raises(ModelValidationError):
        _IndexSeeds(-1, 0, range(3)).words()


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("seed", [-1, 2.5, "7", True])
def test_run_fleet_rejects_bad_seed_up_front(tmp_path, n_jobs, seed):
    # Serial and pooled sweeps alike reject the seed before a store is
    # created, instead of failing inside (or for every unit of) a chunk.
    with pytest.raises(ModelValidationError, match="seed"):
        run_fleet(_scenarios(loads=(0.5,)), 2, tmp_path / "s", seed=seed, n_jobs=n_jobs)
    assert not (tmp_path / "s").exists()


# ---------------------------------------------------------------------------
# the row builder against per-unit simulate()
# ---------------------------------------------------------------------------


def _unit_rows(sc, sid, reps, seed):
    """The oracle: one python-engine simulate() per unit, its fleet row
    read off the SimulationResult (every column but unit and wall_s)."""
    rows = []
    for r in reps:
        res = simulate(
            sc.cluster,
            sc.workload,
            horizon=sc.horizon,
            warmup_fraction=sc.warmup_fraction,
            seed=np.random.SeedSequence(seed, spawn_key=(sid, r)),
        )
        row = {
            "scenario": sid,
            "replication": r,
            "n_events": res.meta["n_events"],
            "n_completed": int(res.n_completed.sum()),
            "mean_delay": res.mean_delay,
            "average_power": res.average_power,
            "energy_per_request": res.energy_per_request,
        }
        row.update((f"delay_c{k}", d) for k, d in enumerate(res.delays.tolist()))
        rows.append(row)
    return rows


def _assert_rows_match(cols, oracle):
    """Bitwise equality of chunk columns and oracle rows (NaN included)."""
    assert len(cols["unit"]) == len(oracle)
    for c in oracle[0]:
        want = np.array([row[c] for row in oracle], dtype=cols[c].dtype)
        assert cols[c].tobytes() == want.tobytes(), (c, cols[c], want)


def _edge_scenarios():
    return [
        # bronze never arrives: NaN delay_c1, and NaN mean_delay (the
        # 0 * NaN term of the completion-weighted dot)
        FleetScenario(
            "starved",
            small_cluster(),
            workload_from_rates([3.0, 1e-9], names=("gold", "bronze")),
            horizon=8.0,
        ),
        # nothing completes inside the window: NaN energy_per_request too
        FleetScenario("empty", small_cluster(), small_workload(0.5), horizon=0.02),
        FleetScenario("plain", small_cluster(), small_workload(0.8), horizon=8.0),
    ]


@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_chunk_rows_match_per_unit_simulate(backend, count, monkeypatch):
    # Both chunk paths (the batched kernel call, a one-unit chunk
    # included, and the python fallback) build their rows with one
    # vectorized builder; each row equals the per-unit result bit for
    # bit, NaN columns included, without a stray RuntimeWarning.
    if backend == "compiled" and not kernel_available():
        pytest.skip("no C toolchain for the compiled kernel")
    scenarios = _edge_scenarios()
    for sid, sc in enumerate(scenarios):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cols, failures = _run_chunk(sc, 13, count, sid, 0, count, backend)
        assert failures == []
        assert cols["unit"].tolist() == [sid * count + r for r in range(count)]
        monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
        _assert_rows_match(cols, _unit_rows(sc, sid, range(count), 13))
        monkeypatch.delenv("REPRO_SIM_BACKEND")
        if sc.label == "starved":
            assert np.isnan(cols["delay_c1"]).all() and np.isnan(cols["mean_delay"]).all()
        if sc.label == "empty":
            assert np.isnan(cols["energy_per_request"]).any()


@pytest.mark.filterwarnings("ignore::repro.exceptions.CompiledFallbackWarning")
@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_warmup_discard_chunk_warns_and_counts_per_unit(backend, telemetry, monkeypatch):
    # A chunk whose units discard most completions in the warmup warns
    # once per unit with the unit's own message and adds the same sim.*
    # counter totals as per-unit simulate() calls.
    if backend == "compiled" and not kernel_available():
        pytest.skip("no C toolchain for the compiled kernel")
    sc = FleetScenario(
        "late", small_cluster(), small_workload(0.5), horizon=8.0, warmup_fraction=0.9
    )
    names = ("sim.events", "sim.jobs_created", "sim.jobs_counted")

    def observe(run):
        before = [telemetry.metrics.counter(n).value for n in names]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = run()
        after = [telemetry.metrics.counter(n).value for n in names]
        messages = [(w.category, str(w.message)) for w in caught]
        return out, messages, [a - b for a, b in zip(after, before)]

    (cols, failures), got_msgs, got_counts = observe(
        lambda: _run_chunk(sc, 2, 4, 0, 0, 4, backend)
    )
    assert failures == []
    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    oracle, want_msgs, want_counts = observe(lambda: _unit_rows(sc, 0, range(4), 2))
    _assert_rows_match(cols, oracle)
    assert len(want_msgs) == 4
    assert got_msgs == want_msgs
    assert got_counts == want_counts and want_counts[0] > 0


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_mid_chunk_failure_costs_one_unit_rows_match(backend, monkeypatch):
    # One unit's service draw raises mid-chunk: exactly that unit fails
    # and every other row equals its clean per-unit result.
    if backend == "compiled" and not kernel_available():
        pytest.skip("no C toolchain for the compiled kernel")
    cols, failures = _run_chunk(_bombed_scenario(fail_at=30), 4, 6, 0, 0, 6, backend)
    ((failed_unit, message),) = failures
    assert "RuntimeError: injected draw failure" in message
    survivors = [u for u in range(6) if u != failed_unit]
    assert cols["unit"].tolist() == survivors
    clean = FleetScenario("clean", small_cluster(), small_workload(0.5), horizon=8.0)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    _assert_rows_match(cols, _unit_rows(clean, 0, survivors, 4))


# ---------------------------------------------------------------------------
# columnar ingest + streaming aggregate
# ---------------------------------------------------------------------------


def test_append_columns_roundtrip_and_validation(tmp_path):
    store = FleetStore.create(
        tmp_path / "s", ("unit", "scenario", "y"), meta={}, rows_per_group=4
    )
    store.append_columns(
        {"unit": np.array([0]), "scenario": np.array([0]), "y": np.array([1.5])}
    )
    store.append_columns(
        {
            "unit": np.array([1, 2]),
            "scenario": np.array([0, 1]),
            "y": np.array([2.5, 3.5]),
        }
    )
    store.append_columns(
        {"unit": np.array([3]), "scenario": np.array([1]), "y": np.array([4.5])}
    )  # seals a group of 4
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

    again = FleetStore.open(tmp_path / "s")
    assert [g["n_rows"] for g in again._groups] == [4, 1]
    data = again.read()
    # arrival order preserved across blocks of different lengths
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
