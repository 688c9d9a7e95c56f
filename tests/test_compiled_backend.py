"""Backend-parity suite for the compiled event-loop kernel.

The compiled C kernel behind ``backend="compiled"`` (or
``REPRO_SIM_BACKEND=compiled`` when no argument is given) must be a
pure performance transform: every number it produces is required to be
**bit-identical** to the pure-Python engine's, across execution
backends (serial loop vs process pool) and across the full support
envelope — epoch controllers (the kernel yields at each boundary for
the Python control decision), antithetic mirrored streams, PS tiers,
and queue-sampling telemetry all run compiled. This file holds it to
that with the same golden pins the Python engine answers to, plus
fallback-semantics tests: a kernel that cannot build/load, or a
configuration outside the kernel's envelope, degrades to pure Python
with exactly one visible :class:`CompiledFallbackWarning` per process
and reason (and silently under ``REPRO_SIM_BACKEND=auto``).
"""

from __future__ import annotations

import struct
import warnings
from ctypes import POINTER, c_int, c_longlong, c_uint32, c_uint64

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CompiledFallbackWarning, ModelValidationError
from repro.simulation import RngStreams, simulate
from repro.simulation import compiled as compiled_mod
from repro.simulation.parallel import WorkerPool
from repro.simulation.replications import _run_block
from repro.simulation.rng import fnv1a64

import test_golden_sim_metrics as golden_mod

pytestmark = pytest.mark.filterwarnings("ignore::repro.exceptions.WarmupDiscardWarning")

COMPILED_AVAILABLE = compiled_mod.kernel_available()

needs_kernel = pytest.mark.skipif(
    not COMPILED_AVAILABLE, reason="compiled kernel unavailable (no C toolchain?)"
)


@pytest.fixture(autouse=True)
def _fresh_warning_state(monkeypatch):
    """Each test starts with the once-per-reason warning memory empty."""
    monkeypatch.setattr(compiled_mod, "_warned", set())


# ---------------------------------------------------------------------------
# golden bit-identity on the compiled backend
# ---------------------------------------------------------------------------


@needs_kernel
@pytest.mark.parametrize("name", sorted(golden_mod._scenarios()))
def test_golden_metrics_bit_identical_compiled(name, monkeypatch):
    """Every golden scenario pins the same floats under the compiled
    backend — scenarios outside the kernel's envelope (PS tiers) fall
    back and must *still* match, by construction."""
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    golden = golden_mod.GOLDEN_PATH
    pinned = __import__("json").loads(golden.read_text())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompiledFallbackWarning)
        fresh = golden_mod._snapshot(golden_mod._scenarios()[name]())
    golden_mod._assert_identical(pinned[name], fresh, path=name)


def _epoch_controller(t, queues, speeds):
    """Module-level (picklable) controller: nudge speeds with load."""
    total = float(np.sum(queues))
    return np.clip(0.6 + 0.05 * total, 0.6, 1.0) * np.ones_like(speeds)


def _replication_numbers(backend, n_jobs, with_controller):
    """Snapshot of 3 replications run as seed blocks through the
    requested execution backend (one inline block vs one block per
    worker of a 2-worker process pool) on the requested engine, named
    in each payload as the replication engine does, with the epoch
    controller optionally engaged (the kernel yields to it at every
    boundary, for every replication of a block)."""
    from repro.experiments.common import canonical_cluster, canonical_workload

    cluster, workload = canonical_cluster(), canonical_workload()
    extra = {}
    if with_controller:
        extra = {"epoch_times": [20.0, 40.0, 60.0], "epoch_controller": _epoch_controller}
    kwargs = dict(cluster=cluster, workload=workload, horizon=80.0, backend=backend, **extra)
    seeds = RngStreams.replication_seeds(42, 3)
    blocks = [[0, 1, 2]] if n_jobs == 1 else [[0, 1], [2]]
    payloads = [(b, kwargs, [seeds[i] for i in b]) for b in blocks]
    with warnings.catch_warnings(), WorkerPool(n_jobs) as pool:
        warnings.simplefilter("ignore", CompiledFallbackWarning)
        out = []
        pool.run(_run_block, payloads, out.append)
    assert [error for _finished, error in out] == [None] * len(blocks)
    return {  # keyed by index
        i: golden_mod._snapshot(res) for finished, _error in out for i, res, _wall in finished
    }


@needs_kernel
@pytest.mark.parametrize("backend", ["python", "compiled"])
@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("with_controller", [False, True])
def test_replication_matrix_bit_identical(backend, n_jobs, with_controller):
    """{python, compiled} × {serial, process} × controller on/off all
    produce the same bits as the python-serial reference; the pooled
    cases are what the deleted pool warm-up tests held to that."""
    reference = _replication_numbers("python", 1, with_controller)
    probe = _replication_numbers(backend, n_jobs, with_controller)
    assert sorted(probe) == sorted(reference)
    for i in reference:
        golden_mod._assert_identical(reference[i], probe[i], path=f"rep[{i}]")


@needs_kernel
def test_replication_rounds_are_one_kernel_call_each(monkeypatch):
    """A serial replication round is one seed block: one kernel call,
    whatever its replication count, fixed or adaptive."""
    from repro.experiments.common import canonical_cluster, canonical_workload
    from repro.simulation import PrecisionTarget, simulate_replications
    from repro.simulation import simulate_replications_adaptive

    calls = []
    real = compiled_mod._run_kernel

    def counting(*args, **kwargs):
        calls.append(len(args[5]))
        return real(*args, **kwargs)

    monkeypatch.setattr(compiled_mod, "_run_kernel", counting)
    cluster, workload = canonical_cluster(), canonical_workload()
    simulate_replications(
        cluster, workload, horizon=5.0, n_replications=8, n_jobs=1, backend="compiled"
    )
    assert calls == [8]

    calls.clear()
    target = PrecisionTarget(
        rel_ci=1e-6, min_replications=4, max_replications=12, round_size=4, estimator="naive"
    )
    rep = simulate_replications_adaptive(
        cluster, workload, horizon=5.0, target=target, n_jobs=1, backend="compiled"
    )
    assert rep.meta["adaptive"]["n_rounds"] == 3
    assert calls == [4, 4, 4]


@needs_kernel
@pytest.mark.parametrize("estimator", [None, "naive", "cv", "antithetic"])
def test_compiled_replication_rounds_match_python(estimator):
    """Every replication of a compiled round (one kernel call per seed
    block) equals the Python engine's per-replication simulate() under
    its seed bit for bit, delay samples and job log included, fixed
    count and adaptive (naive, control-variate and antithetic)."""
    from repro.simulation import PrecisionTarget, simulate_replications
    from repro.simulation import simulate_replications_adaptive

    cluster, workload = golden_mod._two_tier("priority_np"), golden_mod._workload()
    kw = dict(horizon=60.0, seed=5, collect_delay_samples=True, collect_job_log=True)

    def run(backend):
        if estimator is None:
            return simulate_replications(cluster, workload, n_replications=5, backend=backend, **kw)
        target = PrecisionTarget(
            rel_ci=1e-6, min_replications=4, max_replications=8, round_size=2,
            estimator=estimator,
        )
        return simulate_replications_adaptive(
            cluster, workload, target=target, backend=backend, **kw
        )

    ref, got = run("python"), run("compiled")
    assert len(got.replications) == len(ref.replications) >= 4
    for i, (a, b) in enumerate(zip(ref.replications, got.replications)):
        golden_mod._assert_identical(golden_mod._snapshot(a), golden_mod._snapshot(b), f"rep[{i}]")
        assert [s.tobytes() for s in a.delay_samples] == [s.tobytes() for s in b.delay_samples]
        assert a.job_log.tobytes() == b.job_log.tobytes()
    assert (got.mean_delay, got.average_power) == (ref.mean_delay, ref.average_power)
    if estimator is None:
        seeds = RngStreams.replication_seeds(5, 5)
        for seed, b in zip(seeds, got.replications):
            a = simulate(
                cluster, workload, horizon=60.0, seed=seed, collect_delay_samples=True,
                collect_job_log=True, backend="python",
            )
            golden_mod._assert_identical(golden_mod._snapshot(a), golden_mod._snapshot(b))


@needs_kernel
def test_kernel_calls_leave_no_cyclic_garbage():
    """Neither a compiled simulate() nor a fleet batch leaves objects
    only the cyclic collector can free (ctypes array types built per
    call, ``ndarray.ctypes.data_as`` pointers)."""
    import gc

    from repro.experiments.common import canonical_cluster, canonical_workload

    cluster, workload = canonical_cluster(), canonical_workload()
    calls = {
        "simulate": lambda: simulate(
            cluster, workload, horizon=5.0, seed=3, backend="compiled"
        ),
        "fleet batch": lambda: compiled_mod.maybe_simulate_fleet_batch(
            "compiled", cluster, workload, 5.0, 0.1, range(40), 3, 0
        ),
    }
    for name, call in calls.items():
        call()  # warm-up: the kernel, memos and cached ctypes types
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            call()
            gc.collect()
            leaked = [type(o).__name__ for o in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == [], (name, len(leaked), sorted(set(leaked)))


@needs_kernel
def test_single_run_bit_identical_delay_samples_and_log(monkeypatch):
    """Delay-sample streams and the structured job log match exactly."""
    cluster = golden_mod._two_tier("priority_np")
    workload = golden_mod._workload()

    def run(**backend):
        return simulate(
            cluster,
            workload,
            horizon=120.0,
            seed=31,
            collect_delay_samples=True,
            collect_job_log=True,
            **backend,
        )

    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    ref = run()
    explicit_compiled = run(backend="compiled")
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    got = run()
    explicit_python = run(backend="python")
    for name, probe in [
        ("env", got), ("backend=compiled", explicit_compiled), ("backend=python", explicit_python)
    ]:
        for a, b in zip(ref.delay_samples, probe.delay_samples):
            assert np.array_equal(a, b), name
        assert np.array_equal(ref.job_log, probe.job_log), name
        golden_mod._assert_identical(
            golden_mod._snapshot(ref), golden_mod._snapshot(probe), path=f"single_run[{name}]"
        )


@needs_kernel
def test_delay_moments_independent_of_sample_collection(monkeypatch):
    """Delay moments always come from the kernel's inline Welford fold,
    so collecting per-job delay samples cannot change a bit of them."""
    cluster = golden_mod._two_tier("priority_np")
    workload = golden_mod._workload()
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    kept = simulate(cluster, workload, horizon=120.0, seed=31, collect_delay_samples=True)
    lean = simulate(cluster, workload, horizon=120.0, seed=31, collect_delay_samples=False)
    assert lean.delay_samples is None
    assert [s.size for s in kept.delay_samples] == kept.n_completed.tolist()
    for field in ("delays", "delay_std", "delay_ci"):
        assert getattr(kept, field).tobytes() == getattr(lean, field).tobytes(), field


@pytest.mark.parametrize(
    "seed",
    [
        0,
        7,
        2**40 + 3,
        2**200 + 5,
        np.random.SeedSequence(7, spawn_key=(2, 17)),
        np.random.SeedSequence([1, 2, 3, 4, 5, 6]),
        np.random.SeedSequence(9).spawn(3)[2],
    ],
)
@needs_kernel
def test_lean_stream_seeding_matches_rngstreams(seed):
    """The kernel's per-stream seeding starts every stream in the state
    RngStreams gives the Python engine, and draws the same bits, for
    every seed shape simulate() accepts."""
    _assert_kernel_streams_match(seed, ("arrivals/0", "service/1/0", "routing/3"))


_seed_shapes = st.one_of(
    # ints beyond the 4-word pool: the excess entropy is mixed in
    st.integers(0, 2**256),
    # spawn keys with entries of one, two and three uint32 words
    st.builds(
        lambda entropy, key: np.random.SeedSequence(entropy, spawn_key=tuple(key)),
        st.integers(0, 2**128),
        st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**96)), max_size=4),
    ),
    # list entropy
    st.builds(np.random.SeedSequence, st.lists(st.integers(0, 2**64), min_size=1, max_size=9)),
    # spawn() children and grandchildren
    st.builds(
        lambda entropy, n, deep: (
            np.random.SeedSequence(entropy).spawn(n)[-1].spawn(2)[1]
            if deep
            else np.random.SeedSequence(entropy).spawn(n)[-1]
        ),
        st.integers(0, 2**64),
        st.integers(1, 5),
        st.booleans(),
    ),
)


@needs_kernel
@settings(max_examples=60, deadline=None)
@given(seed=_seed_shapes, digest=st.integers(0, 2**64 - 1))
def test_kernel_stream_seeding_differential(seed, digest):
    """Kernel-side seeding against NumPy's SeedSequence + PCG64 over
    random seed shapes: the stream states and >= 1000 interleaved
    64-bit, 32-bit (buffered halves) and double draws agree.  A raw
    digest (possibly below 2**32, a single key word) is checked against
    the SeedSequence RngStreams would build for a name hashing to it."""
    _assert_kernel_streams_match(seed, ("arrivals/2", "service/0/1", "service/11/7", "routing/0"))
    streams = RngStreams(seed)
    reference = np.random.PCG64(
        np.random.SeedSequence(
            streams._base_entropy, spawn_key=streams._base_spawn_key + (digest,)
        )
    )
    _assert_probe_matches(compiled_mod._seed_words(seed), digest, reference)


# Interleaved draw kinds for the probe: 0 next_uint64, 1 next_uint32,
# 2 next_double, 3 next_raw.
_PROBE_OPS = np.random.default_rng(2024).integers(0, 4, size=1200).astype(np.int32)


def _assert_kernel_streams_match(seed, names) -> None:
    words = compiled_mod._seed_words(seed)
    for name in names:
        reference = RngStreams(seed).stream(name).bit_generator
        _assert_probe_matches(words, fnv1a64(name), reference)


def _assert_probe_matches(words, digest, reference) -> None:
    """Seed one stream in the kernel (``k_stream_probe``) and compare its
    state and draws with the NumPy bit generator ``reference``."""
    probe = compiled_mod.load_kernel().k_stream_probe
    probe.restype = None
    probe.argtypes = [
        POINTER(c_uint32), c_longlong, c_uint64, POINTER(c_int), c_longlong,
        POINTER(c_uint64), POINTER(c_uint64),
    ]
    words = np.asarray(words, dtype=np.uint32)
    state = np.zeros(4, dtype=np.uint64)
    draws = np.zeros(_PROBE_OPS.size, dtype=np.uint64)
    probe(
        words.ctypes.data_as(POINTER(c_uint32)), words.size, digest,
        _PROBE_OPS.ctypes.data_as(POINTER(c_int)), _PROBE_OPS.size,
        state.ctypes.data_as(POINTER(c_uint64)), draws.ctypes.data_as(POINTER(c_uint64)),
    )
    hi_lo = [int(w) for w in state]
    expected_state = reference.state["state"]
    assert (hi_lo[0] << 64) | hi_lo[1] == expected_state["state"]
    assert (hi_lo[2] << 64) | hi_lo[3] == expected_state["inc"]

    iface = reference.ctypes
    expected = []
    for op in _PROBE_OPS.tolist():
        if op == 0:
            expected.append(iface.next_uint64(iface.state))
        elif op == 1:
            expected.append(iface.next_uint32(iface.state))
        elif op == 2:
            value = iface.next_double(iface.state)
            expected.append(struct.unpack("<Q", struct.pack("<d", value))[0])
        else:
            expected.append(int(reference.random_raw()))
    assert draws.tolist() == expected


# ---------------------------------------------------------------------------
# backend selection and fallback semantics
# ---------------------------------------------------------------------------


def test_invalid_backend_env_rejected(monkeypatch):
    from repro.experiments.common import canonical_cluster, canonical_workload

    monkeypatch.setenv("REPRO_SIM_BACKEND", "turbo")
    with pytest.raises(ModelValidationError, match="REPRO_SIM_BACKEND"):
        simulate(canonical_cluster(), canonical_workload(), horizon=5.0, seed=0)


def test_build_failure_degrades_with_single_warning(monkeypatch):
    """A kernel that cannot load falls back to pure Python with exactly
    one visible warning per process, and the numbers are the Python
    engine's."""
    from repro.experiments.common import canonical_cluster, canonical_workload

    def broken_load():
        raise compiled_mod.KernelBuildError("simulated toolchain failure")

    monkeypatch.setattr(compiled_mod, "load_kernel", broken_load)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    ref = simulate(canonical_cluster(), canonical_workload(), horizon=40.0, seed=8)

    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    with pytest.warns(CompiledFallbackWarning, match="toolchain failure"):
        first = simulate(canonical_cluster(), canonical_workload(), horizon=40.0, seed=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledFallbackWarning)  # second warn would raise
        second = simulate(canonical_cluster(), canonical_workload(), horizon=40.0, seed=8)

    assert np.array_equal(ref.delays, first.delays)
    assert np.array_equal(ref.delays, second.delays)
    assert ref.average_power == first.average_power == second.average_power


def test_auto_backend_falls_back_silently(monkeypatch):
    from repro.experiments.common import canonical_cluster, canonical_workload

    def broken_load():
        raise compiled_mod.KernelBuildError("simulated toolchain failure")

    monkeypatch.setattr(compiled_mod, "load_kernel", broken_load)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "auto")
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledFallbackWarning)
        simulate(canonical_cluster(), canonical_workload(), horizon=20.0, seed=8)


@needs_kernel
def test_ps_tiers_run_compiled_bit_identical(monkeypatch):
    """PS tiers are inside the kernel envelope: no warning, same bits,
    same event count (the heap orders match exactly)."""
    cluster = golden_mod._two_tier("ps", servers=(1, 2))
    workload = golden_mod._workload()
    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    ref = simulate(cluster, workload, horizon=60.0, seed=5)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledFallbackWarning)
        got = simulate(cluster, workload, horizon=60.0, seed=5)
    assert np.array_equal(ref.delays, got.delays)
    assert ref.average_power == got.average_power
    assert ref.meta["n_events"] == got.meta["n_events"]


def _python_and_compiled(monkeypatch, cluster, workload, **kwargs):
    """The same run on both engines; the compiled one must not fall back."""
    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    ref = simulate(cluster, workload, **kwargs)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledFallbackWarning)
        got = simulate(cluster, workload, **kwargs)
    return ref, got


@needs_kernel
@pytest.mark.parametrize("discipline", ["fcfs", "priority_np", "priority_pr", "ps"])
def test_simultaneous_events_pop_in_push_order(discipline, monkeypatch):
    """Deterministic demands and arrivals on shared time grids put many
    pending events at the same instant, so only the push sequence orders
    them: a queue keyed on time alone diverges from the Python engine."""
    from repro.cluster import ClusterModel, Tier
    from repro.distributions import Deterministic
    from repro.workload import TraceArrivalProcess, workload_from_rates

    demands = (Deterministic(0.25), Deterministic(0.5))
    spec = golden_mod._SPEC
    cluster = ClusterModel(
        [
            Tier("front", demands, spec, servers=2, discipline=discipline),
            Tier("back", demands, spec, servers=1, discipline=discipline),
        ]
    )
    horizon = 200.0
    arrivals = [
        TraceArrivalProcess(np.arange(1, 201) * 1.0, horizon),
        TraceArrivalProcess(np.arange(1, 401) * 0.5, horizon),
    ]
    ref, got = _python_and_compiled(
        monkeypatch,
        cluster,
        workload_from_rates([1.0, 2.0]),
        horizon=horizon,
        seed=3,
        arrival_processes=arrivals,
        allow_unstable=True,
        collect_job_log=True,
    )
    assert np.array_equal(ref.job_log, got.job_log)
    assert ref.delays.tobytes() == got.delays.tobytes()
    assert ref.station_waits.tobytes() == got.station_waits.tobytes()
    assert ref.meta["n_events"] == got.meta["n_events"]


@needs_kernel
def test_event_queue_grows_past_initial_capacity(monkeypatch):
    """300 classes keep ~300 arrivals pending, past the kernel's initial
    event-queue capacity of 256, so the run goes through its regrowth."""
    from repro.cluster import ClusterModel, Tier
    from repro.distributions import Exponential
    from repro.workload import workload_from_rates

    n_classes = 300
    tier = Tier("solo", (Exponential(50.0),) * n_classes, golden_mod._SPEC, servers=2)
    ref, got = _python_and_compiled(
        monkeypatch,
        ClusterModel([tier]),
        workload_from_rates([0.05] * n_classes),
        horizon=100.0,
        seed=8,
        collect_job_log=True,
    )
    assert np.array_equal(ref.job_log, got.job_log)
    golden_mod._assert_identical(
        golden_mod._snapshot(ref), golden_mod._snapshot(got), path="wide"
    )


@needs_kernel
def test_ps_with_finite_buffer_rejected_compiled(monkeypatch):
    """The engine's PS+capacity validation error surfaces identically
    through the compiled path (it is a model error, not a fallback)."""
    from repro.cluster.tier import Tier
    from repro.experiments.common import canonical_cluster, canonical_workload

    base = canonical_cluster(discipline="ps")
    tiers = list(base.tiers)
    spec = tiers[0].spec
    tiers[0] = Tier(
        tiers[0].name,
        tiers[0].demands,
        spec,
        servers=tiers[0].servers,
        speed=tiers[0].speed,
        discipline="ps",
        capacity=tiers[0].servers + 2,
    )
    cluster = type(base)(tuple(tiers))
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    with pytest.raises(ModelValidationError, match="finite buffers"):
        simulate(cluster, canonical_workload(), horizon=10.0, seed=0)


@needs_kernel
def test_antithetic_seed_runs_compiled_bit_identical(monkeypatch):
    """Both members of an antithetic pair run compiled via mirrored
    pre-drawn uniform blocks — no warning, bits match the Python
    engine's coupled streams exactly."""
    from repro.experiments.common import canonical_cluster, canonical_workload

    for member in RngStreams.replication_seed_pairs(9, 1)[0]:
        monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
        ref = simulate(canonical_cluster(), canonical_workload(), horizon=40.0, seed=member)
        monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
        with warnings.catch_warnings():
            warnings.simplefilter("error", CompiledFallbackWarning)
            got = simulate(
                canonical_cluster(), canonical_workload(), horizon=40.0, seed=member
            )
        assert np.array_equal(ref.delays, got.delays)
        assert ref.average_power == got.average_power
        assert ref.meta["n_events"] == got.meta["n_events"]


@needs_kernel
def test_antithetic_scalar_stream_drawn_once_per_draw_on_both_engines():
    """A family without block sampling, on an antithetic seed, is drawn
    one scalar call per draw by both engines: the kernel calls the
    sampler exactly as often as the Python engine, so a sampler that
    raises one call past what the run consumes never raises on either."""
    from test_fleet_batch import _bombed_scenario

    seed = RngStreams.replication_seed_pairs(5, 1)[0][0]

    def run(backend, fail_at):
        scenario = _bombed_scenario(fail_at, horizon=40.0)
        result = simulate(
            scenario.cluster, scenario.workload, horizon=40.0, seed=seed, backend=backend
        )
        return result, scenario.cluster.tiers[0].demands[0].calls

    _, n_python = run("python", 0)  # fail_at=0: count, never raise
    _, n_compiled = run("compiled", 0)
    assert n_compiled == n_python > 0
    ref, _ = run("python", n_python + 1)
    got, _ = run("compiled", n_python + 1)
    golden_mod._assert_identical(golden_mod._snapshot(ref), golden_mod._snapshot(got))
    assert ref.meta["n_events"] == got.meta["n_events"]


@needs_kernel
@pytest.mark.parametrize(
    "seed", [3, RngStreams.replication_seed_pairs(3, 1)[0][1]], ids=["plain", "antithetic"]
)
def test_short_python_drawn_stream_draws_one_small_block_on_both_engines(seed):
    """A Python-drawn block stream that takes ~50 values draws one
    64-value block, not a 4096-value one, and both engines draw the
    same blocks."""
    from test_fleet_batch import _bombed_scenario

    def run(backend):
        scenario = _bombed_scenario(0, horizon=40.0)  # fail_at=0: never raises
        sizes = []
        demand = scenario.cluster.tiers[0].demands[0]
        demand.block_sampling_safe = True  # a block plan, drawn in Python
        inner = demand.sample
        demand.sample = lambda rng, size=None: sizes.append(size) or inner(rng, size)
        result = simulate(
            scenario.cluster, scenario.workload, horizon=40.0, seed=seed, backend=backend
        )
        return result, sizes

    ref, ref_sizes = run("python")
    got, got_sizes = run("compiled")
    assert 40 < ref.n_completed[0] < 64
    assert ref_sizes == got_sizes == [64]
    golden_mod._assert_identical(golden_mod._snapshot(ref), golden_mod._snapshot(got))


def _fuzz_service(family: str, mean: float):
    from repro.distributions import Exponential, Mixture, Pareto
    from repro.distributions.base import ScaledDistribution, ShiftedDistribution

    def pareto(m):
        return Pareto.from_mean(m, alpha=3.0)

    def mixture(m):
        return Mixture([0.3, 0.7], [Exponential(1.0 / (0.5 * m)), pareto(m * 0.85 / 0.7)])

    return {
        "pareto": lambda: pareto(mean),
        "mixture": lambda: mixture(mean),
        "scaled_pareto": lambda: ScaledDistribution(pareto(mean / 2.0), 2.0),
        "shifted_mixture": lambda: ShiftedDistribution(mixture(0.8 * mean), 0.2 * mean),
        "exponential": lambda: Exponential(1.0 / mean),
    }[family]()


def _fuzz_arrivals(kind: str, rate: float):
    from repro.distributions import Erlang
    from repro.workload import (
        MMPP2,
        BatchPoissonProcess,
        NonHomogeneousPoisson,
        PoissonProcess,
        RenewalProcess,
    )

    return {
        "poisson": lambda: PoissonProcess(rate),
        "mmpp2": lambda: MMPP2(0.5 * rate, 1.5 * rate, 0.2, 0.2),
        "batch": lambda: BatchPoissonProcess(0.5 * rate, 0.5),
        "renewal": lambda: RenewalProcess(Erlang(2, 2.0 * rate)),
        "nhpp": lambda: NonHomogeneousPoisson(
            lambda t: rate * (1.0 + 0.5 * np.sin(t)), 1.5 * rate, mean_rate=rate
        ),
    }[kind]()


_SERVICE_FAMILIES = ["pareto", "mixture", "scaled_pareto", "shifted_mixture", "exponential"]
_ARRIVAL_KINDS = ["poisson", "mmpp2", "batch", "renewal", "nhpp"]


@needs_kernel
@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    families=st.lists(st.sampled_from(_SERVICE_FAMILIES), min_size=4, max_size=4),
    arrivals=st.lists(st.sampled_from(_ARRIVAL_KINDS), min_size=2, max_size=2),
    seed_kind=st.sampled_from(["int", "primary", "mirror"]),
    n_reps=st.integers(min_value=1, max_value=3),
    master=st.integers(min_value=0, max_value=2**16),
)
def test_python_drawn_streams_differential(families, arrivals, seed_kind, n_reps, master):
    """Every stream Python draws for the kernel (block refills and
    per-draw callbacks, on plain and antithetic seeds) reproduces the
    Python engine bit for bit, one kernel call for 1-3 replications."""
    from repro.cluster import ClusterModel, Tier
    from repro.experiments.common import small_cluster, small_workload
    from repro.simulation.simulator import _finalize

    base, workload = small_cluster(), small_workload(0.5)
    cluster = ClusterModel(
        [
            Tier(
                tier.name,
                tuple(
                    _fuzz_service(families[2 * i + k], tier.demands[k].mean)
                    for k in range(2)
                ),
                tier.spec,
                servers=tier.servers,
                speed=tier.speed,
                discipline=tier.discipline,
            )
            for i, tier in enumerate(base.tiers)
        ]
    )
    procs = [_fuzz_arrivals(kind, c.arrival_rate) for kind, c in zip(arrivals, workload.classes)]
    if seed_kind == "int":
        seeds = [master + r for r in range(n_reps)]
    else:
        pairs = RngStreams.replication_seed_pairs(master, n_reps)
        seeds = [pair[seed_kind == "mirror"] for pair in pairs]
    horizon, warmup_fraction = 30.0, 0.1
    warmup = warmup_fraction * horizon
    run = compiled_mod._run_kernel(
        compiled_mod.load_kernel(), cluster, workload, horizon, warmup, seeds, procs
    )
    assert run.errors == {}
    cols = _finalize(cluster, workload, horizon, warmup, run)
    for b, seed in enumerate(seeds):
        got = cols.result(b)
        ref = simulate(
            cluster, workload, horizon=horizon, warmup_fraction=warmup_fraction, seed=seed,
            arrival_processes=procs, allow_unstable=True, backend="python",
        )
        assert ref.delays.tobytes() == got.delays.tobytes()
        assert ref.average_power == got.average_power
        assert ref.meta["n_events"] == got.meta["n_events"]
        assert ref.station_sojourns.tobytes() == got.station_sojourns.tobytes()


@needs_kernel
def test_epoch_controller_trace_bit_identical(monkeypatch):
    """The epoch-yield protocol reproduces the engine's full per-epoch
    record — boundary times, queue snapshots, applied speeds, segmented
    energy — not just the end-of-run aggregates."""
    from repro.experiments.common import canonical_cluster, canonical_workload

    kwargs = dict(
        horizon=80.0,
        seed=42,
        epoch_times=[20.0, 40.0, 60.0],
        epoch_controller=_epoch_controller,
    )
    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    ref = simulate(canonical_cluster(), canonical_workload(), **kwargs)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledFallbackWarning)
        got = simulate(canonical_cluster(), canonical_workload(), **kwargs)
    assert np.array_equal(ref.delays, got.delays)
    assert ref.meta["dynamic_energy"] == got.meta["dynamic_energy"]
    assert np.array_equal(ref.meta["final_speeds"], got.meta["final_speeds"])
    ta, tb = ref.meta["epoch_trace"], got.meta["epoch_trace"]
    assert len(ta) == len(tb) == 3
    assert ta.dtype == tb.dtype
    for name in ("t", "queues", "speeds", "dynamic_energy"):
        assert np.array_equal(ta[name], tb[name])
    assert ta.tobytes() == tb.tobytes()


@needs_kernel
def test_queue_sampling_telemetry_identical(monkeypatch, tmp_path):
    """Buffered C-side queue sampling batch-flushes the exact gauge
    values and ``sim.queue_sample`` event rows the Python loop emits."""
    import json

    from repro.experiments.common import canonical_cluster, canonical_workload
    from repro.obs import telemetry_session

    def rows(out_dir):
        found = []
        for path in sorted(out_dir.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                if rec.get("name") == "sim.queue_sample":
                    rec.pop("ts", None)  # wall-clock stamp, not simulated time
                    found.append(rec)
        return found

    def run(backend, out_dir):
        monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
        with telemetry_session(out_dir, sample_queues=True, queue_sample_interval=2.0):
            return simulate(
                canonical_cluster(), canonical_workload(), horizon=60.0, seed=11
            )

    ref = run("python", tmp_path / "py")
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledFallbackWarning)
        got = run("compiled", tmp_path / "c")
    ref_rows, got_rows = rows(tmp_path / "py"), rows(tmp_path / "c")
    assert len(ref_rows) > 0
    assert ref_rows == got_rows
    assert np.array_equal(ref.delays, got.delays)


# ---------------------------------------------------------------------------
# the _unsupported_reason decision matrix
# ---------------------------------------------------------------------------


def _decision(cluster, seed=0, epoch_controller=None):
    return compiled_mod._unsupported_reason(cluster)


def test_unsupported_reason_none_for_epoch_controller():
    from repro.experiments.common import canonical_cluster

    assert _decision(canonical_cluster(), epoch_controller=_epoch_controller) is None


def test_unsupported_reason_none_for_antithetic_seed():
    from repro.experiments.common import canonical_cluster

    for member in RngStreams.replication_seed_pairs(3, 1)[0]:
        assert _decision(canonical_cluster(), seed=member) is None


def test_unsupported_reason_none_for_ps_tiers():
    from repro.experiments.common import canonical_cluster

    assert _decision(canonical_cluster(discipline="ps")) is None


def test_unsupported_reason_none_for_queue_sampling(monkeypatch, tmp_path):
    """Queue sampling is a telemetry mode, not a config knob — the
    decision must stay None while it is active."""
    from repro.experiments.common import canonical_cluster
    from repro.obs import telemetry_session

    with telemetry_session(tmp_path, sample_queues=True):
        assert _decision(canonical_cluster()) is None


def test_unsupported_reason_exact_string_for_unknown_discipline():
    """A discipline outside the kernel's dispatch table is the one
    remaining fallback class, with a stable reason string."""
    from types import SimpleNamespace

    tier = SimpleNamespace(discipline="edf")
    cluster = SimpleNamespace(tiers=[tier])
    assert (
        _decision(cluster)
        == "tier discipline 'edf' is not modeled by the compiled kernel"
    )


def test_unsupported_reason_fallback_matches_and_auto_silent(monkeypatch):
    """A forced out-of-envelope config degrades to the Python engine
    bit-identically; ``compiled`` warns once, ``auto`` stays silent."""
    from repro.experiments.common import canonical_cluster, canonical_workload

    monkeypatch.setattr(
        compiled_mod,
        "_unsupported_reason",
        lambda cluster: "synthetic out-of-envelope reason",
    )
    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    ref = simulate(canonical_cluster(), canonical_workload(), horizon=30.0, seed=4)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    with pytest.warns(CompiledFallbackWarning, match="synthetic out-of-envelope"):
        got = simulate(canonical_cluster(), canonical_workload(), horizon=30.0, seed=4)
    assert np.array_equal(ref.delays, got.delays)
    assert ref.average_power == got.average_power
    monkeypatch.setenv("REPRO_SIM_BACKEND", "auto")
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompiledFallbackWarning)
        silent = simulate(canonical_cluster(), canonical_workload(), horizon=30.0, seed=4)
    assert np.array_equal(ref.delays, silent.delays)
