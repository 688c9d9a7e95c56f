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
from repro.simulation.parallel import WorkerPool, _run_one
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
    """Snapshot of 3 replications run through the requested execution
    backend (serial loop vs 2-worker process pool) on the requested
    engine, named in each payload as the replication engine does, with
    the epoch controller optionally engaged (the kernel yields to it at
    every boundary)."""
    from repro.experiments.common import canonical_cluster, canonical_workload

    cluster, workload = canonical_cluster(), canonical_workload()
    extra = {}
    if with_controller:
        extra = {"epoch_times": [20.0, 40.0, 60.0], "epoch_controller": _epoch_controller}
    payloads = [
        (
            i,
            dict(
                cluster=cluster, workload=workload, horizon=80.0, seed=child,
                backend=backend, **extra,
            ),
        )
        for i, child in enumerate(RngStreams.replication_seeds(42, 3))
    ]
    with warnings.catch_warnings(), WorkerPool(n_jobs) as pool:
        warnings.simplefilter("ignore", CompiledFallbackWarning)
        out = pool.run(_run_one, payloads)
    return {i: golden_mod._snapshot(res) for i, res, _wall in out}


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
    assert len(ta) == len(tb)
    for ra, rb in zip(ta, tb):
        assert ra["t"] == rb["t"]
        assert np.array_equal(ra["queues"], rb["queues"])
        assert np.array_equal(ra["speeds"], rb["speeds"])
        assert ra["dynamic_energy"] == rb["dynamic_energy"]


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
