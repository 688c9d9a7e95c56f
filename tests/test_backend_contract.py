"""The simulation backend is a value, resolved once and passed down.

``simulate``, ``simulate_replications``,
``simulate_replications_adaptive``, ``run_controlled`` and ``run_fleet``
take ``backend``; ``None`` reads ``REPRO_SIM_BACKEND`` (default
``python``) in :func:`repro.simulation.simulator.resolve_backend` alone.
A pooled run decides its engine in the parent and hands every task
``"compiled"`` or ``"python"``, so no library call writes the
environment, a fallback warns once in the parent, and no worker falls
back on its own. None of these tests needs a C toolchain: without one
a ``compiled`` request falls back to the bit-identical Python engine.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.control import DriftPlusPenaltyController, run_controlled
from repro.exceptions import CompiledFallbackWarning
from repro.experiments.common import (
    CLASS_NAMES,
    canonical_cluster,
    canonical_workload,
    small_cluster,
    small_workload,
)
from repro.simulation import (
    FleetScenario,
    FleetStore,
    PrecisionTarget,
    run_fleet,
    simulate,
    simulate_replications,
    simulate_replications_adaptive,
)
from repro.simulation import compiled as compiled_mod
from repro.simulation import fleet as fleet_mod
from repro.simulation import parallel as parallel_mod
from repro.simulation import replications as replications_mod
from repro.workload.timevarying import diurnal_trace

pytestmark = pytest.mark.filterwarnings("ignore::repro.exceptions.WarmupDiscardWarning")


@pytest.fixture(autouse=True)
def _fresh_warning_state(monkeypatch):
    monkeypatch.setattr(compiled_mod, "_warned", set())


def _scenarios(env_log: Path | None = None):
    extra = {} if env_log is None else {"env_log": str(env_log)}
    return [
        FleetScenario(
            label=f"load={f}",
            cluster=small_cluster(),
            workload=small_workload(f),
            horizon=6.0,
            params={"load_factor": f, **extra},
        )
        for f in (0.5, 0.8)
    ]


def _rows(path) -> dict[str, list]:
    data = FleetStore.open(path).read()
    order = np.argsort(data["unit"])
    return {k: v[order].tolist() for k, v in data.items() if k != "wall_s"}


def _chunk_task_noting_env(payload):
    """``fleet._run_chunk_task`` that first notes, in the file its
    scenario names, the ``REPRO_SIM_BACKEND`` its process sees."""
    with open(payload[0].params["env_log"], "a") as fh:
        fh.write(f"{os.environ.get('REPRO_SIM_BACKEND', '<unset>')}\n")
    return _RUN_CHUNK_TASK(payload)


def _run_block_noting_env(payload):
    """``replications._run_block`` that notes the ``REPRO_SIM_BACKEND``
    its process sees, and the engine its payload names, in each result."""
    finished, error = _RUN_BLOCK(payload)
    for _index, result, _wall in finished:
        result.meta["env_seen"] = os.environ.get("REPRO_SIM_BACKEND", "<unset>")
        result.meta["engine"] = payload[1]["backend"]
    return finished, error


_RUN_CHUNK_TASK = fleet_mod._run_chunk_task
_RUN_BLOCK = replications_mod._run_block


def test_library_calls_leave_the_environment_alone(monkeypatch, tmp_path):
    # The argument travels in the payloads, so neither the parent nor a
    # worker needs REPRO_SIM_BACKEND changed to honour it.
    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    monkeypatch.setattr(fleet_mod, "_run_chunk_task", _chunk_task_noting_env)
    monkeypatch.setattr(replications_mod, "_run_block", _run_block_noting_env)
    before = dict(os.environ)

    log = tmp_path / "env.log"
    summary = run_fleet(
        _scenarios(log), 4, tmp_path / "fleet", seed=3, n_jobs=2, backend="python",
        batch_size=2,
    )
    assert summary.n_workers == 2 and summary.n_done == 8
    assert dict(os.environ) == before
    assert log.read_text().split() == ["compiled"] * 4

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompiledFallbackWarning)  # no toolchain
        rep = simulate_replications(
            small_cluster(), small_workload(0.6), horizon=20.0, n_replications=3, seed=2,
            n_jobs=2, backend="compiled",
        )
    assert rep.meta["n_jobs"] == 2
    assert dict(os.environ) == before
    assert [r.meta["env_seen"] for r in rep.replications] == ["compiled"] * 3
    engine = "compiled" if compiled_mod.kernel_available() else "python"
    assert [r.meta["engine"] for r in rep.replications] == [engine] * 3


def test_explicit_python_beats_the_env_var(monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("the compiled path ran under backend='python'")

    monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
    monkeypatch.setattr(compiled_mod, "maybe_simulate_compiled", forbidden)
    monkeypatch.setattr(compiled_mod, "maybe_simulate_fleet_batch", forbidden)
    monkeypatch.setattr(compiled_mod, "_kernel_for", forbidden)
    cluster, workload = small_cluster(), small_workload(0.6)

    ref = simulate(cluster, workload, horizon=30.0, seed=5, backend="python")
    rep = simulate_replications(
        cluster, workload, horizon=30.0, n_replications=2, seed=5, backend="python"
    )
    assert rep.replications[0].meta["n_events"] > 0
    simulate_replications_adaptive(
        cluster, workload, horizon=30.0, seed=5, backend="python",
        target=PrecisionTarget(rel_ci={"mean_delay": 0.5}, max_replications=4),
    )
    trace = diurnal_trace(
        canonical_workload().arrival_rates, 40.0, period=40.0, trough=0.5, peak=1.2, seed=5,
        class_names=CLASS_NAMES,
    )
    run_controlled(
        canonical_cluster(), trace, DriftPlusPenaltyController(canonical_cluster(), 5e-4),
        10.0, max_mean_delay=1.0, backend="python",
    )
    summary = run_fleet(_scenarios(), 2, tmp_path / "fleet", backend="python")
    assert summary.n_done == 4

    # And the default (no argument) still follows the env var.
    monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
    assert simulate(cluster, workload, horizon=30.0, seed=5).delays.tolist() == (
        ref.delays.tolist()
    )


def test_pooled_fallback_warns_once_in_the_parent(monkeypatch, tmp_path):
    def broken_load():
        raise compiled_mod.KernelBuildError("simulated toolchain failure")

    payloads = []
    real_run = parallel_mod.WorkerPool.run

    def recording_run(self, fn, batch, on_done=None):
        payloads.extend(batch)
        return real_run(self, fn, batch, on_done)

    monkeypatch.setattr(compiled_mod, "load_kernel", broken_load)
    monkeypatch.setattr(parallel_mod.WorkerPool, "run", recording_run)
    monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
    cluster, workload = small_cluster(), small_workload(0.6)

    with pytest.warns(CompiledFallbackWarning, match="toolchain failure") as caught:
        rep = simulate_replications(
            cluster, workload, horizon=20.0, n_replications=4, seed=9, n_jobs=2,
            backend="compiled",
        )
        summary = run_fleet(
            _scenarios(), 4, tmp_path / "fleet", seed=3, n_jobs=2, backend="compiled",
            batch_size=2,
        )
    assert len([w for w in caught if w.category is CompiledFallbackWarning]) == 1
    assert rep.meta["n_jobs"] == 2 and summary.n_workers == 2
    # Two replication blocks (one per worker), then four fleet chunks.
    engines = [p[1]["backend"] for p in payloads[:2]] + [p[-1] for p in payloads[2:]]
    assert len(payloads) == 2 + 4 and engines == ["python"] * 6

    ref = simulate_replications(
        cluster, workload, horizon=20.0, n_replications=4, seed=9, backend="python"
    )
    assert rep.delays.tolist() == ref.delays.tolist()
    run_fleet(_scenarios(), 4, tmp_path / "ref", seed=3, backend="python")
    assert _rows(tmp_path / "fleet") == _rows(tmp_path / "ref")


def test_telemetry_records_the_request_not_the_engine_tasks_are_handed(
    monkeypatch, telemetry, tmp_path
):
    # Inline replications are simulate() calls handed the engine the
    # parent decided; the manifest must still say what was asked for.
    cluster, workload = small_cluster(), small_workload(0.6)
    simulate_replications(cluster, workload, horizon=20.0, n_replications=2, backend="auto")
    engine = "compiled" if compiled_mod.kernel_available() else "python"
    assert telemetry.run_context["sim_backend_requested"] == "auto"
    assert telemetry.run_context["sim_backend"] == engine

    def broken_load():
        raise compiled_mod.KernelBuildError("simulated toolchain failure")

    monkeypatch.setattr(compiled_mod, "load_kernel", broken_load)
    telemetry.disable()
    telemetry.enable(tmp_path / "fallback")
    with pytest.warns(CompiledFallbackWarning):
        simulate_replications(
            cluster, workload, horizon=20.0, n_replications=2, backend="compiled"
        )
    context = telemetry.run_context
    assert (context["sim_backend_requested"], context["sim_backend"]) == ("compiled", "python")
    assert "toolchain failure" in context["sim_backend_fallback"]
