"""SciPy and the process pool stay off the start-up path.

Every SciPy import in ``repro`` sits in the function that calls it, and
Student-t quantiles come from ``scipy.special.stdtrit``, so importing
the CLI loads no SciPy module and no command loads ``scipy.stats``.
The process pool is imported only where a command starts one, so
importing the CLI loads no ``multiprocessing`` module either. Each case
runs in a fresh interpreter: this test process already holds SciPy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.simulation.compiled import kernel_available

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs ``repro.cli.main(argv)`` (or just the imports for argv=None)
# and prints the SciPy modules loaded afterwards as one JSON line.
_PROBE = """
import json, sys
import repro.cli, repro.simulation.compiled
argv = json.loads(sys.argv[1])
if argv is not None:
    import contextlib, io
    with contextlib.redirect_stdout(io.StringIO()):
        repro.cli.main(argv)
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _run_probe(code: str, *args: str, backend: str = "python") -> set[str]:
    """Run ``code`` in a fresh interpreter under ``REPRO_SIM_BACKEND=backend``;
    its last stdout line is a JSON list of strings."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": SRC, "REPRO_SIM_BACKEND": backend},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def _scipy_modules_after(argv: list[str] | None) -> set[str]:
    return _run_probe(_PROBE, json.dumps(argv))


def _public_subpackages(modules: set[str]) -> set[str]:
    parts = (m.split(".") for m in modules)
    return {p[1] for p in parts if len(p) > 1 and not p[1].startswith("_")}


def test_cli_import_loads_no_scipy():
    assert _scipy_modules_after(None) == set()


def test_cli_import_loads_no_multiprocessing():
    loaded = _run_probe(
        "import json, sys, repro.cli\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'multiprocessing']))"
    )
    assert loaded == set()


# Patches the clock ``_run_one`` reads, and notes what is loaded the
# first time it does: one replication's timed window opens there.
_AT_T0 = """
import json, sys
from repro.simulation import compiled, parallel
at_t0 = []
clock = parallel.time.perf_counter
def perf_counter():
    if not at_t0 and sys._getframe(1).f_code.co_name == '_run_one':
        at_t0.append(('scipy.special' in sys.modules, compiled._lib is not None))
    return clock()
parallel.time.perf_counter = perf_counter
"""


def test_warm_up_loads_no_scipy_and_run_one_primes_the_t_quantile():
    # A replication pays its one-time costs before its timed window
    # opens: it primes the t-quantile memo (importing scipy.special)
    # and, on the compiled engine, loads the kernel. Neither is inside
    # a replication's wall time, and nothing loads SciPy before it.
    backend = "compiled" if kernel_available() else "python"
    loaded = _run_probe(
        _AT_T0
        + "from repro.experiments.common import small_cluster, small_workload\n"
        "before = 'scipy.special' in sys.modules\n"
        "kwargs = dict(cluster=small_cluster(), workload=small_workload(0.5), horizon=5.0,\n"
        "              seed=1, backend=sys.argv[1])\n"
        "parallel._run_one((0, kwargs))\n"
        "print(json.dumps([f'before: {before}', f'at t0: {at_t0}']))",
        backend,
    )
    assert loaded == {"before: False", f"at t0: [(True, {backend == 'compiled'})]"}


@pytest.mark.skipif(not kernel_available(), reason="no C toolchain for the compiled kernel")
def test_inline_replication_loads_the_kernel_before_its_clock_starts():
    # Inline (n_jobs=1) as in a pool, the kernel load must not land in
    # replication 0's timed window: a cold build there makes replication
    # 0 read ~500x fewer events/s than replication 1.
    loaded = _run_probe(
        _AT_T0
        + "from repro.experiments.common import small_cluster, small_workload\n"
        "from repro.simulation import simulate_replications\n"
        "simulate_replications(small_cluster(), small_workload(0.5), horizon=5.0,\n"
        "                      n_replications=2, n_jobs=1)\n"
        "print(json.dumps([f'at t0: {at_t0}']))",
        backend="compiled",
    )
    assert loaded == {"at t0: [(True, True)]"}


def test_report_loads_no_scipy():
    assert _scipy_modules_after(["report"]) == set()


def _fleet_argv(out: Path, backend: str) -> list[str]:
    return [
        "fleet", "--backend", backend, "--jobs", "1", "--replications", "4",
        "--horizon", "5", "--format", "npz", "--out", str(out),
    ]


def test_python_fleet_loads_only_scipy_special(tmp_path):
    # Each Python-engine replication forms its within-run delay CI
    # (SimulationResult.delay_ci), whose t quantile is stdtrit.
    loaded = _scipy_modules_after(_fleet_argv(tmp_path / "store", "python"))
    assert "scipy.stats" not in loaded
    assert _public_subpackages(loaded) <= {"special", "version"}


@pytest.mark.skipif(not kernel_available(), reason="no C toolchain for the compiled kernel")
def test_compiled_fleet_loads_no_scipy(tmp_path):
    assert _scipy_modules_after(_fleet_argv(tmp_path / "store", "compiled")) == set()


def test_adaptive_simulate_never_loads_scipy_stats():
    loaded = _scipy_modules_after(
        ["simulate", "--horizon", "50", "--replications", "2", "--seed", "3",
         "--target-rel-ci", "0.5", "--max-reps", "4"]
    )
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded
