"""SciPy and the process pool stay off the start-up path.

Every SciPy import in ``repro`` sits in the function that calls it, so
importing the CLI loads no SciPy module and no command loads
``scipy.stats``.  The 95% Student-t quantiles of 2 to 64 observations
come from a table in :mod:`repro.simulation.stats`, and a replication's
within-run delay CI is formed only when read, so replicated runs
(``repro simulate``, ``repro run T1``, pool workers, both engines) load
no SciPy module at all.  The process pool is imported only where a
command starts one, so importing the CLI loads no ``multiprocessing``
module either. Each case runs in a fresh interpreter: this test process
already holds SciPy.
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


def test_cli_import_loads_no_scipy():
    assert _scipy_modules_after(None) == set()


def test_cli_import_loads_no_multiprocessing():
    loaded = _run_probe(
        "import json, sys, repro.cli\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'multiprocessing']))"
    )
    assert loaded == set()


# Notes what is loaded when a replication block's clock starts: the
# first perf_counter() call inside replications._run_block.
_AT_T0 = """
import json, sys, time
from repro.simulation import compiled, replications
at_t0 = []
def perf_counter(clock=time.perf_counter):
    if not at_t0 and sys._getframe(1).f_code.co_name == '_run_block':
        scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
        at_t0.append((scipy, compiled._lib is not None))
    return clock()
time.perf_counter = perf_counter
"""


def test_run_block_clock_starts_with_no_scipy_and_the_kernel_loaded():
    # A block's replications are charged its elapsed time, so one-time
    # costs must be paid before its clock starts: on the compiled engine
    # the kernel is loaded first, and no SciPy module is loaded at all.
    # The block is run as a pool worker runs it.
    backend = "compiled" if kernel_available() else "python"
    loaded = _run_probe(
        _AT_T0
        + "from repro.experiments.common import small_cluster, small_workload\n"
        "kwargs = dict(cluster=small_cluster(), workload=small_workload(0.5), horizon=5.0,\n"
        "              backend=sys.argv[1])\n"
        "replications._run_block(([0], kwargs, [1]))\n"
        "print(json.dumps([f'at t0: {at_t0}']))",
        backend,
    )
    assert loaded == {f"at t0: [([], {backend == 'compiled'})]"}


@pytest.mark.skipif(not kernel_available(), reason="no C toolchain for the compiled kernel")
def test_inline_replication_loads_the_kernel_before_its_clock_starts():
    # Inline (n_jobs=1) as in a pool, the kernel load must not land in
    # the block's timed window: a cold build there makes replication 0
    # read ~500x fewer events/s than replication 1.
    loaded = _run_probe(
        _AT_T0
        + "from repro.experiments.common import small_cluster, small_workload\n"
        "from repro.simulation import simulate_replications\n"
        "simulate_replications(small_cluster(), small_workload(0.5), horizon=5.0,\n"
        "                      n_replications=2, n_jobs=1)\n"
        "print(json.dumps([f'at t0: {at_t0}']))",
        backend="compiled",
    )
    assert loaded == {"at t0: [([], True)]"}


@pytest.mark.skipif(not kernel_available(), reason="no C toolchain for the compiled kernel")
def test_compiled_replications_load_no_scipy():
    loaded = _run_probe(
        "import json, sys\n"
        "from repro.experiments.common import small_cluster, small_workload\n"
        "from repro.simulation import simulate_replications\n"
        "rep = simulate_replications(small_cluster(), small_workload(0.5), horizon=20.0,\n"
        "                            n_replications=4, n_jobs=1, backend='compiled')\n"
        "assert rep.meta['replications'][0]['n_events'] > 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))",
    )
    assert loaded == set()


@pytest.mark.parametrize(
    "backend",
    [
        "python",
        pytest.param(
            "compiled",
            marks=pytest.mark.skipif(
                not kernel_available(), reason="no C toolchain for the compiled kernel"
            ),
        ),
    ],
)
def test_pooled_replication_worker_loads_no_scipy(backend):
    # Each block notes, in the worker that ran it, the SciPy modules
    # loaded there once it finished. The pool forks, so the worker runs
    # this probe's wrapper around _run_block.
    loaded = _run_probe(
        "import json, multiprocessing, os, sys\n"
        "multiprocessing.set_start_method('fork')\n"
        "from repro.experiments.common import small_cluster, small_workload\n"
        "from repro.simulation import replications, simulate_replications\n"
        "run_block = replications._run_block\n"
        "def probed(payload):\n"
        "    finished, error = run_block(payload)\n"
        "    scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "    for _, result, _ in finished:\n"
        "        result.meta['probe'] = (os.getpid(), scipy)\n"
        "    return finished, error\n"
        "replications._run_block = probed\n"
        "rep = simulate_replications(small_cluster(), small_workload(0.5), horizon=20.0,\n"
        "                            n_replications=4, n_jobs=2, backend=sys.argv[1])\n"
        "pids = {r.meta['probe'][0] for r in rep.replications}\n"
        "assert os.getpid() not in pids, pids\n"
        "print(json.dumps(sorted({m for r in rep.replications for m in r.meta['probe'][1]})))",
        backend,
        backend=backend,
    )
    assert loaded == set()


def test_report_loads_no_scipy():
    assert _scipy_modules_after(["report"]) == set()


def _fleet_argv(out: Path, backend: str) -> list[str]:
    return [
        "fleet", "--backend", backend, "--jobs", "1", "--replications", "4",
        "--horizon", "5", "--format", "npz", "--out", str(out),
    ]


def test_python_fleet_loads_no_scipy(tmp_path):
    assert _scipy_modules_after(_fleet_argv(tmp_path / "store", "python")) == set()


@pytest.mark.skipif(not kernel_available(), reason="no C toolchain for the compiled kernel")
def test_compiled_fleet_loads_no_scipy(tmp_path):
    assert _scipy_modules_after(_fleet_argv(tmp_path / "store", "compiled")) == set()


def test_adaptive_simulate_never_loads_scipy_stats():
    loaded = _scipy_modules_after(
        ["simulate", "--horizon", "50", "--replications", "2", "--seed", "3",
         "--target-rel-ci", "0.5", "--max-reps", "4"]
    )
    assert loaded == set()


def test_simulate_loads_no_scipy():
    assert _scipy_modules_after(
        ["simulate", "--horizon", "50", "--replications", "2", "--seed", "3"]
    ) == set()


def test_run_t1_quick_loads_no_scipy():
    assert _scipy_modules_after(["run", "T1", "--quick"]) == set()
