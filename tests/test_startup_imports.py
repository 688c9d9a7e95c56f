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


def _run_probe(code: str, *args: str) -> set[str]:
    """Run ``code`` in a fresh interpreter; its last stdout line is a
    JSON list of module names."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": SRC, "REPRO_SIM_BACKEND": "python"},
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


def test_warm_up_loads_no_scipy_and_run_one_primes_the_t_quantile():
    # Pool warm-up serves fleet workers too, which never need SciPy, so
    # it leaves scipy.special unloaded. A replication primes the
    # t-quantile memo itself, before its timed window opens: the
    # scipy.special import is never inside a replication's wall time.
    loaded = _run_probe(
        "import json, sys\n"
        "from repro.experiments.common import small_cluster, small_workload\n"
        "from repro.simulation import parallel\n"
        "parallel._warm_worker()\n"
        "warm = 'scipy.special' in sys.modules\n"
        "at_t0 = []\n"
        "clock = parallel.time.perf_counter\n"
        "def perf_counter():\n"
        "    if not at_t0 and sys._getframe(1).f_code.co_name == '_run_one':\n"
        "        at_t0.append('scipy.special' in sys.modules)\n"
        "    return clock()\n"
        "parallel.time.perf_counter = perf_counter\n"
        "kwargs = dict(cluster=small_cluster(), workload=small_workload(0.5), horizon=5.0, seed=1)\n"
        "parallel._run_one((0, kwargs))\n"
        "print(json.dumps([f'after warm-up: {warm}', f'at t0: {at_t0}']))"
    )
    assert loaded == {"after warm-up: False", "at t0: [True]"}


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
