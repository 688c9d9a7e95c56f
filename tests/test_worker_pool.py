"""The one worker pool behind replications and parallel series.

:class:`repro.simulation.parallel.WorkerPool` runs inline with one
worker and over one reused process pool otherwise. These tests hold
its delivery contract, its early exit on a failing task, and the
replication runner's sizing rule, which decides the reported
``meta["backend"]``.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.exceptions import ModelValidationError
from repro.simulation import WorkerPool, simulate_replications


def _square(x: int) -> int:
    return x * x


def _record(payload: tuple[str, int]) -> int:
    """Fail on payload 0; every other payload leaves a marker file."""
    directory, i = payload
    if i == 0:
        raise ValueError("invalid replication")
    time.sleep(0.2)
    Path(directory, str(i)).touch()
    return i


@pytest.mark.parametrize("n_workers", [1, 2])
def test_on_done_sees_each_value_once(n_workers):
    first, second, empty = [], [], []
    with WorkerPool(n_workers) as pool:
        assert pool.run(_square, [3, 1, 2], first.append) is None
        pool.run(_square, [4], second.append)  # the same pool, reused
        pool.run(_square, [], empty.append)
    assert sorted(first) == [1, 4, 9] and second == [16] and empty == []
    if n_workers == 1:
        assert first == [9, 1, 4]  # inline runs in payload order


def test_needs_a_worker():
    with pytest.raises(ModelValidationError):
        WorkerPool(0)


def test_failing_round_cancels_queued_payloads(tmp_path):
    """An error leaves the pool without running the rest of the round."""
    payloads = [(str(tmp_path), i) for i in range(20)]
    with pytest.raises(ValueError, match="invalid replication"):
        with WorkerPool(2) as pool:
            pool.run(_record, payloads, lambda _value: None)
    ran = len(list(tmp_path.iterdir()))
    assert ran < len(payloads) - 1


def test_pool_sized_down_to_one_worker_runs_inline(two_class_cluster, two_class_workload):
    """``min(n_jobs, work still to come)``: one replication on a
    2-job request is one worker, which runs inline."""
    rep = simulate_replications(
        two_class_cluster, two_class_workload, horizon=100.0, n_replications=1, n_jobs=2
    )
    assert rep.meta["backend"] == "serial" and rep.meta["n_jobs"] == 1
    rep = simulate_replications(
        two_class_cluster, two_class_workload, horizon=100.0, n_replications=3, n_jobs=2
    )
    assert rep.meta["backend"] == "process" and rep.meta["n_jobs"] == 2
