"""Continuation sweep engine tests.

Two layers: unit tests of :mod:`repro.optimize.sweep` against synthetic
solvers, and the warm-vs-cold equivalence contract on the real F3 (P1)
frontier — identical frontier values (relative 1e-6, the solver's own
feasibility tolerance), bit-reproducible run-to-run and across worker
counts, with warm sweeps doing strictly less work on interior points.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.exceptions import InfeasibleProblemError, ModelValidationError
from repro.experiments import exp_f3_delay_opt_tradeoff as f3
from repro.optimize.sweep import ContinuationSweep, SweepPoint, continuation_sweep, run_series


def _fake_result(value, warm_accepted=None):
    meta = {}
    if warm_accepted is not None:
        meta["warm_start"] = {"accepted": warm_accepted}
    return SimpleNamespace(
        x=np.array([value]), fun=float(value), meta=meta, nfev=3, nit=2, n_evaluations=5
    )


class TestContinuationSweepUnit:
    def test_hint_threading(self):
        hints = []

        def solve(value, hint):
            hints.append(None if hint is None else float(hint[0]))
            return _fake_result(value)

        sweep = continuation_sweep(solve, [1.0, 2.0, 3.0])
        assert hints == [None, 1.0, 2.0]
        assert sweep.values == [1.0, 2.0, 3.0]
        assert [p.warm for p in sweep.points] == [False, True, True]

    def test_cold_mode_never_hints(self):
        hints = []

        def solve(value, hint):
            hints.append(hint)
            return _fake_result(value)

        sweep = continuation_sweep(solve, [1.0, 2.0], warm_start=False)
        assert hints == [None, None]
        assert all(not p.warm for p in sweep.points)

    def test_failed_point_recorded_and_hint_carries_over(self):
        hints = []

        def solve(value, hint):
            hints.append(None if hint is None else float(hint[0]))
            if value == 2.0:
                raise InfeasibleProblemError("too tight")
            return _fake_result(value)

        sweep = continuation_sweep(solve, [1.0, 2.0, 3.0])
        assert sweep.n_solved == 2
        failed = sweep.points[1]
        assert failed.result is None
        assert isinstance(failed.error, InfeasibleProblemError)
        # Point 3 is seeded from point 1, skipping the failed point.
        assert hints == [None, 1.0, 1.0]

    def test_unexpected_exception_propagates(self):
        def solve(value, hint):
            raise ValueError("bug, not infeasibility")

        with pytest.raises(ValueError):
            continuation_sweep(solve, [1.0])

    def test_accepted_read_from_meta(self):
        def solve(value, hint):
            return _fake_result(value, warm_accepted=hint is not None)

        sweep = continuation_sweep(solve, [1.0, 2.0])
        assert [p.accepted for p in sweep.points] == [False, True]

    def test_column_fills_failures_with_nan(self):
        def solve(value, hint):
            if value > 1.5:
                raise InfeasibleProblemError("no")
            return _fake_result(value)

        sweep = continuation_sweep(solve, [1.0, 2.0])
        col = sweep.column(lambda r: r.fun)
        assert col[0] == 1.0 and np.isnan(col[1])

    def test_effort_totals(self):
        sweep = continuation_sweep(lambda v, h: _fake_result(v), [1.0, 2.0, 3.0])
        assert sweep.total_evaluations == 15
        assert sweep.total_nfev == 9
        assert sweep.total_wall_s >= 0.0

    def test_custom_hint_of(self):
        hints = []

        def solve(value, hint):
            hints.append(None if hint is None else float(hint[0]))
            return _fake_result(value)

        continuation_sweep(solve, [1.0, 2.0], hint_of=lambda r: r.x * 10.0)
        assert hints == [None, 10.0]

    def test_empty_grid(self):
        sweep = continuation_sweep(lambda v, h: _fake_result(v), [])
        assert isinstance(sweep, ContinuationSweep)
        assert sweep.points == [] and sweep.total_evaluations == 0


def _series_double(values):
    return np.asarray(values, dtype=float) * 2.0


def _series_square(values):
    return np.asarray(values, dtype=float) ** 2


class TestRunSeries:
    def test_serial_results_keyed_in_order(self):
        out = run_series(
            {
                "double": (_series_double, ([1.0, 2.0],)),
                "square": (_series_square, ([3.0],)),
            }
        )
        assert list(out) == ["double", "square"]
        np.testing.assert_array_equal(out["double"], [2.0, 4.0])
        np.testing.assert_array_equal(out["square"], [9.0])

    def test_parallel_matches_serial(self):
        tasks = {
            "double": (_series_double, ([1.0, 2.0, 3.0],)),
            "square": (_series_square, ([1.0, 2.0, 3.0],)),
        }
        serial = run_series(tasks, n_jobs=None)
        parallel = run_series(tasks, n_jobs=2)
        assert list(serial) == list(parallel)
        for name in serial:
            np.testing.assert_array_equal(serial[name], parallel[name])

    def test_closure_falls_back_to_serial(self):
        # A lambda cannot cross a process boundary; run_series must
        # still produce the result rather than crash.
        out = run_series({"only": (lambda: np.arange(3), ())}, n_jobs=2)
        np.testing.assert_array_equal(out["only"], [0, 1, 2])

    def test_empty_tasks_rejected(self):
        with pytest.raises(ModelValidationError):
            run_series({})


# The 6-point grid mirrors the bench frontier kernel: every interior
# warm start is accepted there, which the effort assertions rely on.
_GRID = dict(n_points=6, n_starts=3)


@pytest.fixture(scope="module")
def f3_pair():
    warm = f3.run(**_GRID)
    cold = f3.run(**_GRID, warm_start=False)
    return warm, cold


class TestWarmColdEquivalence:
    """The headline contract: continuation changes effort, not values."""

    def test_f3_frontier_identical(self, f3_pair):
        warm, cold = f3_pair
        for name in warm.series.columns:
            np.testing.assert_allclose(
                warm.series.columns[name], cold.series.columns[name], rtol=1e-6, err_msg=name
            )

    def test_f3_warm_does_less_total_work(self, f3_pair):
        warm, cold = f3_pair
        assert warm.optimal_sweep.total_evaluations < cold.optimal_sweep.total_evaluations

    def test_f3_accepted_interior_points_strictly_cheaper(self, f3_pair):
        warm, cold = f3_pair
        accepted = [
            (w, c)
            for w, c in zip(warm.optimal_sweep.points, cold.optimal_sweep.points)
            if w.accepted
        ]
        assert accepted, "no warm start was accepted on the F3 grid"
        for w, c in accepted:
            assert w.n_evaluations < c.n_evaluations

    def test_f3_deterministic_run_to_run(self, f3_pair):
        warm, _ = f3_pair
        again = f3.run(**_GRID)
        for name in warm.series.columns:
            np.testing.assert_array_equal(
                warm.series.columns[name], again.series.columns[name], err_msg=name
            )

    def test_f3_jobs_invariant(self, f3_pair):
        warm, _ = f3_pair
        fanned = f3.run(**_GRID, n_jobs=2)
        for name in warm.series.columns:
            np.testing.assert_array_equal(
                warm.series.columns[name], fanned.series.columns[name], err_msg=name
            )

    def test_f3_sweep_attached_and_warm_flagged(self, f3_pair):
        warm, cold = f3_pair
        assert all(isinstance(p, SweepPoint) for p in warm.optimal_sweep.points)
        assert not warm.optimal_sweep.points[0].warm
        assert all(p.warm for p in warm.optimal_sweep.points[1:])
        assert all(not p.warm for p in cold.optimal_sweep.points)
