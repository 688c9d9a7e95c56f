"""Bench history recording, the rolling-median regression detector and
the baseline check's calibration."""

import pytest

from repro.analysis import perf_bench
from repro.analysis.perf_bench import (
    CALIBRATION,
    append_history,
    check_history,
    compare_to_baseline,
    history_entry,
    load_history,
)


def make_doc(sim_s: float, cal_s: float = 0.1, extra: dict | None = None) -> dict:
    kernels = {
        CALIBRATION: {"min_s": cal_s},
        "sim_replication_h500": {"min_s": sim_s},
        "analytic_eval_x100": {"min_s": 0.02},
    }
    if extra:
        kernels.update(extra)
    return {
        "schema": 1,
        "created_unix": 1000,
        "host": {"platform": "test"},
        "kernels": kernels,
    }


def history_of(norms: list[float]) -> list[dict]:
    """A history whose sim kernel normalized times are ``norms``."""
    return [
        {"schema": 1, "created_unix": 1000 + i, "host": "test",
         "kernels": {"sim_replication_h500": n, "analytic_eval_x100": 0.2}}
        for i, n in enumerate(norms)
    ]


class TestHistoryEntry:
    def test_normalizes_by_calibration(self):
        entry = history_entry(make_doc(sim_s=0.3, cal_s=0.1))
        assert entry["kernels"]["sim_replication_h500"] == pytest.approx(3.0)
        assert CALIBRATION not in entry["kernels"]

    def test_machine_speed_cancels(self):
        """The same workload on a 2x slower machine records the same
        normalized entry — that is the point of calibration."""
        fast = history_entry(make_doc(sim_s=0.3, cal_s=0.1))
        slow = history_entry(make_doc(
            sim_s=0.6, cal_s=0.2, extra={"analytic_eval_x100": {"min_s": 0.04}},
        ))
        assert fast["kernels"] == slow["kernels"]

    def test_missing_calibration_raises(self):
        doc = make_doc(sim_s=0.3)
        del doc["kernels"][CALIBRATION]
        with pytest.raises(ValueError):
            history_entry(doc)


class TestAppendLoad:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "hist" / "BENCH_history.jsonl"
        append_history(make_doc(0.3), str(path))
        append_history(make_doc(0.33), str(path))
        entries = load_history(str(path))
        assert len(entries) == 2
        assert entries[0]["kernels"]["sim_replication_h500"] == pytest.approx(3.0)

    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_history(str(tmp_path / "none.jsonl")) == []


class TestCheckHistory:
    def test_injected_2x_slowdown_flagged(self):
        """A gated kernel running 2x over its rolling median fails."""
        history = history_of([1.0, 1.05, 0.95, 1.0, 1.02])
        slowed = make_doc(sim_s=0.2, cal_s=0.1)  # normalized 2.0 vs median ~1.0
        lines, failures = check_history(slowed, history, tolerance=0.5)
        assert failures == ["sim_replication_h500"]
        assert any("REGRESSION" in line for line in lines)

    def test_within_tolerance_passes(self):
        history = history_of([1.0, 1.05, 0.95, 1.0, 1.02])
        ok = make_doc(sim_s=0.12, cal_s=0.1)  # normalized 1.2, within 50%
        _, failures = check_history(ok, history, tolerance=0.5)
        assert failures == []

    def test_ungated_kernel_reported_not_failed(self):
        history = history_of([1.0] * 5)
        # analytic kernel jumps 10x but is not a gate
        doc = make_doc(sim_s=0.1, extra={"analytic_eval_x100": {"min_s": 0.2}})
        lines, failures = check_history(doc, history, tolerance=0.5)
        assert failures == []
        assert any("analytic_eval_x100" in line and "info" in line for line in lines)

    def test_young_history_never_fails(self):
        """Fewer than min_entries samples: reported, never a failure."""
        history = history_of([1.0, 1.0])
        slowed = make_doc(sim_s=0.5, cal_s=0.1)  # normalized 5.0
        lines, failures = check_history(slowed, history, min_entries=3)
        assert failures == []
        assert any("skipped" in line for line in lines)

    def test_rolling_window_forgets_old_entries(self):
        """Old fast entries outside the window must not anchor the
        median forever — the detector tracks the recent regime."""
        history = history_of([0.5] * 7 + [2.0] * 3)
        doc = make_doc(sim_s=0.21, cal_s=0.1)  # normalized 2.1 ~ recent regime
        _, failures = check_history(doc, history, tolerance=0.5, window=5)
        assert failures == []
        _, failures_full = check_history(doc, history, tolerance=0.5, window=10)
        # with the long window the old 0.5s drag the median down: flagged
        assert failures_full == ["sim_replication_h500"]

    def test_median_robust_to_one_noisy_entry(self):
        """One garbage history entry (machine hiccup) must not trip the
        detector — the median absorbs it where a mean would not."""
        history = history_of([1.0, 1.0, 8.0, 1.0, 1.0])
        doc = make_doc(sim_s=0.11, cal_s=0.1)
        _, failures = check_history(doc, history, tolerance=0.5)
        assert failures == []


class TestBaselineCalibration:
    def test_each_timed_kernel_records_the_spin_beside_it(self, monkeypatch):
        monkeypatch.setitem(perf_bench.KERNELS, "noop", lambda: (lambda: None))
        record = perf_bench._time_kernel("noop", 2)
        assert record["calibration_min_s"] > 0
        assert "calibration_min_s" not in perf_bench._time_kernel(CALIBRATION, 1)

    def test_kernel_normalized_by_its_own_calibration(self):
        """The host ran 2x slower while the kernel ran, not at the run's
        start: the spin timed beside the kernel cancels that."""
        baseline = make_doc(sim_s=0.1, cal_s=0.1)
        drifted = make_doc(sim_s=0.2, cal_s=0.1)
        _, failures = compare_to_baseline(drifted, baseline, gates=("sim_replication_h500",))
        assert failures == ["sim_replication_h500"]  # start calibration only
        drifted["kernels"]["sim_replication_h500"]["calibration_min_s"] = 0.2
        lines, failures = compare_to_baseline(
            drifted, baseline, gates=("sim_replication_h500",)
        )
        assert failures == []
        assert any("calibration x0.50, normalized x1.00" in line for line in lines)

    def test_regression_under_own_calibration_still_fails(self):
        baseline = make_doc(sim_s=0.1, cal_s=0.1)
        slowed = make_doc(sim_s=0.15, cal_s=0.1)
        slowed["kernels"]["sim_replication_h500"]["calibration_min_s"] = 0.1
        _, failures = compare_to_baseline(slowed, baseline, gates=("sim_replication_h500",))
        assert failures == ["sim_replication_h500"]


class TestCliFlags:
    def test_bench_parser_accepts_history_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "bench", "--record", "--history", "h.jsonl",
            "--history-tolerance", "0.4", "--history-window", "7",
        ])
        assert args.record is True
        assert args.history == "h.jsonl"
        assert args.history_tolerance == 0.4
        assert args.history_window == 7
