"""Self-tests of the end-to-end benchmark harness: ``pytest benchmarks/e2e -q``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import trace as span_trace  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_harness_imports_its_own_trace_module():
    assert Path(span_trace.__file__).resolve() == HERE / "trace.py"


def test_quartiles_follow_statistics_quantiles():
    assert run.quartiles(list(range(1, 11))) == (2.75, 5.5, 8.25)
    assert run.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.25, 2.5, 3.75)
    assert run.quartiles([7.0]) == (7.0, 7.0, 7.0)


def _span(name, start, end, sid, parent=None, pid=1, attrs=None):
    return dict(zip(span_trace.FIELDS, (name, start, end, sid, parent, pid, "r", attrs)))


def test_self_time_subtracts_children_of_the_same_process_only():
    spans = [
        _span("root", 0, 100, 0),
        _span("a", 10, 40, 1, parent=0),
        _span("b", 50, 90, 2, parent=0),
        _span("c", 60, 70, 3, parent=2),
        _span("d", 65, 80, 4, parent=2),  # overlaps c: the union counts once
        _span("worker", 20, 95, 0, pid=2),  # another process, same ids
    ]
    selfs = span_trace.self_times(spans)
    assert selfs[(1, 0)] == 100 - 30 - 40
    assert selfs[(1, 2)] == 40 - 20
    assert selfs[(1, 3)] == 10
    assert selfs[(2, 0)] == 75


def test_covered_ns_clips_and_merges():
    assert span_trace.covered_ns([(5, 15), (10, 20), (30, 50)], 0, 40) == 25
    assert span_trace.covered_ns([], 0, 40) == 0


def test_layer_metrics_counts_outermost_spans_and_the_unattributed_rest():
    spans = [
        _span("cli.import", 10, 30, 0),
        _span("cli.main", 40, 90, 1),
        _span("optimize.solve", 45, 70, 2, parent=1, attrs={"nfev": 5}),
        _span("optimize.solve", 50, 60, 3, parent=2, attrs={"nfev": 3}),
        _span("queueing.model_eval", 52, 54, 4, parent=3),
        _span("compiled.batch", 60, 80, 0, pid=7, attrs={"units": 4, "events": 400}),
    ]
    stamp = {"returned_ns": 90, "modules": 3, "scipy_modules": 1}
    m = span_trace.layer_metrics(spans, main_pid=1, spawn_ns=0, exit_ns=100, stamp=stamp)
    assert m["optimize.solves"] == 1
    assert m["optimize.nfev"] == 5
    assert m["optimize.solve_s"] == pytest.approx(25e-9)
    assert m["queueing.model_evals"] == 1
    assert m["compiled.batch_units"] == 4
    assert m["compiled.ns_per_event"] == pytest.approx(20e-9 / 400 * 1e9)
    assert m["cli.exit_s"] == pytest.approx(10e-9)
    # 0..10 before the import and 30..40 between import and main
    assert m["unattributed_s"] == pytest.approx(20e-9)


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([10.0, 10.1, 9.9, 10.0], [10.5, 10.4, 10.6, 10.5], "lower", "ok"),
        ([10.0, 10.1, 9.9, 10.0], [11.5, 11.4, 11.6, 11.5], "lower", "regression"),
        ([10.0, 10.1, 9.9, 10.0], [8.5, 8.4, 8.6, 8.5], "lower", "improved"),
        ([100.0, 101.0, 99.0], [85.0, 86.0, 84.0], "higher", "regression"),
        ([10.0, 14.0, 7.0, 12.0], [10.0, 10.2, 9.8, 10.1], "lower", "unresolved"),
        # wide spread, but every change sample beats every parent sample
        ([10.0, 14.0, 11.0, 12.0], [7.0, 9.0, 8.0, 6.0], "lower", "improved"),
    ],
)
def test_judge_marks_regressions_and_unresolved_pairs(parent, change, better, expected):
    assert run.judge(parent, change, better, 0.1)[0] == expected


def test_metric_names_and_units_are_well_formed():
    spec = run.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(UNIT.fullmatch(u) for u in units)
    stamp = {"returned_ns": 0, "modules": 0, "scipy_modules": 0}
    emitted = set(span_trace.layer_metrics([], 0, 0, 0, stamp))
    emitted |= {"compiled.build_s", "fleet.chunks", "results_store.bytes", "trace.overhead_frac"}
    assert emitted == {m["name"] for m in spec["per_layer"]}


def test_install_wraps_every_binding_now_and_on_later_import(tmp_path, monkeypatch):
    pkg = tmp_path / "e2efake"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "core.py").write_text(
        "def f(x):\n    return x + 1\n\nclass C:\n    def m(self):\n        return 2\n"
    )
    (pkg / "user.py").write_text("from e2efake.core import f as g\n")
    (pkg / "late.py").write_text("def h():\n    return 3\n")
    (pkg / "late_user.py").write_text("from e2efake.late import h\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    meta_path = list(sys.meta_path)
    try:
        import e2efake.core
        import e2efake.user

        rec = span_trace.Recorder(tmp_path, "t")
        span_trace.install(rec, targets=(
            ("x.f", "e2efake.core", "f", lambda a, k, r: {"arg": a[0]}),
            ("x.m", "e2efake.core", "C.m", None),
            ("x.h", "e2efake.late", "h", None),
        ))
        import e2efake.late_user

        assert e2efake.user.g(1) == 2 and e2efake.core.f(2) == 3
        assert e2efake.core.C().m() == 2
        assert e2efake.late_user.h() == 3
        assert [s[0] for s in rec.spans] == ["x.f", "x.f", "x.m", "x.h"]
        assert [s[7] for s in rec.spans[:2]] == [{"arg": 1}, {"arg": 2}]
    finally:
        sys.meta_path[:] = meta_path
        for name in [m for m in sys.modules if m.startswith("e2efake")]:
            del sys.modules[name]


def test_report_cli_smoke_run_untraced_and_traced(tmp_path):
    out = tmp_path / "set.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "report_cli", "--runs", "1",
         "--trace", "1", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and (result["attempted"], result["failed"]) == (2, 0)
    spec = run.load_spec()
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["cli.import_s"]["value"] > 0
    e2e = json.loads(out.read_text())["workloads"]["report_cli"]["e2e"]
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert all(v[0] > 0 for v in e2e.values())
