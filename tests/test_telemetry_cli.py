"""End-to-end telemetry CLI: --telemetry artifacts and `telemetry summarize`."""

import json

import pytest

from repro import obs
from repro.cli import main


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """A real --telemetry artifact from a short replicated simulation."""
    out = tmp_path_factory.mktemp("telemetry") / "run"
    code = main(
        [
            "simulate",
            "--horizon", "50",
            "--replications", "2",
            "--seed", "3",
            "--telemetry", str(out),
        ]
    )
    assert code == 0
    return out


class TestTelemetryFlag:
    def test_artifact_files_written(self, artifact):
        assert (artifact / obs.MANIFEST_FILENAME).exists()
        assert (artifact / obs.EVENTS_FILENAME).exists()
        assert not list(artifact.glob("*.tmp.*"))

    def test_manifest_contents(self, artifact):
        man = json.loads((artifact / obs.MANIFEST_FILENAME).read_text())
        assert man["manifest_version"] == 1
        assert man["command"][0] == "repro" and "simulate" in man["command"]
        assert man["seed"] == 3
        assert man["config_fingerprint"]
        assert man["metrics"]["sim.events"]["value"] > 0
        assert any(s["name"] == "sim.replications" for s in man["spans"])

    def test_events_schema(self, artifact):
        events = [
            json.loads(line)
            for line in (artifact / obs.EVENTS_FILENAME).read_text().splitlines()
        ]
        assert events
        assert all(e["v"] == 1 and e["type"] in ("span", "event") for e in events)
        reps = [e for e in events if e["name"] == "sim.replication"]
        assert len(reps) == 2
        assert all(e["fields"]["events_per_sec"] > 0 for e in reps)

    def test_telemetry_disabled_after_run(self, artifact):
        assert not obs.is_enabled()


class TestSummarize:
    def test_summarize_renders_tables(self, artifact, capsys):
        assert main(["telemetry", "summarize", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "Slowest spans" in out
        assert "Replications (2)" in out
        assert "events/s" in out
        assert "sim.replications" in out
        assert "simulator events" in out

    def test_summarize_accepts_manifest_path(self, artifact, capsys):
        path = artifact / obs.MANIFEST_FILENAME
        assert main(["telemetry", "summarize", str(path)]) == 0
        assert "telemetry run" in capsys.readouterr().out

    def test_summarize_shows_solver_table(self, tmp_path, capsys):
        out = tmp_path / "run"
        with obs.telemetry_session(out, command=["repro", "solve", "p1"]):
            obs.event(
                "solver.result",
                label="p1", method="SLSQP", success=True, fun=0.5,
                nit=7, nfev=30, status=0, message="ok",
                n_evaluations=90, constraint_violation=0.0, wall_s=0.01,
            )
        capsys.readouterr()
        assert main(["telemetry", "summarize", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Optimizer solves (1)" in text
        assert "SLSQP" in text and "p1" in text

    def test_summarize_missing_artifact_errors(self, tmp_path, capsys):
        assert main(["telemetry", "summarize", str(tmp_path / "nope")]) == 1
        assert "error" in capsys.readouterr().out

    def test_summarize_warns_on_dropped_events(self, artifact, tmp_path, capsys):
        """Nonzero dropped-event count must be loudly visible."""
        doctored = tmp_path / "doctored"
        doctored.mkdir()
        man = json.loads((artifact / obs.MANIFEST_FILENAME).read_text())
        man["events"]["dropped"] = 2
        (doctored / obs.MANIFEST_FILENAME).write_text(json.dumps(man))
        assert main(["telemetry", "summarize", str(doctored)]) == 0
        text = capsys.readouterr().out
        assert "WARNING" in text and "2 event(s)" in text and "incomplete" in text

    def test_manifest_carries_event_accounting(self, artifact):
        man = json.loads((artifact / obs.MANIFEST_FILENAME).read_text())
        n_lines = len((artifact / obs.EVENTS_FILENAME).read_text().splitlines())
        assert man["events"]["emitted"] == n_lines
        assert man["events"]["dropped"] == 0


class TestSummarizeComparison:
    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        """Two runs of the same configuration, different seeds."""
        root = tmp_path_factory.mktemp("cmp")
        dirs = []
        for seed in (10, 11):
            out = root / f"s{seed}"
            assert main([
                "simulate", "--horizon", "40", "--replications", "2",
                "--seed", str(seed), "--telemetry", str(out),
            ]) == 0
            dirs.append(out)
        return dirs

    def test_side_by_side_table(self, pair, capsys):
        assert main(["telemetry", "summarize", *map(str, pair)]) == 0
        text = capsys.readouterr().out
        assert "Run comparison (2 runs)" in text
        for row in ("wall s (root spans)", "events", "cache hits",
                    "sim events", "fingerprint", "seed"):
            assert row in text
        assert "sharing a fingerprint" in text

    def test_missing_dir_fails_without_comparison(self, pair, tmp_path, capsys):
        argv = ["telemetry", "summarize", str(pair[0]), str(tmp_path / "nope")]
        assert main(argv) == 1
        text = capsys.readouterr().out
        assert f"error: no manifest.json under {tmp_path / 'nope'}" in text
        assert "Run comparison" not in text

    def test_single_dir_has_no_comparison(self, pair, capsys):
        assert main(["telemetry", "summarize", str(pair[0])]) == 0
        assert "Run comparison" not in capsys.readouterr().out
