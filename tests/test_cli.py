"""CLI and experiment-registry tests."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.exceptions import ModelValidationError
from repro.experiments.registry import REGISTRY, get_experiment, run_experiment


class TestRegistry:
    def test_all_ids_present(self):
        expected = {
            "T1", "T2", "T3", "T4", "T5",
            "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
            "A1", "A2", "A3", "A4", "A5", "A6", "A7",
        }
        assert set(REGISTRY) == expected

    def test_lookup_case_insensitive(self):
        assert get_experiment("f1").id == "F1"

    def test_unknown_id(self):
        with pytest.raises(ModelValidationError):
            get_experiment("Z9")

    def test_quick_run_analytic_experiment(self):
        text = run_experiment("F1", quick=True)
        assert "load factor" in text

    def test_quick_run_via_experiment_object(self):
        exp = get_experiment("F6")
        result = exp.run(quick=True)
        assert "F6" in exp.render(result)


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "T1", "--quick"])
        assert args.experiment_id == "T1" and args.quick

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "A4" in out

    def test_report_command(self, capsys):
        assert main(["report", "--load-factor", "1.2"]) == 0
        out = capsys.readouterr().out
        assert "gold" in out and "power" in out

    def test_run_command_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "f1.txt"
        assert main(["run", "F1", "--quick", "--out", str(out_file)]) == 0
        assert out_file.read_text().startswith("F1")

    def test_solve_p1(self, capsys):
        assert main(["solve", "p1"]) == 0
        assert "P1" in capsys.readouterr().out

    def test_solve_p3(self, capsys):
        assert main(["solve", "p3"]) == 0
        out = capsys.readouterr().out
        assert "servers" in out

    def test_every_leaf_command_binds_a_handler(self):
        def leaves(parser, path=()):
            subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            if not subs:
                yield path, parser
            for action in subs:
                for name, child in action.choices.items():
                    yield from leaves(child, (*path, name))

        found = dict(leaves(build_parser()))
        assert len(found) == 14
        assert ("telemetry", "summarize") in found and ("telemetry", "ingest") in found
        for path, parser in found.items():
            assert callable(parser.get_default("run")), path

    @pytest.mark.parametrize(
        "argv, first_line",
        [
            (["diagnose"], "[info] bottleneck: tier 'app' is the bottleneck (rho = 0.520)"),
            (["solve", "p2"], "P2b @ per-class bounds [0.159, 0.206, 0.265]:"),
        ],
    )
    def test_analytic_command_output(self, argv, first_line, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(first_line)

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["status", "{tmp}/none"], "error: no progress.jsonl under {tmp}/none"),
            (["dashboard", "--store", "{tmp}/none.sqlite"], "error: no store at {tmp}/none.sqlite"),
            (["telemetry", "ingest"], "error: nothing to ingest"),
        ],
    )
    def test_missing_input_exits_1(self, argv, error, tmp_path, capsys):
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
        assert capsys.readouterr().out.startswith(error.format(tmp=tmp_path))

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])
