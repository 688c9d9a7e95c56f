"""Shape tests for experiment A7 (online control comparison)."""

import numpy as np
import pytest

from repro.exceptions import ModelValidationError
from repro.experiments import exp_a7_online_control as a7

TINY = dict(
    horizon=120.0,
    plan_window=40.0,
    epoch_length=0.5,
    v_param=5e-4,
    v_sweep=(1e-4, 2e-3),
)


@pytest.fixture(scope="module")
def result():
    return a7.run(**TINY)


class TestA7:
    def test_all_policies_on_both_scenarios(self, result):
        pairs = {(r[0], r[1]) for r in result.rows}
        assert pairs == {
            (scen, pol)
            for scen in ("diurnal", "flash-crowd")
            for pol in a7.POLICIES
        }

    def test_dpp_saves_energy_vs_max_speed(self, result):
        by_key = {(r[0], r[1]): r for r in result.rows}
        for scen in ("diurnal", "flash-crowd"):
            assert by_key[(scen, "dpp")][2] < by_key[(scen, "max-speed")][2]

    def test_frontier_trades_energy_for_delay(self, result):
        # Larger V -> less energy, more delay.
        vs = [row[0] for row in result.frontier]
        energies = [row[1] for row in result.frontier]
        delays = [row[2] for row in result.frontier]
        assert vs == sorted(vs)
        assert all(b < a for a, b in zip(energies, energies[1:]))
        assert all(b > a for a, b in zip(delays, delays[1:]))

    def test_render_includes_tables_plot_and_notes(self, result):
        text = a7.render(result)
        assert "A7" in text
        assert "frontier" in text
        assert "+---" in text  # the scatter axis
        assert "oracle" in text and "dpp" in text
        for note in result.notes:
            assert note in text

    def test_single_controller_restriction(self):
        r = a7.run(controller="dpp", v_sweep=(), **{k: v for k, v in TINY.items() if k != "v_sweep"})
        assert {row[1] for row in r.rows} == {"dpp"}
        assert r.frontier == []
        assert r.notes == []

    @pytest.mark.parametrize("controller, n_plans", [("dpp", 0), ("max-speed", 0), ("oracle", 2)])
    def test_single_controller_plans_only_what_it_runs(
        self, result, monkeypatch, controller, n_plans
    ):
        calls = []
        real = a7.plan_speed_schedule

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(a7, "plan_speed_schedule", spy)
        r = a7.run(controller=controller, **TINY)
        assert len(calls) == n_plans  # one schedule per scenario for a planner
        assert r.rows == [row for row in result.rows if row[1] == controller]

    def test_unknown_controller_rejected(self):
        with pytest.raises(ModelValidationError):
            a7.run(controller="nope", **TINY)

    def test_energy_positive_and_finite(self, result):
        energies = np.array([r[2] for r in result.rows], dtype=float)
        assert np.all(np.isfinite(energies)) and np.all(energies > 0.0)
