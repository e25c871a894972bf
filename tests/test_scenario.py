"""Scenario loading, orchestration, determinism, and the CLI surface."""

import json

import pytest
from click.testing import CliRunner

from mdiqds.cli import main
from mdiqds.errors import ValidationError
from mdiqds.scenario import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    read_scenario_file,
    render_report,
    run,
    scenario_from_dict,
)


class TestScenarioLoading:
    def test_defaults_follow_worked_example(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"mode": "analytic"}))
        scenario = scenario_from_dict(read_scenario_file(path), preset="standard")
        assert scenario.source_a.intensities == {"s": 0.18, "d1": 0.09, "d2": 5e-4}
        assert scenario.source_a.intensity_probs == {"s": 0.5, "d1": 0.25, "d2": 0.25}
        assert scenario.source_a.basis_probs == {"Z": 0.625, "X": 0.375}
        assert scenario.source_a.pulse_rate == 1e9
        assert scenario.profile.distance_km == 50.0
        assert scenario.profile.detector_efficiency == 0.145
        assert scenario.profile.dark_count_prob == 6.02e-6
        assert scenario.budget.eps_pe == 1e-5
        assert scenario.budget.g == 1e-5
        assert scenario.budget.eps_set == 1e-10
        assert scenario.zeta == 1.16
        assert scenario.r_fraction == 0.055

    def test_snspd_preset(self):
        scenario = scenario_from_dict({"mode": "analytic"}, preset="snspd")
        assert scenario.profile.detector_efficiency == 0.93
        assert scenario.profile.dark_count_prob == 1e-6

    def test_range_error(self):
        with pytest.raises(ValidationError):
            scenario_from_dict(
                {"mode": "analytic", "profile": {"detector_efficiency": 1.5}}
            )

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown scenario fields"):
            scenario_from_dict({"mode": "analytic", "detector": "snspd"})
        with pytest.raises(ValidationError, match="unknown profile field"):
            scenario_from_dict({"mode": "analytic", "profile": {"eta": 0.5}})

    def test_seed_required_for_stochastic_modes(self):
        with pytest.raises(ValidationError, match="requires a seed"):
            scenario_from_dict({"mode": "montecarlo"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            read_scenario_file(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            read_scenario_file(path)


class TestRunModes:
    def test_analytic_reproduces_worked_example(self):
        scenario = scenario_from_dict({"mode": "analytic"})
        code, payload = run(scenario)
        assert code == EXIT_OK
        security = payload["security"]
        assert security["E_bar"] == pytest.approx(0.0239, abs=5e-4)
        assert security["p_E"] == pytest.approx(0.0302, abs=5e-4)
        assert security["pr_honest_abort"] == 2.00e-5

    def test_table_sweep_matches_published_rows(self):
        scenario = scenario_from_dict({"mode": "table-sweep"})
        code, payload = run(scenario)
        assert code == EXIT_OK
        minutes = {
            (row["security"], row["detector"]): row["t_r_minutes"]
            for row in payload["rows"]
        }
        assert minutes[("1e-5", "standard")] == pytest.approx(93.0)
        assert minutes[("1e-5", "ingaas-apd")] == pytest.approx(30.0)
        assert minutes[("1e-5", "ingaas-inp-apd")] == pytest.approx(14.5)
        assert minutes[("1e-5", "snspd")] == pytest.approx(98.0 / 60.0)
        assert minutes[("1e-10", "standard")] == pytest.approx(175.0)
        assert minutes[("1e-10", "ingaas-apd")] == pytest.approx(55.8333, abs=1e-3)
        assert minutes[("1e-10", "ingaas-inp-apd")] == pytest.approx(27.1667, abs=1e-3)
        assert minutes[("1e-10", "snspd")] == pytest.approx(3.0)
        assert all(row["matches_printed"] for row in payload["rows"])
        # the time column is the pulse count divided by the rate, exactly
        for row in payload["rows"]:
            assert row["t_r_minutes"] * 60.0 * 1e9 == pytest.approx(
                row["n_sig"], rel=1e-15
            )

    def test_montecarlo_reduced_scale_completes(self):
        scenario = scenario_from_dict(
            {"mode": "montecarlo", "seed": 11, "scale_factor": 1e6}
        )
        code, payload = run(scenario)
        # at this scale the estimators correctly refuse to emit bounds
        assert code == EXIT_INFEASIBLE
        assert payload["sessions"]["alice_bob"]["n_pulses"] == int(5.58e12 / 1e6)
        assert payload["infeasible_reason"]

    def test_protocol_mode_passes_bounds(self):
        scenario = scenario_from_dict(
            {"mode": "protocol", "seed": 5, "protocol": {"trials": 2000}}
        )
        code, payload = run(scenario)
        assert code == EXIT_OK
        assert set(payload["checks"]) == {
            "honest_abort", "transfer_failure", "repudiation", "forging",
        }
        assert payload["sample_transcript"]["abort"] in (False, True)

    def test_montecarlo_determinism_byte_identical(self):
        raw = {"mode": "montecarlo", "seed": 21, "scale_factor": 2e6}
        first = render_report(run(scenario_from_dict(raw))[1])
        second = render_report(run(scenario_from_dict(raw))[1])
        assert first == second
        third = render_report(
            run(scenario_from_dict({**raw, "seed": 22}))[1]
        )
        assert third != first


class TestCli:
    def test_analytic_stdout(self):
        runner = CliRunner()
        result = runner.invoke(main, ["analytic"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["security"]["feasible"] is True

    def test_tables_csv(self, tmp_path):
        # --format overrides the config file's format as well
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"mode": "analytic", "format": "json"}))
        runner = CliRunner()
        for extra in ([], ["--config", str(path)]):
            out = tmp_path / "rows.csv"
            args = ["tables", "--format", "csv", "--out", str(out)] + extra
            result = runner.invoke(main, args)
            assert result.exit_code == 0
            lines = out.read_text().strip().split("\n")
            assert lines[0] == "security,detector,eta_d,y_0,n_sig,t_r_minutes"
            assert len(lines) == 9

    def test_csv_only_for_tables(self):
        runner = CliRunner()
        for mode in ("analytic", "simulate", "protocol"):
            result = runner.invoke(main, [mode, "--seed", "1", "--format", "csv"])
            assert result.exit_code == 3
            assert "csv" in result.output

    def test_validation_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mode": "analytic", "profile": {"misalignment": 2}}))
        runner = CliRunner()
        result = runner.invoke(main, ["analytic", "--config", str(path)])
        assert result.exit_code == 3

    @pytest.mark.parametrize(
        "config",
        [
            {"scale_factor": "big"},
            {"target_security": "a"},
            {"profile": {"distance_km": "x"}},
            {"budget": {"eps_0": "x"}},
            {"source": [1]},
            {"zeta": 5},
            {"analytic": {"n_k": -5}},
            {"n_sig": -5},
            {"source": {"pulse_rate": float("nan")}},
            {"seed": -1},
        ],
    )
    def test_bad_config_exit_code(self, tmp_path, config):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        result = CliRunner().invoke(main, ["analytic", "--config", str(path)])
        assert result.exit_code == 3, result.output
        assert "validation error" in result.output

    def test_out_to_missing_directory(self, tmp_path, monkeypatch):
        # rejected before the scenario runs, so a simulation does not compute first
        monkeypatch.setattr("mdiqds.cli.run", lambda scenario: pytest.fail("scenario ran"))
        out = tmp_path / "missing" / "report.json"
        for mode in ("analytic", "simulate"):
            result = CliRunner().invoke(main, [mode, "--seed", "1", "--out", str(out)])
            assert result.exit_code == 3, result.output
            assert result.output.startswith("validation error: ")
            assert result.output.count("\n") == 1

    def test_simulate_infeasible_exit_code(self):
        runner = CliRunner()
        result = runner.invoke(
            main, ["simulate", "--seed", "4", "--scale", "1000000"]
        )
        assert result.exit_code == 2

    def test_simulate_at_full_scale(self):
        # the published operating point: 5.58e12 pulses per session
        result = CliRunner().invoke(main, ["simulate", "--seed", "7", "--scale", "1"])
        assert result.exit_code in (EXIT_OK, EXIT_INFEASIBLE)
        payload = json.loads(result.output)
        assert payload["sessions"]["alice_bob"]["n_pulses"] == int(5.58e12)
        if payload["security"] is None:
            assert payload["infeasible_reason"]
        else:
            assert payload["security"]["feasible"] == (result.exit_code == EXIT_OK)

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps({"mode": "analytic", "analytic": {"e_obs": 0.0207}})
        )
        out = tmp_path / "report.json"
        runner = CliRunner()
        result = runner.invoke(
            main, ["analytic", "--config", str(path), "--out", str(out)]
        )
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["security"]["s_a"] == pytest.approx(0.0260, abs=5e-4)
