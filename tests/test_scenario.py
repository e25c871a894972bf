"""Scenario loading, orchestration, determinism, and the CLI surface."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest
from click.testing import CliRunner

from mdiqds import presets
from mdiqds import scenario as scenario_module
from mdiqds.cli import main
from mdiqds.errors import ValidationError
from mdiqds.estimation import ErrorBudget
from mdiqds.security import LINKS
from mdiqds.scenario import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VALIDATION,
    MODES,
    AnalyticInputs,
    ProtocolParams,
    Scenario,
    read_scenario_file,
    render_report,
    run,
    scenario_from_dict,
)

# the short bright link of acceptance criterion 4 with its loose budget, as a
# scenario; at scale 5e4 a session may or may not have a usable Bell state
BRIGHT_LINK = {
    "mode": "montecarlo",
    "n_sig": 1.2e12,
    "source": {
        "intensities": {"s": 0.7, "d1": 0.25, "d2": 0.03},
        "intensity_probs": {"s": 0.5, "d1": 0.25, "d2": 0.25},
        "basis_probs": {"Z": 0.5, "X": 0.5},
    },
    "profile": {
        "distance_km": 1.0, "loss_coeff_db_per_km": 0.2, "detector_efficiency": 0.93,
        "dark_count_prob": 1e-6, "misalignment": 0.01,
    },
    "budget": {
        "eps_set": 1e-3, "eps_set_hat": 1e-3, "eps_set_dot": 1e-3,
        "eps_0": 1e-2, "eps_1": 1e-2, "eps_k0_serfling": 1e-2, "eps_k1_serfling": 1e-2,
        "eps_ke_x1": 1e-2, "eps_ke_x2": 1e-2, "eps_ke_upsilon": 1e-2, "eps_cap": 1e-4,
    },
}


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

    @pytest.mark.parametrize("r_fraction", [0.0, 0.34, 0.5, 0.9, 1.0])
    def test_r_fraction_at_most_a_third(self, r_fraction):
        # the R_k = r_fraction * |Z_ss| sampled bits may be at most the keep
        # half n_k/2 of what is left, which every large set breaks above 1/3
        with pytest.raises(ValidationError, match=r"r_fraction must lie in \(0, 1/3\]"):
            scenario_from_dict({"r_fraction": r_fraction})
        assert scenario_from_dict({"r_fraction": 1 / 3}).r_fraction == 1 / 3

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown scenario fields"):
            scenario_from_dict({"mode": "analytic", "detector": "snspd"})
        with pytest.raises(ValidationError, match="unknown profile field"):
            scenario_from_dict({"mode": "analytic", "profile": {"eta": 0.5}})

    def test_parties_share_pulse_rate(self):
        # one rate for both parties, given once or twice, sets t_r; two
        # different rates are rejected (test_bad_config_exit_code)
        for config in ({"source": {"pulse_rate": 2e9}},
                       {"source_a": {"pulse_rate": 2e9}, "source_b": {"pulse_rate": 2e9}}):
            _, payload = run(scenario_from_dict({"mode": "analytic", **config}))
            assert payload["security"]["t_r_seconds"] == 2790.0

    def test_accepted_top_level_keys(self):
        # every Scenario field but the two sources is a config key: a new
        # field must not become one unnoticed
        keys = {"source", "source_a", "source_b", "profile", "budget", "preset", "mode",
                "seed", "format", "scale_factor", "r_fraction", "zeta", "n_sig", "analytic",
                "protocol"}
        assert {f.name for f in fields(Scenario)} | {"source", "preset"} == keys
        for key in keys:
            # a list is a bad value for every key, but not an unknown key
            with pytest.raises(ValidationError) as info:
                scenario_from_dict({key: [1]})
            assert "unknown scenario fields" not in str(info.value), key
        with pytest.raises(ValidationError, match="unknown scenario fields"):
            scenario_from_dict({"output_format": "json"})

    @pytest.mark.parametrize("params, message", [
        ({"length": 3}, "length must be even"),
        ({"trials": 10**7 + 1}, "trials must be at most"),
        ({"e_bar": 0.4, "p_e": 0.3}, "needs e_bar < p_e"),
    ])
    def test_protocol_params_check_themselves(self, params, message):
        with pytest.raises(ValidationError, match=message):
            ProtocolParams(**params)

    @pytest.mark.parametrize("params, message", [
        ({"n_k": -5}, "n_k must be a positive integer"),
        ({"n_k": 8_900_000.5}, "n_k must be a positive integer"),
        ({"r_k": 0}, "r_k must be a positive integer"),
        ({"n_k": 10, "r_k": 6}, "need n_k // 2 >= r_k"),
        ({"e_obs": 7}, "e_obs must lie in"),
        ({"e_obs": -0.1}, "e_obs must lie in"),
        ({"h_min_target": 0}, "h_min_target must be positive"),
        ({"n_k": 1000, "r_k": 500, "h_min_target": 501}, "h_min_target must be at most"),
    ])
    def test_analytic_inputs_check_themselves(self, params, message):
        with pytest.raises(ValidationError, match=message):
            AnalyticInputs(**params)
        # the smallest split that holds is accepted, a JSON 1e3 as 1000
        AnalyticInputs(n_k=1e3, r_k=500, e_obs=1.0, h_min_target=1e-9)

    @pytest.mark.parametrize("mode", ["sweep", ["analytic"]])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValidationError, match="mode must be one of"):
            scenario_from_dict({"mode": mode})

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

    @pytest.mark.parametrize("mode", MODES)
    def test_direct_scenario_runs(self, mode):
        # a Scenario built from its defaults runs like the loaded config
        config = {"mode": mode, "seed": 1 if MODES[mode] else None}
        if mode == "montecarlo":
            config["scale_factor"] = 1e6
        source = presets.default_source_config()
        direct = Scenario(source, source, presets.profile_for_preset("standard"), ErrorBudget(),
                          **config)
        code, payload = run(direct)
        assert (code, payload) == run(scenario_from_dict(config))
        assert code == (EXIT_INFEASIBLE if mode == "montecarlo" else EXIT_OK)

    def test_scipy_imported_only_to_solve(self):
        # no mode imports scipy.optimize: a Monte-Carlo run loads only its
        # HiGHS binding, and the analytic, table-sweep and protocol modes,
        # which solve no decoy program, do not load even that
        script = "\n".join([
            "import sys",
            "from mdiqds.scenario import run, scenario_from_dict",
            "def loaded(mode, **config):",
            "    run(scenario_from_dict({'mode': mode, **config}))",
            "    assert 'scipy.optimize' not in sys.modules, mode",
            "    return 'scipy.optimize._highspy._core' in sys.modules",
            "assert not loaded('analytic')",
            "assert not loaded('table-sweep')",
            "assert not loaded('protocol', seed=7, protocol={'trials': 2000})",
            "assert loaded('montecarlo', seed=7, scale_factor=1e6)",
        ])
        package_root = str(Path(scenario_module.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": package_root}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_montecarlo_reduced_scale_completes(self):
        scenario = scenario_from_dict(
            {"mode": "montecarlo", "seed": 11, "scale_factor": 1e6}
        )
        code, payload = run(scenario)
        # at this scale the estimators correctly refuse to emit bounds
        assert code == EXIT_INFEASIBLE
        assert payload["sessions"]["alice_bob"]["n_pulses"] == int(5.58e12 / 1e6)
        assert payload["infeasible_reason"]

    def test_montecarlo_stops_at_first_unusable_link(self, monkeypatch):
        # at scale 1e6 the default link's sessions never have a usable Bell
        # state, so the run ends before the second session is drawn
        calls = {"run_kgp_session": 0, "estimate_yields": 0}
        for name in calls:
            def spy(*args, _name=name, _real=getattr(scenario_module, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(scenario_module, name, spy)
        code, payload = run(scenario_from_dict(
            {"mode": "montecarlo", "seed": 7, "scale_factor": 1e6}
        ))
        assert code == EXIT_INFEASIBLE
        assert calls == {"run_kgp_session": 1, "estimate_yields": 1}
        assert payload["infeasible_reason"].startswith("alice_bob: ")
        assert set(payload) == {
            "mode", "sessions", "yield_estimates", "security", "infeasible_reason",
        }
        assert list(payload["sessions"]) == list(payload["yield_estimates"]) == ["alice_bob"]

    def test_montecarlo_sessions_name_reached_links(self):
        # whatever a seed's outcome, the report lists every link that was
        # drawn, and only those: all of them once a report is built, or the
        # links up to the first one without a usable Bell state
        for seed in range(12):
            code, payload = run(scenario_from_dict(
                {**BRIGHT_LINK, "seed": seed, "scale_factor": 5e4}
            ))
            estimates = payload["yield_estimates"]
            if payload["security"] is None:
                assert code == EXIT_INFEASIBLE
                failed = payload["infeasible_reason"].split(": ")[0]
                reached = list(LINKS[:LINKS.index(failed) + 1])
            else:
                assert code in (EXIT_OK, EXIT_INFEASIBLE)
                reached = list(LINKS)
                assert payload["security"]["per_bell"] == estimates
            assert list(payload["sessions"]) == list(estimates) == reached, seed
            usable = [any(est["usable"] for est in estimates[link].values()) for link in reached]
            assert usable == [True] * (len(reached) - 1) + [payload["security"] is not None]

    def test_montecarlo_crossed_frames_on_ideal_link(self):
        # fully crossed frames, no loss, no dark counts: relay entries that
        # are 0 in exact arithmetic must not reach the session draw negative
        scenario = scenario_from_dict({
            "mode": "montecarlo", "seed": 3, "scale_factor": 1e4,
            "profile": {"distance_km": 0, "detector_efficiency": 1,
                        "dark_count_prob": 0, "misalignment": 1},
        })
        code, _ = run(scenario)
        assert code == EXIT_INFEASIBLE

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
            {"protocol": {"length": -2}},
            {"protocol": {"length": 999}},
            {"protocol": {"length": 1000.5}},
            {"protocol": {"trials": -5}},
            {"protocol": {"trials": 0}},
            {"protocol": {"trials": 10.7}},
            {"protocol": {"honest_error": 1.5}},
            {"protocol": {"e_bar": -0.01}},
            {"protocol": {"p_e": 1.2}},
            {"protocol": {"lenght": 4000}},
            {"protocol": {"trails": 5}},
            {"analytic": {"n_kk": 1}},
            {"analytic": {"n_k0": 5}},
            {"source_a": {"pulse_rate": 2e9}},
            {"source_b": {"pulse_rate": 2e9}},
            {"protocol": {"e_bar": 0.4, "p_e": 0.3}},
            {"target_security": 1e-4},
            {"preset": ["snspd"]},
            {"preset": ""},
            {"analytic": {"n_k": 8_900_000.5}},
            {"analytic": {"r_k": 0}},
            {"analytic": {"n_k": 10, "r_k": 6}},
            {"analytic": {"e_obs": 7}},
            {"analytic": {"e_obs": -0.1}},
            {"analytic": {"h_min_target": 0}},
            {"analytic": {"h_min_target": 1e12}},
        ],
    )
    def test_bad_config_exit_code(self, tmp_path, config):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        result = CliRunner().invoke(main, ["analytic", "--config", str(path)])
        assert result.exit_code == 3, result.output
        assert "validation error" in result.output

    @pytest.mark.parametrize("command", [["tables"], ["protocol", "--seed", "7"]])
    def test_bad_analytic_section_rejected_in_every_mode(self, tmp_path, command):
        # the analytic section checks itself, as the protocol section does,
        # so a mode that does not read it still rejects it
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"analytic": {"n_k": -5, "e_obs": 7}}))
        result = CliRunner().invoke(main, [*command, "--config", str(path)])
        assert result.exit_code == EXIT_VALIDATION, result.output
        assert result.output.startswith("validation error: analytic n_k")

    def test_out_to_missing_directory(self, tmp_path, monkeypatch):
        # rejected before the scenario runs, so a simulation does not compute first
        monkeypatch.setattr("mdiqds.cli.run", lambda scenario: pytest.fail("scenario ran"))
        out = tmp_path / "missing" / "report.json"
        for mode in ("analytic", "simulate"):
            result = CliRunner().invoke(main, [mode, "--seed", "1", "--out", str(out)])
            assert result.exit_code == 3, result.output
            assert result.output.startswith("validation error: ")
            assert result.output.count("\n") == 1

    def test_protocol_long_signature(self, tmp_path):
        # the forging tail sum of a 10^4-bit signature does not fit a float,
        # and no battery holds a trials x length array
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"protocol": {"length": 10_000, "trials": 1_000}}))
        tracemalloc.start()
        try:
            result = CliRunner().invoke(main, ["protocol", "--seed", "3", "--config", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == EXIT_OK, result.output
        assert peak < 4e6, f"protocol run peaked at {peak / 1e6:.1f} MB"
        bound = json.loads(result.output)["checks"]["forging"]["bound"]
        assert 0.0 < bound < 1e-100

    def test_protocol_trials_cap(self, tmp_path):
        # rejected with the config, before any battery allocates its arrays
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"protocol": {"trials": 1e12}}))
        tracemalloc.start()
        try:
            result = CliRunner().invoke(main, ["protocol", "--seed", "3", "--config", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 3, result.output
        assert "validation error" in result.output and "trials" in result.output
        assert peak < 4e6, f"protocol run peaked at {peak / 1e6:.1f} MB"
        scenario_from_dict({"mode": "protocol", "seed": 1, "protocol": {"trials": 10**7}})
        with pytest.raises(ValidationError, match="trials must be at most"):
            scenario_from_dict({"mode": "protocol", "seed": 1,
                                "protocol": {"trials": 10**7 + 1}})

    @pytest.mark.parametrize("n_sig, limit", [(1e16, "2e9 items"), (1e19, "2^63 pulses")])
    def test_simulate_past_sampler_limits(self, tmp_path, n_sig, limit):
        # 1e16 pulses give a signal-signal Z set beyond the exact error draw;
        # 1e19 pulses do not fit the session draw's int64 count
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n_sig": n_sig, "seed": 1}))
        result = CliRunner().invoke(main, ["simulate", "--config", str(path)])
        assert result.exit_code == 3, result.output
        assert result.output.startswith("validation error: ")
        assert limit in result.output

    def test_simulate_rejects_r_fraction_above_a_third(self, tmp_path, monkeypatch):
        # rejected with the config, before the first link's session is drawn
        monkeypatch.setattr("mdiqds.scenario.run_kgp_session",
                            lambda *args, **kwargs: pytest.fail("session drawn"))
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"r_fraction": 0.9}))
        result = CliRunner().invoke(
            main, ["simulate", "--seed", "1", "--scale", "1e3", "--config", str(path)])
        assert result.exit_code == 3, result.output
        assert result.output.startswith("validation error: r_fraction")

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


GOLDEN = Path(__file__).parent / "golden"


def _assert_matches(got, want, where="report"):
    """Floats equal to rel 1e-12, everything else exactly."""
    if type(want) is float:
        assert type(got) is float and got == pytest.approx(want, rel=1e-12), where
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for index, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{index}]")
    else:
        assert type(got) is type(want) and got == want, where


class TestReadmeOutputs:
    """The README's deterministic commands, and one feasible Monte-Carlo run
    whose links give code strings of different lengths, against their
    stored output."""

    def test_analytic(self):
        result = CliRunner().invoke(main, ["analytic"])
        assert result.exit_code == EXIT_OK, result.output
        want = json.loads((GOLDEN / "analytic.json").read_text())
        _assert_matches(json.loads(result.output), want)

    def test_tables_csv(self):
        result = CliRunner().invoke(main, ["tables", "--format", "csv"])
        assert result.exit_code == EXIT_OK, result.output

        def rows(text):
            # the security and detector labels as text, the rest as numbers
            header, *lines = text.splitlines()
            fields = [line.split(",") for line in lines]
            return [header, *([label, name, *map(float, rest)] for label, name, *rest in fields)]

        _assert_matches(rows(result.output), rows((GOLDEN / "tables.csv").read_text()))

    def test_montecarlo_rescales_the_longer_link(self):
        # the links' code strings differ (95,172 and 95,246 bits), so the
        # Alice-Charlie counts are rescaled to the shorter one, and that link
        # sets h_min
        code, payload = run(scenario_from_dict({**BRIGHT_LINK, "seed": 0, "scale_factor": 3e4}))
        assert code == EXIT_OK
        payload = json.loads(render_report(payload))
        want = json.loads((GOLDEN / "montecarlo.json").read_text())
        selected = [payload["yield_estimates"][link]["0"]["n_k"] for link in LINKS]
        assert selected == [95_172, 95_246] and payload["security"]["n_k"] == 95_172
        _assert_matches(payload, want)
