"""Scenario configuration, validation, and orchestration of the four run
modes: analytic replay, Monte-Carlo pipeline, protocol trials, table sweep."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import presets, protocol
from .errors import (
    DegenerateSessionError,
    DomainError,
    InfeasibleBoundsError,
    ValidationError,
)
from .estimation import ErrorBudget, YieldEstimate, estimate_yields, true_error_upper_bound
from .security import (LINKS, build_security_report, choose_thresholds, link_report,
                       repudiation_bound)
from .session import ChannelTables, run_kgp_session
from .sources import DecoySourceConfig, SystemProfile

# run mode -> whether it draws random numbers, and so needs a seed; mode m
# runs run_m (with "-" read as "_"), looked up when run() is called
MODES = {"analytic": False, "montecarlo": True, "protocol": True, "table-sweep": False}
FORMATS = ("json", "csv")

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_VALIDATION = 3


@dataclass
class Scenario:
    """One fully resolved run configuration."""

    source_a: DecoySourceConfig
    source_b: DecoySourceConfig
    profile: SystemProfile
    budget: ErrorBudget
    mode: str = "analytic"
    seed: int | None = None
    output_format: str = "json"
    scale_factor: float = 1.0
    r_fraction: float = presets.DEFAULT_R_FRACTION
    zeta: float = presets.DEFAULT_ZETA
    n_sig: float = 5.58e12
    analytic: dict = field(default_factory=dict)
    protocol_params: dict = field(default_factory=dict)

    def __post_init__(self):
        modes = tuple(MODES)  # a tuple, so an unhashable mode is rejected too
        if self.mode not in modes:
            raise ValidationError(f"mode must be one of {modes}, got {self.mode!r}")
        if self.output_format not in FORMATS:
            raise ValidationError(f"format must be one of {FORMATS}")
        if self.output_format == "csv" and self.mode != "table-sweep":
            raise ValidationError("format csv is only available for the table sweep")
        if self.scale_factor < 1:
            raise ValidationError("scale_factor must be >= 1")
        if MODES[self.mode] and self.seed is None:
            raise ValidationError(f"{self.mode} mode requires a seed")
        if self.seed is not None and not (self.seed >= 0 and self.seed == int(self.seed)):
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed}")
        if not 0.0 < self.r_fraction < 1.0:
            raise ValidationError("r_fraction must lie in (0,1)")
        if not 1.0 <= self.zeta <= 2.0:
            raise ValidationError("zeta must lie in [1,2]")
        if not self.n_sig > 0:
            raise ValidationError("n_sig must be positive")


# scenario-file key -> Scenario field, for the fields taken as they are given
_SCENARIO_FIELDS = {
    "mode": "mode", "seed": "seed", "format": "output_format", "scale_factor": "scale_factor",
    "r_fraction": "r_fraction", "zeta": "zeta", "n_sig": "n_sig",
}

# worked-example parameters for the analytic replay
_ANALYTIC_DEFAULTS = {
    "n_k": 8_900_000,
    "r_k": 518_000,
    "e_obs": 0.0207,
    "h_min_target": 8.69e5,
}
# the optional vacuum/single-photon split that replaces h_min_target
_ANALYTIC_KEYS = _ANALYTIC_DEFAULTS.keys() | {"n_k0", "n_k1", "e_k1"}

_PROTOCOL_DEFAULTS = {
    "length": 1000,
    "e_bar": 0.05,
    "p_e": 0.35,
    "honest_error": 0.05,
    "trials": 10_000,
}
_MAX_TRIALS = 10**7


def _numbers(payload, where: str, keys=None) -> dict:
    """``payload``, once it is an object whose ``keys`` (all by default) that
    it holds are finite numbers (Python's JSON reader also accepts NaN and
    Infinity)."""
    if not isinstance(payload, dict):
        raise ValidationError(f"{where} must be a JSON object, got {payload!r}")
    for key in payload.keys() if keys is None else payload.keys() & keys:
        value = payload[key]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and math.isfinite(value)):
            raise ValidationError(f"{where} field {key!r} must be a finite number, got {value!r}")
    return payload


def _known(payload: dict, known, where: str) -> dict:
    """``payload``, once every key it holds is in ``known``."""
    unknown = payload.keys() - known
    if unknown:
        raise ValidationError(f"unknown {where} fields {sorted(unknown)}")
    return payload


def _build_protocol(payload: dict) -> dict:
    """The protocol parameters over their defaults, checked before any run."""
    params = {**_PROTOCOL_DEFAULTS,
              **_known(_numbers(payload, "protocol"), _PROTOCOL_DEFAULTS, "protocol")}
    for key in ("length", "trials"):
        if not (params[key] > 0 and params[key] == int(params[key])):
            raise ValidationError(f"protocol {key} must be a positive integer, "
                                  f"got {params[key]!r}")
    if params["length"] % 2 == 1:
        raise ValidationError(f"protocol length must be even, got {params['length']!r}")
    # each battery holds (4, trials) int64 arrays, ~33 MB per 10^6 trials
    if params["trials"] > _MAX_TRIALS:
        raise ValidationError(f"protocol trials must be at most {_MAX_TRIALS}, "
                              f"got {params['trials']!r}")
    for key in ("honest_error", "e_bar", "p_e"):
        if not 0.0 <= params[key] <= 1.0:
            raise ValidationError(f"protocol {key} must lie in [0,1], got {params[key]!r}")
    if not params["e_bar"] < params["p_e"]:
        raise ValidationError("protocol scenario needs e_bar < p_e")
    return params


def _build_source(payload: dict) -> DecoySourceConfig:
    """The default source with the fields that ``payload`` names replaced; a
    dict field is merged key by key."""
    merged = asdict(presets.default_source_config())
    for key, value in _known(_numbers(payload, "source", {"pulse_rate"}), merged,
                             "source").items():
        if isinstance(merged[key], dict):
            value = {**merged[key], **_numbers(value, key)}
        merged[key] = value
    return DecoySourceConfig(**merged)


def _override(base, payload: dict, where: str):
    """``base`` with the fields that ``payload`` names replaced, once every
    key is a field and every value a finite number."""
    known = {f.name for f in fields(base)}
    return replace(base, **_known(_numbers(payload, where), known, where))


def scenario_from_dict(raw: dict, preset: str | None = None) -> Scenario:
    """Validate a configuration dictionary and apply the worked-example
    defaults to everything left unspecified."""
    if not isinstance(raw, dict):
        raise ValidationError("scenario must be a JSON object")
    _known(raw, _SCENARIO_FIELDS.keys() | {
        "source", "source_a", "source_b", "profile", "budget", "preset", "analytic", "protocol",
    }, "scenario")
    _numbers({k: v for k, v in raw.items() if v is not None}, "scenario",
             {"seed", "scale_factor", "r_fraction", "zeta", "n_sig"})
    preset = raw.get("preset", preset)
    shared = _numbers(raw.get("source", {}), "source", ())
    source_a = _build_source({**shared, **_numbers(raw.get("source_a", {}), "source_a", ())})
    source_b = _build_source({**shared, **_numbers(raw.get("source_b", {}), "source_b", ())})
    try:
        return Scenario(
            source_a=source_a,
            source_b=source_b,
            profile=_override(presets.profile_for_preset(preset or "standard"),
                              raw.get("profile", {}), "profile"),
            budget=_override(ErrorBudget(), raw.get("budget", {}), "budget"),
            **{name: raw[key] for key, name in _SCENARIO_FIELDS.items() if key in raw},
            analytic={**_ANALYTIC_DEFAULTS, **_known(
                _numbers(raw.get("analytic", {}), "analytic"), _ANALYTIC_KEYS, "analytic")},
            protocol_params=_build_protocol(raw.get("protocol", {})),
        )
    except (ValidationError, DomainError) as exc:
        raise ValidationError(str(exc)) from exc


def read_scenario_file(path: str | Path) -> dict:
    """The configuration dictionary stored in a scenario JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ValidationError(f"scenario file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ValidationError("scenario must be a JSON object")
    return raw


def render_report(payload: dict) -> str:
    """Canonical JSON rendering: byte-identical for identical payloads."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=True) + "\n"


# -- run modes ---------------------------------------------------------------


def run_analytic(scenario: Scenario) -> tuple[int, dict]:
    """Replay the security pipeline from published or configured inputs."""
    params = scenario.analytic
    budget = scenario.budget
    n_k = int(params["n_k"])
    r_k = int(params["r_k"])
    n_half = n_k // 2
    if "n_k0" in params or "n_k1" in params:
        n_k0 = int(params.get("n_k0", 0))
        n_k1 = int(params.get("n_k1", 0))
        e_k1 = float(params.get("e_k1", 0.0))
    else:
        # recover the count rate from the published min-entropy: feed it
        # entirely through the vacuum term, which the entropy bound treats
        # identically to any split with e_k1 = 0
        n_k0 = round(float(params["h_min_target"]))
        n_k1 = 0
        e_k1 = 0.0
    est = YieldEstimate(
        bell=0,
        budget=budget,
        n_k=n_k,
        r_k=r_k,
        e_obs=float(params["e_obs"]),
        e_upper=true_error_upper_bound(float(params["e_obs"]), n_half, r_k, budget.eps_pe),
        n_k0=n_k0,
        n_k1=n_k1,
        e_k1=e_k1,
        validity_ok=True,
        usable=True,
    )
    report = build_security_report(
        dict.fromkeys(LINKS, (est, n_k + r_k)), budget, n_sig=scenario.n_sig,
        pulse_rate=scenario.source_b.pulse_rate, zeta=scenario.zeta,
    )
    payload = {"mode": scenario.mode, "security": report.to_dict()}
    return (EXIT_OK if report.feasible else EXIT_INFEASIBLE), payload


def run_montecarlo(scenario: Scenario) -> tuple[int, dict]:
    """Simulate the key-generation links at the scaled budget and push the
    sifted data through the estimation and security chain, up to the first
    link that has no usable Bell state."""
    pulses = max(int(scenario.n_sig / scenario.scale_factor), 1)
    tables = ChannelTables(scenario.source_a, scenario.source_b, scenario.profile)
    results = {}
    sessions = {}
    for index, name in enumerate(LINKS):
        sifted = run_kgp_session(tables, pulses, seed=int(scenario.seed) + index)
        sessions[name] = {
            "n_pulses": sifted.n_pulses,
            "z_set_sizes": sifted.z_counts.tolist(),
            "x_set_sizes": sifted.x_counts.tolist(),
        }
        results[name] = estimate_yields(
            sifted,
            scenario.source_a,
            scenario.source_b,
            scenario.budget,
            r_fraction=scenario.r_fraction,
            seed=int(scenario.seed) + index,
        )
        if not results[name].usable:
            break  # link_report names this link; the next session is not drawn
    details = {name: result.to_dict() for name, result in results.items()}
    try:
        report = link_report(results, scenario.budget, n_sig=float(pulses),
                             pulse_rate=scenario.source_b.pulse_rate, zeta=scenario.zeta)
    except DegenerateSessionError as exc:
        return EXIT_INFEASIBLE, {"mode": scenario.mode, "sessions": sessions,
                                 "yield_estimates": details, "security": None,
                                 "infeasible_reason": str(exc)}
    payload = {
        "mode": scenario.mode,
        "scale_factor": scenario.scale_factor,
        "sessions": sessions,
        "yield_estimates": details,
        "security": report.to_dict(),
    }
    return (EXIT_OK if report.feasible else EXIT_INFEASIBLE), payload


def run_protocol(scenario: Scenario) -> tuple[int, dict]:
    """Monte-Carlo protocol trials against the analytic bounds."""
    params = scenario.protocol_params
    length = int(params["length"])
    s_a, s_v = choose_thresholds(float(params["e_bar"]), float(params["p_e"]))
    trials = int(params["trials"])
    honest_error = float(params["honest_error"])
    seed = int(scenario.seed)

    honest = protocol.simulate_honest_batch(
        length, honest_error, s_a, s_v, trials, seed
    )
    repudiation_rate = protocol.simulate_repudiating_alice(
        (s_a + s_v) / 2.0, (s_a + s_v) / 2.0, length, s_a, s_v, trials, seed + 1
    )
    forge_rate = protocol.simulate_forging_bob(length, s_v, trials, seed + 2)

    half = length // 2
    abort_margin = s_a - honest_error
    abort_bound = 2.0 * math.exp(-2.0 * abort_margin**2 * half) if abort_margin > 0 else 1.0
    transfer_bound = repudiation_bound(s_a, s_v, length)[0]
    forge_bound = protocol.forging_success_probability(length, s_v)

    def entry(rate, bound):
        sigma = math.sqrt(max(rate * (1 - rate), 1.0 / trials) / trials)
        return {
            "empirical": rate,
            "bound": bound,
            "ok": rate <= bound + 3.0 * sigma,
        }

    checks = {
        "honest_abort": entry(honest["abort_rate"], abort_bound),
        "transfer_failure": entry(honest["transfer_failure_rate"], transfer_bound),
        "repudiation": entry(repudiation_rate, transfer_bound),
        "forging": entry(forge_rate, forge_bound),
    }
    payload = {
        "mode": scenario.mode,
        "length": length,
        "s_a": s_a,
        "s_v": s_v,
        "trials": trials,
        "checks": checks,
        "sample_transcript": protocol.simulate_honest_run(
            length, honest_error, honest_error, s_a, s_v, seed + 3
        ),
    }
    ok = all(c["ok"] for c in checks.values())
    return (EXIT_OK if ok else EXIT_INFEASIBLE), payload


def run_table_sweep(scenario: Scenario) -> tuple[int, dict]:
    """Replay the published raw-key-time arithmetic for every benchmark row."""
    rows = []
    all_ok = True
    for label, benchmark in presets.BENCHMARKS.items():
        for row in benchmark:
            preset = presets.DETECTOR_PRESETS[row.detector]
            minutes = presets.benchmark_minutes(row)
            tolerance = 10.0 ** (-row.printed_decimals)
            ok = abs(minutes - row.t_r_minutes) < tolerance
            all_ok &= ok
            rows.append(
                {
                    "security": label,
                    "detector": row.detector,
                    "eta_d": preset.detector_efficiency,
                    "y_0": preset.dark_count_prob,
                    "n_sig": row.n_sig,
                    "t_r_minutes": minutes,
                    "t_r_minutes_printed": row.t_r_minutes,
                    "matches_printed": ok,
                }
            )
    return (EXIT_OK if all_ok else EXIT_INFEASIBLE), {"mode": scenario.mode, "rows": rows}


def table_rows_to_csv(rows: list[dict]) -> str:
    header = "security,detector,eta_d,y_0,n_sig,t_r_minutes"
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['security']},{row['detector']},{row['eta_d']},{row['y_0']},"
            f"{row['n_sig']},{row['t_r_minutes']}"
        )
    return "\n".join(lines) + "\n"


def run(scenario: Scenario) -> tuple[int, dict]:
    """Dispatch one scenario; returns (exit_code, report payload)."""
    runner = globals()["run_" + scenario.mode.replace("-", "_")]
    try:
        return runner(scenario)
    except InfeasibleBoundsError as exc:
        return EXIT_INFEASIBLE, {"mode": scenario.mode, "infeasible_reason": str(exc)}
