"""The benchmark's workloads.

Each workload is a closed loop with one client: jobs run one after another,
and each job is generated from the workload seed. The package receives only
the generated scenario dicts. Package functions are called through their
module attributes, so the traced run sees every call.

A job times each call into the package, renders its report with the
package's canonical renderer, records the report's sha256 (information for
bit-identity claims, not a gate) and checks the output. The checks are
statistical or banded, so they still hold when a change legitimately alters
the random stream.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import mdiqds.scenario
import mdiqds.security
import mdiqds.session

# Monte-Carlo set sizes must lie within this many standard deviations,
# sqrt(max(expected, 1)), of the closed-form expected_set_sizes.
SET_SIZE_SIGMAS = 6.0

SEARCH_TARGET = 1e-4
# N_sig found by the length search at the benchmark's first commit; a search
# must land within SEARCH_BAND of it (the bisection itself stops at 5%).
SEARCH_REFERENCE = {"standard": 1.94e11, "snspd": 6.01e10}
SEARCH_BAND = 0.10

# Acceptance-criterion-1 worked-example values: (expected, absolute tolerance).
ANALYTIC_REFERENCE = {
    "E_bar": (0.0239, 5e-4),
    "h_min": (8.69e5, 0.02 * 8.69e5),
    "p_E": (0.0302, 5e-4),
    "s_a": (0.0260, 5e-4),
    "s_v": (0.0281, 5e-4),
    "pr_honest_abort": (2.00e-5, 1e-12),
    "pr_forge": (3e-5, 1e-6),
}
REPUDIATION_REFERENCE = 9.857e-5  # the replay must land within a factor 2

# The acceptance-criterion-4 bright link: 1 km, eta_d 0.93, Y_0 1e-6, 1%
# misalignment, and the loose budget that lets desk-scale sessions resolve.
BRIGHT_LINK = {
    "mode": "montecarlo",
    "n_sig": 1.2e12,
    "source": {
        "intensities": {"s": 0.7, "d1": 0.25, "d2": 0.03},
        "intensity_probs": {"s": 0.5, "d1": 0.25, "d2": 0.25},
        "basis_probs": {"Z": 0.5, "X": 0.5},
    },
    "profile": {
        "distance_km": 1.0,
        "loss_coeff_db_per_km": 0.2,
        "detector_efficiency": 0.93,
        "dark_count_prob": 1e-6,
        "misalignment": 0.01,
    },
    "budget": {
        "eps_set": 1e-3, "eps_set_hat": 1e-3, "eps_set_dot": 1e-3,
        "eps_0": 1e-2, "eps_1": 1e-2,
        "eps_k0_serfling": 1e-2, "eps_k1_serfling": 1e-2,
        "eps_ke_x1": 1e-2, "eps_ke_x2": 1e-2, "eps_ke_upsilon": 1e-2,
        "eps_cap": 1e-4,
    },
}


@dataclass
class Outcome:
    """One job: seconds per timed call, report digests, check failures."""

    parts: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    pulses: int = 0


def run_checked(workload, job) -> Outcome:
    """``workload.run(job)``; a job that raises becomes a failed outcome."""
    try:
        return workload.run(job)
    except Exception as exc:  # a failing job is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        return Outcome(problems=[f"{type(exc).__name__}: {exc}"])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _expected_rates(config: dict):
    sc = mdiqds.scenario.scenario_from_dict(config)
    return mdiqds.session.ChannelTables(sc.source_a, sc.source_b, sc.profile).expected_rates()


def _timed_run(out: Outcome, part: str, config: dict, render: bool):
    """``scenario.run`` on ``config`` (and ``render_report`` when ``render``),
    timed as ``part``; the rendered report's digest is recorded either way."""
    start = perf_counter()
    code, payload = mdiqds.scenario.run(mdiqds.scenario.scenario_from_dict(config))
    if render:
        text = mdiqds.scenario.render_report(payload)
    out.parts[part] = perf_counter() - start
    if not render:
        text = mdiqds.scenario.render_report(payload)
    out.digests[part] = _digest(text)
    return code, payload


def _median(values):
    return statistics.median(values) if values else 0.0


def _part_metric(outcomes, part, name):
    values = [o.parts[part] for o in outcomes if part in o.parts]
    return name, (_median(values), "s", len(values))


# -- correctness checks ------------------------------------------------------


def check_report(sec: dict) -> list[str]:
    problems = []
    for key in ("E_bar", "p_E", "s_a", "s_v", "p_F", "pr_honest_abort",
                "pr_repudiation", "pr_forge"):
        if not 0.0 <= sec[key] <= 1.0:
            problems.append(f"{key}={sec[key]} outside [0, 1]")
    if sec["feasible"] and not sec["E_bar"] <= sec["s_a"] <= sec["s_v"] <= sec["p_E"]:
        problems.append(
            f"threshold order E_bar {sec['E_bar']} <= s_a {sec['s_a']} <= "
            f"s_v {sec['s_v']} <= p_E {sec['p_E']} violated"
        )
    return problems


def check_montecarlo(code: int, payload: dict, rates) -> list[str]:
    problems = [] if code in (0, 2) else [f"exit code {code}, expected 0 or 2"]
    sessions = payload.get("sessions", {})
    if not sessions:
        problems.append("no session in the report")
    for name, session in sessions.items():
        expected = rates.expected_set_sizes(session["n_pulses"])
        for key, basis in (("z_set_sizes", "Z"), ("x_set_sizes", "X")):
            observed = np.asarray(session[key], dtype=float)
            sigma = np.sqrt(np.maximum(expected[basis], 1.0))
            worst = float(np.max(np.abs(observed - expected[basis]) / sigma))
            if worst > SET_SIZE_SIGMAS:
                problems.append(f"{name} {key} off expectation by {worst:.1f} sigma")
    if payload.get("security"):
        problems += check_report(payload["security"])
    return problems


def check_analytic(code: int, payload: dict) -> list[str]:
    problems = [] if code == 0 else [f"analytic exit code {code}"]
    sec = payload["security"]
    for key, (want, tol) in ANALYTIC_REFERENCE.items():
        if abs(sec[key] - want) > tol:
            problems.append(f"analytic {key}={sec[key]}, expected {want} +- {tol}")
    ratio = sec["pr_repudiation"] / REPUDIATION_REFERENCE
    if not 0.5 < ratio < 2.0:
        problems.append(f"analytic pr_repudiation {sec['pr_repudiation']} off by {ratio:.2f}x")
    return problems


def check_protocol(code: int, payload: dict) -> list[str]:
    problems = [] if code == 0 else [f"protocol exit code {code}"]
    problems += [f"protocol check {k} not ok" for k, c in payload["checks"].items()
                 if not c["ok"]]
    return problems


def check_tables(code: int, payload: dict) -> list[str]:
    problems = [] if code == 0 else [f"tables exit code {code}"]
    rows = payload["rows"]
    if not rows:
        problems.append("tables produced no rows")
    problems += [f"tables row {r['security']}/{r['detector']} does not match print"
                 for r in rows if not r["matches_printed"]]
    return problems


# -- workloads ---------------------------------------------------------------


class McBright:
    """``scenario.run`` in montecarlo mode on the bright link: 20.8% of
    pulses take the session engine's heavy path, and at scale 3e4 both
    sessions reach ``estimate_yields`` and ``build_security_report``."""

    name = "mc-bright"

    def __init__(self, tiny: bool):
        self.scale = 3e6 if tiny else 3e4
        self.rates = _expected_rates({**BRIGHT_LINK, "seed": 0})

    def make_job(self, rng) -> dict:
        return {"seed": int(rng.integers(2**32))}

    def run(self, job: dict) -> Outcome:
        out = Outcome()
        config = {**BRIGHT_LINK, "seed": job["seed"], "scale_factor": self.scale}
        code, payload = _timed_run(out, "montecarlo", config, render=False)
        out.pulses = sum(s["n_pulses"] for s in payload.get("sessions", {}).values())
        out.problems += check_montecarlo(code, payload, self.rates)
        return out

    def named(self, outcomes: list[Outcome]) -> dict:
        done = [o for o in outcomes if "montecarlo" in o.parts]
        rates = [o.pulses / o.parts["montecarlo"] for o in done]
        return dict([
            _part_metric(outcomes, "montecarlo", "mc_job_s"),
            ("mc_pulses_per_s", (_median(rates), "1/s", len(rates))),
        ])


class Search:
    """Fresh ``ChannelTables``, ``expected_rates`` and a length search at
    target 1e-4 for two presets: ``standard`` is bound by the decoy LPs,
    ``snspd`` by the event lists of ``expected_sifted_data``.
    ``ingaas-inp-apd`` is excluded: one search takes ~120 s and ~5.5 GB."""

    name = "search"
    presets = ("standard", "snspd")

    def __init__(self, tiny: bool):
        self.scenarios = {p: mdiqds.scenario.scenario_from_dict({"preset": p})
                          for p in self.presets}

    def make_job(self, rng) -> dict:
        return {"order": [self.presets[i] for i in rng.permutation(len(self.presets))]}

    def run(self, job: dict) -> Outcome:
        out = Outcome()
        for preset in job["order"]:
            sc = self.scenarios[preset]
            start = perf_counter()
            tables = mdiqds.session.ChannelTables(sc.source_a, sc.source_b, sc.profile)
            tables.expected_rates()
            result = mdiqds.security.signature_length_search(
                sc.source_a, sc.source_b, sc.profile, sc.budget, SEARCH_TARGET,
                pulse_rate=sc.source_b.pulse_rate, zeta=sc.zeta,
                r_fraction=sc.r_fraction, tables=tables,
            )
            out.parts[preset] = perf_counter() - start
            out.digests[preset] = _digest(mdiqds.scenario.render_report(
                {"preset": preset, "n_sig": result.n_sig,
                 "security": result.report.to_dict()}
            ))
            if not result.report.meets_target(SEARCH_TARGET):
                out.problems.append(f"{preset} search result misses {SEARCH_TARGET}")
            drift = result.n_sig / SEARCH_REFERENCE[preset] - 1.0
            if abs(drift) > SEARCH_BAND:
                out.problems.append(f"{preset} N_sig {result.n_sig:.3e} is {drift:+.1%} "
                                    f"from {SEARCH_REFERENCE[preset]:.3e}")
        return out

    def named(self, outcomes: list[Outcome]) -> dict:
        return dict(_part_metric(outcomes, p, f"search_s.{p}") for p in self.presets)


class CliModes:
    """What ``mdiqds simulate|protocol|analytic|tables`` do after argument
    parsing: ``scenario.run`` then ``render_report``. ``simulate`` runs the
    50 km standard link at 1e8 pulses per session (0.29% heavy, exit 2);
    ``protocol`` runs the default 10^4-trial batteries."""

    name = "cli-modes"

    def __init__(self, tiny: bool):
        self.scale = 5.58e6 if tiny else 5.58e4
        self.protocol = {"trials": 1_000} if tiny else {}
        self.rates = _expected_rates({"mode": "montecarlo", "seed": 0})

    def make_job(self, rng) -> dict:
        seeds = rng.integers(2**32, size=2)
        return {"simulate_seed": int(seeds[0]), "protocol_seed": int(seeds[1])}

    def run(self, job: dict) -> Outcome:
        out = Outcome()
        code, payload = _timed_run(out, "simulate", {
            "mode": "montecarlo", "seed": job["simulate_seed"], "scale_factor": self.scale,
        }, render=True)
        out.problems += check_montecarlo(code, payload, self.rates)
        code, payload = _timed_run(out, "protocol", {
            "mode": "protocol", "seed": job["protocol_seed"], "protocol": self.protocol,
        }, render=True)
        out.problems += check_protocol(code, payload)
        code, payload = _timed_run(out, "analytic", {"mode": "analytic"}, render=True)
        out.problems += check_analytic(code, payload)
        code, payload = _timed_run(out, "tables", {"mode": "table-sweep"}, render=True)
        out.problems += check_tables(code, payload)
        return out

    def named(self, outcomes: list[Outcome]) -> dict:
        return dict(_part_metric(outcomes, mode, f"cli.{mode}_s")
                    for mode in ("simulate", "protocol", "analytic", "tables"))


WORKLOADS = {w.name: w for w in (McBright, Search, CliModes)}

