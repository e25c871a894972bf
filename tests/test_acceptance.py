"""Acceptance suite: every gate at its stated tolerance, one line per gate.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines; each criterion also asserts, so a silent green run is a full pass.
"""

import math
import time

import numpy as np
import pytest

from mdiqds.entropy import binary_entropy, binomial_tail_log2, inverse_binary_entropy
from mdiqds.estimation import DecoyPrograms, ErrorBudget, estimate_yields, photon_population
from mdiqds.protocol import (
    simulate_forging_bob,
    simulate_honest_batch,
    simulate_repudiating_alice,
)
from mdiqds.scenario import EXIT_OK, run, scenario_from_dict
from mdiqds.security import min_entropy_bound
from mdiqds.session import ChannelTables, run_kgp_session
from mdiqds.sources import DecoySourceConfig, SystemProfile

from fock_oracle import outcome_probs
from test_protocol import (
    exact_forging,
    exact_honest_abort,
    exact_repudiation,
    binom_cdf,
)
from test_relay import CONFIG, IDEAL, announce


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion} {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_analytic_replay():
    """Worked-example numbers from the analytic pipeline, under 5 s."""
    start = time.time()
    code, payload = run(scenario_from_dict({"mode": "analytic"}))
    sec = payload["security"]
    checks = {
        "E_bar": abs(sec["E_bar"] - 0.0239) < 5e-4,
        "h_min": abs(sec["h_min"] - 8.69e5) < 0.02 * 8.69e5,
        "p_E": abs(sec["p_E"] - 0.0302) < 5e-4,
        "s_a": abs(sec["s_a"] - 0.0260) < 5e-4,
        "s_v": abs(sec["s_v"] - 0.0281) < 5e-4,
        "abort": sec["pr_honest_abort"] == 2.00e-5,
        "forge": abs(sec["pr_forge"] - 3e-5) < 1e-6,
        "repudiation": 0.5 < sec["pr_repudiation"] / 9.857e-5 < 2.0,
        "exit": code == EXIT_OK,
    }
    elapsed = time.time() - start
    ok = all(checks.values()) and elapsed < 5.0
    report(
        1,
        ok,
        f"analytic replay in {elapsed:.2f}s; "
        f"E_bar={sec['E_bar']:.4f} h_min={sec['h_min']:.3e} p_E={sec['p_E']:.4f} "
        f"s_a={sec['s_a']:.4f} s_v={sec['s_v']:.4f} abort={sec['pr_honest_abort']:.2e} "
        f"forge={sec['pr_forge']:.2e} rep={sec['pr_repudiation']:.2e}; "
        f"failed={[k for k, v in checks.items() if not v]}",
    )


def test_criterion_2_table_replay():
    """Published raw-key times from the printed pulse counts, under 1 s."""
    start = time.time()
    code, payload = run(scenario_from_dict({"mode": "table-sweep"}))
    minutes = {
        (row["security"], row["detector"]): row["t_r_minutes"] for row in payload["rows"]
    }
    printed = {
        ("1e-5", "standard"): 93, ("1e-5", "ingaas-apd"): 30,
        ("1e-5", "ingaas-inp-apd"): 14.5, ("1e-5", "snspd"): 1.6,
        ("1e-10", "standard"): 175, ("1e-10", "ingaas-apd"): 55.83,
        ("1e-10", "ingaas-inp-apd"): 27.1, ("1e-10", "snspd"): 3,
    }
    ok = code == EXIT_OK and all(row["matches_printed"] for row in payload["rows"])
    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    shown = {k: round(minutes[k], 3) for k in printed}
    report(2, ok, f"table sweep in {elapsed:.2f}s; minutes={shown}")


def test_criterion_3_relay_physics_oracle():
    """Brute-force network evolution vs Monte-Carlo announcements, <1 min.

    Announcements are drawn as the per-pulse reference sampler of the
    session tests draws them: one uniform per shot against the
    (P(psi_minus), P(psi_plus)) relay-table entry of the input.
    """
    start = time.time()
    tables = ChannelTables(CONFIG, CONFIG, IDEAL)
    rng = np.random.default_rng(2024)
    # relay-table polarization indices: H = 0, V = 1; one photon per side
    inputs = {
        "HV": (0, 1, [("a", "H"), ("b", "V")], 500_000),
        "HH": (0, 0, [("a", "H"), ("b", "H")], 250_000),
        "VV": (1, 1, [("a", "V"), ("b", "V")], 250_000),
    }
    lines = []
    ok = True
    for name, (pol_a, pol_b, photons, shots) in inputs.items():
        want_minus, want_plus, _ = outcome_probs(photons, eta=1.0, dark=0.0)
        tally = dict(zip(("minus", "plus", "fail"),
                         announce(tables, pol_a, 1, pol_b, 1, shots, rng).tolist()))
        for result, want in (("minus", want_minus), ("plus", want_plus)):
            sigma = math.sqrt(max(shots * want * (1 - want), 1.0))
            if abs(tally[result] - shots * want) > 3 * sigma:
                ok = False
        if name in ("HH", "VV"):
            ok = ok and tally["fail"] == shots and want_minus == 0 and want_plus == 0
        else:
            ok = ok and tally["fail"] == 0
            ok = ok and want_minus == pytest.approx(0.5) and want_plus == pytest.approx(0.5)
        lines.append(f"{name}: minus={tally['minus']} plus={tally['plus']} "
                     f"fail={tally['fail']} of {shots}")
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    report(3, ok, f"relay oracle in {elapsed:.1f}s; " + "; ".join(lines))


# the short bright link of criterion 4, where the population program
# resolves at desk statistics, and its deliberately loose budget, so that
# the consistency tests carry content
BRIGHT_CONFIG = DecoySourceConfig(
    intensities={"s": 0.7, "d1": 0.25, "d2": 0.03},
    intensity_probs={"s": 0.5, "d1": 0.25, "d2": 0.25},
    basis_probs={"Z": 0.5, "X": 0.5},
)
BRIGHT_PROFILE = SystemProfile(
    distance_km=1.0, loss_coeff_db_per_km=0.2,
    detector_efficiency=0.93, dark_count_prob=1e-6, misalignment=0.01,
)
LOOSE_BUDGET = ErrorBudget(
    eps_set=1e-3, eps_set_hat=1e-3, eps_set_dot=1e-3,
    eps_0=1e-2, eps_1=1e-2, eps_k0_serfling=1e-2, eps_k1_serfling=1e-2,
    eps_ke_x1=1e-2, eps_ke_x2=1e-2, eps_ke_upsilon=1e-2, eps_cap=1e-4,
)


def binomial_99(n, p):
    """Smallest t with P(Bin(n, p) > t) <= 0.01."""
    cum, t = 0.0, 0
    for k in range(n + 1):
        cum += math.comb(n, k) * p**k * (1 - p) ** (n - k)
        if cum >= 0.99:
            t = k
            break
    return t


def single_pair_error_rate(sifted, bell):
    """True error rate of the signal-signal X single-photon pairs, or None
    when the set holds none."""
    singles = sifted.population[bell, 1, 0, 0, 1, 1]
    return sifted.error_population[bell, 1, 0, 0, 1, 1] / singles if singles else None


def test_criterion_4_estimator_soundness():
    """200 seeded reduced-scale sessions; bound violations consistent with
    the epsilon budgets (one-sided binomial test at 99%), under 10 min.

    Sessions model a 1.2e12-pulse run at scale factor 1e5 on the short
    bright link with the loose budget.  The phase-error bound is checked
    whenever the X statistics support it; sessions that correctly refuse to
    emit a bound cannot violate one.
    """
    start = time.time()
    config, budget = BRIGHT_CONFIG, LOOSE_BUDGET
    tables = ChannelTables(config, config, BRIGHT_PROFILE)
    programs = DecoyPrograms(photon_population(config, config))
    sessions = 200
    pulses = 12_000_000  # 1.2e12 / scale 1e5
    violations = {"n_k0": 0, "n_k1": 0, "e_k1": 0}
    trials = {"n_k0": 0, "n_k1": 0, "e_k1": 0}
    resolved_n_k1 = 0
    for i in range(sessions):
        sifted = run_kgp_session(tables, pulses, seed=40_000 + i)
        result = estimate_yields(sifted, programs, budget, seed=40_000 + i)
        keep_rng = np.random.default_rng(40_000 + i)
        for bell, est in result.estimates.items():
            if est.abort_reason and est.m_k0 == est.m_k1 == 0.0:
                continue  # set too small or population LP failed: no n_k0/n_k1 bounds
            # the bounds hold for a uniformly random keep half of the code
            # string: a draw without replacement from its (n, m) population
            keep = keep_rng.multivariate_hypergeometric(
                sifted.population[bell, 0, 0, 0].ravel(), est.n_half
            ).reshape(sifted.population.shape[-2:])
            true_vacuum = int(keep[:, 0].sum())
            true_single = int(keep[1, 1])
            trials["n_k0"] += 1
            trials["n_k1"] += 1
            violations["n_k0"] += est.n_k0 > true_vacuum
            violations["n_k1"] += est.n_k1 > true_single
            resolved_n_k1 += est.n_k1 > 0
            if est.usable:
                true_error = single_pair_error_rate(sifted, bell)
                if true_error is not None:
                    trials["e_k1"] += 1
                    violations["e_k1"] += est.e_k1 < true_error
    budgets = {"n_k0": budget.eps_k0, "n_k1": budget.eps_k1, "e_k1": budget.eps_ke}

    ok = resolved_n_k1 > 0.9 * trials["n_k1"]  # the design must emit real bounds
    detail = []
    for name in ("n_k0", "n_k1", "e_k1"):
        if trials[name] == 0:
            detail.append(f"{name}: no bounds emitted")
            continue
        threshold = binomial_99(trials[name], budgets[name])
        ok = ok and violations[name] <= threshold
        detail.append(
            f"{name}: {violations[name]}/{trials[name]} violations "
            f"(99% allows {threshold} at eps={budgets[name]:.3g})"
        )
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    report(4, ok, f"{sessions} sessions of {pulses:.2g} pulses in {elapsed:.0f}s; "
                  + "; ".join(detail))


def test_phase_error_soundness():
    """The phase-error bound e_k1 of criterion 4, at 1.2e8 pulses per
    session, where the X-basis program resolves: e_k1 is emitted in most
    sessions, and its violations stay within the one-sided binomial 99%
    allowance at eps_ke."""
    config, budget = BRIGHT_CONFIG, LOOSE_BUDGET
    tables = ChannelTables(config, config, BRIGHT_PROFILE)
    programs = DecoyPrograms(photon_population(config, config))
    sessions, pulses = 200, 120_000_000
    trials = emitted = violations = 0
    for i in range(sessions):
        sifted = run_kgp_session(tables, pulses, seed=50_000 + i)
        result = estimate_yields(sifted, programs, budget, seed=50_000 + i)
        for bell, est in result.estimates.items():
            trials += 1
            true_error = single_pair_error_rate(sifted, bell)
            if est.usable and true_error is not None:
                emitted += 1
                violations += est.e_k1 < true_error
    threshold = binomial_99(emitted, budget.eps_ke)
    print(f"\nphase error: e_k1 emitted {emitted}/{trials}, {violations} violations "
          f"(99% allows {threshold} at eps={budget.eps_ke:.3g})")
    assert emitted > 0.9 * trials
    assert violations <= threshold


def test_criterion_5_protocol_bound_conformance():
    """Empirical abort/repudiation/forging vs analytic bounds at L = 1000
    over 1e4 trials, plus exact-oracle agreement at L <= 30, under 10 min."""
    start = time.time()
    length, trials = 1000, 10_000
    e_bar_desk, p_e_desk = 0.05, 0.35
    gap = p_e_desk - e_bar_desk
    s_a, s_v = e_bar_desk + gap / 3.0, e_bar_desk + 2.0 * gap / 3.0
    half = length // 2

    def slack(rate):
        return 3.0 * math.sqrt(max(rate * (1 - rate), 1.0 / trials) / trials)

    ok = True
    detail = []

    # honest abort, against the sampling bound scaled to the realized
    # per-half failure probability (the exact binomial oracle)
    for error_rate in (e_bar_desk, 0.14):
        stats = simulate_honest_batch(length, error_rate, s_a, s_v, trials, seed=91)
        eps_pe_empirical = 1.0 - binom_cdf(math.ceil(s_a * half) - 1, half, error_rate)
        bound = min(2.0 * eps_pe_empirical, 1.0)
        ok = ok and stats["abort_rate"] <= bound + slack(stats["abort_rate"])
        detail.append(f"abort(E={error_rate}): {stats['abort_rate']:.4f} <= {bound:.4f}")

    # transferability of honest runs against the repudiation bound
    stats = simulate_honest_batch(length, e_bar_desk, s_a, s_v, trials, seed=92)
    rep_bound = 2.0 * math.exp(-0.25 * (s_v - s_a) ** 2 * length)
    ok = ok and stats["transfer_failure_rate"] <= rep_bound + slack(
        stats["transfer_failure_rate"]
    )

    # optimal planted-error repudiation
    e_plant = (s_a + s_v) / 2.0
    rep_rate = simulate_repudiating_alice(e_plant, e_plant, length, s_a, s_v, trials, seed=93)
    ok = ok and rep_rate <= rep_bound + slack(rep_rate)
    detail.append(f"repudiation: {rep_rate:.5f} <= {rep_bound:.5f}")

    # forging by copying the forwarded half, against the guessing tail
    forge_rate = simulate_forging_bob(length, s_v, trials, seed=94)
    forge_bound = min(
        sum(math.comb(half, m) for m in range(max(math.ceil(s_v * half) - 1, 0) + 1))
        * 2.0**-half,
        1.0,
    )
    ok = ok and forge_rate <= forge_bound + slack(forge_rate)
    detail.append(f"forging: {forge_rate:.2e} <= {forge_bound:.2e}")

    # exact enumeration oracles at L <= 30
    oracle_length, oracle_trials = 24, 20_000
    o_sa, o_sv, o_err = 0.35, 0.4, 0.25
    abort = simulate_honest_batch(oracle_length, o_err, o_sa, 0.6, oracle_trials, seed=95)
    want = exact_honest_abort(oracle_length, o_err, o_sa)
    ok = ok and abs(abort["abort_rate"] - want) <= 3 * math.sqrt(want * (1 - want) / oracle_trials)
    rep = simulate_repudiating_alice(o_err, o_err, oracle_length, o_sa, o_sv, oracle_trials, seed=96)
    want_rep = exact_repudiation(oracle_length, o_err, o_err, o_sa, o_sv)
    ok = ok and abs(rep - want_rep) <= 3 * math.sqrt(want_rep * (1 - want_rep) / oracle_trials)
    forge = simulate_forging_bob(oracle_length, o_sv, oracle_trials, seed=97)
    want_forge = exact_forging(oracle_length, o_sv)
    ok = ok and abs(forge - want_forge) <= 3 * math.sqrt(
        want_forge * (1 - want_forge) / oracle_trials
    )
    detail.append(
        f"oracles(L=24): abort {abort['abort_rate']:.4f}~{want:.4f}, "
        f"rep {rep:.4f}~{want_rep:.4f}, forge {forge:.4f}~{want_forge:.4f}"
    )

    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    report(5, ok, f"protocol battery in {elapsed:.0f}s; " + "; ".join(detail))


def test_criterion_6_kernel_oracle_suite():
    """Exact kernel oracles, under 1 min."""
    start = time.time()
    ok = True
    # binomial tail against big-integer enumeration, every n <= 30
    for n in range(31):
        for r in range(n + 1):
            want = math.log2(sum(math.comb(n, m) for m in range(r + 1)))
            got = binomial_tail_log2(n, r)
            ok = ok and abs(got - want) < 1e-10
    # entropy inverse round trip at 1e-10
    for y in np.linspace(0.0, 1.0, 2001):
        ok = ok and abs(binary_entropy(inverse_binary_entropy(float(y))) - y) < 1e-10
    # smoothing penalty: full and approximate entropy bounds differ exactly
    for eps_prime, eps_hat in ((1e-10, 1e-10), (1e-7, 1e-5), (0.5, 0.25)):
        full, approx = min_entropy_bound(1234, 5678, 0.03, eps_prime, eps_hat)
        penalty = 2.0 * math.log2(2.0 / (eps_prime * eps_hat))
        ok = ok and abs((approx - full) - penalty) < 1e-9
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    report(6, ok, f"kernel oracles in {elapsed:.1f}s; tails n<=30, round trip 1e-10, "
                  "entropy penalty exact")
