"""Security bounds: worked-example values, small-case oracles, invariants."""

import dataclasses
import math

import numpy as np
import pytest

from mdiqds.concentration import true_error_upper_bound
from mdiqds.entropy import EXACT_TAIL_LIMIT, binary_entropy, binomial_tail_log2
from mdiqds import presets, security
from mdiqds.errors import DegenerateSessionError, DomainError, InfeasibleBoundsError
from mdiqds.estimation import (
    DecoyPrograms,
    ErrorBudget,
    EstimationResult,
    LinkBound,
    YieldEstimate,
    estimate_yields,
    photon_population,
)
from mdiqds.protocol import forging_success_probability
from mdiqds.security import (
    LINKS,
    build_security_report,
    choose_thresholds,
    forging_tail,
    honest_abort_bound,
    link_report,
    mdi_qkd_key_length,
    min_entropy_bound,
    repudiation_bound,
    signature_length_search,
    solve_p_e,
)
from mdiqds.scenario import render_report
from mdiqds.session import ChannelTables, expected_sifted_data, run_kgp_session
from mdiqds.sources import DecoySourceConfig, SystemProfile
from search_oracle import plain_length_search

BUDGET = ErrorBudget()

PUBLISHED_CONFIG = DecoySourceConfig(
    intensities={"s": 0.18, "d1": 0.09, "d2": 5e-4},
    intensity_probs={"s": 0.5, "d1": 0.25, "d2": 0.25},
    basis_probs={"Z": 0.625, "X": 0.375},
)
PUBLISHED_PROFILE = SystemProfile(
    distance_km=50.0,
    loss_coeff_db_per_km=0.2,
    detector_efficiency=0.145,
    dark_count_prob=6.02e-6,
    misalignment=0.01,
)


def replay_bound(n_k=8_900_000, r_k=518_000, e_obs=0.0207, h_target=8.69e5):
    """The bounds of the analytic replay: the published min-entropy as the
    keep half's vacuum count."""
    e_upper = true_error_upper_bound(e_obs, n_k // 2, r_k, BUDGET.eps_pe)
    return LinkBound(bell=0, e_upper=e_upper, n_k0=round(h_target), n_k1=0, e_k1=0.0,
                     validity_ok=True)


def replay_report(n_k=8_900_000, **kwargs):
    links = dict.fromkeys(LINKS, replay_bound(n_k, **kwargs))
    return build_security_report(links, n_k, BUDGET, n_sig=5.58e12, pulse_rate=1e9)


class TestMinEntropy:
    def test_worked_example(self):
        full, approx = min_entropy_bound(869_000, 0, 0.0, 1e-10, 1e-10)
        assert full == pytest.approx(8.69e5, rel=0.02)
        assert approx == 869_000

    def test_no_counts(self):
        full, approx = min_entropy_bound(0, 0, 0.3, 1e-10, 1e-10)
        assert approx == 0.0
        assert full == pytest.approx(-2 * math.log2(2.0 / 1e-20), rel=1e-12)
        assert full < 0

    def test_zero_phase_error(self):
        _, approx = min_entropy_bound(100, 200, 0.0, 1e-10, 1e-10)
        assert approx == 300

    def test_penalty_is_exact(self):
        # the full bound differs from the approximation by exactly the
        # smoothing penalty, for any inputs
        for eps_p, eps_h in ((1e-10, 1e-10), (1e-5, 1e-7)):
            full, approx = min_entropy_bound(123, 456, 0.07, eps_p, eps_h)
            assert approx - full == pytest.approx(
                2 * math.log2(2.0 / (eps_p * eps_h)), rel=1e-12
            )


class TestForgingTail:
    def test_epsilon_dominated(self):
        p_f, _ = forging_tail(8_900_000, 0.028 * 4_450_000, 8.69e5, 1e-10, 1e-5)
        assert p_f == pytest.approx(1e-5, abs=1e-12)

    def test_small_case_bigint_oracle(self):
        n_k, r, h_min, eps_k, g = 20, 3, 10.0, 1e-10, 1e-5
        p_f, _ = forging_tail(n_k, r, h_min, eps_k, g)
        # strict threshold: fewer than 3 mistakes means at most 2, summed exactly
        tail = sum(math.comb(10, m) for m in range(3))
        assert binomial_tail_log2(n_k // 2, r - 1) == math.log2(tail)
        expected = (tail * 2.0**-h_min + eps_k) / g
        assert p_f == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_r(self):
        values = [
            forging_tail(2000, r, 400.0, 1e-10, 1e-5)[0] for r in (0, 50, 100, 200)
        ]
        assert values == sorted(values)

    def test_r_domain(self):
        with pytest.raises(DomainError):
            forging_tail(100, 51, 10.0, 1e-10, 1e-5)

    def test_exact_and_exponent_forms_agree_at_crossover(self):
        # the exact tail and the entropy exponent stay within a factor two
        # on the log2 scale across the switchover sizes
        for n_k in (2000, 6000, 20000):
            n_half = n_k // 2
            r = int(0.05 * n_half)
            exact = binomial_tail_log2(min(n_half, EXACT_TAIL_LIMIT), r)
            assert exact == math.log2(sum(math.comb(n_half, m) for m in range(r + 1)))
            bound = n_half * binary_entropy(r / n_half)
            ratio = bound / exact
            assert 1.0 <= ratio < 2.0

    @pytest.mark.parametrize("length, s_v", [
        (24, 0.2), (1000, 0.3), (4000, 0.45), (10**4, 0.3), (2 * 10**4, 0.45), (2 * 10**4, 0.5),
    ])
    def test_ties_protocol_forging_bound(self, length, s_v):
        # with h_min = L/2 and a negligible eps_k, p_F is the chance that a
        # uniform guess of the L/2 unknown bits stays below s_v * L/2, which
        # the protocol mode checks its forging battery against
        half = length // 2
        assert half <= EXACT_TAIL_LIMIT
        want = forging_success_probability(length, s_v)
        assert want > 0.0
        p_f, _ = forging_tail(length, s_v * half, float(half), 1e-300, 1.0)
        assert p_f == pytest.approx(want, rel=1e-12)


class TestAdversaryFloor:
    def test_worked_example(self):
        p_e, clamped = solve_p_e(0.1954, 0.0, 0.0)
        assert not clamped
        assert p_e == pytest.approx(0.0302, abs=2e-4)

    def test_extremes(self):
        assert solve_p_e(1.0, 0.0, 0.0)[0] == 0.5
        assert solve_p_e(0.0, 0.0, 0.5)[0] == 0.0

    def test_clamping_flagged(self):
        p_e, clamped = solve_p_e(0.9, 0.5, 0.0)
        assert clamped
        assert p_e == 0.5


class TestThresholds:
    def test_worked_example(self):
        s_a, s_v = choose_thresholds(0.0239, 0.0302)
        assert s_a == pytest.approx(0.0260, abs=5e-4)
        assert s_v == pytest.approx(0.0281, abs=5e-4)

    def test_exact_tertiles(self):
        assert choose_thresholds(0.0, 0.3) == pytest.approx((0.1, 0.2))

    def test_degenerate_gap(self):
        with pytest.raises(InfeasibleBoundsError):
            choose_thresholds(0.3, 0.3)
        with pytest.raises(InfeasibleBoundsError):
            choose_thresholds(0.31, 0.3)


class TestProtocolBounds:
    def test_honest_abort(self):
        assert honest_abort_bound(1e-5) == pytest.approx(2.00e-5, rel=1e-12)

    def test_repudiation_clamp(self):
        prob, log2_raw = repudiation_bound(0.02, 0.02, 10_000)
        assert prob == 1.0
        assert log2_raw == 1.0  # raw value 2 survives in log2 form

    def test_repudiation_value(self):
        prob, _ = repudiation_bound(0.0260, 0.0281, 8_900_000)
        assert prob == pytest.approx(2 * math.exp(-0.25 * 0.0021**2 * 8.9e6), rel=1e-3)


class TestKeyLengthComparison:
    def test_perfect_channel(self):
        _, asym = mdi_qkd_key_length(1000, 1.0, 0.0, 0.0, 0.0, 1.16, BUDGET)
        assert asym == 500.0

    def test_monotone_in_zeta(self):
        args = (100_000, 0.05, 0.15, 0.05, 0.03)
        full_a, asym_a = mdi_qkd_key_length(*args, 1.1, BUDGET)
        full_b, asym_b = mdi_qkd_key_length(*args, 1.2, BUDGET)
        assert full_b < full_a
        assert asym_b < asym_a

    def test_signature_feasible_but_key_distillation_is_not(self):
        # at the worked-example rates the mismatch-rate condition has margin
        # while the distilled key length goes negative
        margin = 0.1954 - binary_entropy(0.0239)
        assert margin > 0
        report = replay_report()
        assert report.feasible
        assert report.l_k_asymptotic < 0
        assert report.l_k < 0

    def test_zeta_domain(self):
        with pytest.raises(DomainError):
            mdi_qkd_key_length(1000, 0.5, 0.2, 0.1, 0.1, 0.9, BUDGET)


class TestSecurityReport:
    def test_worked_example_fields(self):
        report = replay_report()
        assert report.E_bar == pytest.approx(0.0239, abs=5e-4)
        assert report.h_min == pytest.approx(8.69e5, rel=0.02)
        assert report.p_E == pytest.approx(0.0302, abs=5e-4)
        assert report.s_a == pytest.approx(0.0260, abs=5e-4)
        assert report.s_v == pytest.approx(0.0281, abs=5e-4)
        assert report.pr_honest_abort == 2.00e-5
        assert report.pr_forge == pytest.approx(3e-5, abs=1e-6)
        assert 0.5 < report.pr_repudiation / 9.857e-5 < 2.0
        assert report.t_r_seconds == pytest.approx(5580.0)

    def test_threshold_ordering_invariant(self):
        report = replay_report()
        assert report.E_bar <= report.s_a <= report.s_v <= report.p_E

    def test_bounds_monotone_in_n_k(self):
        # same rates, longer code string: repudiation and forging shrink
        small = replay_report(n_k=2_000_000, r_k=120_000, h_target=8.69e5 / 4.45)
        large = replay_report()
        assert large.pr_repudiation <= small.pr_repudiation
        assert large.pr_forge <= small.pr_forge

    def test_serialization_canonical_names(self):
        payload = replay_report().to_dict()
        assert set(payload) == {
            "n_k", "N_sig", "pulse_rate", "t_r_seconds", "bell", "e_k1", "h_min",
            "h_min_approx", "c_k0", "c_k1", "c_k0_sifted", "c_k1_sifted", "E_bar",
            "p_E", "p_E_clamped", "feasible", "s_a", "s_v", "p_F", "log2_p_F",
            "pr_honest_abort", "pr_repudiation", "log2_pr_repudiation", "pr_forge",
            "l_k", "l_k_asymptotic", "zeta", "validity_ok", "per_bell",
            "infeasible_reason",
        }
        assert payload["t_r_seconds"] * 1e9 == payload["N_sig"]
        # probability bounds above 1 are reported as 1
        report = replay_report()
        report.p_F = report.pr_honest_abort = report.pr_repudiation = report.pr_forge = 3.0
        clamped = report.to_dict()
        assert [clamped[k] for k in ("p_F", "pr_honest_abort", "pr_repudiation",
                                     "pr_forge")] == [1.0] * 4

    def test_infeasible_report(self):
        links = {"alice_bob": replay_bound(e_obs=0.2)}
        report = build_security_report(links, 8_900_000, BUDGET, n_sig=1e12, pulse_rate=1e9)
        assert not report.feasible
        assert report.infeasible_reason is not None

    def test_keep_half_holds_vacuum_and_single_pairs(self):
        # n_k0 + n_k1 may fill the keep half of the (even) code string, not
        # pass it; the link that breaks it is named
        n_k, n_half = 8_900_001, 4_450_000
        full = dataclasses.replace(replay_bound(), n_k0=n_half - 1_000_000, n_k1=1_000_000)
        links = dict.fromkeys(LINKS, full)
        report = build_security_report(links, n_k, BUDGET, n_sig=5.58e12, pulse_rate=1e9)
        assert report.h_min_approx == n_half
        links["alice_charlie"] = dataclasses.replace(full, n_k1=full.n_k1 + 1)
        with pytest.raises(DomainError, match="^alice_charlie: n_k0 \\+ n_k1 = "):
            build_security_report(links, n_k, BUDGET, n_sig=5.58e12, pulse_rate=1e9)


def link_result(usable=(True, False), e_k1=(0.0, 0.0)):
    """A hand-built link whose Bell states carry the replay's bounds, with
    the given usable flags and phase errors."""
    bound = replay_bound()
    estimates = {
        bell: YieldEstimate(bell=bell, budget=BUDGET, n_k=8_900_000, r_k=518_000,
                            e_obs=0.0207, e_upper=bound.e_upper, n_k0=bound.n_k0,
                            e_k1=e_k1[bell], validity_ok=True, usable=usable[bell])
        for bell in (0, 1)
    }
    size = 8_900_000 + 518_000
    return EstimationResult(estimates=estimates, z_sizes={0: size, 1: size + 1})


class TestLinkReport:
    def test_matches_report_of_selected_states(self):
        results = {"alice_bob": link_result(), "alice_charlie": link_result((True, True))}
        report = link_report(results, BUDGET, n_sig=5.58e12, pulse_rate=1e9)
        assert list(report.per_bell) == list(LINKS)
        for link in LINKS:
            assert set(report.per_bell[link]) == {"0", "1"}
            assert report.per_bell[link] == results[link].to_dict()
        expected = replay_report()
        expected.per_bell = report.per_bell
        assert render_report(report.to_dict()) == render_report(expected.to_dict())

    def test_selects_smallest_phase_error(self):
        result = link_result((True, True), e_k1=(0.02, 0.01))
        assert result.selected() is result.estimates[1]
        assert result.link_bound(4_450_000) == dataclasses.replace(replay_bound(), bell=1,
                                                                    e_k1=0.01)
        report = link_report(dict.fromkeys(LINKS, result), BUDGET, 5.58e12, 1e9)
        assert report.bell == dict.fromkeys(LINKS, 1)
        # an unusable state is never selected, however small its phase error
        assert link_result((False, True), e_k1=(0.0, 0.5)).selected().bell == 1

    @pytest.mark.parametrize("failing", LINKS)
    def test_names_first_link_without_usable_state(self, failing):
        results = {link: link_result((link != failing, False)) for link in LINKS}
        assert [result.usable for result in results.values()] == [
            link != failing for link in LINKS
        ]
        with pytest.raises(DegenerateSessionError, match=f"^{failing}: no Bell state"):
            link_report(results, BUDGET, 5.58e12, 1e9)
        with pytest.raises(DegenerateSessionError, match="^alice_bob: "):
            link_report(dict.fromkeys(LINKS, link_result((False, False))), BUDGET, 5.58e12, 1e9)


@pytest.fixture(scope="module")
def tables():
    return ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, PUBLISHED_PROFILE)


class TestSignatureLengthSearch:
    def test_search_finds_budget(self, tables):
        # honest abort is pinned at 2*eps_PE = 2e-5, so the reachable target
        # with the worked-example knobs is of order 1e-4
        result = signature_length_search(
            PUBLISHED_CONFIG,
            PUBLISHED_CONFIG,
            PUBLISHED_PROFILE,
            BUDGET,
            target_security=1e-4,
            relative_tolerance=0.5,
            tables=tables,
        )
        assert result.report.meets_target(1e-4)
        assert 1e10 < result.n_sig < 2e13
        assert result.report.t_r_seconds == pytest.approx(result.n_sig / 1e9)
        assert result.report.n_k > 0
        # tighter targets need at least as large a budget
        tighter = signature_length_search(
            PUBLISHED_CONFIG,
            PUBLISHED_CONFIG,
            PUBLISHED_PROFILE,
            BUDGET,
            target_security=5e-5,
            relative_tolerance=0.5,
            tables=tables,
        )
        assert tighter.n_sig >= result.n_sig

    def test_trivial_target_returns_minimal_session(self, tables):
        trivial = signature_length_search(
            PUBLISHED_CONFIG,
            PUBLISHED_CONFIG,
            PUBLISHED_PROFILE,
            BUDGET,
            target_security=1.0,
            relative_tolerance=0.5,
            tables=tables,
        )
        strict = signature_length_search(
            PUBLISHED_CONFIG,
            PUBLISHED_CONFIG,
            PUBLISHED_PROFILE,
            BUDGET,
            target_security=1e-4,
            relative_tolerance=0.5,
            tables=tables,
        )
        assert trivial.n_sig <= strict.n_sig
        assert trivial.report.feasible

    def test_unreachable_target_reports_fixed_terms(self, tables):
        with pytest.raises(InfeasibleBoundsError, match="fixed terms"):
            signature_length_search(
                PUBLISHED_CONFIG,
                PUBLISHED_CONFIG,
                PUBLISHED_PROFILE,
                BUDGET,
                target_security=1e-6,
                relative_tolerance=0.5,
                tables=tables,
            )

    def test_infeasible_channel(self, tables):
        profile = SystemProfile(
            distance_km=50.0,
            loss_coeff_db_per_km=0.2,
            detector_efficiency=0.145,
            dark_count_prob=6.02e-6,
            misalignment=0.20,
        )
        with pytest.raises(InfeasibleBoundsError):
            signature_length_search(
                PUBLISHED_CONFIG,
                PUBLISHED_CONFIG,
                profile,
                BUDGET,
                target_security=1e-5,
                relative_tolerance=0.5,
            )

    @pytest.mark.parametrize("r_fraction", [0.3, 1 / 3, 0.34, 0.5, 0.9])
    def test_any_r_fraction_gives_a_result_or_infeasible(self, r_fraction):
        # the sampling correction needs R_k <= n_k/2: above 1/3 no set
        # splits, so the search finds no statistics rather than raising
        # DomainError from inside the correction
        config = presets.default_source_config()
        profile = presets.profile_for_preset("snspd")
        try:
            result = signature_length_search(config, config, profile, BUDGET, 1e-4,
                                             r_fraction=r_fraction)
        except InfeasibleBoundsError as exc:
            assert r_fraction > 1 / 3 and "no statistics" in str(exc)
            assert f"r_fraction {r_fraction} samples R_k" in str(exc)
        else:
            assert r_fraction <= 1 / 3 and result.report.meets_target(1e-4)


class TestLadderSkip:
    """The search skips ladder points that the repudiation bound rules out
    and still returns what the plain ladder and bisection return."""

    @pytest.mark.parametrize("link, target", [
        ("standard", 1e-4), ("snspd", 1e-4), ("published", 5e-5), ("published", 1.0),
    ])
    def test_same_result_as_plain_search(self, link, target, monkeypatch):
        if link == "published":
            config, profile = PUBLISHED_CONFIG, PUBLISHED_PROFILE
        else:
            config, profile = presets.default_source_config(), presets.profile_for_preset(link)
        tables = ChannelTables(config, config, profile)
        evaluated = []
        evaluate = security._evaluate_budget
        monkeypatch.setattr(
            security, "_evaluate_budget", lambda *args: evaluated.append(args[1]) or evaluate(*args)
        )
        result = signature_length_search(config, config, profile, BUDGET, target, tables=tables)
        monkeypatch.undo()
        reference, trajectory = plain_length_search(BUDGET, target, tables)

        def rendered(found):
            return render_report({"n_sig": found.n_sig, **found.report.to_dict()})

        assert result.n_sig == reference.n_sig
        assert rendered(result) == rendered(reference)
        skipped = [(n_sig, report) for n_sig, report in trajectory if n_sig not in evaluated]
        for n_sig, report in skipped:
            assert report is None or not report.meets_target(target), n_sig
        # at target 1 the clamped repudiation bound never rules a point out
        assert bool(skipped) == (target < 1.0)


@pytest.fixture(scope="module", params=sorted(presets.DETECTOR_PRESETS))
def preset_tables(request):
    config = presets.default_source_config()
    profile = presets.profile_for_preset(request.param)
    return config, profile, ChannelTables(config, config, profile)


class TestExpectedStatisticsPerPreset:
    def test_length_search_meets_target(self, preset_tables):
        config, profile, tables = preset_tables
        result = signature_length_search(
            config, config, profile, BUDGET, target_security=1e-4, tables=tables
        )
        assert result.report.meets_target(1e-4)
        # one expected estimate stands for both links, shaped as a Monte-Carlo report
        per_bell = result.report.per_bell
        assert set(per_bell) == set(LINKS)
        assert all(set(per_bell[link]) == {"0", "1"} for link in LINKS)

    def test_counts_only_at_search_cap(self, preset_tables):
        # the search's largest budget: no per-event arrays, and the
        # estimator still samples the signal-signal Z set exactly
        config, _, tables = preset_tables
        sifted = expected_sifted_data(tables.expected_rates(), 2e13)
        assert sum(
            getattr(sifted, name).nbytes for name in vars(sifted) if name.startswith("ev_")
        ) == 0
        result = estimate_yields(sifted, DecoyPrograms(photon_population(config, config)), BUDGET)
        assert all(est.n_k > 0 for est in result.estimates.values())


class TestFullScaleScatter:
    """At a preset's searched N_sig, the expected-count report lies inside
    the spread of seeded Monte-Carlo reports.

    standard and ingaas-apd are left out: their searches select e_k1 = 1.0,
    a vacuous phase-error bound that ROADMAP item 1 caps, and at those
    budgets many Monte-Carlo Bell states have no single-photon X statistics,
    so some sessions end without a usable Bell state.
    """

    SESSIONS = 20

    @pytest.mark.parametrize("preset", ["ingaas-inp-apd", "snspd"])
    def test_expected_report_inside_monte_carlo_range(self, preset):
        config = presets.default_source_config()
        profile = presets.profile_for_preset(preset)
        tables = ChannelTables(config, config, profile)
        expected = signature_length_search(
            config, config, profile, BUDGET, target_security=1e-4, tables=tables
        )
        pulses = int(expected.n_sig)
        programs = DecoyPrograms(photon_population(config, config))
        reports = []
        for seed in range(self.SESSIONS):
            results = {}
            for index, name in enumerate(LINKS):
                session_seed = 2 * seed + index
                sifted = run_kgp_session(tables, pulses, seed=session_seed)
                results[name] = estimate_yields(sifted, programs, BUDGET, seed=session_seed)
            reports.append(link_report(results, BUDGET, pulses, config.pulse_rate))
        assert all(r.feasible for r in reports)
        # E_bar is left out: a report takes the worse of its two sessions'
        # error bounds, so the Monte-Carlo E_bar sits above the expected path
        for key in ("n_k", "e_k1", "p_E", "h_min"):
            values = [getattr(r, key) for r in reports]
            assert min(values) <= getattr(expected.report, key) <= max(values), key
