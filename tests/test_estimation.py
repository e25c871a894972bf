"""Estimation chain: Chernoff intervals, the population LP against a vertex
oracle, Serfling scaling, and the phase-error transfer."""

import itertools
import math

import numpy as np
import pytest

from mdiqds import estimation
from mdiqds.entropy import chernoff_delta
from mdiqds.errors import DegenerateSessionError, DomainError
from mdiqds.estimation import (
    ErrorBudget,
    PhotonPopulation,
    chernoff_interval,
    check_validity,
    concentration_parameters,
    set_validity,
    estimate_yields,
    observed_error_rate,
    photon_population,
    serfling_scale,
    single_pair_objective,
    true_error_upper_bound,
    upper_bound_e_k1,
    vacuum_objective,
    _lower_bound,
    _population_caps,
    _population_constraints,
    _solve_lp,
)
from mdiqds.session import ChannelTables, expected_sifted_data, run_kgp_session
from mdiqds.sources import N_CUT, DecoySourceConfig, SystemProfile

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
FAVORABLE_PROFILE = SystemProfile(
    distance_km=10.0,
    loss_coeff_db_per_km=0.2,
    detector_efficiency=0.93,
    dark_count_prob=1e-6,
    misalignment=0.01,
)
# bright, closely spaced decoys over a short link: enough per-set statistics
# for the population LP to resolve at desk-scale pulse budgets
DESK_CONFIG = DecoySourceConfig(
    intensities={"s": 0.7, "d1": 0.25, "d2": 0.03},
    intensity_probs={"s": 0.5, "d1": 0.25, "d2": 0.25},
    basis_probs={"Z": 0.5, "X": 0.5},
)
DESK_PROFILE = SystemProfile(
    distance_km=1.0,
    loss_coeff_db_per_km=0.2,
    detector_efficiency=0.93,
    dark_count_prob=1e-6,
    misalignment=0.01,
)
DESK_BUDGET = ErrorBudget(
    eps_set=1e-3, eps_set_hat=1e-3, eps_set_dot=1e-3,
    eps_0=1e-2, eps_1=1e-2, eps_k0_serfling=1e-2, eps_k1_serfling=1e-2,
    eps_ke_x1=1e-2, eps_ke_x2=1e-2, eps_ke_upsilon=1e-2, eps_cap=1e-4,
)


def make_sifted(z_counts, x_counts=None, z_errors=None, x_errors=None, n_pulses=0):
    """Bare SiftedData with only the count matrices (and the pulse count
    that sets the population caps) filled in."""
    from mdiqds.session import SiftedData

    z = np.array(z_counts, dtype=np.int64)
    empty = np.zeros_like(z)
    return SiftedData(
        n_pulses=n_pulses,
        z_counts=z,
        x_counts=np.array(x_counts, dtype=np.int64) if x_counts is not None else z.copy(),
        z_errors=np.array(z_errors, dtype=np.int64) if z_errors is not None else empty.copy(),
        x_errors=np.array(x_errors, dtype=np.int64) if x_errors is not None else empty.copy(),
        population=np.zeros((2, 2, 3, 3, 11, 11), dtype=np.int64),
        error_population=np.zeros((2, 2, 3, 3, 11, 11), dtype=np.int64),
    )


def z_lower_bound(sifted, bell, pop, budget, objective, eps):
    """m_k0 (vacuum objective, eps_0) or m_k1 (single-pair objective,
    eps_1) of one Bell state, built as estimate_yields builds it."""
    constraints = _population_constraints(sifted.z_counts[bell], pop, budget)
    caps = _population_caps(pop, budget, sifted.n_pulses * pop.basis_pair_prob["Z"])
    return _lower_bound(constraints, caps, objective, eps)


def m_k1(sifted, bell, pop, budget):
    return z_lower_bound(sifted, bell, pop, budget, single_pair_objective(pop), budget.eps_1)


class TestChernoffInterval:
    def test_zero_observation(self):
        assert chernoff_interval(0, ErrorBudget()) == (0.0, 0.0)

    def test_frozen_values(self):
        budget = ErrorBudget(eps_set=1e-10, eps_set_hat=1e-10)
        delta, delta_hat = chernoff_interval(1e6, budget)
        assert delta == pytest.approx(math.sqrt(2e6 * math.log(16e40)), rel=1e-12)
        assert delta_hat == pytest.approx(math.sqrt(2e6 * 1.5 * math.log(1e10)), rel=1e-12)

    def test_sqrt_scaling(self):
        budget = ErrorBudget()
        rng = np.random.default_rng(0)
        n = rng.integers(10, 10**7, size=25).astype(float)
        d1, h1 = chernoff_interval(n, budget)
        d4, h4 = chernoff_interval(4 * n, budget)
        assert d4 == pytest.approx(2 * d1, rel=1e-9)
        assert h4 == pytest.approx(2 * h1, rel=1e-9)


class TestCheckValidity:
    def test_large_sets_pass(self):
        ok, flags = set_validity(np.full((3, 3), 10**7), ErrorBudget())
        assert ok
        assert flags.all()

    def test_empty_sets_fail(self):
        ok, _ = set_validity(np.zeros((3, 3)), ErrorBudget())
        assert not ok
        assert not check_validity(0.0, ErrorBudget())

    def test_published_scale_sets(self):
        # the signal-signal set passes comfortably at full published scale;
        # the weakest decoy-decoy set binds and gets flagged
        rt = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, PUBLISHED_PROFILE).expected_rates()
        sizes = rt.expected_set_sizes(5.58e12)["Z"][0]
        mu = concentration_parameters(sizes, ErrorBudget())
        assert check_validity(float(mu[0, 0]), ErrorBudget())
        ok, flags = set_validity(sizes, ErrorBudget())
        assert not ok
        assert not flags[2, 2]


class TestPhotonPopulation:
    def test_columns_normalized(self):
        pop = photon_population(PUBLISHED_CONFIG, PUBLISHED_CONFIG)
        sums = pop.conditional.sum(axis=(0, 1))
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_bayes_hand_check(self):
        pop = photon_population(PUBLISHED_CONFIG, PUBLISHED_CONFIG)
        weights = {}
        for ia, a in enumerate((0.18, 0.09, 5e-4)):
            for ib, b in enumerate((0.18, 0.09, 5e-4)):
                p = [0.5, 0.25, 0.25]
                weights[(ia, ib)] = p[ia] * p[ib] * a * math.exp(-a) * b * math.exp(-b)
        total = sum(weights.values())
        assert pop.conditional[0, 0, 1, 1] == pytest.approx(weights[(0, 0)] / total, rel=1e-9)


class TestPopulationLP:
    def _tiny_population(self, rng):
        """Conditional probabilities supported on (n, m) <= 1 only."""
        cond = np.zeros((3, 3, 11, 11))
        block = rng.random((3, 3, 2, 2)) + 0.05
        block /= block.sum(axis=(0, 1), keepdims=True)
        cond[:, :, :2, :2] = block
        pair = np.zeros((11, 11))
        pair[:2, :2] = 0.25
        return PhotonPopulation(
            conditional=cond, pair_pmf=pair, basis_pair_prob={"Z": 0.25, "X": 0.25}
        )

    def _vertex_oracle(self, pop, sizes, budget, objective):
        """Exact minimum by enumerating all vertices of the projected
        4-variable polytope."""
        delta, delta_hat = chernoff_interval(sizes, budget)
        lower, upper = np.maximum(sizes - delta_hat, 0.0), sizes + delta
        rows, rhs = [], []
        for ia in range(3):
            for ib in range(3):
                c = pop.conditional[ia, ib, :2, :2].reshape(-1)
                rows.append(c)
                rhs.append(upper[ia, ib])
                rows.append(-c)
                rhs.append(-lower[ia, ib])
        for j in range(4):
            e = np.zeros(4)
            e[j] = -1.0
            rows.append(e)
            rhs.append(0.0)
        rows = np.array(rows)
        rhs = np.array(rhs)
        obj4 = objective[:2, :2].reshape(-1)
        best = None
        for combo in itertools.combinations(range(len(rows)), 4):
            a = rows[list(combo)]
            b = rhs[list(combo)]
            if abs(np.linalg.det(a)) < 1e-12:
                continue
            x = np.linalg.solve(a, b)
            if np.all(rows @ x <= rhs + 1e-7):
                value = float(obj4 @ x)
                best = value if best is None else min(best, value)
        return best

    def test_lp_matches_vertex_oracle(self):
        budget = ErrorBudget(eps_set=1e-3, eps_set_hat=1e-3)
        rng = np.random.default_rng(21)
        for trial in range(4):
            pop = self._tiny_population(rng)
            truth = rng.integers(50, 2000, size=4).astype(float)
            sizes = np.zeros((3, 3))
            for ia in range(3):
                for ib in range(3):
                    sizes[ia, ib] = pop.conditional[ia, ib, :2, :2].reshape(-1) @ truth
            objective = np.zeros((11, 11))
            objective[:2, :2] = rng.random((2, 2))
            constraints = _population_constraints(sizes, pop, budget)
            x, value = _solve_lp(objective, *constraints, np.full(11 * 11, np.inf))
            oracle = self._vertex_oracle(pop, sizes, budget, objective)
            assert oracle is not None
            assert value == pytest.approx(oracle, rel=1e-6, abs=1e-6), trial
            # objective evaluated at the optimizer equals the reported value
            assert objective.reshape(-1) @ x == pytest.approx(value, rel=1e-6)

    def test_blocks_match_per_set_loop(self):
        # reference: one scalar interval per non-empty set, (+row, -row)
        # interleaved in set order, and one scalar cap per (n, m)
        pop = photon_population(PUBLISHED_CONFIG, PUBLISHED_CONFIG)
        budget = ErrorBudget(eps_set=1e-3, eps_set_hat=1e-6)
        sizes = np.array([[9_000_123, 0, 17], [4, 0, 250_000], [1, 33, 0]])
        rows, rhs = [], []
        for (ia, ib), obs in np.ndenumerate(sizes.astype(float)):
            if obs > 0:
                delta, delta_hat = chernoff_interval(obs, budget)
                rows += [pop.conditional[ia, ib].ravel(), -pop.conditional[ia, ib].ravel()]
                rhs += [obs + delta, -max(obs - delta_hat, 0.0)]
        a_ub, b_ub = _population_constraints(sizes, pop, budget)
        assert np.array_equal(a_ub, np.array(rows))
        assert b_ub.tobytes() == np.array(rhs).tobytes()
        expected = 3.7e11 * pop.pair_pmf.ravel()
        caps = [m + (chernoff_delta(m, budget.eps_cap) if m > 0 else 0.0) for m in expected]
        assert _population_caps(pop, budget, 3.7e11).tobytes() == np.array(caps).tobytes()

    def test_empty_decoys_give_zero_vacuum_bound(self):
        sizes = np.zeros((3, 3))
        sizes[0, 0] = 5000
        sifted = make_sifted(np.stack([sizes, sizes]), n_pulses=10**9)
        pop = photon_population(PUBLISHED_CONFIG, PUBLISHED_CONFIG)
        budget = ErrorBudget()
        vacuum = z_lower_bound(sifted, 0, pop, budget, vacuum_objective(pop), budget.eps_0)
        assert vacuum == 0.0
        assert m_k1(sifted, 0, pop, budget) == 0.0

    def test_bound_nonincreasing_in_interval_width(self):
        rt = ChannelTables(
            PUBLISHED_CONFIG, PUBLISHED_CONFIG, PUBLISHED_PROFILE
        ).expected_rates()
        sd = expected_sifted_data(rt, 1e12)
        pop = photon_population(PUBLISHED_CONFIG, PUBLISHED_CONFIG)
        tight = ErrorBudget(eps_set=1e-3, eps_set_hat=1e-3)
        wide = ErrorBudget(eps_set=1e-12, eps_set_hat=1e-12)
        assert m_k1(sd, 0, pop, wide) <= m_k1(sd, 0, pop, tight)

    def test_tightness_at_full_scale(self):
        rt = ChannelTables(
            PUBLISHED_CONFIG, PUBLISHED_CONFIG, PUBLISHED_PROFILE
        ).expected_rates()
        sd = expected_sifted_data(rt, 5.58e12)
        pop = photon_population(PUBLISHED_CONFIG, PUBLISHED_CONFIG)
        budget = ErrorBudget()
        bound = m_k1(sd, 0, pop, budget)
        truth = sd.population[0, 0, 0, 0, 1, 1]
        assert bound <= truth
        assert bound >= 0.85 * truth


class TestSerflingScale:
    def test_zero_deviation(self):
        assert serfling_scale(100.0, 1000, 100, 1.0) == 10

    def test_zero_bound(self):
        assert serfling_scale(0.0, 1000, 100, 1e-10) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            serfling_scale(10.0, 50, 100, 1e-10)

    def test_monotone_in_bound(self):
        values = [serfling_scale(m, 10_000, 4_000, 1e-10) for m in (0, 500, 2000, 9000)]
        assert values == sorted(values)

    def test_worked_example_consistency(self):
        # the keep-half scaling at full-scale statistics: the correction term
        # stays small against the linear part
        z_size, n_half = 9_420_000, 4_450_000
        m = 0.41 * z_size
        n = serfling_scale(m, z_size, n_half, 1e-10)
        linear = n_half * m / z_size
        assert 0 < linear - n < 6000


class TestPhaseError:
    def test_zero_errors(self):
        assert upper_bound_e_k1(500, 1000.0, 0.0, ErrorBudget(eps_ke_upsilon=1.0)) == 0.0

    def test_capped_at_one(self):
        assert upper_bound_e_k1(100, 10.0, 500.0, ErrorBudget()) == 1.0

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateSessionError):
            upper_bound_e_k1(0, 10.0, 1.0, ErrorBudget())
        with pytest.raises(DegenerateSessionError):
            upper_bound_e_k1(10, 0.0, 1.0, ErrorBudget())

    def test_monotone_in_x_errors(self):
        budget = ErrorBudget()
        lo = upper_bound_e_k1(4000, 2000.0, 20.0, budget)
        hi = upper_bound_e_k1(4000, 2000.0, 80.0, budget)
        assert hi >= lo


class TestObservedErrorRate:
    def test_identical_strings(self):
        assert observed_error_rate(30, 0, 10, np.random.default_rng(0)) == 0.0

    def test_complementary_strings(self):
        assert observed_error_rate(30, 30, 10, np.random.default_rng(0)) == 1.0

    def _chi2_against_pmf(self, w):
        size, r_k = 24, 6
        rng = np.random.default_rng(3)
        draws = 30_000
        counts = np.zeros(r_k + 1)
        for _ in range(draws):
            e = observed_error_rate(size, w, r_k, rng)
            counts[round(e * r_k)] += 1
        # brute-force pmf of sampling r_k of the size bits without replacement
        pmf = np.array(
            [
                math.comb(w, k) * math.comb(size - w, r_k - k) / math.comb(size, r_k)
                for k in range(r_k + 1)
            ]
        )
        chi2 = np.sum((counts - draws * pmf) ** 2 / (draws * pmf))
        dof = r_k
        assert chi2 < dof + 5 * math.sqrt(2 * dof)

    def test_hypergeometric_law(self):
        self._chi2_against_pmf(8)

    def test_split_follows_hypergeometric_law(self, monkeypatch):
        # a limit of 14 splits 9 errors and 15 matches into unequal halves
        monkeypatch.setattr(estimation, "_HYPERGEOMETRIC_LIMIT", 14)
        self._chi2_against_pmf(9)

    def test_split_moments_beyond_numpy_limit(self):
        # the signal-signal Z set of the snspd preset at the search's 2e13 cap
        errors, size, r_k = 26_000_000, 1_286_000_000, 71_000_000
        rng = np.random.default_rng(8)
        draws = 4000
        found = np.array(
            [observed_error_rate(size, errors, r_k, rng) * r_k for _ in range(draws)]
        )
        p = errors / size
        mean = r_k * p
        var = r_k * p * (1 - p) * (size - r_k) / (size - 1)
        assert abs(found.mean() - mean) < 4 * math.sqrt(var / draws)
        assert abs(found.var(ddof=1) / var - 1) < 4 * math.sqrt(2 / (draws - 1))

    def test_insufficient_data(self):
        with pytest.raises(DegenerateSessionError):
            observed_error_rate(5, 0, 5, np.random.default_rng(0))

    def test_split_limit(self):
        # one split is exact while each half holds fewer than the limit
        limit = estimation._HYPERGEOMETRIC_LIMIT
        rng = np.random.default_rng(0)
        assert 0 <= estimation._hypergeometric(limit, limit - 2, 1000, rng) <= 1000
        with pytest.raises(DomainError, match="2e9 items"):
            estimation._hypergeometric(limit, limit - 1, 1000, rng)


class TestTrueErrorUpperBound:
    def test_worked_example(self):
        value = true_error_upper_bound(0.0207, 4_450_000, 518_000, 1e-5)
        assert value == pytest.approx(0.0239, abs=5e-4)

    def test_trivial_eps(self):
        assert true_error_upper_bound(0.1, 1000, 100, 1.0) == 0.1

    def test_never_below_observation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            e = rng.random() * 0.5
            assert true_error_upper_bound(e, 2000, 100, 1e-7) >= e


@pytest.fixture(scope="module")
def rich_session():
    tables = ChannelTables(DESK_CONFIG, DESK_CONFIG, DESK_PROFILE)
    return run_kgp_session(tables, 20_000_000, seed=12)


class TestEstimateYields:
    def test_full_chain_usable_at_scale(self):
        # the phase-error transfer needs set sizes a desk run cannot reach;
        # exercise it on the deterministic expected-count session
        rt = ChannelTables(
            PUBLISHED_CONFIG, PUBLISHED_CONFIG, PUBLISHED_PROFILE
        ).expected_rates()
        sd = expected_sifted_data(rt, 5.58e12)
        res = estimate_yields(sd, PUBLISHED_CONFIG, PUBLISHED_CONFIG, ErrorBudget(), seed=3)
        est, z_size = res.selected()
        assert z_size == int(sd.z_counts[est.bell, 0, 0])
        assert est.usable
        assert est.n_k1 > 0
        assert 0.0 < est.e_k1 < 1.0
        assert est.e_upper > est.e_obs

    def test_bounds_respect_ground_truth(self, rich_session):
        res = estimate_yields(
            rich_session, DESK_CONFIG, DESK_CONFIG, DESK_BUDGET, seed=3
        )
        rng = np.random.default_rng(3)
        checked = 0
        for bell, est in res.estimates.items():
            if est.n_k == 0:
                continue
            checked += 1
            # the bounds hold for a uniformly random keep half of the code
            # string: a draw without replacement from its (n, m) population
            keep = rng.multivariate_hypergeometric(
                rich_session.population[bell, 0, 0, 0].ravel(), est.n_half
            ).reshape(N_CUT + 1, N_CUT + 1)
            true_vacuum = int(keep[:, 0].sum())
            true_single = int(keep[1, 1])
            assert est.n_k1 > 0  # the desk design resolves the single-pair bound
            assert est.n_k0 <= true_vacuum
            assert est.n_k1 <= true_single
            if est.usable:
                singles = rich_session.population[bell, 1, 0, 0, 1, 1]
                if singles:
                    errors = rich_session.error_population[bell, 1, 0, 0, 1, 1]
                    assert est.e_k1 >= errors / singles
        assert checked == 2

    def test_code_string_length(self, rich_session):
        # R_k bits go to error estimation; the rest, rounded down to even,
        # form the code string
        res = estimate_yields(rich_session, DESK_CONFIG, DESK_CONFIG, DESK_BUDGET, seed=3)
        for bell, est in res.estimates.items():
            size = int(rich_session.z_counts[bell, 0, 0])
            assert est.r_k == round(0.055 * size)
            assert est.n_k == (size - est.r_k) // 2 * 2
        # 101 signal-signal bits: R_k = 6 leaves 95, so one bit is dropped
        z = np.zeros((2, 3, 3))
        z[:, 0, 0] = 101
        res = estimate_yields(make_sifted(z), DESK_CONFIG, DESK_CONFIG, DESK_BUDGET, seed=3)
        for est in res.estimates.values():
            assert (est.r_k, est.n_k) == (6, 94)

    def test_four_lps_per_bell_state(self, rich_session, monkeypatch):
        # m_k0, m_k1, n_bar_k1 and the joint error program, for both Bell states
        calls = []
        solve = estimation.linprog
        monkeypatch.setattr(
            estimation, "linprog", lambda *a, **k: calls.append(1) or solve(*a, **k)
        )
        estimate_yields(rich_session, DESK_CONFIG, DESK_CONFIG, DESK_BUDGET, seed=3)
        assert len(calls) == 8

    def test_equal_bell_states_share_programs(self, monkeypatch):
        # the expected session of a symmetric link gives both Bell states the
        # same counts, so Bell 1 takes Bell 0's program results
        rates = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, PUBLISHED_PROFILE).expected_rates()
        sifted = expected_sifted_data(rates, 5.58e12)
        for counts in (sifted.z_counts, sifted.x_counts, sifted.x_errors):
            assert np.array_equal(counts[0], counts[1])
        calls = []
        solve = estimation.linprog
        monkeypatch.setattr(
            estimation, "linprog", lambda *a, **k: calls.append(1) or solve(*a, **k)
        )

        def estimate():
            calls.clear()
            return estimate_yields(sifted, PUBLISHED_CONFIG, PUBLISHED_CONFIG, ErrorBudget())

        shared = estimate().estimates
        assert len(calls) == 4
        program_fields = ("m_k0", "m_k1", "n_k0", "n_k1", "n_bar_k1", "e_bar_k1", "e_k1",
                          "usable", "abort_reason")
        assert shared[1].usable
        for name in program_fields:
            assert getattr(shared[1], name) == getattr(shared[0], name), name
        # with one Bell-0 X count changed, Bell 1 solves its own programs and
        # gets the results it shared
        sifted.x_counts[0, 0, 0] += 1
        alone = estimate().estimates
        assert len(calls) == 8
        assert alone[1].to_dict() == shared[1].to_dict()
        sifted.x_counts[0, 0, 0] -= 1
        sifted.x_counts[1, 0, 0] += 1
        estimate()
        assert len(calls) == 8

    def test_deterministic(self, rich_session):
        one = estimate_yields(rich_session, DESK_CONFIG, DESK_CONFIG, DESK_BUDGET, seed=3)
        two = estimate_yields(rich_session, DESK_CONFIG, DESK_CONFIG, DESK_BUDGET, seed=3)
        for bell in (0, 1):
            assert one.estimates[bell].to_dict() == two.estimates[bell].to_dict()

    def test_observed_method_more_conservative(self, rich_session):
        # charging every observed signal-signal X error to single photons
        # never gives a tighter bound than the joint error LP
        lp = estimate_yields(rich_session, DESK_CONFIG, DESK_CONFIG, DESK_BUDGET, seed=3)
        for bell in (0, 1):
            observed = float(rich_session.x_errors[bell, 0, 0])
            delta = chernoff_delta(observed, DESK_BUDGET.eps_ke_x2)
            assert observed + delta >= lp.estimates[bell].e_bar_k1

    def test_serialization_field_names(self, rich_session):
        res = estimate_yields(
            rich_session, DESK_CONFIG, DESK_CONFIG, DESK_BUDGET, seed=3
        )
        payload = res.estimates[0].to_dict()
        estimate_keys = {
            "bell", "n_k", "r_k", "e_obs", "e_upper", "m_k0", "m_k1", "n_k0", "n_k1",
            "e_k1", "n_bar_k1", "e_bar_k1", "validity_ok", "usable", "abort_reason",
        }
        assert set(payload) == estimate_keys | set(DESK_BUDGET.to_dict())
        assert payload["eps_pe"] == DESK_BUDGET.eps_pe
        assert payload["eps_ke"] == DESK_BUDGET.eps_ke

    def test_degenerate_session_flagged(self):
        sd = make_sifted(np.zeros((2, 3, 3)))
        res = estimate_yields(sd, PUBLISHED_CONFIG, PUBLISHED_CONFIG, ErrorBudget(), seed=1)
        assert not any(est.usable for est in res.estimates.values())
        assert not res.usable
        with pytest.raises(DegenerateSessionError):
            res.selected()
