"""Estimation chain: Chernoff intervals, the population LP against a vertex
oracle, Serfling scaling, and the phase-error transfer."""

import copy
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mdiqds import estimation, presets
from mdiqds.concentration import (
    chernoff_delta,
    chernoff_interval,
    serfling_scale,
    set_validity,
    true_error_upper_bound,
)
from mdiqds.errors import DegenerateSessionError, DomainError, InfeasibleObservationsError
from mdiqds.estimation import (
    ConstraintMatrix,
    DecoyPrograms,
    ErrorBudget,
    LinkBound,
    PhotonPopulation,
    estimate_yields,
    observed_error_rate,
    photon_population,
    single_pair_objective,
    split_refusal,
    split_signal_set,
    upper_bound_e_k1,
    vacuum_objective,
    _lower_bound,
    _population_caps,
    _solve_lp,
    _upper_bound_errors,
)
from mdiqds.scenario import render_report, run, scenario_from_dict
from mdiqds.security import signature_length_search
from mdiqds.session import ChannelTables, expected_sifted_data, run_kgp_session
from mdiqds.sources import N_CUT, DecoySourceConfig, SystemProfile
from test_scenario import BRIGHT_LINK, GOLDEN, _assert_matches

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


def programs_for(config):
    """The decoy programs of a link whose two parties share ``config``."""
    return DecoyPrograms(photon_population(config, config))


def z_lower_bound(sifted, bell, pop, budget, objective, eps):
    """m_k0 (vacuum objective, eps_0) or m_k1 (single-pair objective,
    eps_1) of one Bell state, built as estimate_yields builds it."""
    constraints = DecoyPrograms(pop).block(sifted.z_counts[bell], budget)
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


# at every epsilon 1e-10 a set needs mu >= max(ln(2/eps_set) / (3/(4*sqrt(2)))^2,
# 3*ln(1/eps_set_hat)) = max(84.334, 69.078)
VALIDITY_THRESHOLD = math.log(2e10) / (3.0 / (4.0 * math.sqrt(2.0))) ** 2


class TestCheckValidity:
    def test_large_sets_pass(self):
        ok, flags = set_validity(np.full((3, 3), 10**7), ErrorBudget())
        assert ok
        assert flags.all()

    def test_empty_sets_fail(self):
        # every set's mu is 0 here, and a set whose mu <= 0 fails its flag
        ok, flags = set_validity(np.zeros((3, 3)), ErrorBudget())
        assert not ok
        assert not flags.any()

    def test_published_scale_sets(self):
        # the signal-signal set passes comfortably at full published scale;
        # the weakest decoy-decoy set binds and gets flagged
        rt = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, PUBLISHED_PROFILE).expected_rates()
        sizes = rt.expected_set_sizes(5.58e12)["Z"][0]
        ok, flags = set_validity(sizes, ErrorBudget())
        assert flags[0, 0]
        assert not ok
        assert not flags[2, 2]

    def test_threshold_edge(self):
        # mu = |Z^{ab}| - sqrt(sum_ab |Z^{ab}| / 2 * ln(1/eps_set_dot)): put two
        # sets at the threshold plus that spread, which they enter themselves,
        # then move one up and the other down by 0.01, keeping the sum
        assert VALIDITY_THRESHOLD == pytest.approx(84.334, abs=1e-3)
        sizes = np.full((3, 3), 10_000.0)
        for _ in range(10):
            spread = math.sqrt(sizes.sum() / 2.0 * math.log(1e10))
            sizes[0, 1] = sizes[1, 0] = VALIDITY_THRESHOLD + spread
        sizes[0, 1] += 0.01
        sizes[1, 0] -= 0.01
        ok, flags = set_validity(sizes, ErrorBudget())
        assert not ok
        assert flags[0, 1] and not flags[1, 0]
        assert flags.sum() == 8

    def test_larger_eps_set_lowers_threshold(self):
        # eps_set_dot = 1 makes the spread vanish, so mu = |Z^{ab}|.  At
        # eps_set = 1e-6 the first condition needs only ln(2e6) / (9/32) = 51.6,
        # and the second, 69.078, binds: 80 passes there, 60 fails at both
        sizes = np.array([[80.0, 60.0, 85.0]] * 3)
        strict = set_validity(sizes, ErrorBudget(eps_set_dot=1.0))[1]
        loose = set_validity(sizes, ErrorBudget(eps_set_dot=1.0, eps_set=1e-6))[1]
        assert strict.tolist() == [[False, False, True]] * 3
        assert loose.tolist() == [[True, False, True]] * 3


class TestSplitSignalSet:
    def test_sample_never_exceeds_keep_half(self):
        # the sampling correction needs n_k/2 >= R_k; near r_fraction = 1/3
        # the rounding of R_k alone breaks it, and above 1/3 every set does
        assert split_signal_set(5, 1 / 3) is None  # R_k = 2, n_k/2 = 1
        assert split_signal_set(6, 1 / 3) == (2, 4)
        assert split_signal_set(10**9, 0.34) is None
        for r_fraction in np.linspace(0.01, 0.99, 99):
            for size in range(300):
                split = split_signal_set(size, r_fraction)
                if split is not None:
                    assert split[1] // 2 >= split[0] >= 1

    def test_default_fraction_splits_as_before(self):
        # at the default fraction the keep-half rule refuses no set that the
        # earlier rule, size - R_k >= 2, split
        for size in range(20_000):
            r_k = int(round(presets.DEFAULT_R_FRACTION * size))
            split = split_signal_set(size, presets.DEFAULT_R_FRACTION)
            if size < 4 or r_k < 1 or size - r_k < 2:
                assert split is None
            else:
                assert split == (r_k, (size - r_k) // 2 * 2)


    def test_refusal_names_its_cause(self):
        for r_fraction in np.linspace(0.01, 0.99, 99):
            for size in range(300):
                reason = split_refusal(size, r_fraction)
                assert (reason is None) == (split_signal_set(size, r_fraction) is not None)
                r_k = int(round(r_fraction * size))
                assert (reason or "").startswith("signal-signal Z set too small") == (
                    size < 4 or r_k < 1)
        # snspd at 1e12: each Bell state's set holds ~6.4e7 bits, refused
        # only because R_k would exceed the keep half
        source = presets.default_source_config()
        rates = ChannelTables(source, source, presets.profile_for_preset("snspd")).expected_rates()
        result = estimate_yields(expected_sifted_data(rates, 1e12), programs_for(source),
                                 ErrorBudget(), r_fraction=0.5)
        for bell, est in result.estimates.items():
            assert est.abort_reason.startswith("r_fraction 0.5 samples R_k"), est.abort_reason
            assert str(result.z_sizes[bell]) in est.abort_reason


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
            constraints = DecoyPrograms(pop).block(sizes, budget)
            x, value = _solve_lp(objective, *constraints, np.full(11 * 11, np.inf))
            oracle = self._vertex_oracle(pop, sizes, budget, objective)
            assert oracle is not None
            assert value == pytest.approx(oracle, rel=1e-6, abs=1e-6), trial
            # objective evaluated at the optimizer equals the reported value
            assert objective.reshape(-1) @ x == pytest.approx(value, rel=1e-6)

    def test_blocks_match_per_set_loop(self):
        # reference: one scalar interval per set, (+row, -row) interleaved
        # in set order, both rows +inf for an empty set, and one scalar cap
        # per (n, m)
        pop = photon_population(PUBLISHED_CONFIG, PUBLISHED_CONFIG)
        budget = ErrorBudget(eps_set=1e-3, eps_set_hat=1e-6)
        sizes = np.array([[9_000_123, 0, 17], [4, 0, 250_000], [1, 33, 0]])
        rows, rhs = [], []
        for (ia, ib), obs in np.ndenumerate(sizes.astype(float)):
            delta, delta_hat = chernoff_interval(obs, budget)
            rows += [pop.conditional[ia, ib].ravel(), -pop.conditional[ia, ib].ravel()]
            rhs += [obs + delta, -max(obs - delta_hat, 0.0)] if obs > 0 else [math.inf] * 2
        matrix, b_ub = DecoyPrograms(pop).block(sizes, budget)
        assert np.array_equal(matrix.a_ub, np.array(rows))
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


# the searched N_sig at 1e-4 of each detector preset
SEARCHED_N_SIG = {"standard": 193570556600.58203, "ingaas-apd": 46340950011.841576,
                  "ingaas-inp-apd": 3683127730631.186, "snspd": 57548870791.11228}


def searched_report(preset: str) -> dict:
    """The report of the preset's length search at 1e-4, as rendered JSON."""
    source = presets.default_source_config()
    found = signature_length_search(source, source, presets.profile_for_preset(preset),
                                    ErrorBudget(), 1e-4)
    assert found.n_sig == found.report.N_sig
    return json.loads(render_report(found.report.to_dict()))


@pytest.mark.parametrize("preset", SEARCHED_N_SIG)
def test_searched_report_matches_golden(preset):
    # the whole searched report, not only its N_sig: every bound of the
    # selected budget, both links' per-Bell estimates included
    report = searched_report(preset)
    assert report["N_sig"].hex() == SEARCHED_N_SIG[preset].hex()
    _assert_matches(report, json.loads((GOLDEN / "search.json").read_text())[preset])


# budgets above the searched ones, with right-hand sides near 6.5e8: there a
# row activity recomputed in numpy misses HiGHS's by up to 5.8e-4
LARGE_BUDGETS = {"snspd": 1e13, "ingaas-inp-apd": 2e13}

# a right-hand side that scipy's linprog front end accepts for a free row:
# it rejects inf in b_ub, and HiGHS takes any bound >= 1e20 as infinite
FREE_ROW = 1e30


def expected_estimate(preset: str, n_sig: float):
    """estimate_yields on the expected session of the preset at n_sig."""
    source = presets.default_source_config()
    rates = ChannelTables(source, source, presets.profile_for_preset(preset)).expected_rates()
    return estimate_yields(expected_sifted_data(rates, n_sig), programs_for(source), ErrorBudget())


def capture_programs(monkeypatch) -> list:
    """Record every program solved from here on, (cost, matrix, b_ub, caps),
    with the (status, x, value, activity) that its solve gave."""
    solved = []
    solve = estimation.linprog

    def capture(*program):
        result = solve(*program)
        solved.append((program, result))
        return result

    monkeypatch.setattr(estimation, "linprog", capture)
    return solved


def corpus_matrices(solved) -> list:
    """The distinct ConstraintMatrix objects that the solves went through."""
    return list({id(program[1]): program[1] for program, _ in solved}.values())


def assert_same_bits(got, want):
    """Two (status, x, value, activity) solves agree in status, and in x,
    value and row activities to the bit."""
    assert got[0] == want[0]
    if want[1] is None:
        assert got[1] is None and got[2] is None and got[3] is None
    else:
        assert got[1].tobytes() == want[1].tobytes()
        assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()
        assert got[3].tobytes() == want[3].tobytes()


def dropped_rows(matrix: ConstraintMatrix, b_ub: np.ndarray):
    """The reference for free rows: (matrix, b_ub) with those rows deleted."""
    bounded = np.isfinite(b_ub)
    return ConstraintMatrix(matrix.a_ub[bounded]), b_ub[bounded]


@pytest.fixture(scope="module")
def solved_corpus():
    """Every program solved, on the kept models, by the standard and snspd
    length searches at 1e-4 (failed evaluations included), by the expected
    sessions at LARGE_BUDGETS and by 20 simulate sessions on the default
    50 km link, whose Bell states leave some of their sets empty, keyed by
    where it was solved."""
    source = presets.default_source_config()
    corpus, start = {}, 0
    with pytest.MonkeyPatch.context() as monkeypatch:
        solved = capture_programs(monkeypatch)
        for preset in ("standard", "snspd"):
            signature_length_search(source, source, presets.profile_for_preset(preset),
                                    ErrorBudget(), 1e-4)
            corpus[preset], start = solved[start:], len(solved)
        for preset, n_sig in LARGE_BUDGETS.items():
            expected_estimate(preset, n_sig)
        corpus["large"], start = solved[start:], len(solved)
        for seed in range(20):
            run(scenario_from_dict({"mode": "montecarlo", "seed": seed, "scale_factor": 5.58e4}))
        corpus["simulate"] = solved[start:]
    return corpus


# solves one saved program through estimation.linprog and scipy's linprog in
# a fresh interpreter, in the order argv[2] names, and checks that both went
# through one HiGHS binding module and agree to the bit
IMPORT_ORDER_SCRIPT = """
import sys
import numpy as np
program = np.load(sys.argv[1])
cost, a_ub, b_ub, caps = (program[name] for name in ("cost", "a_ub", "b_ub", "caps"))
BINDING = "scipy.optimize._highspy._core"

def ours():
    from mdiqds import estimation
    matrix = estimation.ConstraintMatrix(a_ub)
    return estimation.linprog(cost, matrix, b_ub, caps), type(matrix.solver)

def scipys():
    from scipy.optimize import linprog
    # scipy rejects an infinite b_ub; HiGHS takes 1e30 as infinite
    return linprog(cost, A_ub=a_ub, b_ub=np.minimum(b_ub, 1e30), method="highs",
                   options={"presolve": False},
                   bounds=np.column_stack((np.zeros_like(caps), caps)))

if sys.argv[2] == "mdiqds-first":
    (got, solver_type), binding = ours(), sys.modules[BINDING]
    assert "scipy.optimize" not in sys.modules
    ref = scipys()
    assert ours()[0][2].hex() == got[2].hex()
else:
    ref, binding = scipys(), sys.modules[BINDING]
    got, solver_type = ours()
from scipy.optimize._highspy import _core
assert _core is binding and sys.modules[BINDING] is binding and solver_type is _core._Highs
assert got[0] == "Optimal" and ref.success
assert got[1].tobytes() == ref.x.tobytes() and got[2].hex() == ref.fun.hex()
"""


class TestDirectSolve:
    """``estimation.linprog`` calls HiGHS directly and keeps one model per
    constraint matrix; ``_solve_lp`` keeps the status and point checks of
    scipy's ``linprog``."""

    def test_optimum_matches_scipy_linprog(self, monkeypatch):
        # the decoy programs of the expected sessions at every preset's
        # searched N_sig and of bright-link Monte-Carlo sessions, solved on
        # fresh and kept models: the same solver on the same model as scipy,
        # so the same optimum to the bit
        from scipy.optimize import linprog as scipy_linprog

        solved = capture_programs(monkeypatch)
        source = presets.default_source_config()
        for preset, n_sig in SEARCHED_N_SIG.items():
            expected_estimate(preset, n_sig)
        expected_programs = len(solved)
        run(scenario_from_dict({**BRIGHT_LINK, "seed": 1, "scale_factor": 3e4}))
        assert expected_programs == 16 and len(solved) > expected_programs
        for (cost, matrix, b_ub, caps), (status, x, value, _) in solved:
            ref = scipy_linprog(cost, A_ub=matrix.a_ub, b_ub=np.minimum(b_ub, FREE_ROW),
                                bounds=np.column_stack((np.zeros_like(caps), caps)),
                                method="highs", options={"presolve": False})
            assert status == "Optimal" and ref.success
            assert value == ref.fun
            assert np.array_equal(x, ref.x)

    @pytest.mark.parametrize("order", ["mdiqds-first", "scipy-first"])
    def test_one_binding_in_either_import_order(self, solved_corpus, tmp_path, order):
        # estimation.linprog loads HiGHS's binding without scipy.optimize; a
        # later import of scipy.optimize reuses that module, and a binding
        # scipy.optimize loaded first is the one linprog reuses: one module,
        # one _Highs type, the same optimum to the bit
        (cost, matrix, b_ub, caps), result = solved_corpus["standard"][-1]
        assert result[0] == "Optimal"
        np.savez(tmp_path / "program.npz", cost=cost, a_ub=matrix.a_ub, b_ub=b_ub, caps=caps)
        package_root = str(Path(estimation.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_ORDER_SCRIPT, str(tmp_path / "program.npz"), order],
            env={**os.environ, "PYTHONPATH": package_root}, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stderr

    def test_missing_binding_names_its_folder(self, monkeypatch, tmp_path):
        # a scipy without the binding's file in optimize/_highspy
        import scipy

        monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core", raising=False)
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
        folder = tmp_path / "scipy" / "optimize" / "_highspy"
        with pytest.raises(ImportError, match=f"in {re.escape(str(folder))}$"):
            estimation.linprog(np.ones(1), ConstraintMatrix(np.ones((1, 1))), np.ones(1),
                               np.ones(1))

    def test_kept_models_give_fresh_bits(self, solved_corpus):
        # a kept model changes its cost, caps and right-hand side, then
        # solves cold: the same status, optimum and value as a model built
        # for the one program
        # the sessions' empty sets differ, so some kept model switched a row
        # between free and bounded
        free_rows, switched = {}, False
        for (_, matrix, b_ub, _), _ in solved_corpus["simulate"]:
            free = np.isinf(b_ub)
            switched |= id(matrix) in free_rows and (free != free_rows[id(matrix)]).any()
            free_rows[id(matrix)] = free
        assert switched
        kept = total = 0
        for runs in solved_corpus.values():
            seen = set()
            for (cost, matrix, b_ub, caps), result in runs:
                kept += id(matrix) in seen
                total += 1
                seen.add(id(matrix))
                assert_same_bits(result, estimation.linprog(
                    cost, ConstraintMatrix(matrix.a_ub), b_ub, caps))
        # most of them ran on a model an earlier program had used
        assert 2 * kept > total

    def test_failed_solve_leaves_a_kept_model_clean(self, solved_corpus):
        # HiGHS keeps a model's status and basis between runs: every search
        # program, solved right after a failed program on the same model,
        # gives the bits of its own solve
        for preset in ("standard", "snspd"):
            for (cost, matrix, b_ub, caps), result in solved_corpus[preset]:
                model = ConstraintMatrix(matrix.a_ub)
                broken = b_ub.copy()
                broken[0] = -1.0  # an upper row below zero: no x >= 0 keeps it
                assert estimation.linprog(cost, model, broken, caps)[0] == "Infeasible"
                assert_same_bits(estimation.linprog(cost, model, b_ub, caps), result)

    def test_feasible_after_infeasible_and_unbounded(self):
        # the infeasible program of test_caps_below_a_lower_row_infeasible,
        # then a feasible one on its model; an unbounded program with every
        # row free, then a feasible one: each second solve gives the bits of
        # a fresh model
        programs, budget = programs_for(PUBLISHED_CONFIG), ErrorBudget()
        rates = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, PUBLISHED_PROFILE).expected_rates()
        sifted = expected_sifted_data(rates, 5.58e12)
        caps = _population_caps(programs.population, budget,
                                sifted.n_pulses * programs.population.basis_pair_prob["Z"])
        vacuum, single = programs.vacuum.ravel(), programs.single.ravel()
        full, full_rhs = programs.block(np.full((3, 3), 1e6), budget)
        empty, empty_rhs = programs.block(np.zeros((3, 3)), budget)
        cases = ((full, (vacuum, full_rhs, np.zeros(11 * 11)),
                  (vacuum, *programs.block(sifted.z_counts[0], budget)[1:], caps)),
                 (empty, (-vacuum, empty_rhs, np.full(11 * 11, np.inf)),
                  (-single, empty_rhs, caps)))
        for model, (cost, b_ub, bad_caps), (good_cost, good_rhs, good_caps) in cases:
            status = estimation.linprog(cost, model, b_ub, bad_caps)[0]
            assert status != "Optimal"
            got = estimation.linprog(good_cost, model, good_rhs, good_caps)
            assert got[0] == "Optimal"
            assert_same_bits(got, estimation.linprog(
                good_cost, ConstraintMatrix(model.a_ub), good_rhs, good_caps))

    def test_one_model_per_matrix(self, solved_corpus, monkeypatch):
        # the 1e-4 searches solve 32 (standard) and 39 (snspd) programs and
        # a bright-link run at scale 3e4 solves 16; each builds two models,
        # the basis block's and the joint error program's, not one per solve
        solved = capture_programs(monkeypatch)
        run(scenario_from_dict({**BRIGHT_LINK, "seed": 0, "scale_factor": 3e4}))
        jobs = {"standard": (solved_corpus["standard"], 32, 2),
                "snspd": (solved_corpus["snspd"], 39, 2), "bright": (solved, 16, 2)}
        for job, (runs, programs, models) in jobs.items():
            matrices = corpus_matrices(runs)
            distinct = {(m.a_ub.shape, m.a_ub.tobytes()) for m in matrices}
            assert (len(runs), len(matrices)) == (programs, models), job
            assert len(matrices) <= len(distinct), job

    def test_free_rows_match_dropped_rows(self, solved_corpus):
        # a row with an infinite right-hand side constrains what a deleted
        # row does: every corpus program with an unobserved set, solved
        # with those rows deleted, gives the same status and value
        checked = 0
        for runs in solved_corpus.values():
            for (cost, matrix, b_ub, caps), (status, _, value, _) in runs:
                if np.isfinite(b_ub).all():
                    continue
                checked += 1
                got = estimation.linprog(cost, *dropped_rows(matrix, b_ub), caps)
                assert got[0] == status
                if value is not None:
                    assert got[2] == pytest.approx(value, rel=1e-12, abs=0.0)
        assert checked > 0

    @pytest.mark.parametrize("preset", LARGE_BUDGETS)
    def test_usable_at_large_budgets(self, preset):
        # HiGHS's optimum keeps every row by its own activities; the same
        # product recomputed in numpy breaks one by 5.8e-4 at snspd 1e13
        result = expected_estimate(preset, LARGE_BUDGETS[preset])
        assert [est.abort_reason for est in result.estimates.values()] == [None, None]
        assert all(est.usable for est in result.estimates.values())

    def test_caps_below_a_lower_row_infeasible(self):
        # every set needs photon pairs that zero caps do not allow
        pop = photon_population(PUBLISHED_CONFIG, PUBLISHED_CONFIG)
        budget = ErrorBudget()
        block = DecoyPrograms(pop).block(np.full((3, 3), 1e6), budget)
        with pytest.raises(InfeasibleObservationsError,
                           match="^observed set sizes admit no consistent photon-number "
                                 "population$"):
            _lower_bound(block, np.zeros(11 * 11), vacuum_objective(pop), budget.eps_0)

    def test_unbounded_program_fails(self):
        # an uncapped variable that the objective drives to infinity
        with pytest.raises(InfeasibleObservationsError, match="^population LP failed: "):
            _solve_lp(np.array([-1.0]), ConstraintMatrix(np.array([[-1.0]])), np.zeros(1),
                      np.full(1, np.inf))

    # max x0 over {x0 - x1 <= 1, x1 <= 0.5, 0 <= x0 <= 1, 0 <= x1 <= 2},
    # and points the solver might return instead of its optimum
    PROGRAM = (np.array([1.0, 0.0]), np.array([[1.0, -1.0], [0.0, 1.0]]),
               np.array([1.0, 0.5]), np.array([1.0, 2.0]))

    def program(self):
        cost, a_ub, b_ub, caps = self.PROGRAM
        return cost, ConstraintMatrix(a_ub), b_ub, caps

    @pytest.mark.parametrize("point, kept", [
        ((1.0, 0.5 + 1e-3), False),   # breaks the row x1 <= 0.5 by 1e-3
        ((1.0, 0.5 + 1e-4), True),    # within scipy's tolerance 10 * sqrt(1e-9)
        ((1.0 + 1e-3, 1e-3), False),  # breaks the cap x0 <= 1 by 1e-3
        ((0.5, -1e-3), False),        # breaks x1 >= 0 by 1e-3
        ((np.nan, 0.0), False),
    ])
    def test_point_checked_against_rows_and_bounds(self, monkeypatch, point, kept):
        solve = estimation.linprog

        def moved(cost, matrix, b_ub, caps):
            status, _, value, _ = solve(cost, matrix, b_ub, caps)
            return status, np.array(point), value, matrix.a_ub @ np.array(point)

        monkeypatch.setattr(estimation, "linprog", moved)
        if kept:
            x, value = _solve_lp(*self.program(), maximize=True)
            assert (tuple(x), value) == (point, 1.0)
        else:
            with pytest.raises(InfeasibleObservationsError,
                               match="^population LP failed: the solver's point breaks"):
                _solve_lp(*self.program(), maximize=True)


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


@pytest.fixture(scope="module")
def published_session():
    """The expected session at the published operating point, 5.58e12
    pulses, and its estimates."""
    rt = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, PUBLISHED_PROFILE).expected_rates()
    sd = expected_sifted_data(rt, 5.58e12)
    return sd, estimate_yields(sd, programs_for(PUBLISHED_CONFIG), ErrorBudget(), seed=3)


class TestEstimateYields:
    def test_full_chain_usable_at_scale(self, published_session):
        # the phase-error transfer needs set sizes a desk run cannot reach;
        # exercise it on the deterministic expected-count session
        sd, res = published_session
        est = res.selected()
        assert res.z_sizes[est.bell] == int(sd.z_counts[est.bell, 0, 0])
        assert est.usable
        assert est.n_k1 > 0
        assert 0.0 < est.e_k1 < 1.0
        assert est.e_upper > est.e_obs

    def test_link_bound_rescales_to_a_shorter_half(self, published_session):
        # at its own half a link keeps its counts; on a shorter one, the
        # set's bounds m_k0, m_k1 are Serfling-scaled from |Z_ss| to it
        _, res = published_session
        est, budget = res.selected(), ErrorBudget()
        assert res.link_bound(est.n_half) == LinkBound(
            est.bell, est.e_upper, est.n_k0, est.n_k1, est.e_k1, est.validity_ok
        )
        z_size = res.z_sizes[est.bell]
        for n_half in (est.n_half - 1, est.n_half // 2):
            bound = res.link_bound(n_half)
            assert (bound.n_k0, bound.n_k1) == (
                serfling_scale(est.m_k0, z_size, n_half, budget.eps_k0_serfling),
                serfling_scale(est.m_k1, z_size, n_half, budget.eps_k1_serfling),
            )
            assert bound.n_k0 <= est.n_k0 and 0 < bound.n_k1 < est.n_k1
            assert (bound.bell, bound.e_upper, bound.e_k1, bound.validity_ok) == (
                est.bell, est.e_upper, est.e_k1, est.validity_ok
            )

    def test_bounds_respect_ground_truth(self, rich_session):
        res = estimate_yields(
            rich_session, programs_for(DESK_CONFIG), DESK_BUDGET, seed=3
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
        res = estimate_yields(rich_session, programs_for(DESK_CONFIG), DESK_BUDGET, seed=3)
        for bell, est in res.estimates.items():
            size = int(rich_session.z_counts[bell, 0, 0])
            assert est.r_k == round(0.055 * size)
            assert est.n_k == (size - est.r_k) // 2 * 2
        # 101 signal-signal bits: R_k = 6 leaves 95, so one bit is dropped
        z = np.zeros((2, 3, 3))
        z[:, 0, 0] = 101
        res = estimate_yields(make_sifted(z), programs_for(DESK_CONFIG), DESK_BUDGET, seed=3)
        for est in res.estimates.values():
            assert (est.r_k, est.n_k) == (6, 94)

    def test_four_lps_per_bell_state(self, rich_session, monkeypatch):
        # m_k0 and m_k1, then n_bar_k1 once n_k1 > 0, then the joint error
        # program once floor(n_bar_k1) >= 1: four programs for a usable Bell
        # state, fewer for one that stops at a check
        expected = {None: 4, "no single-photon X statistics to transfer": 3,
                    "n_k1 = 0: the code string carries no bound": 2}
        calls = []
        solve = estimation.linprog
        monkeypatch.setattr(
            estimation, "linprog", lambda *a, **k: calls.append(1) or solve(*a, **k)
        )
        # signal-signal counts alone leave m_k1, and so n_k1, at zero
        bare = np.zeros((2, 3, 3))
        bare[:, 0, 0] = 5000
        seen = set()
        for sifted in (rich_session, make_sifted(bare, n_pulses=10**9)):
            for bell in (0, 1):
                # the other Bell state's set too small to split: it solves nothing
                alone = copy.deepcopy(sifted)
                alone.z_counts[1 - bell] = 0
                calls.clear()
                est = estimate_yields(alone, programs_for(DESK_CONFIG), DESK_BUDGET,
                                      seed=3).estimates[bell]
                assert len(calls) == expected[est.abort_reason], (bell, est.abort_reason)
                seen.add(est.abort_reason)
        assert seen == set(expected)
        calls.clear()
        estimate_yields(rich_session, programs_for(DESK_CONFIG), DESK_BUDGET, seed=3)
        assert len(calls) == 7

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
            return estimate_yields(sifted, programs_for(PUBLISHED_CONFIG), ErrorBudget())

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

    @staticmethod
    def _full_chain(sifted, bell, config, budget):
        """One Bell state's estimate through all four programs, then the
        phase-error transfer, with no check before the last program: m_k0,
        m_k1, n_k0, n_k1 and e_k1 with usable and abort_reason."""
        programs = programs_for(config)
        pop = programs.population
        caps = {basis: _population_caps(pop, budget,
                                         sifted.n_pulses * pop.basis_pair_prob[basis])
                for basis in ("Z", "X")}
        single = single_pair_objective(pop)
        size = int(sifted.z_counts[bell, 0, 0])
        n_half = split_signal_set(size, presets.DEFAULT_R_FRACTION)[1] // 2
        z_block = programs.block(sifted.z_counts[bell], budget)
        m_k0 = _lower_bound(z_block, caps["Z"], vacuum_objective(pop), budget.eps_0)
        m_k1 = _lower_bound(z_block, caps["Z"], single, budget.eps_1)
        n_k0 = serfling_scale(m_k0, size, n_half, budget.eps_k0_serfling)
        n_k1 = serfling_scale(m_k1, size, n_half, budget.eps_k1_serfling)
        x_block = programs.block(sifted.x_counts[bell], budget)
        joint = programs.joint(sifted.x_counts[bell], sifted.x_errors[bell], budget)
        n_bar = _lower_bound(x_block, caps["X"], single, budget.eps_ke_x1)
        e_bar = _upper_bound_errors(joint, caps["X"], single, budget.eps_ke_x2)
        try:
            e_k1, usable, reason = upper_bound_e_k1(n_k1, n_bar, e_bar, budget), True, None
        except DegenerateSessionError as exc:
            e_k1, usable, reason = 1.0, False, str(exc)
        return {"m_k0": m_k0, "m_k1": m_k1, "n_k0": n_k0, "n_k1": n_k1, "e_k1": e_k1,
                "usable": usable, "abort_reason": reason}

    def test_early_stop_matches_full_chain(self):
        # standard's expected sessions from n_k1 = 0, through n_bar_k1 < 1,
        # to its searched N_sig: stopping at the first failed check gives
        # the estimate that solving all four programs gives
        source = presets.default_source_config()
        budget = ErrorBudget()
        rates = ChannelTables(source, source,
                              presets.profile_for_preset("standard")).expected_rates()
        reasons = set()
        for n_sig in (6.4e7, 1.0e9, 4.1e9, 1.6e10, 1.9357e11):
            sifted = expected_sifted_data(rates, n_sig)
            result = estimate_yields(sifted, programs_for(source), budget)
            for bell, est in result.estimates.items():
                want = self._full_chain(sifted, bell, source, budget)
                assert {name: getattr(est, name) for name in want} == want, (n_sig, bell)
                reasons.add(est.abort_reason)
        assert reasons == {None, "no single-photon X statistics to transfer",
                           "n_k1 = 0: the code string carries no bound"}

    def test_failed_error_program_keeps_no_x_bounds(self, monkeypatch):
        # n_bar_k1 and e_bar_k1 are set together once both X programs have
        # solved; when the joint error program fails neither is, e_k1 keeps
        # its nothing-estimated 1.0, and the Z bounds stay in the report
        rates = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, PUBLISHED_PROFILE).expected_rates()
        sifted = expected_sifted_data(rates, 5.58e12)

        def infeasible(*args, **kwargs):
            raise InfeasibleObservationsError("joint error program failed")

        monkeypatch.setattr(estimation, "_upper_bound_errors", infeasible)
        res = estimate_yields(sifted, programs_for(PUBLISHED_CONFIG), ErrorBudget(), seed=3)
        assert not res.usable
        for est in res.estimates.values():
            assert (est.n_bar_k1, est.e_bar_k1, est.e_k1) == (0.0, 0.0, 1.0)
            assert not est.usable
            assert est.abort_reason == "joint error program failed"
            assert est.n_k1 > 0

    def test_deterministic(self, rich_session):
        # the second call re-solves the models the first one kept
        programs = programs_for(DESK_CONFIG)
        one = estimate_yields(rich_session, programs, DESK_BUDGET, seed=3)
        two = estimate_yields(rich_session, programs, DESK_BUDGET, seed=3)
        for bell in (0, 1):
            assert one.estimates[bell].to_dict() == two.estimates[bell].to_dict()

    def test_observed_method_more_conservative(self, rich_session):
        # charging every observed signal-signal X error to single photons
        # never gives a tighter bound than the joint error LP; it is solved
        # here for both Bell states, since estimate_yields skips it for a
        # state that stops at an earlier check
        lp = estimate_yields(rich_session, programs_for(DESK_CONFIG), DESK_BUDGET, seed=3)
        programs = programs_for(DESK_CONFIG)
        pop = programs.population
        caps = _population_caps(pop, DESK_BUDGET,
                                rich_session.n_pulses * pop.basis_pair_prob["X"])
        for bell in (0, 1):
            observed = float(rich_session.x_errors[bell, 0, 0])
            delta = chernoff_delta(observed, DESK_BUDGET.eps_ke_x2)
            joint = programs.joint(rich_session.x_counts[bell], rich_session.x_errors[bell],
                                   DESK_BUDGET)
            e_bar = _upper_bound_errors(joint, caps, single_pair_objective(pop),
                                        DESK_BUDGET.eps_ke_x2)
            assert observed + delta >= e_bar
            if lp.estimates[bell].usable:
                assert lp.estimates[bell].e_bar_k1 == e_bar

    def test_serialization_field_names(self, rich_session):
        res = estimate_yields(
            rich_session, programs_for(DESK_CONFIG), DESK_BUDGET, seed=3
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
        res = estimate_yields(sd, programs_for(PUBLISHED_CONFIG), ErrorBudget(), seed=1)
        assert not any(est.usable for est in res.estimates.values())
        assert not res.usable
        with pytest.raises(DegenerateSessionError):
            res.selected()
