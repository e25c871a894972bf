"""Session engine: determinism, accounting, and agreement with the
closed-form expectations."""

import dataclasses
import math

import numpy as np
import pytest

from mdiqds.relay import RelayEngine
from mdiqds.session import ChannelTables, _sift_bits, expected_sifted_data, run_kgp_session
from mdiqds.sources import BASES, N_CUT, POLARIZATION, DecoySourceConfig, SystemProfile

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
# short channel with good detectors: enough statistics for desk-scale checks
FAVORABLE_PROFILE = SystemProfile(
    distance_km=10.0,
    loss_coeff_db_per_km=0.2,
    detector_efficiency=0.93,
    dark_count_prob=1e-6,
    misalignment=0.01,
)


def scalar_expected_rates(tables):
    """Reference for `ChannelTables.expected_rates`: the scalar loop over
    every (n, m) and every (k_a, k_b) arriving, one relay evaluation each."""
    gain = np.zeros((2, 2, 3, 3))
    err = np.zeros((2, 2, 3, 3))
    population = np.zeros((2, 2, 3, 3, N_CUT + 1, N_CUT + 1))
    residual = 0.0
    surv = tables.binom_survive
    source = {}
    for ia, pmf_a in enumerate(tables.source_pmf["a"]):
        for ib, pmf_b in enumerate(tables.source_pmf["b"]):
            for basis_idx, basis in enumerate(BASES):
                for bit_a in (0, 1):
                    for bit_b in (0, 1):
                        pols = POLARIZATION[(basis, bit_a)], POLARIZATION[(basis, bit_b)]
                        for n in range(N_CUT + 1):
                            for m in range(N_CUT + 1):
                                w = 0.25 * pmf_a[n] * pmf_b[m]
                                if w < 1e-18:
                                    residual += w
                                    continue
                                key = (pols, n, m)
                                if key not in source:
                                    source[key] = sum(
                                        surv[n, k_a] * surv[m, k_b] * np.array(
                                            tables.engine.outcome_probabilities(
                                                pols[0], k_a, pols[1], k_b))
                                        for k_a in range(n + 1) for k_b in range(m + 1)
                                    )
                                for bell in (0, 1):
                                    p = w * source[key][bell]
                                    gain[bell, basis_idx, ia, ib] += p
                                    population[bell, basis_idx, ia, ib, n, m] += p
                                    # Bob flips in Z, and in X on psi_minus
                                    if bit_a != bit_b ^ (basis_idx == 0 or bell == 0):
                                        err[bell, basis_idx, ia, ib] += p
    error_rate = np.divide(err, gain, out=np.zeros_like(err), where=gain > 0)
    return gain, error_rate, population, residual


@pytest.fixture(scope="module")
def favorable_tables():
    return ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, FAVORABLE_PROFILE)


class TestExpectedRates:
    def test_ideal_z_error_free(self):
        profile = SystemProfile(distance_km=10.0, detector_efficiency=1.0)
        rt = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, profile).expected_rates()
        assert np.all(rt.error_rate[:, 0] == 0.0)
        assert np.all(rt.gain[:, 0, 0, 0] > 0.0)

    def test_vacuum_dark_coincidence(self):
        y0 = 1e-3
        engine = RelayEngine(0.5, y0)
        p_minus, p_plus = engine.outcome_probabilities("H", 0, "H", 0)
        expected = 2.0 * y0**2 * (1.0 - y0) ** 2
        assert p_minus == pytest.approx(expected, rel=1e-12)
        assert p_plus == pytest.approx(expected, rel=1e-12)

    def test_gain_decreases_with_distance(self):
        gains = []
        for d in (30.0, 50.0):
            profile = SystemProfile(
                distance_km=d, detector_efficiency=0.145, dark_count_prob=6.02e-6
            )
            rt = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, profile).expected_rates()
            gains.append(rt.gain[0, 0, 0, 0])
        assert gains[1] < gains[0]

    def test_residual_negligible(self, favorable_tables):
        assert favorable_tables.expected_rates().residual < 1e-12

    def test_matches_scalar_reference(self):
        tables = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, PUBLISHED_PROFILE)
        rt = tables.expected_rates()
        gain, error_rate, population, residual = scalar_expected_rates(tables)
        np.testing.assert_allclose(rt.gain, gain, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(rt.error_rate, error_rate, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(rt.population, population, rtol=1e-12, atol=0.0)
        assert rt.residual == pytest.approx(residual, rel=1e-12, abs=0.0)


class TestSessionStatistics:
    def test_monte_carlo_within_3_sigma(self, favorable_tables):
        n = 1_000_000
        sd = run_kgp_session(favorable_tables, n, seed=2024)
        expected = favorable_tables.expected_rates().expected_set_sizes(n)
        for basis, counts in (("Z", sd.z_counts), ("X", sd.x_counts)):
            for bell in (0, 1):
                for ia in (0, 1):
                    for ib in (0, 1):
                        mean = expected[basis][bell, ia, ib]
                        if mean < 50:
                            continue
                        sigma = math.sqrt(mean)
                        assert abs(counts[bell, ia, ib] - mean) < 3 * sigma, (
                            basis, bell, ia, ib, counts[bell, ia, ib], mean,
                        )

    def test_error_rates_within_3_sigma(self, favorable_tables):
        n = 1_000_000
        sd = run_kgp_session(favorable_tables, n, seed=77)
        rt = favorable_tables.expected_rates()
        for bell in (0, 1):
            m = sd.z_counts[bell, 0, 0]
            e_model = rt.error_rate[bell, 0, 0, 0]
            sigma = math.sqrt(e_model * (1 - e_model) / m)
            e_obs = sd.z_errors[bell, 0, 0] / m
            assert abs(e_obs - e_model) < 3 * sigma

    def test_determinism(self, favorable_tables):
        one = run_kgp_session(favorable_tables, 200_000, seed=99)
        two = run_kgp_session(favorable_tables, 200_000, seed=99)
        assert np.array_equal(one.z_counts, two.z_counts)
        assert np.array_equal(one.ev_alice_bit, two.ev_alice_bit)
        assert np.array_equal(one.ev_src_b, two.ev_src_b)
        three = run_kgp_session(favorable_tables, 200_000, seed=100)
        assert not np.array_equal(one.ev_alice_bit, three.ev_alice_bit)

    def test_counts_match_event_lists(self, favorable_tables):
        sd = run_kgp_session(favorable_tables, 300_000, seed=5)
        mismatched = sd.ev_alice_bit != sd.ev_bob_bit
        for basis, counts, errors in ((0, sd.z_counts, sd.z_errors),
                                      (1, sd.x_counts, sd.x_errors)):
            mask = sd.ev_basis == basis
            cells = (sd.ev_bell[mask], sd.ev_ia[mask], sd.ev_ib[mask])
            derived = np.zeros_like(counts)
            np.add.at(derived, cells, 1)
            assert np.array_equal(derived, counts)
            derived_errors = np.zeros_like(errors)
            np.add.at(derived_errors, cells, mismatched[mask].astype(np.int64))
            assert np.array_equal(derived_errors, errors)
            assert errors.sum() > 0
        derived_population = np.zeros_like(sd.population)
        np.add.at(derived_population, (sd.ev_bell, sd.ev_basis, sd.ev_ia, sd.ev_ib,
                                       sd.ev_src_a, sd.ev_src_b), 1)
        assert np.array_equal(derived_population, sd.population)

    def test_event_columns_are_int8(self, favorable_tables):
        montecarlo = run_kgp_session(favorable_tables, 100_000, seed=3)
        expected = expected_sifted_data(favorable_tables.expected_rates(), 1e6)
        assert len(montecarlo.ev_bell) > 0
        for sd in (montecarlo, expected):
            columns = [getattr(sd, f.name) for f in dataclasses.fields(sd)
                       if f.name.startswith("ev_")]
            assert len(columns) == 8
            assert all(column.dtype == np.int8 for column in columns)

    def test_ground_truth_consistency(self, favorable_tables):
        sd = run_kgp_session(favorable_tables, 300_000, seed=6)
        for bell in (0, 1):
            src_a, src_b = sd.signal_z_source_photons(bell)
            vacuum_b = int(np.sum(src_b == 0))
            assert vacuum_b == sd.population[bell, 0, 0, 0, :, 0].sum()
            pairs_11 = int(np.sum((src_a == 1) & (src_b == 1)))
            assert pairs_11 == sd.population[bell, 0, 0, 0, 1, 1]
        assert sd.population.sum() == len(sd.ev_bell)


class TestPublishedErrorRate:
    def test_z_error_rate_at_reduced_scale(self):
        # published operating point: 1% misalignment and the quoted dark
        # counts produce a signal-signal Z error rate near 2.07%; checked at
        # reduced scale with the tolerance widened by the sampling noise
        tables = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, PUBLISHED_PROFILE)
        pulses = int(5.58e12 / 1e4)
        sd = run_kgp_session(tables, pulses, seed=31)
        events = int(sd.z_counts[:, 0, 0].sum())
        errors = int(sd.z_errors[:, 0, 0].sum())
        observed = errors / events
        sigma = math.sqrt(0.022 * (1 - 0.022) / events)
        assert abs(observed - 0.0207) <= 0.002 + 3 * sigma


class TestPulseBudget:
    def test_pulse_budget_accounting(self, favorable_tables):
        sd = run_kgp_session(favorable_tables, 123_456, seed=1)
        assert sd.n_pulses == 123_456


class TestScalarPipeline:
    def test_ideal_single_photon_z_run_is_error_free(self):
        # one uniform per shot against the relay table, as the session
        # engine draws announcements; Z-basis pol index = bit
        profile = SystemProfile(distance_km=0.0, detector_efficiency=1.0)
        tables = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, profile)
        rng = np.random.default_rng(31)
        shots = 3000
        bit_a = rng.integers(0, 2, shots)
        bit_b = rng.integers(0, 2, shots)
        one = np.ones(shots, dtype=np.int64)
        probs = tables.relay_outcomes(bit_a, one, bit_b, one)
        u = rng.random(shots)
        announced = u < probs[:, 0] + probs[:, 1]
        bell = np.where(u < probs[:, 0], 0, 1)
        bob = _sift_bits(np.zeros(shots, dtype=np.int64), bell, bit_b)
        assert announced.sum() > 0
        assert np.sum(bob[announced] != bit_a[announced]) == 0
