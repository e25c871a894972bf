"""Sessions: determinism, accounting, and agreement of the multinomial draw
with the closed-form expectations and with a per-pulse reference sampler."""

import math
import time

import mpmath
import numpy as np
import pytest
from scipy.stats import chi2

from mdiqds.estimation import _estimate_rng
from mdiqds.relay import relay_table
from mdiqds.session import (
    ChannelTables,
    _session_rng,
    _sift_bits,
    expected_sifted_data,
    run_kgp_session,
)
from mdiqds.sources import INTENSITY_LABELS, N_CUT, DecoySourceConfig, SystemProfile

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


def scalar_cell_probs(tables):
    """Reference for `RateTable.cell_probs`: the scalar loop over every
    (n, m) and every (k_a, k_b) arriving, one relay evaluation each, times
    the intensity and basis choice probabilities."""
    cells = np.zeros((2, 2, 3, 3, 2, N_CUT + 1, N_CUT + 1))
    residual = 0.0
    surv = tables.binom_survive
    pa, pb = tables.intensity_probs["a"], tables.intensity_probs["b"]
    pz_a, pz_b = tables.basis_z_prob["a"], tables.basis_z_prob["b"]
    basis_match = (pz_a * pz_b, (1.0 - pz_a) * (1.0 - pz_b))
    source = {}
    for ia, pmf_a in enumerate(tables.source_pmf["a"]):
        for ib, pmf_b in enumerate(tables.source_pmf["b"]):
            for basis_idx in range(2):
                choice = basis_match[basis_idx] * pa[ia] * pb[ib]
                for bit_a in (0, 1):
                    for bit_b in (0, 1):
                        # relay-table polarization index: basis * 2 + bit
                        pols = 2 * basis_idx + bit_a, 2 * basis_idx + bit_b
                        for n in range(N_CUT + 1):
                            for m in range(N_CUT + 1):
                                w = 0.25 * pmf_a[n] * pmf_b[m]
                                if w < 1e-18:
                                    residual += w
                                    continue
                                key = (pols, n, m)
                                if key not in source:
                                    source[key] = sum(
                                        surv[n, k_a] * surv[m, k_b]
                                        * tables.relay[pols[0], k_a, pols[1], k_b]
                                        for k_a in range(n + 1) for k_b in range(m + 1)
                                    )
                                for bell in (0, 1):
                                    # Bob flips in Z, and in X on psi_minus
                                    error = int(bit_a != bit_b ^ (basis_idx == 0 or bell == 0))
                                    cells[bell, basis_idx, ia, ib, error, n, m] += (
                                        choice * w * source[key][bell])
    return cells, residual


def conditional_rates(tables):
    """(gain, error_rate)[bell, basis, ia, ib] from `RateTable.cell_probs`:
    P(announce bell) and the sifted mismatch fraction, given the intensity
    pair and that both parties chose that basis."""
    cells = tables.expected_rates().cell_probs.sum(axis=(-2, -1))
    pa, pb = tables.intensity_probs["a"], tables.intensity_probs["b"]
    pz_a, pz_b = tables.basis_z_prob["a"], tables.basis_z_prob["b"]
    basis_match = np.array([pz_a * pz_b, (1.0 - pz_a) * (1.0 - pz_b)])
    choices = basis_match[:, None, None] * pa[:, None] * pb
    gain = cells.sum(axis=-1) / choices
    errors = cells[..., 1] / choices
    error_rate = np.divide(errors, gain, out=np.zeros_like(errors), where=gain > 0)
    return gain, error_rate


def sample_pulses(tables, n_pulses, rng):
    """Reference for the session draw: every pulse sampled on its own from
    the model, straight through (intensity, basis and bit per party, photons
    sent, photons surviving, relay announcement, sifting).  Returns the
    (bell, basis, ia, ib, error, n, m) tally of the recorded pulses."""
    survive = tables.profile.transmittance()
    party = {}
    for name, cfg in (("a", tables.config_a), ("b", tables.config_b)):
        intensity = rng.choice(3, n_pulses, p=[cfg.intensity_probs[l] for l in INTENSITY_LABELS])
        basis = (rng.random(n_pulses) >= cfg.basis_probs["Z"]).astype(np.int64)
        bit = rng.integers(0, 2, n_pulses)
        u = rng.random(n_pulses)
        sent = np.empty(n_pulses, dtype=np.int64)
        for i, label in enumerate(INTENSITY_LABELS):
            mask = intensity == i
            cdf = np.cumsum(cfg.photon_pmf(label))
            sent[mask] = np.minimum(np.searchsorted(cdf, u[mask], side="right"), N_CUT)
        arrived = rng.binomial(sent, survive)
        party[name] = intensity, basis, bit, sent, arrived
    ia, basis_a, bit_a, n, k_a = party["a"]
    ib, basis_b, bit_b, m, k_b = party["b"]
    # polarization index: H, V in Z and D, A in X, by bit
    probs = tables.relay[2 * basis_a + bit_a, k_a, 2 * basis_b + bit_b, k_b]
    u = rng.random(n_pulses)
    bell = np.where(u < probs[:, 0], 0, 1)
    recorded = (u < probs[:, 0] + probs[:, 1]) & (basis_a == basis_b)
    # Bob flips in Z, and in X on psi_minus
    bob = bit_b ^ ((basis_b == 0) | (bell == 0))
    cells = (bell, basis_a, ia, ib, (bit_a != bob).astype(np.int64), n, m)
    tally = np.zeros((2, 2, 3, 3, 2, N_CUT + 1, N_CUT + 1), dtype=np.int64)
    np.add.at(tally, tuple(c[recorded] for c in cells), 1)
    return tally


def ma_razavi_rates(profile, mu_a, mu_b):
    """(Q_Z, Q_X, E_Z Q_Z, E_X Q_X) of an MDI link without misalignment, in
    the closed form of Ma & Razavi, PRA 86, 062319 (2012).  Evaluated to 40
    digits: at the weakest decoys the bracketed sums cancel from order 1 to
    ~1e-10."""
    mp = mpmath.mp
    with mpmath.workdps(40):
        d = mp.mpf(profile.dark_count_prob)
        t = mp.mpf(profile.transmittance()) * profile.detector_efficiency
        mu = t * (mu_a + mu_b)
        x = t * mp.sqrt(mp.mpf(mu_a) * mu_b) / 2
        y = (1 - d) * mp.exp(-mu / 4)
        i0_x, i0_2x = mp.besseli(0, x), mp.besseli(0, 2 * x)
        q_c = (2 * (1 - d) ** 2 * mp.exp(-mu / 2)
               * (1 - (1 - d) * mp.exp(-t * mu_a / 2)) * (1 - (1 - d) * mp.exp(-t * mu_b / 2)))
        q_e = 2 * d * (1 - d) ** 2 * mp.exp(-mu / 2) * (i0_2x - (1 - d) * mp.exp(-mu / 2))
        q_x = 2 * y**2 * (1 + 2 * y**2 - 4 * y * i0_x + i0_2x)
        return float(q_c + q_e), float(q_x), float(q_e), float(q_x / 2 - y**2 * (i0_2x - 1))


def chi_square_p(observed, expected, min_expected=5.0):
    """Pearson chi-square p-value of counts against their expectation, with
    the cells expected below ``min_expected`` pooled into one."""
    observed, expected = np.ravel(observed), np.ravel(expected)
    small = expected < min_expected
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return chi2.sf(stat, len(obs) - 1)


# the acceptance-4 bright link, with two different transmitters so that a
# mix-up of the parties' photon numbers shows
BRIGHT_PROFILE = SystemProfile(
    distance_km=1.0,
    loss_coeff_db_per_km=0.2,
    detector_efficiency=0.93,
    dark_count_prob=1e-6,
    misalignment=0.01,
)
BRIGHT_CONFIG_A = DecoySourceConfig(
    intensities={"s": 0.7, "d1": 0.25, "d2": 0.03},
    intensity_probs={"s": 0.5, "d1": 0.25, "d2": 0.25},
    basis_probs={"Z": 0.5, "X": 0.5},
)
BRIGHT_CONFIG_B = DecoySourceConfig(
    intensities={"s": 0.4, "d1": 0.1, "d2": 0.01},
    intensity_probs={"s": 0.6, "d1": 0.3, "d2": 0.1},
    basis_probs={"Z": 0.7, "X": 0.3},
)


@pytest.fixture(scope="module")
def favorable_tables():
    return ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, FAVORABLE_PROFILE)


class TestExpectedRates:
    def test_ideal_z_error_free(self):
        profile = SystemProfile(distance_km=10.0, detector_efficiency=1.0)
        gain, error_rate = conditional_rates(
            ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, profile))
        assert np.all(error_rate[:, 0] == 0.0)
        assert np.all(gain[:, 0, 0, 0] > 0.0)

    def test_vacuum_dark_coincidence(self):
        y0 = 1e-3
        p_minus, p_plus = relay_table(0.5, y0, 0.0)[0, 0, 0, 0]
        expected = 2.0 * y0**2 * (1.0 - y0) ** 2
        assert p_minus == pytest.approx(expected, rel=1e-12)
        assert p_plus == pytest.approx(expected, rel=1e-12)

    def test_gain_decreases_with_distance(self):
        gains = []
        for d in (30.0, 50.0):
            profile = SystemProfile(
                distance_km=d, detector_efficiency=0.145, dark_count_prob=6.02e-6
            )
            gain, _ = conditional_rates(ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, profile))
            gains.append(gain[0, 0, 0, 0])
        assert gains[1] < gains[0]

    def test_residual_negligible(self, favorable_tables):
        assert favorable_tables.expected_rates().residual < 1e-12

    def test_matches_scalar_reference(self):
        tables = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, PUBLISHED_PROFILE)
        rt = tables.expected_rates()
        cell_probs, residual = scalar_cell_probs(tables)
        np.testing.assert_allclose(rt.cell_probs, cell_probs, rtol=1e-12, atol=0.0)
        assert rt.residual == pytest.approx(residual, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("profile", [
        SystemProfile(distance_km=50.0, detector_efficiency=0.145, dark_count_prob=6.02e-6),
        SystemProfile(distance_km=10.0, detector_efficiency=0.93, dark_count_prob=1e-6),
    ])
    def test_matches_ma_razavi_closed_form(self, profile):
        # the closed-form MDI gains and error rates of Ma & Razavi, PRA 86,
        # 062319 (2012), summed over both Bell states.  Only at misalignment
        # 0: ours rotates B's frame coherently, so pulses where only B's
        # two photons arrive announce (the signal-signal (0, 2) population
        # goes from 4.9e-8 to 2.0e-6 at 1%), a term their e_d model lacks.
        gain, error_rate = conditional_rates(
            ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, profile))
        for ia, label_a in enumerate(INTENSITY_LABELS):
            for ib, label_b in enumerate(INTENSITY_LABELS):
                mu_a = PUBLISHED_CONFIG.intensities[label_a]
                mu_b = PUBLISHED_CONFIG.intensities[label_b]
                q_z, q_x, errors_z, errors_x = ma_razavi_rates(profile, mu_a, mu_b)
                errors = (gain * error_rate)[:, :, ia, ib].sum(axis=0)
                np.testing.assert_allclose(gain[:, :, ia, ib].sum(axis=0), [q_z, q_x],
                                           rtol=1e-7, atol=0)
                np.testing.assert_allclose(errors, [errors_z, errors_x], rtol=1e-7, atol=0)


class TestExpectedSession:
    @pytest.mark.parametrize("n_pulses", [1e6, 1e11, 2e13])
    def test_counts_are_rounded_mean(self, n_pulses):
        # the set sizes and error counts are the conditional gains and error
        # rates scaled by the pulse budget and the choice probabilities,
        # each rounded once: the error count rounds the sum over photon
        # numbers, not every (n, m) cell
        tables = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, PUBLISHED_PROFILE)
        sd = expected_sifted_data(tables.expected_rates(), n_pulses)
        gain, error_rate = conditional_rates(tables)
        pa, pb = tables.intensity_probs["a"], tables.intensity_probs["b"]
        pz_a, pz_b = tables.basis_z_prob["a"], tables.basis_z_prob["b"]
        for basis, p_basis, counts, errors in (
            (0, pz_a * pz_b, sd.z_counts, sd.z_errors),
            (1, (1.0 - pz_a) * (1.0 - pz_b), sd.x_counts, sd.x_errors),
        ):
            sizes = n_pulses * p_basis * pa[:, None] * pb * gain[:, basis]
            assert np.array_equal(counts, np.rint(sizes))
            assert np.array_equal(errors, np.rint(sizes * error_rate[:, basis]))


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
        _, error_rate = conditional_rates(favorable_tables)
        for bell in (0, 1):
            m = sd.z_counts[bell, 0, 0]
            e_model = error_rate[bell, 0, 0, 0]
            sigma = math.sqrt(e_model * (1 - e_model) / m)
            e_obs = sd.z_errors[bell, 0, 0] / m
            assert abs(e_obs - e_model) < 3 * sigma

    def test_determinism(self, favorable_tables):
        one = run_kgp_session(favorable_tables, 200_000, seed=99)
        two = run_kgp_session(favorable_tables, 200_000, seed=99)
        assert np.array_equal(one.z_counts, two.z_counts)
        assert np.array_equal(one.population, two.population)
        assert np.array_equal(one.error_population, two.error_population)
        three = run_kgp_session(favorable_tables, 200_000, seed=100)
        assert not np.array_equal(one.population, three.population)

    def test_counts_match_tally(self, favorable_tables):
        # every count is a marginal of the one (bell, basis, ia, ib, error,
        # n, m) tally
        sd = run_kgp_session(favorable_tables, 300_000, seed=5)
        sizes = sd.population.sum(axis=(-2, -1))
        errors = sd.error_population.sum(axis=(-2, -1))
        for basis, counts, errs in ((0, sd.z_counts, sd.z_errors),
                                    (1, sd.x_counts, sd.x_errors)):
            assert np.array_equal(sizes[:, basis], counts)
            assert np.array_equal(errors[:, basis], errs)
            assert errs.sum() > 0
        assert np.all(sd.error_population <= sd.population)

    def test_ground_truth_consistency(self, favorable_tables):
        n = 300_000
        sd = run_kgp_session(favorable_tables, n, seed=6)
        assert sd.population.sum() == sd.z_counts.sum() + sd.x_counts.sum()
        # the signal-signal Z ground truth sits at the closed-form population
        expected = expected_sifted_data(favorable_tables.expected_rates(), n).population
        expected = expected[:, 0, 0, 0]
        observed = sd.population[:, 0, 0, 0]
        resolved = expected > 50
        assert resolved[:, 1, 1].all()
        assert np.all(np.abs(observed - expected)[resolved] < 4 * np.sqrt(expected[resolved]))

    def test_cells_match_per_pulse_sampler(self):
        # the multinomial cell probabilities against pulses sampled one by
        # one: a chi-square test over (bell, basis, ia, ib, error) and the
        # photon numbers n, m folded into 0, 1, 2+
        tables = ChannelTables(BRIGHT_CONFIG_A, BRIGHT_CONFIG_B, BRIGHT_PROFILE)
        n = 1_000_000
        tally = sample_pulses(tables, n, np.random.default_rng(8))
        probs = tables.expected_rates().cell_probs

        def fold(cells):
            out = np.zeros(cells.shape[:-2] + (3, 3))
            for i, j in np.ndindex(cells.shape[-2:]):
                out[..., min(i, 2), min(j, 2)] += cells[..., i, j]
            return out

        observed = np.append(fold(tally), n - tally.sum())
        expected = np.append(fold(n * probs), n * (1.0 - probs.sum()))
        assert tally.sum() > 10_000
        assert chi_square_p(observed, expected) > 1e-3

    def test_session_stream_is_its_own(self):
        # run_montecarlo hands the same seed to a session and to its
        # estimate_yields; their random streams must differ
        for seed in (0, 7, 40_000, 2**32 - 1):
            session = _session_rng(seed).bit_generator.state["state"]
            assert session != _estimate_rng(seed).bit_generator.state["state"]
            assert session != np.random.default_rng(seed).bit_generator.state["state"]


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

    @pytest.mark.parametrize("n_pulses", [int(5.58e12), int(2e13)])
    def test_full_scale_session(self, n_pulses):
        # the published operating point and the length search's cap: the
        # draw's cost does not grow with the pulse budget
        tables = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, PUBLISHED_PROFILE)
        rates = tables.expected_rates()
        start = time.perf_counter()
        sd = run_kgp_session(tables, n_pulses, seed=3)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.25
        expected = rates.expected_set_sizes(n_pulses)
        for basis, counts in (("Z", sd.z_counts), ("X", sd.x_counts)):
            sigma = np.sqrt(np.maximum(expected[basis], 1.0))
            assert np.all(np.abs(counts - expected[basis]) < 6 * sigma)
        assert sd.z_counts[:, 0, 0].min() > 1e6


class TestScalarPipeline:
    def test_ideal_single_photon_z_run_is_error_free(self):
        # one uniform per shot against the relay table, as the reference
        # sampler draws announcements; Z-basis pol index = bit
        profile = SystemProfile(distance_km=0.0, detector_efficiency=1.0)
        tables = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, profile)
        rng = np.random.default_rng(31)
        shots = 3000
        bit_a = rng.integers(0, 2, shots)
        bit_b = rng.integers(0, 2, shots)
        one = np.ones(shots, dtype=np.int64)
        probs = tables.relay[bit_a, one, bit_b, one]
        u = rng.random(shots)
        announced = u < probs[:, 0] + probs[:, 1]
        bell = np.where(u < probs[:, 0], 0, 1)
        bob = _sift_bits(np.zeros(shots, dtype=np.int64), bell, bit_b)
        assert announced.sum() > 0
        assert np.sum(bob[announced] != bit_a[announced]) == 0
