"""Source configuration, the truncated photon-number model and the channel."""

import math

import numpy as np
import pytest

from mdiqds.errors import ValidationError
from mdiqds.relay import relay_table
from mdiqds.session import ChannelTables, run_kgp_session
from mdiqds.sources import (
    POLARIZATION,
    DecoySourceConfig,
    SystemProfile,
    truncated_poisson_pmf,
)

from fock_oracle import outcome_probs

PUBLISHED_CONFIG = DecoySourceConfig(
    intensities={"s": 0.18, "d1": 0.09, "d2": 5e-4},
    intensity_probs={"s": 0.5, "d1": 0.25, "d2": 0.25},
    basis_probs={"Z": 0.625, "X": 0.375},
)


class TestConfigValidation:
    def test_intensity_ordering(self):
        with pytest.raises(ValidationError):
            DecoySourceConfig(
                intensities={"s": 0.09, "d1": 0.18, "d2": 5e-4},
                intensity_probs={"s": 0.5, "d1": 0.25, "d2": 0.25},
                basis_probs={"Z": 0.5, "X": 0.5},
            )

    def test_probs_normalized(self):
        with pytest.raises(ValidationError):
            DecoySourceConfig(
                intensities={"s": 0.18, "d1": 0.09, "d2": 5e-4},
                intensity_probs={"s": 0.5, "d1": 0.25, "d2": 0.05},
                basis_probs={"Z": 0.5, "X": 0.5},
            )

    def test_profile_ranges(self):
        with pytest.raises(ValidationError):
            SystemProfile(distance_km=50, detector_efficiency=1.5)
        with pytest.raises(ValidationError):
            SystemProfile(distance_km=-1)


def test_truncated_pmf_folds_tail():
    pmf = truncated_poisson_pmf(0.18)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-15)
    assert pmf[0] == pytest.approx(math.exp(-0.18), rel=1e-12)
    pmf0 = truncated_poisson_pmf(0.0)
    assert pmf0[0] == 1.0 and pmf0[1:].sum() == 0.0


class TestSamplePulse:
    def test_vacuum_source(self):
        # only dark coincidences announce, and every recorded event carries
        # zero source photons from either side
        cfg = DecoySourceConfig(
            intensities={"s": 0.3, "d1": 0.1, "d2": 0.0},
            intensity_probs={"s": 0.0, "d1": 0.0, "d2": 1.0},
            basis_probs={"Z": 1.0, "X": 0.0},
        )
        profile = SystemProfile(distance_km=0.0, dark_count_prob=0.01)
        sd = run_kgp_session(ChannelTables(cfg, cfg, profile), 200_000, seed=0)
        recorded = sd.population.sum()
        assert recorded > 0
        assert sd.population[..., 0, 0].sum() == recorded
        assert sd.population[:, :, 2, 2].sum() == recorded


class TestTransmit:
    def test_identity_channel(self):
        tables = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, SystemProfile(distance_km=0.0))
        assert np.array_equal(tables.binom_survive, np.eye(tables.binom_survive.shape[0]))
        assert np.array_equal(tables.arrive_pmf["a"], tables.source_pmf["a"])

    def test_transmit_is_loss_only(self):
        # the frame mismatch is applied coherently at the relay, not to the
        # arriving photon numbers
        aligned = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, SystemProfile(distance_km=20.0))
        crossed = ChannelTables(
            PUBLISHED_CONFIG, PUBLISHED_CONFIG, SystemProfile(distance_km=20.0, misalignment=1.0)
        )
        assert np.array_equal(aligned.binom_survive, crossed.binom_survive)
        for party in "ab":
            assert np.array_equal(aligned.arrive_pmf[party], crossed.arrive_pmf[party])

    def test_transmittance_formula(self):
        # 12.5 km half-link of a 25 km channel
        profile = SystemProfile(distance_km=25.0, loss_coeff_db_per_km=0.2)
        assert profile.transmittance() == pytest.approx(10 ** -0.25, rel=1e-12)
        assert profile.transmittance() == pytest.approx(0.5623, abs=1e-4)
        # the 25 km half-link of the 50 km channel
        profile = SystemProfile(distance_km=50.0, loss_coeff_db_per_km=0.2)
        assert profile.transmittance() == pytest.approx(10 ** -0.5, rel=1e-12)

    def test_survival_statistics(self):
        # row n of the survival matrix is the binomial(n, t) law of the
        # photons that outlive one half-link
        profile = SystemProfile(distance_km=50.0, loss_coeff_db_per_km=0.2)
        t = profile.transmittance()
        survive = ChannelTables(PUBLISHED_CONFIG, PUBLISHED_CONFIG, profile).binom_survive
        k = np.arange(survive.shape[1])
        for n, row in enumerate(survive):
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(row[n + 1:] == 0.0)
            assert row @ k == pytest.approx(n * t, rel=1e-12)
            assert row @ (k - n * t) ** 2 == pytest.approx(n * t * (1 - t), abs=1e-12)
        assert survive[4, 2] == pytest.approx(6 * t**2 * (1 - t) ** 2, rel=1e-12)

    def test_full_misalignment_crosses_frames_at_relay(self):
        profile = SystemProfile(
            distance_km=0.0, misalignment=1.0, detector_efficiency=1.0
        )
        relay = relay_table(profile.detector_efficiency, profile.dark_count_prob,
                            profile.misalignment)
        # with the frames fully crossed, same-bit single photons interfere
        # like orthogonal ones and announce with certainty (H = 0, V = 1)
        p_minus, p_plus = relay[0, 1, 0, 1]
        assert p_minus == pytest.approx(0.5, abs=1e-12)
        assert p_plus == pytest.approx(0.5, abs=1e-12)
        # while opposite-bit photons now bunch and never announce
        p_minus, p_plus = relay[0, 1, 1, 1]
        assert p_minus == pytest.approx(0.0, abs=1e-12)
        assert p_plus == pytest.approx(0.0, abs=1e-12)

    def test_partial_misalignment_flip_probability(self):
        # a lone photon from party B, measured in A's frame, is orthogonal
        # with probability equal to the misalignment knob
        mis = 0.07
        profile = SystemProfile(
            distance_km=0.0, misalignment=mis, detector_efficiency=1.0
        )
        relay = relay_table(profile.detector_efficiency, profile.dark_count_prob,
                            profile.misalignment)
        p_minus, p_plus = relay[0, 1, 0, 1]  # H, H
        assert p_minus + p_plus == pytest.approx(mis, abs=1e-12)
        p_minus, p_plus = relay[0, 1, 1, 1]  # H, V
        assert p_minus + p_plus == pytest.approx(1.0 - mis, abs=1e-12)

    def test_polarization_mapping(self):
        # expected_rates indexes the relay table by basis * 2 + bit: the
        # entry there for one photon per side is that of the prepared
        # polarizations
        relay = relay_table(0.7, 0.01, 0.0)
        index = {key: "ZX".index(key[0]) * 2 + key[1] for key in POLARIZATION}
        for key_a, pol_a in POLARIZATION.items():
            for key_b, pol_b in POLARIZATION.items():
                entry = relay[index[key_a], 1, index[key_b], 1]
                want = outcome_probs([("a", pol_a), ("b", pol_b)], eta=0.7, dark=0.01)
                np.testing.assert_allclose(entry, want[:2], rtol=0, atol=1e-12)
        assert POLARIZATION == {("Z", 0): "H", ("Z", 1): "V", ("X", 0): "D", ("X", 1): "A"}
