"""Relay physics against the brute-force Fock oracle."""

import math

import numpy as np
import pytest

from mdiqds.relay import RelayEngine, occupation_distribution
from mdiqds.session import ChannelTables, _sift_bits
from mdiqds.sources import DecoySourceConfig, SystemProfile

from fock_oracle import occupation_probs, outcome_probs

IDEAL = SystemProfile(distance_km=0.0, detector_efficiency=1.0, dark_count_prob=0.0)
CONFIG = DecoySourceConfig(
    intensities={"s": 0.5, "d1": 0.1, "d2": 0.0},
    intensity_probs={"s": 0.5, "d1": 0.25, "d2": 0.25},
    basis_probs={"Z": 0.5, "X": 0.5},
)


def engine_outcome(pol_a, k_a, pol_b, k_b, eta=1.0, dark=0.0):
    return RelayEngine(eta, dark).outcome_probabilities(pol_a, k_a, pol_b, k_b)


def announce(tables, pol_a, k_a, pol_b, k_b, shots, rng):
    """Counts of (psi_minus, psi_plus, failure) over ``shots`` copies of one
    relay input (polarization indices H, V, D, A = 0..3), drawn as the
    session engine draws them: one uniform per shot against the relay table."""
    probs = tables.relay_outcomes(*(np.full(shots, i) for i in (pol_a, k_a, pol_b, k_b)))
    u = rng.random(shots)
    outcome = (u >= probs[:, 0]).astype(np.int64) + (u >= probs[:, 0] + probs[:, 1])
    return np.bincount(outcome, minlength=3)


class TestOccupationDistribution:
    @pytest.mark.parametrize(
        "config,photons",
        [
            (("H", 1, "V", 1), [("a", "H"), ("b", "V")]),
            (("H", 1, "H", 1), [("a", "H"), ("b", "H")]),
            (("D", 1, "D", 1), [("a", "D"), ("b", "D")]),
            (("D", 1, "A", 1), [("a", "D"), ("b", "A")]),
            (("H", 2, "V", 1), [("a", "H"), ("a", "H"), ("b", "V")]),
            (("H", 2, "D", 1), [("a", "H"), ("a", "H"), ("b", "D")]),
            (("V", 3, "A", 2), [("a", "V")] * 3 + [("b", "A")] * 2),
        ],
    )
    def test_matches_bruteforce(self, config, photons):
        occs, probs = occupation_distribution(*config)
        assert occs.dtype == np.int8 and occs.shape == (len(probs), 4)
        got = dict(zip(map(tuple, occs.tolist()), probs))
        want = occupation_probs(photons)
        assert set(got) == set(want)
        for occ in want:
            assert got[occ] == pytest.approx(want[occ], abs=1e-12), (config, occ)

    def test_normalized(self):
        _, probs = occupation_distribution("D", 4, "A", 4)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)


class TestOutcomeProbabilities:
    def test_hv_ideal(self):
        p_minus, p_plus = engine_outcome("H", 1, "V", 1)
        assert p_minus == pytest.approx(0.5, abs=1e-12)
        assert p_plus == pytest.approx(0.5, abs=1e-12)

    def test_hh_bunches(self):
        p_minus, p_plus = engine_outcome("H", 1, "H", 1)
        assert p_minus == pytest.approx(0.0, abs=1e-12)
        assert p_plus == pytest.approx(0.0, abs=1e-12)

    def test_x_basis_correlations(self):
        p_minus, p_plus = engine_outcome("D", 1, "D", 1)
        assert p_minus == pytest.approx(0.0, abs=1e-12)
        assert p_plus == pytest.approx(0.5, abs=1e-12)
        p_minus, p_plus = engine_outcome("D", 1, "A", 1)
        assert p_minus == pytest.approx(0.5, abs=1e-12)
        assert p_plus == pytest.approx(0.0, abs=1e-12)

    def test_vacuum_no_darks_fails(self):
        p_minus, p_plus = engine_outcome("H", 0, "H", 0)
        assert p_minus == 0.0 and p_plus == 0.0

    @pytest.mark.parametrize(
        "config,photons",
        [
            (("H", 1, "V", 1), [("a", "H"), ("b", "V")]),
            (("H", 2, "V", 2), [("a", "H")] * 2 + [("b", "V")] * 2),
            (("D", 2, "A", 2), [("a", "D")] * 2 + [("b", "A")] * 2),
            (("H", 0, "V", 0), []),
        ],
    )
    def test_imperfect_detectors_vs_oracle(self, config, photons):
        eta, dark = 0.7, 0.01
        p_minus, p_plus = engine_outcome(*config, eta=eta, dark=dark)
        want_minus, want_plus, _ = outcome_probs(photons, eta=eta, dark=dark)
        assert p_minus == pytest.approx(want_minus, abs=1e-12)
        assert p_plus == pytest.approx(want_plus, abs=1e-12)


class TestRelayTable:
    def test_small_inputs_vs_oracle(self):
        # every entry with k_a + k_b <= 5, all 16 polarization pairs, filled
        # in one batched call
        eta, dark = 0.7, 0.01
        profile = SystemProfile(distance_km=0.0, detector_efficiency=eta, dark_count_prob=dark)
        tables = ChannelTables(CONFIG, CONFIG, profile)
        inputs = [(pa, ka, pb, kb) for pa in range(4) for pb in range(4)
                  for ka in range(6) for kb in range(6 - ka)]
        got = tables.relay_outcomes(*np.array(inputs).T)
        for (pa, ka, pb, kb), (p_minus, p_plus) in zip(inputs, got):
            photons = [("a", "HVDA"[pa])] * ka + [("b", "HVDA"[pb])] * kb
            want_minus, want_plus, _ = outcome_probs(photons, eta=eta, dark=dark)
            assert p_minus == pytest.approx(want_minus, abs=1e-12), (pa, ka, pb, kb)
            assert p_plus == pytest.approx(want_plus, abs=1e-12), (pa, ka, pb, kb)


class TestRelayBsm:
    def test_monte_carlo_matches_oracle(self):
        rng = np.random.default_rng(7)
        shots = 20_000
        tally = announce(ChannelTables(CONFIG, CONFIG, IDEAL), 0, 1, 1, 1, shots, rng)
        want_minus, want_plus, _ = outcome_probs([("a", "H"), ("b", "V")])
        assert tally[2] == 0
        for count, want in zip(tally, (want_minus, want_plus)):
            assert abs(count - shots * want) < 3 * math.sqrt(shots * want * (1 - want))

    def test_bunching_never_succeeds(self):
        rng = np.random.default_rng(11)
        tables = ChannelTables(CONFIG, CONFIG, IDEAL)
        for pol in (0, 1):  # H/H and V/V
            assert announce(tables, pol, 1, pol, 1, 2000, rng)[2] == 2000

    def test_vacuum_fails(self):
        rng = np.random.default_rng(3)
        tables = ChannelTables(CONFIG, CONFIG, IDEAL)
        assert announce(tables, 0, 0, 1, 0, 2000, rng)[2] == 2000
        assert tuple(tables.relay_outcomes([0], [0], [1], [0])[0]) == (0.0, 0.0)


class TestOneSideAnnouncements:
    @pytest.mark.parametrize(
        "eta,dark,mis",
        [(1.0, 0.0, 0.0), (0.145, 6.02e-6, 0.01), (0.93, 5e-4, 0.3), (0.5, 0.01, 1.0)],
    )
    def test_polarization_independence(self, eta, dark, mis):
        # the session engine thins single-side pulses with one constant per
        # party; that is only exact if a lone photon announces independently
        # of its polarization, frame rotation included
        engine = RelayEngine(eta, dark, mis)
        values = set()
        for pol in "HVDA":
            for key in ((pol, 1, "H", 0), ("H", 0, pol, 1)):
                p_minus, p_plus = engine.outcome_probabilities(*key)
                values.add((round(p_minus, 15), round(p_plus, 15)))
        assert len(values) == 1


class TestSiftBit:
    # bell 0 = psi_minus, bell 1 = psi_plus; basis 0 = Z, basis 1 = X
    def test_z_basis_flips(self):
        bits = _sift_bits(np.array([0, 0]), np.array([0, 1]), np.array([1, 0]))
        assert bits.tolist() == [0, 1]

    def test_x_basis(self):
        for bit in (0, 1):
            raw = np.array([bit, bit])
            assert _sift_bits(np.array([1, 1]), np.array([1, 0]), raw).tolist() == [bit, bit ^ 1]
