"""Relay physics against the brute-force Fock oracle."""

import math
from collections import defaultdict

import mpmath
import numpy as np
import pytest

from mdiqds.relay import occupation_distribution, relay_table
from mdiqds.session import ChannelTables, _sift_bits
from mdiqds.sources import DecoySourceConfig, SystemProfile

from fock_oracle import click_probs, occupation_probs, outcome_probs

IDEAL = SystemProfile(distance_km=0.0, detector_efficiency=1.0, dark_count_prob=0.0)
CONFIG = DecoySourceConfig(
    intensities={"s": 0.5, "d1": 0.1, "d2": 0.0},
    intensity_probs={"s": 0.5, "d1": 0.25, "d2": 0.25},
    basis_probs={"Z": 0.5, "X": 0.5},
)


def table_entry(pol_a, k_a, pol_b, k_b, eta=1.0, dark=0.0):
    """(P(psi_minus), P(psi_plus)) of one input, read from `relay_table`."""
    return tuple(relay_table(eta, dark, 0.0)["HVDA".index(pol_a), k_a, "HVDA".index(pol_b), k_b])


def announce(tables, pol_a, k_a, pol_b, k_b, shots, rng):
    """Counts of (psi_minus, psi_plus, failure) over ``shots`` copies of one
    relay input (polarization indices H, V, D, A = 0..3), drawn as the
    per-pulse reference sampler of the session tests draws them: one uniform
    per shot against the relay table."""
    p_minus, p_plus = tables.relay[pol_a, k_a, pol_b, k_b]
    u = rng.random(shots)
    outcome = (u >= p_minus).astype(np.int64) + (u >= p_minus + p_plus)
    return np.bincount(outcome, minlength=3)


def reference_entry(pol_a, k_a, pol_b, k_b, eta, dark, misalignment):
    """(P(psi_minus), P(psi_plus)) to 40 digits: the creation-operator
    expansion in mpmath, read through the oracle's click-pattern sum."""
    mp = mpmath.mp
    with mpmath.workdps(40):
        half = mp.sqrt(mp.mpf(1) / 2)
        amplitudes = {"H": (1, 0), "V": (0, 1), "D": (half, half), "A": (half, -half)}
        theta = mp.asin(mp.sqrt(mp.mpf(misalignment)))
        h_a, v_a = amplitudes[pol_a]
        h_b, v_b = amplitudes[pol_b]
        cos_t, sin_t = mp.cos(theta), mp.sin(theta)
        h_b, v_b = cos_t * h_b - sin_t * v_b, sin_t * h_b + cos_t * v_b
        # detector modes (D1H, D1V, D2H, D2V); a -> (1 + 2)/sqrt(2), b -> (1 - 2)/sqrt(2)
        factors = [(half * h_a, half * v_a, half * h_a, half * v_a)] * k_a
        factors += [(half * h_b, half * v_b, -half * h_b, -half * v_b)] * k_b
        poly = {(0, 0, 0, 0): mp.mpf(1)}
        for vec in factors:
            nxt = defaultdict(mp.mpf)
            for occ, coeff in poly.items():
                for i in range(4):
                    nxt[occ[:i] + (occ[i] + 1,) + occ[i + 1:]] += coeff * vec[i]
            poly = nxt
        norm = mp.factorial(k_a) * mp.factorial(k_b)
        occ_probs = {occ: coeff**2 * mp.fprod(mp.factorial(n) for n in occ) / norm
                     for occ, coeff in poly.items()}
        p_minus, p_plus, _ = click_probs(occ_probs, mp.mpf(eta), mp.mpf(dark))
    return p_minus, p_plus


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
        p_minus, p_plus = table_entry("H", 1, "V", 1)
        assert p_minus == pytest.approx(0.5, abs=1e-12)
        assert p_plus == pytest.approx(0.5, abs=1e-12)

    def test_hh_bunches(self):
        p_minus, p_plus = table_entry("H", 1, "H", 1)
        assert p_minus == pytest.approx(0.0, abs=1e-12)
        assert p_plus == pytest.approx(0.0, abs=1e-12)

    def test_x_basis_correlations(self):
        p_minus, p_plus = table_entry("D", 1, "D", 1)
        assert p_minus == pytest.approx(0.0, abs=1e-12)
        assert p_plus == pytest.approx(0.5, abs=1e-12)
        p_minus, p_plus = table_entry("D", 1, "A", 1)
        assert p_minus == pytest.approx(0.5, abs=1e-12)
        assert p_plus == pytest.approx(0.0, abs=1e-12)

    def test_vacuum_no_darks_fails(self):
        p_minus, p_plus = table_entry("H", 0, "H", 0)
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
        p_minus, p_plus = table_entry(*config, eta=eta, dark=dark)
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
        got = tables.relay[tuple(np.array(inputs).T)]
        for (pa, ka, pb, kb), (p_minus, p_plus) in zip(inputs, got):
            photons = [("a", "HVDA"[pa])] * ka + [("b", "HVDA"[pb])] * kb
            want_minus, want_plus, _ = outcome_probs(photons, eta=eta, dark=dark)
            assert p_minus == pytest.approx(want_minus, abs=1e-12), (pa, ka, pb, kb)
            assert p_plus == pytest.approx(want_plus, abs=1e-12), (pa, ka, pb, kb)

    @pytest.mark.parametrize("eta,dark", [(0.145, 6.02e-6), (0.93, 1e-6)])
    def test_accuracy_vs_40_digit_reference(self, eta, dark):
        # the standard and snspd detectors at 1% misalignment: entries that
        # dark counts dominate must not lose digits to cancellation
        table = relay_table(eta, dark, 0.01)
        for pa, pb in np.ndindex(4, 4):
            for ka in range(4):
                for kb in range(4 - ka):
                    want = reference_entry("HVDA"[pa], ka, "HVDA"[pb], kb, eta, dark, 0.01)
                    for got, ref in zip(table[pa, ka, pb, kb], want):
                        if ref == 0:
                            assert got == 0.0, (pa, ka, pb, kb)
                        else:
                            assert abs(got - ref) <= 1e-9 * ref, (pa, ka, pb, kb, got, ref)

    def test_high_photon_numbers_vs_expansion(self):
        # every entry with k_a + k_b <= 10, beyond the brute-force oracle's
        # reach, against the term-by-term expansion on a lossy misaligned link
        eta, dark, mis = 0.5, 0.01, 0.05
        table = relay_table(eta, dark, mis)
        angle = math.asin(math.sqrt(mis))
        for pa, pb in np.ndindex(4, 4):
            for ka in range(11):
                for kb in range(11 - ka):
                    occs, probs = occupation_distribution("HVDA"[pa], ka, "HVDA"[pb], kb, angle)
                    want = click_probs(dict(zip(map(tuple, occs.tolist()), probs)), eta, dark)
                    np.testing.assert_allclose(table[pa, ka, pb, kb], want[:2], rtol=0,
                                               atol=1e-14, err_msg=str((pa, ka, pb, kb)))

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    @pytest.mark.parametrize("dark", [0.0, 1.0])
    @pytest.mark.parametrize("mis", [0.0, 0.5, 1.0])
    def test_entries_are_probabilities(self, eta, dark, mis):
        table = relay_table(eta, dark, mis)
        assert np.all((table >= 0.0) & (table <= 1.0))
        assert np.all(table.sum(axis=-1) <= 1.0)


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
        assert tuple(tables.relay[0, 0, 1, 0]) == (0.0, 0.0)


class TestOneSideAnnouncements:
    @pytest.mark.parametrize(
        "eta,dark,mis",
        [(1.0, 0.0, 0.0), (0.145, 6.02e-6, 0.01), (0.93, 5e-4, 0.3), (0.5, 0.01, 1.0)],
    )
    def test_polarization_independence(self, eta, dark, mis):
        # a lone photon announces (through a dark count on the other side)
        # independently of its polarization, frame rotation included
        table = relay_table(eta, dark, mis)
        values = set()
        for pol in range(4):
            for key in ((pol, 1, 0, 0), (0, 0, pol, 1)):
                p_minus, p_plus = table[key]
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
