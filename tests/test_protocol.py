"""Protocol mechanics against the record-level reference and exact
enumeration oracles."""

import functools
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mdiqds.errors import ValidationError
from mdiqds.protocol import (
    forging_success_probability,
    honest_cells,
    repudiation_cells,
    simulate_forging_bob,
    simulate_honest_batch,
    simulate_honest_run,
    simulate_repudiating_alice,
)

from protocol_oracle import (
    DIRECT,
    FORWARDED,
    KGP_BOB,
    KGP_CHARLIE,
    Declaration,
    KeyRecord,
    distribute,
    honest_transcript,
    sign,
    symmetrize,
    verify,
)

# -- exact oracles -----------------------------------------------------------


def binom_pmf(k, n, p):
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


def binom_cdf(k, n, p):
    return sum(binom_pmf(j, n, p) for j in range(0, k + 1))


# cached: exact_repudiation reads each kept count's probability once per
# count of the other string
@functools.lru_cache(maxsize=None)
def hyper_pmf(k, population, successes, draws):
    if k < max(0, draws - (population - successes)) or k > min(successes, draws):
        return 0.0
    return (
        math.comb(successes, k)
        * math.comb(population - successes, draws - k)
        / math.comb(population, draws)
    )


def accept_limit(threshold, length):
    """Largest mismatch count strictly below threshold * L/2."""
    return math.ceil(threshold * length / 2.0) - 1


def half_accept_prob(length, error_rate, threshold):
    """A Binomial(L/2, e) half count lies strictly below threshold * L/2."""
    return binom_cdf(accept_limit(threshold, length), length // 2, error_rate)


def exact_honest_abort(length, error_rate, s_a):
    return 1.0 - half_accept_prob(length, error_rate, s_a) ** 2


def exact_transfer_failure(length, error_rate, s_a, s_v):
    # Bob accepts both of his halves, Charlie rejects one of his; the four
    # half counts of an honest run are independent
    p_a = half_accept_prob(length, error_rate, s_a)
    p_v = half_accept_prob(length, error_rate, s_v)
    return p_a**2 * (1.0 - p_v**2)


def exact_repudiation(length, e_b, e_c, s_a, s_v):
    half = length // 2
    w_b, w_c = math.floor(e_b * length), math.floor(e_c * length)
    lim_a = accept_limit(s_a, length)
    lim_v = accept_limit(s_v, length)
    total = 0.0
    for x1 in range(w_b + 1):
        for y1 in range(w_c + 1):
            bob_accepts = x1 <= lim_a and (w_c - y1) <= lim_a
            charlie_rejects = y1 > lim_v or (w_b - x1) > lim_v
            if bob_accepts and charlie_rejects:
                total += hyper_pmf(x1, length, w_b, half) * hyper_pmf(
                    y1, length, w_c, half
                )
    return total


def exact_forging(length, s_v):
    # the copied half shows no mismatch; the guessed half is Binomial(L/2, 1/2)
    return half_accept_prob(length, 0.5, s_v)


# -- symmetrization ----------------------------------------------------------


class TestSymmetrize:
    def test_minimal_structure(self):
        rng = np.random.default_rng(0)
        s_b, s_c = symmetrize(np.array([0, 1]), np.array([1, 1]), rng)
        for key in (s_b, s_c):
            assert len(key) == 2
            assert sum(r.origin == DIRECT for r in key) == 1
            assert sum(r.origin == FORWARDED for r in key) == 1

    def test_conservation(self):
        rng = np.random.default_rng(1)
        k_b = rng.integers(0, 2, 40)
        k_c = rng.integers(0, 2, 40)
        s_b, s_c = symmetrize(k_b, k_c, rng)
        combined = Counter(
            (r.source_kgp, r.position, r.bit) for r in s_b + s_c
        )
        expected = Counter(
            [(KGP_BOB, i, int(b)) for i, b in enumerate(k_b)]
            + [(KGP_CHARLIE, i, int(b)) for i, b in enumerate(k_c)]
        )
        assert combined == expected

    def test_positions_uniform_chi_square(self):
        length, runs = 100, 10_000
        rng = np.random.default_rng(2)
        k = np.zeros(length, dtype=np.int8)
        counts = np.zeros(2 * length)
        for _ in range(runs):
            s_b, _ = symmetrize(k, k, rng)
            for r in s_b:
                offset = 0 if r.source_kgp == KGP_BOB else length
                counts[offset + r.position] += 1
        chi2 = np.sum((counts - runs / 2) ** 2 / (runs / 4))
        dof = 2 * length
        assert abs(chi2 - dof) < 5 * math.sqrt(2 * dof)

    def test_odd_length_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValidationError):
            symmetrize(np.zeros(3), np.zeros(3), rng)


# -- signing and verification ------------------------------------------------
#
# The record-level reference signs and verifies literally; the production
# transcript is checked against it below.


class TestSignVerify:
    @pytest.fixture()
    def state(self):
        return distribute(20, 0.0, 0.0, np.random.default_rng(7))

    def test_sign_idempotent(self, state):
        first = sign(state, 0)
        second = sign(state, 0)
        assert np.array_equal(first.signature_bob, second.signature_bob)
        assert np.array_equal(first.signature_charlie, second.signature_charlie)
        assert first.length == 2 * state.length

    def test_perfect_match_accepted(self, state):
        result = verify(sign(state, 1), state.bob_keys[1], 0.3, state.length)
        assert result.accepted
        assert result.mismatches_direct == 0
        assert result.mismatches_forwarded == 0

    def test_threshold_is_strict(self, state):
        declaration = sign(state, 0)
        key = [r for r in state.bob_keys[0]]
        # plant mismatches in exactly ceil(s_a * L/2) direct records
        s_a = 0.3
        need = math.ceil(s_a * state.length / 2)
        flipped = 0
        for i, record in enumerate(key):
            if record.origin == DIRECT and flipped < need:
                key[i] = KeyRecord(
                    record.position, record.bit ^ 1, record.origin, record.source_kgp
                )
                flipped += 1
        result = verify(declaration, key, s_a, state.length)
        assert result.mismatches_direct == need
        assert not result.accepted

    def test_both_halves_required(self, state):
        declaration = sign(state, 0)
        key = list(state.bob_keys[0])
        for i, record in enumerate(key):
            if record.origin == FORWARDED:
                key[i] = KeyRecord(
                    record.position, record.bit ^ 1, record.origin, record.source_kgp
                )
        result = verify(declaration, key, 0.45, state.length)
        assert result.mismatches_direct == 0
        assert result.mismatches_forwarded == state.length // 2
        assert not result.accepted

    def test_malformed_declaration(self, state):
        bad = Declaration(0, np.zeros(3, dtype=np.int8), np.zeros(20, dtype=np.int8))
        with pytest.raises(ValidationError):
            verify(bad, state.bob_keys[0], 0.3, state.length)

    def test_zero_noise_honest_run(self):
        transcript = simulate_honest_run(200, 0.0, 0.0, 0.1, 0.2, seed=5)
        assert not transcript["abort"]
        assert not transcript["transferability_failure"]
        assert transcript["bob"]["mismatches_direct"] == 0
        assert transcript["charlie"]["mismatches_forwarded"] == 0

    def test_desk_scale_honest_abort_example(self):
        # tertile thresholds around a 1% channel at L = 10^4: the abort
        # frequency stays below the sampling bound at the realized rate
        length, error = 10_000, 0.01
        s_a, s_v = 0.02, 0.03
        trials = 1000
        stats = simulate_honest_batch(length, error, s_a, s_v, trials, seed=47)
        half = length // 2
        eps_empirical = 1.0 - binom_cdf(math.ceil(s_a * half) - 1, half, error)
        assert stats["abort_rate"] <= 2.0 * eps_empirical + 3.0 / math.sqrt(trials)
        assert stats["transfer_failure_rate"] <= 2.0 * math.exp(
            -0.25 * (s_v - s_a) ** 2 * length
        ) + 3.0 / math.sqrt(trials)


class TestCompactTranscript:
    @pytest.mark.parametrize("length", [24, 50, 1000])
    @pytest.mark.parametrize("message", [0, 1])
    def test_matches_record_reference(self, length, message):
        # L = 50 is not a multiple of 4, where merging Alice's two int8
        # draws into one call would shift the stream
        for seed in range(40):
            # thresholds at e and 1.3 e give aborts, transfer failures and
            # clean runs at every length
            error = (0.05, 0.2, 0.4)[seed % 3]
            args = (length, error, 0.6 * error, error, 1.3 * error, seed)
            # compared as the report renders them, so numpy scalars fail
            compact = json.dumps(simulate_honest_run(*args, message=message), sort_keys=True)
            reference = json.dumps(honest_transcript(*args, message=message), sort_keys=True)
            assert compact == reference


# -- Monte-Carlo vs exact oracles --------------------------------------------


class TestAgainstOracles:
    def test_honest_abort_matches_enumeration(self):
        length, error, s_a = 24, 0.25, 0.35
        trials = 20_000
        stats = simulate_honest_batch(length, error, s_a, 0.6, trials, seed=11)
        exact = exact_honest_abort(length, error, s_a)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(stats["abort_rate"] - exact) < 3 * sigma

    def test_repudiation_matches_enumeration(self):
        length, e, s_a, s_v = 24, 0.25, 0.35, 0.4
        trials = 20_000
        rate = simulate_repudiating_alice(e, e, length, s_a, s_v, trials, seed=13)
        exact = exact_repudiation(length, e, e, s_a, s_v)
        assert 0.01 < exact < 0.99  # parameters chosen to make this nontrivial
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(rate - exact) < 3 * sigma

    def test_transfer_failure_matches_enumeration(self):
        length, error, s_a, s_v = 24, 0.25, 0.35, 0.5
        trials = 20_000
        stats = simulate_honest_batch(length, error, s_a, s_v, trials, seed=12)
        exact = exact_transfer_failure(length, error, s_a, s_v)
        assert 0.01 < exact < 0.99
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(stats["transfer_failure_rate"] - exact) < 3 * sigma

    def test_forging_matches_enumeration(self):
        length, s_v = 24, 0.4
        trials = 20_000
        rate = simulate_forging_bob(length, s_v, trials, seed=17)
        exact = exact_forging(length, s_v)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(rate - exact) < 3 * sigma

    def test_scalar_runs_match_enumeration(self):
        length, error, s_a = 24, 0.25, 0.35
        runs = 2000
        aborts = sum(
            simulate_honest_run(length, error, error, s_a, 0.6, seed=1000 + i)["abort"]
            for i in range(runs)
        )
        exact = exact_honest_abort(length, error, s_a)
        sigma = math.sqrt(exact * (1 - exact) / runs)
        assert abs(aborts / runs - exact) < 3.5 * sigma


# -- outcome cells of the batteries -------------------------------------------

CELL_LENGTHS = (24, 200, 1000)
CELL_RATES = (0.0, 0.01, 0.05, 0.25, 0.5, 1.0)
# (s_a, s_v) in (0, 0.6]; the last pair, s_a > s_v, lies outside the
# protocol's preconditions and makes Alice win almost surely
CELL_THRESHOLDS = ((0.02, 0.05), (0.15, 0.25), (0.35, 0.6), (0.6, 0.1))


def planted(w, length):
    """An error rate whose floor(e * L) is exactly w."""
    return min((w + 0.5) / length, 1.0)


class TestOutcomeCells:
    @pytest.mark.parametrize("length", CELL_LENGTHS)
    def test_honest_cells_match_enumeration(self, length):
        for error in CELL_RATES:
            for s_a, s_v in CELL_THRESHOLDS:
                abort, failure, _ = honest_cells(length, error, s_a, s_v)
                assert abort == pytest.approx(exact_honest_abort(length, error, s_a),
                                              rel=0, abs=1e-12)
                assert failure == pytest.approx(
                    exact_transfer_failure(length, error, s_a, s_v), rel=0, abs=1e-12)

    @pytest.mark.parametrize("length", CELL_LENGTHS)
    def test_repudiation_cells_match_enumeration(self, length):
        # the same rate planted in both strings, and the rates paired in
        # reverse order
        for e_b, e_c in [*zip(CELL_RATES, CELL_RATES), *zip(CELL_RATES, CELL_RATES[::-1])]:
            for s_a, s_v in CELL_THRESHOLDS:
                win, _ = repudiation_cells(e_b, e_c, length, s_a, s_v)
                assert win == pytest.approx(exact_repudiation(length, e_b, e_c, s_a, s_v),
                                            rel=0, abs=1e-12)

    @pytest.mark.parametrize("length", [2, 24, 1000, 10**5, 10**6])
    def test_cells_are_a_distribution(self, length):
        # at L = 10^5 a lower tail summed over the full support came out a few
        # ulps above 1, so a cell taken as 1 - tail went negative
        half = length // 2
        edges = {w for w in (0, 1, half - 1, half, half + 1, length - 1, length) if w <= length}
        thresholds = CELL_THRESHOLDS + ((1e-9, 1e-9), (0.6, 0.6))
        cells = [honest_cells(length, error, s_a, s_v)
                 for error in (0.0, 1e-9, 0.05, 0.5, 1.0) for s_a, s_v in thresholds]
        cells += [repudiation_cells(planted(w_b, length), planted(w_c, length), length, s_a, s_v)
                  for w_b in edges for w_c in edges for s_a, s_v in thresholds[1::2]]
        cells += [repudiation_cells(e, e, length, s_a, s_v)
                  for e in (0.05, 0.2, 0.3) for s_a, s_v in thresholds]
        for cell in cells:
            assert all(type(p) is float and p >= 0.0 for p in cell), cell
            assert sum(cell) == pytest.approx(1.0, rel=0, abs=1e-12), cell

    def test_rates_outside_the_unit_interval_rejected(self):
        for error in (-0.01, 1.01, math.nan):
            with pytest.raises(ValidationError):
                honest_cells(24, error, 0.1, 0.2)
            with pytest.raises(ValidationError):
                repudiation_cells(0.1, error, 24, 0.1, 0.2)

    def test_batteries_within_three_sigma_at_a_million_trials(self):
        trials = 10**6
        honest = simulate_honest_batch(24, 0.25, 0.35, 0.5, trials, seed=41)
        rate = simulate_repudiating_alice(0.25, 0.25, 24, 0.35, 0.4, trials, seed=43)
        # the report renders these, so they must be Python floats
        assert json.dumps({"honest": honest, "rate": rate})
        for got, exact in ((honest["abort_rate"], exact_honest_abort(24, 0.25, 0.35)),
                           (honest["transfer_failure_rate"],
                            exact_transfer_failure(24, 0.25, 0.35, 0.5)),
                           (rate, exact_repudiation(24, 0.25, 0.25, 0.35, 0.4))):
            assert 0.01 < exact < 0.99
            assert abs(got - exact) < 3 * math.sqrt(exact * (1 - exact) / trials)

    def test_memory_does_not_grow_with_trials(self):
        simulate_honest_batch(1000, 0.05, 0.15, 0.25, 10, seed=1)  # warm caches
        tracemalloc.start()
        try:
            simulate_honest_batch(1000, 0.05, 0.15, 0.25, 10**7, seed=1)
            simulate_repudiating_alice(0.2, 0.2, 1000, 0.15, 0.25, 10**7, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestBoundConformance:
    def test_error_free_alice_cannot_repudiate(self):
        # nothing to plant: Charlie accepts every declaration at s_v > 0
        rate = simulate_repudiating_alice(0.0, 0.0, 200, 0.1, 0.2, 2000, seed=19)
        assert rate == 0.0

    def test_saturated_charlie_errors_fail_at_bob(self):
        # with e_C = 1 every element Charlie forwards mismatches, so Bob
        # rejects the forwarded half almost surely and repudiation dies
        rate = simulate_repudiating_alice(0.05, 1.0, 200, 0.3, 0.4, 2000, seed=20)
        exact = exact_repudiation(200, 0.05, 1.0, 0.3, 0.4)
        assert exact < 1e-6
        assert rate <= 3.0 / 2000

    def test_repudiation_below_analytic_bound(self):
        length, s_a, s_v = 1000, 0.15, 0.25
        e = (s_a + s_v) / 2.0
        trials = 3000
        rate = simulate_repudiating_alice(e, e, length, s_a, s_v, trials, seed=23)
        bound = 2.0 * math.exp(-0.25 * (s_v - s_a) ** 2 * length)
        assert rate <= bound + 3.0 * math.sqrt(max(rate, 1.0 / trials) / trials)

    def test_forging_vanishes_for_large_keys(self):
        rate = simulate_forging_bob(400, 0.25, 3000, seed=29)
        assert rate == 0.0

    def test_forging_certain_in_majority_regime(self):
        # hypothetical s_v >= 1/2, excluded by the protocol preconditions
        rate = simulate_forging_bob(400, 0.7, 500, seed=31)
        assert rate > 0.99


class TestForgingSuccessProbability:
    # s_v > 1/2 lies outside the protocol's preconditions; those cases only
    # check the terms past C(n, n), which are zero
    @pytest.mark.parametrize("length, s_v", [
        *((length, s_v) for length in (2, 24, 1000, 10**4) for s_v in (0.0, 0.05, 0.2, 0.45)),
        (2, 1.0), (24, 0.7), (24, 1.0), (1000, 0.7),
    ])
    def test_equals_binomial_coefficient_sum(self, length, s_v):
        half = length // 2
        limit = max(math.ceil(s_v * half) - 1, 0)
        tail = sum(math.comb(half, m) for m in range(limit + 1))
        assert forging_success_probability(length, s_v) == min(tail / 2**half, 1.0)
