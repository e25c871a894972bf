"""Three-party signing from mismatch counts: the honest messaging stage and
Monte-Carlo adversaries that sanity-check the analytic bounds.

A recipient counts where Alice's declared signature differs from its key
after symmetrization, separately on the half it kept and the half it was
forwarded, and accepts only if both counts lie strictly below threshold * L/2
(Amiri et al., PRA 93, 032325 (2016)).  The signature bits cancel out of that
comparison, so only the mismatch counts are simulated.

The adversaries are deliberately restricted: an Alice who plants a fixed
number of mismatches, and a Bob who copies the half he forwarded to Charlie
and guesses the rest.  They check the bound formulas empirically at desk
scale; the analytic bounds, not these simulators, carry the general-attack
claims.
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import binomial_tail, count_below
from .errors import ValidationError


def _accepts(direct, forwarded, threshold: float, length: int):
    """Both half counts lie strictly below threshold * L/2."""
    limit = threshold * (length / 2.0)
    return (direct < limit) & (forwarded < limit)


def _shuffled_halves(pattern: np.ndarray, rng: np.random.Generator) -> tuple[int, int]:
    """Mismatches on the kept and sent halves of a uniformly shuffled pattern."""
    shuffled = pattern[rng.permutation(len(pattern))]
    half = len(pattern) // 2
    return int(shuffled[:half].sum()), int(shuffled[half:].sum())


def simulate_honest_run(
    length: int,
    error_rate_b: float,
    error_rate_c: float,
    s_a: float,
    s_v: float,
    seed: int,
    message: int = 0,
) -> dict:
    """One honest run: Bob verifies at s_a, forwards, Charlie verifies at s_v.

    Draws, for each message up to ``message``, Alice's two signature strings,
    the Bernoulli mismatch patterns of Bob's and Charlie's strings, and the
    two symmetrization shuffles, in that order.  Returns a JSON-serializable
    transcript.
    """
    if length % 2 == 1:
        raise ValidationError("signature length must be even")
    rng = np.random.default_rng(seed)
    for _ in range(message + 1):
        # the signature bits cancel out of every comparison, but they are
        # drawn so the stream is the same as a run that builds the keys
        rng.integers(0, 2, length, dtype=np.int8)
        rng.integers(0, 2, length, dtype=np.int8)
        pat_b = rng.random(length) < error_rate_b
        pat_c = rng.random(length) < error_rate_c
        b_kept, b_sent = _shuffled_halves(pat_b, rng)
        c_kept, c_sent = _shuffled_halves(pat_c, rng)

    def verdict(direct, forwarded, threshold):
        return {"accepted": bool(_accepts(direct, forwarded, threshold, length)),
                "mismatches_direct": direct, "mismatches_forwarded": forwarded,
                "threshold_used": threshold}

    bob = verdict(b_kept, c_sent, s_a)
    charlie = verdict(c_kept, b_sent, s_v)
    return {
        "length": length,
        "message": message,
        "s_a": s_a,
        "s_v": s_v,
        "bob": bob,
        "charlie": charlie,
        "abort": not bob["accepted"],
        "transferability_failure": bob["accepted"] and not charlie["accepted"],
    }


# -- vectorized trial batteries ---------------------------------------------
#
# Each battery draws the four half counts of every trial from their exact
# laws and applies ``_accepts``, so no array grows with trials x length.


def simulate_honest_batch(
    length: int,
    error_rate: float,
    s_a: float,
    s_v: float,
    trials: int,
    seed: int,
) -> dict:
    """Empirical abort and transferability-failure frequencies of honest
    runs with i.i.d. channel errors: each half of a Bernoulli(e) pattern
    holds Binomial(L/2, e) mismatches, independently of the other half."""
    rng = np.random.default_rng(seed)
    b_kept, b_sent, c_kept, c_sent = rng.binomial(length // 2, error_rate, (4, trials))
    bob_accepts = _accepts(b_kept, c_sent, s_a, length)
    charlie_accepts = _accepts(c_kept, b_sent, s_v, length)
    return {
        "trials": trials,
        "abort_rate": float(np.mean(~bob_accepts)),
        "transfer_failure_rate": float(np.mean(bob_accepts & ~charlie_accepts)),
    }


def simulate_repudiating_alice(
    error_rate_b: float,
    error_rate_c: float,
    length: int,
    s_a: float,
    s_v: float,
    trials: int,
    seed: int,
) -> float:
    """Alice plants exactly floor(e*L) mismatches per recipient and wins a
    trial when Bob accepts at s_a while Charlie rejects at s_v.

    After a uniform shuffle the kept half holds Hypergeometric(w, L - w, L/2)
    of the w planted mismatches and the sent half holds the rest.
    """
    rng = np.random.default_rng(seed)
    w_b = math.floor(error_rate_b * length)
    w_c = math.floor(error_rate_c * length)
    b_kept = rng.hypergeometric(w_b, length - w_b, length // 2, trials)
    c_kept = rng.hypergeometric(w_c, length - w_c, length // 2, trials)
    bob_accepts = _accepts(b_kept, w_c - c_kept, s_a, length)
    charlie_accepts = _accepts(c_kept, w_b - b_kept, s_v, length)
    return float(np.mean(bob_accepts & ~charlie_accepts))


def simulate_forging_bob(length: int, s_v: float, trials: int, seed: int) -> float:
    """Bob fabricates a declaration for Charlie: he copies the half he
    forwarded, which then shows no mismatch, and guesses the half Charlie got
    from Alice, which shows Binomial(L/2, 1/2) mismatches.  His success
    probability is exactly the forging tail that the protocol report prints."""
    rng = np.random.default_rng(seed)
    guessed = rng.binomial(length // 2, 0.5, trials)
    return float(np.mean(_accepts(guessed, 0, s_v, length)))


def forging_success_probability(length: int, s_v: float) -> float:
    """The exact success probability of `simulate_forging_bob`'s Bob:
    P(Binomial(L/2, 1/2) < s_v * L/2).

    The integer tail is divided exactly: in floats, 2.0**-half is 0 from
    L = 2150.  It is at most 2**half, so the quotient is at most 1."""
    half = length // 2
    return binomial_tail(half, count_below(s_v * half)) / 2**half
