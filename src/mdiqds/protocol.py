"""Three-party signing from mismatch counts: the honest messaging stage and
Monte-Carlo adversaries that sanity-check the analytic bounds.

A recipient counts where Alice's declared signature differs from its key
after symmetrization, separately on the half it kept and the half it was
forwarded, and accepts only if both counts lie strictly below threshold * L/2
(Amiri et al., PRA 93, 032325 (2016)).  The signature bits cancel out of that
comparison, so only the mismatch patterns and the shuffles are simulated.

The adversaries are deliberately restricted (an Alice who plants a fixed
number of mismatches, a Bob who guesses).  They check the bound formulas
empirically at desk scale; the analytic bounds, not these simulators, carry
the general-attack claims.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError


def _half_counts(patterns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split mismatch patterns into kept/sent halves after a per-row shuffle."""
    half = patterns.shape[-1] // 2
    return patterns[..., :half].sum(axis=-1), patterns[..., half:].sum(axis=-1)


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
        b_kept, b_sent = _half_counts(pat_b[rng.permutation(length)])
        c_kept, c_sent = _half_counts(pat_c[rng.permutation(length)])

    def verdict(direct, forwarded, threshold):
        limit = threshold * (length / 2.0)
        return {"accepted": bool(direct < limit and forwarded < limit),
                "mismatches_direct": int(direct), "mismatches_forwarded": int(forwarded),
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
# Each battery applies the same counting rule as ``simulate_honest_run`` with
# one permutation or bit matrix per trial, so 10^4 trials stay in numpy.


def simulate_honest_batch(
    length: int,
    error_rate: float,
    s_a: float,
    s_v: float,
    trials: int,
    seed: int,
) -> dict:
    """Honest-run statistics over many trials with i.i.d. channel errors.

    Returns empirical abort and transferability-failure frequencies.
    """
    rng = np.random.default_rng(seed)
    limit_a = s_a * (length / 2.0)
    limit_v = s_v * (length / 2.0)
    pat_b = rng.random((trials, length)) < error_rate
    pat_c = rng.random((trials, length)) < error_rate
    b_kept, b_sent = _half_counts(pat_b)
    c_kept, c_sent = _half_counts(pat_c)
    bob_accepts = (b_kept < limit_a) & (c_sent < limit_a)
    charlie_accepts = (c_kept < limit_v) & (b_sent < limit_v)
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
    trial when Bob accepts at s_a while Charlie rejects at s_v."""
    rng = np.random.default_rng(seed)
    w_b = math.floor(error_rate_b * length)
    w_c = math.floor(error_rate_c * length)
    base_b = np.zeros((trials, length), dtype=bool)
    base_b[:, :w_b] = True
    base_c = np.zeros((trials, length), dtype=bool)
    base_c[:, :w_c] = True
    pat_b = rng.permuted(base_b, axis=1)
    pat_c = rng.permuted(base_c, axis=1)
    b_kept, b_sent = _half_counts(pat_b)
    c_kept, c_sent = _half_counts(pat_c)
    limit_a = s_a * (length / 2.0)
    limit_v = s_v * (length / 2.0)
    bob_accepts = (b_kept < limit_a) & (c_sent < limit_a)
    charlie_rejects = (c_kept >= limit_v) | (b_sent >= limit_v)
    return float(np.mean(bob_accepts & charlie_rejects))


def simulate_forging_bob(
    strategy: str,
    length: int,
    s_v: float,
    trials: int,
    seed: int,
) -> float:
    """Bob fabricates a declaration for Charlie; only the half Charlie got
    directly from Alice is unknown to him.

    Strategies: "random-guess" guesses every unknown and known bit uniformly;
    "copy-known-half-randomize-rest" reproduces the half Bob forwarded and
    guesses the rest.
    """
    if strategy not in ("random-guess", "copy-known-half-randomize-rest"):
        raise ValidationError(f"unknown forging strategy: {strategy}")
    rng = np.random.default_rng(seed)
    half = length // 2
    limit_v = s_v * (length / 2.0)
    unknown_mismatch = rng.integers(0, 2, (trials, half), dtype=np.int8) ^ rng.integers(
        0, 2, (trials, half), dtype=np.int8
    )
    direct_counts = unknown_mismatch.sum(axis=1)
    if strategy == "copy-known-half-randomize-rest":
        forwarded_counts = np.zeros(trials, dtype=np.int64)
    else:
        known_mismatch = rng.integers(0, 2, (trials, half), dtype=np.int8) ^ rng.integers(
            0, 2, (trials, half), dtype=np.int8
        )
        forwarded_counts = known_mismatch.sum(axis=1)
    success = (direct_counts < limit_v) & (forwarded_counts < limit_v)
    return float(np.mean(success))
