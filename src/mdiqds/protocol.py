"""Three-party signing: distribution-stage symmetrization, messaging-stage
verification, and Monte-Carlo adversaries that sanity-check the analytic
bounds.

The simulators implement deliberately restricted adversaries (an Alice who
plants a fixed number of mismatches, a Bob who guesses).  They exist to
check the bound formulas empirically at desk scale; the analytic bounds,
not these simulators, carry the general-attack claims.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError

DIRECT = "direct"
FORWARDED = "forwarded"
KGP_BOB = "alice_bob"
KGP_CHARLIE = "alice_charlie"


@dataclass(frozen=True)
class KeyRecord:
    """One key element held by a recipient after symmetrization."""

    position: int
    bit: int
    origin: str       # DIRECT: from the holder's own KGP with Alice
    source_kgp: str   # which KGP string the position indexes into


@dataclass(frozen=True)
class Declaration:
    message: int
    signature_bob: np.ndarray
    signature_charlie: np.ndarray

    @property
    def length(self) -> int:
        return len(self.signature_bob) + len(self.signature_charlie)


@dataclass(frozen=True)
class VerificationResult:
    accepted: bool
    mismatches_direct: int
    mismatches_forwarded: int
    threshold_used: float


@dataclass
class SignedKeyState:
    """Keys of all three parties for both one-bit messages."""

    length: int
    alice_signatures: dict   # message -> {KGP_BOB: bits, KGP_CHARLIE: bits}
    bob_keys: dict           # message -> list[KeyRecord]
    charlie_keys: dict       # message -> list[KeyRecord]


def symmetrize(
    k_b: np.ndarray,
    k_c: np.ndarray,
    rng: np.random.Generator,
) -> tuple[list[KeyRecord], list[KeyRecord]]:
    """Bob and Charlie each forward a uniformly random half of their string
    over the secret channel, keeping a record of what came from where.

    Forwarded bits are never used again by the forwarder, so each output key
    holds exactly L/2 kept and L/2 received records.
    """
    length = len(k_b)
    if length != len(k_c):
        raise ValidationError("key strings must have equal length")
    if length % 2 == 1:
        raise ValidationError("key length must be even for symmetrization")
    half = length // 2
    order_b = rng.permutation(length)
    order_c = rng.permutation(length)
    bob_keeps, bob_sends = order_b[:half], order_b[half:]
    charlie_keeps, charlie_sends = order_c[:half], order_c[half:]

    s_b = [KeyRecord(int(p), int(k_b[p]), DIRECT, KGP_BOB) for p in bob_keeps]
    s_b += [KeyRecord(int(p), int(k_c[p]), FORWARDED, KGP_CHARLIE) for p in charlie_sends]
    s_c = [KeyRecord(int(p), int(k_c[p]), DIRECT, KGP_CHARLIE) for p in charlie_keeps]
    s_c += [KeyRecord(int(p), int(k_b[p]), FORWARDED, KGP_BOB) for p in bob_sends]
    return s_b, s_c


def distribute(
    length: int,
    error_rate_b: float,
    error_rate_c: float,
    rng: np.random.Generator,
    planted: bool = False,
) -> SignedKeyState:
    """Run the distribution stage with an error-rate model of the KGPs.

    ``planted=True`` puts exactly floor(e*L) mismatches in each recipient
    string (the repudiating-Alice model); otherwise mismatches are i.i.d.
    Bernoulli (the honest channel model).
    """
    if length % 2 == 1:
        raise ValidationError("signature length must be even")
    alice_signatures = {}
    bob_keys = {}
    charlie_keys = {}
    for message in (0, 1):
        a_b = rng.integers(0, 2, length, dtype=np.int8)
        a_c = rng.integers(0, 2, length, dtype=np.int8)
        k_b = a_b ^ _mismatch_pattern(length, error_rate_b, planted, rng)
        k_c = a_c ^ _mismatch_pattern(length, error_rate_c, planted, rng)
        s_b, s_c = symmetrize(k_b, k_c, rng)
        alice_signatures[message] = {KGP_BOB: a_b, KGP_CHARLIE: a_c}
        bob_keys[message] = s_b
        charlie_keys[message] = s_c
    return SignedKeyState(length, alice_signatures, bob_keys, charlie_keys)


def _mismatch_pattern(length, rate, planted, rng):
    if planted:
        pattern = np.zeros(length, dtype=np.int8)
        pattern[: math.floor(rate * length)] = 1
        return rng.permutation(pattern)
    return (rng.random(length) < rate).astype(np.int8)


def sign(state: SignedKeyState, message: int) -> Declaration:
    """Alice declares (m, Sig_m); repeated calls return identical data."""
    sig = state.alice_signatures[message]
    return Declaration(message, sig[KGP_BOB].copy(), sig[KGP_CHARLIE].copy())


def verify(
    declaration: Declaration,
    key: list[KeyRecord],
    threshold: float,
    length: int,
) -> VerificationResult:
    """Count mismatches separately over the direct and forwarded halves.

    Accept iff both counts are strictly below threshold * (L/2); exact
    equality is a rejection.
    """
    if len(key) != length:
        raise ValidationError(f"key has {len(key)} records, expected {length}")
    if len(declaration.signature_bob) != length or len(declaration.signature_charlie) != length:
        raise ValidationError("malformed declaration: signature length mismatch")
    signatures = {
        KGP_BOB: declaration.signature_bob,
        KGP_CHARLIE: declaration.signature_charlie,
    }
    mismatches = {DIRECT: 0, FORWARDED: 0}
    for record in key:
        expected = int(signatures[record.source_kgp][record.position])
        if record.bit != expected:
            mismatches[record.origin] += 1
    limit = threshold * (length / 2.0)
    accepted = mismatches[DIRECT] < limit and mismatches[FORWARDED] < limit
    return VerificationResult(accepted, mismatches[DIRECT], mismatches[FORWARDED], threshold)


def simulate_honest_run(
    length: int,
    error_rate_b: float,
    error_rate_c: float,
    s_a: float,
    s_v: float,
    seed: int,
    message: int = 0,
) -> dict:
    """Full honest pipeline: distribute, sign, Bob verifies at s_a, forwards,
    Charlie verifies at s_v.  Returns a JSON-serializable transcript."""
    rng = np.random.default_rng(seed)
    state = distribute(length, error_rate_b, error_rate_c, rng)
    declaration = sign(state, message)
    bob = verify(declaration, state.bob_keys[message], s_a, length)
    charlie = verify(declaration, state.charlie_keys[message], s_v, length)
    return {
        "length": length,
        "message": message,
        "s_a": s_a,
        "s_v": s_v,
        "bob": asdict(bob),
        "charlie": asdict(charlie),
        "abort": not bob.accepted,
        "transferability_failure": bob.accepted and not charlie.accepted,
    }


# -- vectorized trial batteries ---------------------------------------------
#
# Each battery reproduces the scalar mechanics above with one permutation or
# bit matrix per trial, so 10^4 trials stay in numpy.


def _half_counts(patterns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split mismatch patterns into kept/sent halves after a per-row shuffle."""
    half = patterns.shape[1] // 2
    return patterns[:, :half].sum(axis=1), patterns[:, half:].sum(axis=1)


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
