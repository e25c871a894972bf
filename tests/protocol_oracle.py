"""Record-level reference for the signing protocol, independent of the
count-based production code.

Every key element is a record that remembers its position, its bit, which
KGP string it indexes and whether its holder kept it or received it during
symmetrization.  Verification walks the records one at a time and compares
each with the declared signature bit.  This is the protocol of Amiri et al.,
PRA 93, 032325 (2016), written out literally; ``honest_transcript`` draws the
same random stream as ``mdiqds.protocol.simulate_honest_run`` and must return
the same transcript.
"""

from dataclasses import asdict, dataclass

import numpy as np

from mdiqds.errors import ValidationError

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


def symmetrize(k_b, k_c, rng):
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


def distribute(length, error_rate_b, error_rate_c, rng) -> SignedKeyState:
    """Run the distribution stage with i.i.d. Bernoulli mismatches between
    Alice's strings and each recipient's (the honest channel model)."""
    if length % 2 == 1:
        raise ValidationError("signature length must be even")
    alice_signatures = {}
    bob_keys = {}
    charlie_keys = {}
    for message in (0, 1):
        a_b = rng.integers(0, 2, length, dtype=np.int8)
        a_c = rng.integers(0, 2, length, dtype=np.int8)
        k_b = a_b ^ (rng.random(length) < error_rate_b).astype(np.int8)
        k_c = a_c ^ (rng.random(length) < error_rate_c).astype(np.int8)
        s_b, s_c = symmetrize(k_b, k_c, rng)
        alice_signatures[message] = {KGP_BOB: a_b, KGP_CHARLIE: a_c}
        bob_keys[message] = s_b
        charlie_keys[message] = s_c
    return SignedKeyState(length, alice_signatures, bob_keys, charlie_keys)


def sign(state: SignedKeyState, message: int) -> Declaration:
    """Alice declares (m, Sig_m); repeated calls return identical data."""
    sig = state.alice_signatures[message]
    return Declaration(message, sig[KGP_BOB].copy(), sig[KGP_CHARLIE].copy())


def verify(declaration, key, threshold, length) -> VerificationResult:
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


def honest_transcript(length, error_rate_b, error_rate_c, s_a, s_v, seed, message=0) -> dict:
    """Full honest pipeline: distribute, sign, Bob verifies at s_a, forwards,
    Charlie verifies at s_v."""
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
