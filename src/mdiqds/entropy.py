"""Numeric kernel: entropies and binomial tails.

Everything in here is a pure function of its arguments.  Binomial tail sums
are exact integers; where they would overflow double precision they reach
callers as base-2 logarithms.
"""

from __future__ import annotations

import math

from .errors import DomainError

# Above this trial count the exact binomial tail sum is replaced by the
# entropy-exponent upper bound n*h(k/n).
EXACT_TAIL_LIMIT = 10_000

# bisection of inverse_binary_entropy: bracket width and step limit
_INVERSE_TOL = 1e-12
_INVERSE_MAX_ITER = 200


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy h(p) in bits, with 0*log2(0) := 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability outside [0,1]: {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def inverse_binary_entropy(y: float) -> float:
    """Unique p in [0, 1/2] with binary_entropy(p) = y.

    Bracketed bisection: unconditionally convergent, no derivative needed.
    """
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"entropy value outside [0,1]: {y}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(_INVERSE_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _INVERSE_TOL:
            break
    return 0.5 * (lo + hi)


def count_below(x: float) -> int:
    """The largest count strictly below ``x`` (0 when none is): the last index
    of a tail of counts that must stay below a threshold."""
    return max(math.ceil(x) - 1, 0)


def binomial_tail(n: int, k: int) -> int:
    """sum_{m=0..k} C(n, m), exactly.

    Each coefficient is built from the last, C(n, m+1) = C(n, m) (n - m) /
    (m + 1), which stays exact in integers.
    """
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got n={n}, k={k}")
    term = tail = 1
    for m in range(k):
        term = term * (n - m) // (m + 1)
        tail += term
    return tail


def binomial_tail_log2(n: int, k: int) -> float:
    """log2 of sum_{m=0..k} C(n, m).

    Exact up to n = EXACT_TAIL_LIMIT; above it the entropy exponent n*h(k/n)
    stands in, which upper-bounds the sum for k <= n/2 and costs O(1)
    instead of O(k).
    """
    if n <= EXACT_TAIL_LIMIT or not 0 <= k <= n:
        return math.log2(binomial_tail(n, k))  # raises on a k outside [0, n]
    return n * binary_entropy(min(k / n, 0.5))


def log2addexp(a: float, b: float) -> float:
    """log2(2^a + 2^b) without overflow."""
    hi, lo = (a, b) if a >= b else (b, a)
    if lo == -math.inf:
        return hi
    return hi + math.log2(1.0 + 2.0 ** (lo - hi))
