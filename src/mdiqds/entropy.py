"""Numeric kernel: entropies, concentration functions, log-space combinatorics.

Everything in here is a pure function of its arguments.  Quantities that can
underflow double precision (binomial tail sums over millions of trials) are
carried as base-2 logarithms and only converted to linear scale by callers
that know the magnitudes involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Above this trial count the exact binomial tail sum is replaced by the
# entropy-exponent upper bound n*h(r/n).
EXACT_TAIL_LIMIT = 10_000

_LOG2_E = math.log2(math.e)

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


@dataclass(frozen=True)
class LogProb:
    """A probability or count sum carried as log2.

    ``is_bound`` marks values computed via the entropy-exponent upper bound
    rather than the exact sum.
    """

    log2_value: float
    is_bound: bool = False


def _log2_binom(n: int, m: int) -> float:
    return (math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)) * _LOG2_E


def binomial_tail_log2(n: int, r: int) -> LogProb:
    """log2 of sum_{m=0..r} C(n, m), in log space via log-gamma.

    For n > EXACT_TAIL_LIMIT the entropy exponent n*h(r/n) is returned
    instead of the exact sum and flagged as a bound (it upper-bounds the sum
    for r <= n/2 and costs O(1) instead of O(r)).
    """
    if r < 0 or n < 0 or r > n:
        raise DomainError(f"need 0 <= r <= n, got n={n}, r={r}")
    if n > EXACT_TAIL_LIMIT:
        return LogProb(n * binary_entropy(min(r / n, 0.5)), is_bound=True)
    terms = [_log2_binom(n, m) for m in range(r + 1)]
    peak = max(terms)
    total = sum(2.0 ** (t - peak) for t in terms)
    return LogProb(peak + math.log2(total))


def chernoff_delta(x, y: float):
    """Deviation g(x, y) = sqrt(2*x*ln(1/y)) of the multiplicative Chernoff
    bound, element-wise when ``x`` is an array."""
    if np.any(np.asarray(x) < 0):
        raise DomainError(f"need x >= 0, got {x}")
    if not 0.0 < y <= 1.0:
        raise DomainError(f"need 0 < y <= 1, got {y}")
    return np.sqrt(2.0 * x * math.log(1.0 / y))


def serfling_lambda(x: float, y: float, z: float) -> float:
    """Serfling deviation sqrt((x - y + 1) * ln(1/z) / (2*x*y)) for sampling
    y items without replacement out of x."""
    if not x >= y >= 1:
        raise DomainError(f"need x >= y >= 1, got x={x}, y={y}")
    if not 0.0 < z <= 1.0:
        raise DomainError(f"need 0 < z <= 1, got {z}")
    return math.sqrt((x - y + 1) * math.log(1.0 / z) / (2.0 * x * y))


def upsilon(x: float, y: float, z: float) -> float:
    """Deviation sqrt((x + 1) * ln(1/z) / (2*y*(x + y))) used by the
    phase-error transfer from the X-basis sample."""
    if x < 0:
        raise DomainError(f"need x >= 0, got {x}")
    if y < 1:
        raise DomainError(f"need y >= 1, got {y}")
    if not 0.0 < z <= 1.0:
        raise DomainError(f"need 0 < z <= 1, got {z}")
    return math.sqrt((x + 1) * math.log(1.0 / z) / (2.0 * y * (x + y)))


def mu_parameter(n_half: float, r_k: float, eps_pe: float) -> float:
    """Random-sampling correction mu(n_k/2, R_k, eps_PE).

    Equals sqrt((n_k/2 - R_k + 1) * ln(1/eps_PE) / (R_k * n_k)) with
    n_k = 2 * n_half, written exactly as used for the observed-to-true
    error-rate conversion.
    """
    if not n_half >= r_k >= 1:
        raise DomainError(f"need n_half >= R_k >= 1, got n_half={n_half}, R_k={r_k}")
    if not 0.0 < eps_pe <= 1.0:
        raise DomainError(f"need 0 < eps_PE <= 1, got {eps_pe}")
    n_k = 2.0 * n_half
    return math.sqrt((n_half - r_k + 1) * math.log(1.0 / eps_pe) / (r_k * n_k))


def log2addexp(a: float, b: float) -> float:
    """log2(2^a + 2^b) without overflow."""
    hi, lo = (a, b) if a >= b else (b, a)
    if lo == -math.inf:
        return hi
    return hi + math.log2(1.0 + 2.0 ** (lo - hi))
