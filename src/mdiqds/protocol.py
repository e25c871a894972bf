"""Three-party signing from mismatch counts: the honest messaging stage and
Monte-Carlo adversaries that sanity-check the analytic bounds.

A recipient counts where Alice's declared signature differs from its key
after symmetrization, separately on the half it kept and the half it was
forwarded, and accepts only if both counts lie strictly below threshold * L/2
(Amiri et al., PRA 93, 032325 (2016)).  The signature bits cancel out of that
comparison, so only the mismatch counts are simulated.

The trial batteries print outcome frequencies.  The honest and repudiation
batteries compute each trial's outcome probabilities from the exact laws of
its half counts and draw the outcome counts in one call; the forging battery
draws each trial, as the cross-check of `forging_success_probability`.

The adversaries are deliberately restricted: an Alice who plants a fixed
number of mismatches, and a Bob who copies the half he forwarded to Charlie
and guesses the rest.  They check the bound formulas empirically at desk
scale; the analytic bounds, not these simulators, carry the general-attack
claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


# -- trial batteries -------------------------------------------------------
#
# Each trial's outcome is a function of its four half counts, so the honest
# and repudiation batteries draw their outcome counts in one call, over cells
# computed from the counts' exact laws: no array grows with trials, and a
# law's window grows only as sqrt(L).  The forging battery's bound is its own
# exact success probability, which a draw from that probability would not
# check, so that battery keeps its per-trial draws.

# A law's terms are kept out to where Bernstein's bound on its tails falls
# below exp(-_TAIL_NATS), which holds for the hypergeometric too (Hoeffding,
# JASA 58, 13 (1963)).  The mass left out, below 2e-26, moves no battery of
# at most 10^7 trials.
_TAIL_NATS = 60.0


@dataclass(frozen=True)
class _Window:
    """The terms pmf(j) / pmf(mode) of a count's law for j = first,
    first + 1, ..., and their sum."""

    first: int
    terms: np.ndarray
    total: float

    def mass(self, lo: int, hi: int) -> float:
        """P(lo <= count <= hi): a sum of non-negative terms over their sum,
        so it never goes negative the way 1 - P(count <= k) can."""
        lo, hi = max(lo - self.first, 0), min(hi - self.first, len(self.terms) - 1)
        return float(self.terms[lo:hi + 1].sum() / self.total) if lo <= hi else 0.0


def _window(lo: int, hi: int, mode: int, variance: float, up, down) -> _Window:
    """The window of a log-concave law on [lo, hi] around its mode, built
    outward from the mode by the term ratios up(j) = pmf(j+1)/pmf(j) and
    down(j) = pmf(j-1)/pmf(j), so no term exceeds 1 and no log-pmf is
    evaluated.  ``variance`` is the with-replacement variance that
    Bernstein's bound reads; the mode lies within 1 of the mean."""
    reach = _TAIL_NATS / 3 + math.sqrt(_TAIL_NATS**2 / 9 + 2 * _TAIL_NATS * variance) + 1
    first, last = max(lo, math.floor(mode - reach)), min(hi, math.ceil(mode + reach))
    right = np.cumprod(up(np.arange(mode, last, dtype=float)))
    left = np.cumprod(down(np.arange(mode, first, -1, dtype=float)))
    terms = np.concatenate((left[::-1], [1.0], right))
    return _Window(first, terms, float(terms.sum()))


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ValidationError(f"error rate must lie in [0, 1], got {rate!r}")


def _binomial(n: int, p: float) -> _Window:
    _check_rate(p)
    return _window(0, n, min(math.floor((n + 1) * p), n), n * p * (1.0 - p),
                   up=lambda j: (n - j) * p / ((j + 1) * (1.0 - p)),
                   down=lambda j: j * (1.0 - p) / ((n - j + 1) * p))


def _hypergeometric(good: int, bad: int, draws: int) -> _Window:
    """Successes among ``draws`` items drawn without replacement."""
    lo, hi = max(0, draws - bad), min(good, draws)
    mode = min(max((draws + 1) * (good + 1) // (good + bad + 2), lo), hi)
    p = good / (good + bad)
    return _window(lo, hi, mode, draws * p * (1.0 - p),
                   up=lambda j: (good - j) * (draws - j) / ((j + 1) * (bad - draws + j + 1)),
                   down=lambda j: j * (bad - draws + j) / ((good - j + 1) * (draws - j + 1)))


def _limit(threshold: float, length: int) -> int:
    """The largest count that ``_accepts`` takes at this threshold (-1 when
    none is)."""
    return math.ceil(threshold * (length / 2.0)) - 1


def honest_cells(length: int, error_rate: float, s_a: float, s_v: float
                 ) -> tuple[float, float, float]:
    """Per-trial probabilities of an honest run's three outcomes: Bob aborts,
    Bob accepts and Charlie rejects (a transferability failure), both accept.

    The four half counts are independent Binomial(L/2, e), and each recipient
    compares two of them with one limit.  With q = P(count <= limit) and
    r = P(count > limit) at each threshold, the cells are r_a (r_a + 2 q_a),
    q_a^2 r_v (r_v + 2 q_v) and q_a^2 q_v^2: products of non-negative tail
    sums, which add up to 1 within rounding."""
    law = _binomial(length // 2, error_rate)
    (q_a, r_a), (q_v, r_v) = ((law.mass(0, k), law.mass(k + 1, length))
                              for k in (_limit(s_a, length), _limit(s_v, length)))
    bob = q_a * q_a
    return r_a * (r_a + 2.0 * q_a), bob * r_v * (r_v + 2.0 * q_v), bob * q_v * q_v


def repudiation_cells(error_rate_b: float, error_rate_c: float, length: int,
                      s_a: float, s_v: float) -> tuple[float, float]:
    """Per-trial probabilities that `simulate_repudiating_alice`'s Alice wins
    and loses.

    Each recipient keeps Hypergeometric(w, L - w, L/2) of the w mismatches
    planted in its string and forwards the rest.  On Bob's string, A_b is
    "Bob accepts his kept half" and C_b "Charlie accepts the forwarded
    half"; on Charlie's, A_c is "Bob accepts the forwarded half" and C_c
    "Charlie accepts his kept half".  Alice wins when A_b, A_c and not both
    C_b, C_c: with probability P(A_b, not C_b) P(A_c) + P(A_b, C_b)
    P(A_c, not C_c)."""
    half, lim_a, lim_v = length // 2, _limit(s_a, length), _limit(s_v, length)
    strings = []
    for rate in (error_rate_b, error_rate_c):
        _check_rate(rate)
        w = math.floor(rate * length)
        strings.append((w, _hypergeometric(w, length - w, half)))
    (w_b, kept_b), (w_c, kept_c) = strings
    # Bob checks A on both strings and Charlie checks C, so each string's
    # kept count falls in one of three cells: Bob rejects on it, only Bob
    # accepts on it, both accept on it
    b_rejects = kept_b.mass(lim_a + 1, half)
    b_only = kept_b.mass(0, min(lim_a, w_b - lim_v - 1))
    b_both = kept_b.mass(w_b - lim_v, lim_a)
    c_rejects = kept_c.mass(0, w_c - lim_a - 1)
    c_only = kept_c.mass(max(w_c - lim_a, lim_v + 1), half)
    c_both = kept_c.mass(w_c - lim_a, lim_v)
    win = b_only * (c_only + c_both) + b_both * c_only
    lose = b_rejects + (b_only + b_both) * c_rejects + b_both * c_both
    return min(win, 1.0), lose


def simulate_honest_batch(
    length: int,
    error_rate: float,
    s_a: float,
    s_v: float,
    trials: int,
    seed: int,
) -> dict:
    """Empirical abort and transferability-failure frequencies of honest
    runs with i.i.d. channel errors: one multinomial draw of the outcome
    counts over `honest_cells`."""
    rng = np.random.default_rng(seed)
    aborts, failures, _ = rng.multinomial(trials, honest_cells(length, error_rate, s_a, s_v))
    return {
        "trials": trials,
        "abort_rate": int(aborts) / trials,
        "transfer_failure_rate": int(failures) / trials,
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
    trial when Bob accepts at s_a while Charlie rejects at s_v.  Her wins
    are one Binomial(trials, P(win)) draw over `repudiation_cells`."""
    rng = np.random.default_rng(seed)
    win, _ = repudiation_cells(error_rate_b, error_rate_c, length, s_a, s_v)
    return int(rng.binomial(trials, win)) / trials


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
