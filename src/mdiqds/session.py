"""Key-generation sessions: Monte-Carlo draws and their closed-form
expectations.

A session sends a fixed pulse budget, N_sig in the paper.  In the model each
pulse, on its own, either lands in one tally cell (Bell state, basis,
intensity pair, whether the sifted bits disagree, source photon numbers n
and m) or is not recorded: the relay announced nothing, or the parties chose
different bases.  The pulses are independent and identically distributed, so
a session's tally is exactly Multinomial(N_sig, p) over the 8,712 cells and
one "not recorded" cell.  `run_kgp_session` makes that one draw, so its cost
does not grow with the pulse budget; `expected_sifted_data` takes the draw's
mean, N_sig * p, instead.  Both build their `SiftedData` from the tally the
same way: every count (set sizes, error counts, the ground-truth
photon-number population) is one of its marginals.

The relay is untrusted, so the parties only see its announcement.  The one
relay table on `ChannelTables` holds (P(psi_minus), P(psi_plus)) per relay
input; `expected_rates` contracts it once with the channel's
binomial-survival matrix and the source photon-number pmfs into p.  The
tests check p against a plain per-pulse sampler, and the table against the
brute-force Fock oracle.  The relay table is built whole, in closed form,
when the tables are made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .relay import relay_table
from .sources import INTENSITY_LABELS, N_CUT, DecoySourceConfig, SystemProfile

# spawn key of a session's random stream, (seed, _SESSION_STREAM); no other
# consumer derives it: estimate_yields, which gets the same seed, takes
# (seed, estimation._ESTIMATE_STREAM), and the protocol batteries the bare seed
_SESSION_STREAM = 1

# Contributions to the closed-form rates below this joint source probability
# are skipped and accumulated into a reported residual bound.
_RATE_FLOOR = 1e-18


def _binomial_matrix(t: float) -> np.ndarray:
    """B[n, k] = P(k of n photons survive a channel of transmittance t)."""
    b = np.zeros((N_CUT + 1, N_CUT + 1))
    for n in range(N_CUT + 1):
        for k in range(n + 1):
            b[n, k] = math.comb(n, k) * t**k * (1.0 - t) ** (n - k)
    return b


class ChannelTables:
    """Per-(sources, profile) tables: the relay table, channel survival and
    source pmfs, and the rate table contracted from them."""

    def __init__(
        self,
        config_a: DecoySourceConfig,
        config_b: DecoySourceConfig,
        profile: SystemProfile,
    ):
        self.config_a = config_a
        self.config_b = config_b
        self.profile = profile
        # relay[pol_a, k_a, pol_b, k_b] = (P(psi_minus), P(psi_plus)) for k_a
        # and k_b arriving photons
        self.relay = relay_table(profile.detector_efficiency, profile.dark_count_prob,
                                 profile.misalignment)
        t = profile.transmittance()
        self.binom_survive = _binomial_matrix(t)

        self.intensity_probs = {}
        self.source_pmf = {}
        self.arrive_pmf = {}
        self.marginal_zero = {}  # P(no photon arrives); read by perfbench/tracing.py
        self.marginal_single = {}  # P(one photon arrives); read by perfbench/tracing.py
        self.basis_z_prob = {}
        for party, cfg in (("a", config_a), ("b", config_b)):
            probs = np.array([cfg.intensity_probs[l] for l in INTENSITY_LABELS])
            self.intensity_probs[party] = probs
            pmf = np.stack([cfg.photon_pmf(l) for l in INTENSITY_LABELS])
            self.source_pmf[party] = pmf
            arrive = pmf @ self.binom_survive
            self.arrive_pmf[party] = arrive
            self.marginal_zero[party] = float(probs @ arrive[:, 0])
            self.marginal_single[party] = float(probs @ arrive[:, 1])
            self.basis_z_prob[party] = cfg.basis_probs["Z"]

        self._rates = None

    # -- closed-form expectations ------------------------------------------

    def expected_rates(self) -> "RateTable":
        """The per-pulse tally-cell probabilities under the source, loss,
        misalignment, detector and dark-count model (photon numbers
        truncated at N_CUT)."""
        if self._rates is not None:
            return self._rates
        # w[ia, ib, n, m]: probability of one polarization pair of a basis
        # (1/4 of the basis) with n and m photons sent
        w = 0.25 * (self.source_pmf["a"][:, None, :, None]
                    * self.source_pmf["b"][None, :, None, :])
        kept = w >= _RATE_FLOOR
        residual = 8 * float(w[~kept].sum())
        w[~kept] = 0.0

        # same-basis polarization pairs (basis 0 = Z, 1 = X), at the relay
        # table's polarization index 2 * basis + bit
        basis, bit_a, bit_b = np.indices((2, 2, 2))
        pol_a, pol_b = 2 * basis + bit_a, 2 * basis + bit_b
        surv = self.binom_survive

        # split[basis, bit_a, bit_b, bell, error]: whether Bob's sifted bit
        # disagrees with Alice's, one-hot
        is_error = bit_a[..., None] != _sift_bits(basis[..., None], np.arange(2),
                                                  bit_b[..., None])
        split = np.stack([~is_error, is_error], axis=-1).astype(float)
        # s[bell, basis, error, n, m]: announcement probability for n and m
        # photons sent, summed over the photons that arrive and the
        # polarization pairs
        s = np.einsum("nk,ml,xyzklb,xyzbe->bxenm", surv, surv, self.relay[pol_a, :, pol_b],
                      split, optimize=True)
        pa, pb = self.intensity_probs["a"], self.intensity_probs["b"]
        pz_a, pz_b = self.basis_z_prob["a"], self.basis_z_prob["b"]
        basis_match = np.array([pz_a * pz_b, (1.0 - pz_a) * (1.0 - pz_b)])
        choices = basis_match[:, None, None] * pa[:, None] * pb
        # s * w is conditional on the intensity pair and on both parties
        # choosing that basis; the product order fixes the rounding of p, and
        # with it every seeded draw
        self._rates = RateTable(
            cell_probs=(s[:, :, None, None] * w[:, :, None]) * choices[:, :, :, None, None, None],
            residual=residual,
        )
        return self._rates


@dataclass
class RateTable:
    """``cell_probs[bell, basis, ia, ib, error, n, m]``: the probability that
    one pulse is recorded in that tally cell.  ``residual`` bounds the
    probability of the source photon-number pairs left out below the rate
    floor."""

    cell_probs: np.ndarray
    residual: float

    def expected_set_sizes(self, n_pulses: float) -> dict[str, np.ndarray]:
        """Expected |Z_k^{a,b}| and |X_k^{a,b}| for a pulse budget."""
        sizes = (n_pulses * self.cell_probs).sum(axis=(4, 5, 6))
        return {"Z": sizes[:, 0], "X": sizes[:, 1]}


@dataclass
class SiftedData:
    """Counts of one key-generation session, indexed (bell, basis, ia, ib).

    The estimators read only the set sizes and error counts.
    ``population[bell, basis, ia, ib, n, m]`` counts the recorded events by
    their true source photon numbers, and ``error_population`` counts the
    sifted mismatches among them the same way.  Both are ground truth, for
    estimator validation only; in the closed-form session of
    `expected_sifted_data` they are expectations, not integers.
    """

    n_pulses: int
    z_counts: np.ndarray
    x_counts: np.ndarray
    z_errors: np.ndarray
    x_errors: np.ndarray
    population: np.ndarray
    error_population: np.ndarray
    # always empty; read by perfbench/tracing.py's event counters
    ev_bell: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int8))


def _sifted(n_pulses: int, tally: np.ndarray) -> SiftedData:
    """The session whose (bell, basis, ia, ib, error, n, m) tally is
    ``tally``.  The set sizes and error counts are its marginals, rounded to
    integers (exact on an integer tally)."""
    sizes = np.rint(tally.sum(axis=(4, 5, 6))).astype(np.int64)
    errors = np.rint(tally[:, :, :, :, 1].sum(axis=(-2, -1))).astype(np.int64)
    return SiftedData(
        n_pulses=n_pulses,
        z_counts=sizes[:, 0],
        x_counts=sizes[:, 1],
        z_errors=errors[:, 0],
        x_errors=errors[:, 1],
        population=tally.sum(axis=4),
        error_population=tally[:, :, :, :, 1],
    )


def run_kgp_session(tables: ChannelTables, n_pulses: int, seed: int) -> SiftedData:
    """Run one measurement-device-independent key-generation session of
    ``n_pulses`` pulses through the link that ``tables`` describes.

    The whole tally is one multinomial draw over the cells of
    `RateTable.cell_probs` and a "not recorded" cell, which also takes the
    residual mass below the rate floor.  Deterministic for a fixed seed.
    numpy draws fewer than 2^63 pulses; a larger budget raises DomainError.
    """
    if n_pulses >= 2**63:
        raise DomainError(f"a session draws fewer than 2^63 pulses, got {n_pulses}")
    probs = tables.expected_rates().cell_probs
    flat = probs.ravel()
    rng = _session_rng(seed)
    tally = rng.multinomial(n_pulses, np.append(flat, 1.0 - flat.sum()))[:-1]
    return _sifted(n_pulses, tally.reshape(probs.shape))


def _session_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(_SESSION_STREAM,)))


def _sift_bits(basis: np.ndarray, bell: np.ndarray, raw_bits: np.ndarray) -> np.ndarray:
    flip = (basis == 0) | (bell == 0)
    return raw_bits ^ flip.astype(raw_bits.dtype)


def expected_sifted_data(rates: RateTable, n_pulses: float) -> SiftedData:
    """Deterministic session: the mean of the Monte-Carlo draw, with its set
    sizes and error counts rounded to integers.  Used to size budgets, where
    sampling noise would only blur the length search; it holds counts only,
    so its size does not grow with the pulse budget."""
    return _sifted(int(n_pulses), n_pulses * rates.cell_probs)
