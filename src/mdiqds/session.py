"""Key-generation sessions: Monte-Carlo draws and their closed-form
expectations.

A session sends a fixed pulse budget, N_sig in the paper.  In the model each
pulse, on its own, either lands in one tally cell (Bell state, basis,
intensity pair, whether the sifted bits disagree, source photon numbers n
and m) or is not recorded: the relay announced nothing, or the parties chose
different bases.  The pulses are independent and identically distributed, so
a session's tally is exactly Multinomial(N_sig, p) over the 8,712 cells and
one "not recorded" cell.  `run_kgp_session` makes that one draw, so its cost
does not grow with the pulse budget, and takes every count it returns (set
sizes, error counts, the ground-truth photon-number population) from it.

The relay is untrusted, so the parties only see its announcement.  The one
relay table on `ChannelTables` holds (P(psi_minus), P(psi_plus)) per relay
input; `expected_rates` contracts it once with the channel's
binomial-survival matrix and the source photon-number pmfs into p, from
which the closed-form gains, error rates and populations are also summed.
The tests check p against a plain per-pulse sampler, and the table against
the brute-force Fock oracle.  Table entries are filled on first use, every
missing entry of a lookup in one batched call to the relay engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .relay import RelayEngine
from .sources import INTENSITY_LABELS, N_CUT, DecoySourceConfig, SystemProfile

_POL_NAMES = ("H", "V", "D", "A")

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
        self.engine = RelayEngine.for_profile(profile)
        # relay[pol_a, k_a, pol_b, k_b] = (P(psi_minus), P(psi_plus)) for k_a
        # and k_b arriving photons; NaN until `relay_outcomes` fills it, which
        # it does for every missing entry of one lookup at once
        self.relay = np.full((4, N_CUT + 1, 4, N_CUT + 1, 2), np.nan)
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

    def relay_outcomes(self, pol_a, k_a, pol_b, k_b) -> np.ndarray:
        """Relay table rows (P(psi_minus), P(psi_plus)) for arrays of inputs,
        filling every missing entry in one call to the relay engine."""
        flat = np.ravel_multi_index((pol_a, k_a, pol_b, k_b), self.relay.shape[:4])
        table = self.relay.reshape(-1, 2)
        missing = np.unique(flat[np.isnan(table[flat, 0])])
        if missing.size:
            inputs = np.unravel_index(missing, self.relay.shape[:4])
            table[missing] = self.engine.outcome_table(
                (_POL_NAMES[pa], ka, _POL_NAMES[pb], kb)
                for pa, ka, pb, kb in zip(*(i.tolist() for i in inputs))
            )
        return table[flat]

    # -- closed-form expectations ------------------------------------------

    def expected_rates(self) -> "RateTable":
        """Exact per-cell announcement and error expectations under the
        source, loss, misalignment, detector and dark-count model (photon
        numbers truncated at N_CUT), and the per-pulse tally-cell
        probabilities that a Monte-Carlo session draws from."""
        if self._rates is not None:
            return self._rates
        # w[ia, ib, n, m]: probability of one polarization pair of a basis
        # (1/4 of the basis) with n and m photons sent
        w = 0.25 * (self.source_pmf["a"][:, None, :, None]
                    * self.source_pmf["b"][None, :, None, :])
        kept = w >= _RATE_FLOOR
        residual = 8 * float(w[~kept].sum())
        w[~kept] = 0.0

        # same-basis polarization pairs: basis 0 = Z (H/V by bit), 1 = X (D/A)
        basis, bit_a, bit_b = np.indices((2, 2, 2))
        pol_a, pol_b = 2 * basis + bit_a, 2 * basis + bit_b
        # fill only the inputs (k_a, k_b) that some kept (n, m) reaches
        surv = self.binom_survive
        k_a, k_b = np.nonzero((surv.T > 0) @ kept.any(axis=(0, 1)) @ (surv > 0))
        self.relay_outcomes(*np.broadcast_arrays(
            pol_a.reshape(-1, 1), k_a, pol_b.reshape(-1, 1), k_b))

        # split[basis, bit_a, bit_b, bell, error]: whether Bob's sifted bit
        # disagrees with Alice's, one-hot
        is_error = bit_a[..., None] != _sift_bits(basis[..., None], np.arange(2),
                                                  bit_b[..., None])
        split = np.stack([~is_error, is_error], axis=-1).astype(float)
        # s[bell, basis, error, n, m]: announcement probability for n and m
        # photons sent, summed over the photons that arrive and the
        # polarization pairs; an entry of the relay table left unfilled only
        # ever meets a zero weight
        relay = np.nan_to_num(self.relay[pol_a, :, pol_b])
        s = np.einsum("nk,ml,xyzklb,xyzbe->bxenm", surv, surv, relay, split, optimize=True)
        # contrib[bell, basis, ia, ib, error, n, m], given the intensity pair
        # and that both parties chose that basis
        contrib = s[:, :, None, None] * w[:, :, None]
        population = contrib.sum(axis=4)
        gain = population.sum(axis=(-2, -1))
        err = contrib[:, :, :, :, 1].sum(axis=(-2, -1))
        error_rate = np.divide(err, gain, out=np.zeros_like(err), where=gain > 0)
        pa, pb = self.intensity_probs["a"], self.intensity_probs["b"]
        pz_a, pz_b = self.basis_z_prob["a"], self.basis_z_prob["b"]
        basis_match = np.array([pz_a * pz_b, (1.0 - pz_a) * (1.0 - pz_b)])
        choices = basis_match[:, None, None] * pa[:, None] * pb
        self._rates = RateTable(
            gain=gain,
            error_rate=error_rate,
            population=population,
            cell_probs=contrib * choices[:, :, :, None, None, None],
            residual=residual,
            intensity_probs_a=pa,
            intensity_probs_b=pb,
            basis_match_probs=basis_match,
        )
        return self._rates


@dataclass
class RateTable:
    """Closed-form per-cell expectations, conditional on the intensity pair
    and on both parties choosing the same basis.

    ``gain[bell, basis, ia, ib]`` is P(announce bell | cell); ``error_rate``
    is the conditional sifted mismatch fraction; ``population[..., n, m]``
    resolves the gain by source photon numbers.  ``cell_probs[bell, basis,
    ia, ib, error, n, m]`` is unconditional: the probability that one pulse
    is recorded in that tally cell.
    """

    gain: np.ndarray
    error_rate: np.ndarray
    population: np.ndarray
    cell_probs: np.ndarray
    residual: float
    intensity_probs_a: np.ndarray
    intensity_probs_b: np.ndarray
    basis_match_probs: np.ndarray

    def expected_set_sizes(self, n_pulses: float) -> dict[str, np.ndarray]:
        """Expected |Z_k^{a,b}| and |X_k^{a,b}| for a pulse budget."""
        pa = self.intensity_probs_a[:, None]
        pb = self.intensity_probs_b[None, :]
        out = {}
        for basis_idx, name in ((0, "Z"), (1, "X")):
            p_basis = self.basis_match_probs[basis_idx]
            out[name] = n_pulses * p_basis * pa * pb * self.gain[:, basis_idx]
        return out

    def expected_population(self, n_pulses: float) -> np.ndarray:
        """Expected ground-truth counts S_{k,nm} per set for a pulse budget."""
        pa = self.intensity_probs_a[None, :, None, None, None]
        pb = self.intensity_probs_b[None, None, :, None, None]
        scaled = np.empty_like(self.population)
        for basis_idx in range(2):
            p_basis = self.basis_match_probs[basis_idx]
            scaled[:, basis_idx] = n_pulses * p_basis * pa * pb * self.population[:, basis_idx]
        return scaled


@dataclass
class SiftedData:
    """Counts of one key-generation session, indexed (bell, basis, ia, ib).

    The estimators read only the set sizes and error counts.
    ``population[bell, basis, ia, ib, n, m]`` counts the recorded events by
    their true source photon numbers, and ``error_population`` counts the
    sifted mismatches among them the same way.  Both are ground truth, for
    estimator validation only; the closed-form session of
    `expected_sifted_data` leaves ``error_population`` unset.
    """

    n_pulses: int
    z_counts: np.ndarray
    x_counts: np.ndarray
    z_errors: np.ndarray
    x_errors: np.ndarray
    population: np.ndarray
    error_population: np.ndarray | None = None
    # always empty; read by perfbench/tracing.py's event counters
    ev_bell: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int8))


def run_kgp_session(tables: ChannelTables, n_pulses: int, seed: int) -> SiftedData:
    """Run one measurement-device-independent key-generation session of
    ``n_pulses`` pulses through the link that ``tables`` describes.

    The whole tally is one multinomial draw over the cells of
    `RateTable.cell_probs` and a "not recorded" cell, which also takes the
    residual mass below the rate floor.  Deterministic for a fixed seed.
    """
    probs = tables.expected_rates().cell_probs
    flat = probs.ravel()
    rng = _session_rng(seed)
    tally = rng.multinomial(n_pulses, np.append(flat, 1.0 - flat.sum()))[:-1]
    tally = tally.reshape(probs.shape)  # (bell, basis, ia, ib, error, n, m)
    cells = tally.sum(axis=(5, 6))
    return SiftedData(
        n_pulses=n_pulses,
        z_counts=cells[:, 0].sum(axis=-1),
        x_counts=cells[:, 1].sum(axis=-1),
        z_errors=cells[:, 0, ..., 1],
        x_errors=cells[:, 1, ..., 1],
        population=tally.sum(axis=4),
        error_population=tally[:, :, :, :, 1],
    )


def _session_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(_SESSION_STREAM,)))


def _sift_bits(basis: np.ndarray, bell: np.ndarray, raw_bits: np.ndarray) -> np.ndarray:
    flip = (basis == 0) | (bell == 0)
    return raw_bits ^ flip.astype(raw_bits.dtype)


def _spread_counts(total: int, weights: np.ndarray) -> np.ndarray:
    """Apportion ``total`` integer counts by largest remainder."""
    if total <= 0 or weights.sum() <= 0:
        return np.zeros_like(weights, dtype=np.int64)
    exact = weights / weights.sum() * total
    floors = np.floor(exact).astype(np.int64)
    short = total - floors.sum()
    if short > 0:
        order = np.argsort(exact - floors)[::-1]
        floors.flat[order.ravel()[:short]] += 1
    return floors


def expected_sifted_data(rates: RateTable, n_pulses: float) -> SiftedData:
    """Deterministic session whose counts equal the rounded closed-form
    expectations.  Used to size budgets, where sampling noise would only
    blur the length search; it holds counts only, so its size does not grow
    with the pulse budget."""
    sizes = rates.expected_set_sizes(n_pulses)
    pop_expected = rates.expected_population(n_pulses)
    z_counts = np.round(sizes["Z"]).astype(np.int64)
    x_counts = np.round(sizes["X"]).astype(np.int64)
    counts = np.stack([z_counts, x_counts], axis=1)  # (bell, basis, ia, ib)
    population = np.zeros_like(pop_expected, dtype=np.int64)
    for cell in np.ndindex(counts.shape):
        population[cell] = _spread_counts(int(counts[cell]), pop_expected[cell])
    return SiftedData(
        n_pulses=int(n_pulses),
        z_counts=z_counts,
        x_counts=x_counts,
        z_errors=np.round(sizes["Z"] * rates.error_rate[:, 0]).astype(np.int64),
        x_errors=np.round(sizes["X"] * rates.error_rate[:, 1]).astype(np.int64),
        population=population,
    )
