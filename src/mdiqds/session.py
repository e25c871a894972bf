"""Key-generation sessions: vectorized Monte-Carlo runs and their closed-form
expectations.

A session sends a fixed pulse budget, N_sig in the paper, in batches.  It
keeps one record per announced event that both parties sifted in the same
basis, and tallies every count (set sizes, error counts, the ground-truth
photon-number population) from those records in one pass.

The session engine samples every pulse of both transmitters, but defers
drawing any variable that cannot influence the recorded data.  A pulse whose
photons all die in fiber can only be announced through dark counts, and dark
counts are independent of everything the parties chose, so those pulses are
classified with one uniform draw each and only promoted to full events when
the (rare) dark coincidence fires.

The relay is untrusted, so the parties only see its announcement: the engine
draws each announcement with one uniform against (P(psi_minus), P(psi_plus))
for the relay input, read from the one relay table on `ChannelTables`.  The
closed-form `expected_rates` contracts the same table with the channel's
binomial-survival matrix and the source photon-number pmfs, so Monte-Carlo
sessions are checked against those expectations, and the table itself
against the brute-force Fock oracle in the tests.  Table entries are filled
on first use, every missing entry of a lookup in one batched call to the
relay engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .relay import RelayEngine
from .sources import INTENSITY_LABELS, N_CUT, DecoySourceConfig, SystemProfile

_POL_NAMES = ("H", "V", "D", "A")

# pulses per batch; each batch draws from its own (seed, batch index) stream
_BATCH_SIZE = 1 << 20

# arrived photons (a, b) of the pulses announced only through a constant
# probability: a lone photon from A, a lone photon from B, none.  Python ints,
# so that comparing them with the int8 arrival classes stays in int8
_THINNED_ARRIVALS = ((1, 0), (0, 1), (0, 0))

# one cell per (bell, basis, ia, ib, error, source photons a, b) of an event
_TALLY_SHAPE = (2, 2, 3, 3, 2, N_CUT + 1, N_CUT + 1)

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


def _normalized_cdf(weights: np.ndarray) -> np.ndarray:
    total = weights.sum()
    if total <= 0:
        return np.cumsum(np.full(weights.shape, 1.0 / weights.size))
    return np.cumsum(weights / total)


class ChannelTables:
    """Per-(sources, profile) sampling tables shared by the Monte-Carlo and
    closed-form paths."""

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
        self.src_given_arrive_cdf = {}
        self.marginal_zero = {}
        self.marginal_single = {}
        self.zero_intensity_cdf = {}
        self.single_intensity_cdf = {}
        self.multi_joint_cdf = {}
        self.multi_joint_cells = {}
        self.basis_z_prob = {}
        for party, cfg in (("a", config_a), ("b", config_b)):
            probs = np.array([cfg.intensity_probs[l] for l in INTENSITY_LABELS])
            self.intensity_probs[party] = probs
            pmf = np.stack([cfg.photon_pmf(l) for l in INTENSITY_LABELS])
            self.source_pmf[party] = pmf
            arrive = pmf @ self.binom_survive
            self.arrive_pmf[party] = arrive
            # source photon number given (intensity, arrived count), by Bayes
            cond = pmf[:, :, None] * self.binom_survive[None, :, :]
            sums = cond.sum(axis=1, keepdims=True)
            sums[sums == 0.0] = 1.0
            self.src_given_arrive_cdf[party] = np.cumsum(cond / sums, axis=1)
            self.marginal_zero[party] = float(probs @ arrive[:, 0])
            self.marginal_single[party] = float(probs @ arrive[:, 1])
            self.zero_intensity_cdf[party] = _normalized_cdf(probs * arrive[:, 0])
            self.single_intensity_cdf[party] = _normalized_cdf(probs * arrive[:, 1])
            multi = probs[:, None] * arrive[:, 2:]
            self.multi_joint_cells[party] = np.array(
                [(i, k) for i in range(3) for k in range(2, N_CUT + 1)]
            )
            self.multi_joint_cdf[party] = _normalized_cdf(multi.reshape(-1))
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
        """Exact per-cell announcement and error expectations under the same
        source, loss, misalignment, detector and dark-count model as the
        Monte-Carlo path (photon numbers truncated at N_CUT)."""
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

        # s[basis, bit_a, bit_b, bell, n, m]: announcement probability for
        # n and m photons sent, summed over the photons that arrive; an
        # entry left unfilled only ever meets a zero weight
        relay = np.nan_to_num(self.relay[pol_a, :, pol_b])
        s = np.einsum("nk,ml,xyzklb->xyzbnm", surv, surv, relay, optimize=True)
        # contrib[basis, bit_a, bit_b, bell, ia, ib, n, m]
        contrib = s[:, :, :, :, None, None] * w
        cell = contrib.sum(axis=(6, 7))
        bell = np.arange(2)
        is_error = bit_a[..., None] != _sift_bits(basis[..., None], bell, bit_b[..., None])
        gain = cell.sum(axis=(1, 2)).swapaxes(0, 1)
        err = (cell * is_error[..., None, None]).sum(axis=(1, 2)).swapaxes(0, 1)
        population = contrib.sum(axis=(1, 2)).swapaxes(0, 1)
        error_rate = np.divide(err, gain, out=np.zeros_like(err), where=gain > 0)
        pz_a, pz_b = self.basis_z_prob["a"], self.basis_z_prob["b"]
        self._rates = RateTable(
            gain=gain,
            error_rate=error_rate,
            population=population,
            residual=residual,
            intensity_probs_a=self.intensity_probs["a"],
            intensity_probs_b=self.intensity_probs["b"],
            basis_match_probs=np.array([pz_a * pz_b, (1.0 - pz_a) * (1.0 - pz_b)]),
        )
        return self._rates


@dataclass
class RateTable:
    """Closed-form per-cell expectations, conditional on the intensity pair
    and on both parties choosing the same basis.

    ``gain[bell, basis, ia, ib]`` is P(announce bell | cell); ``error_rate``
    is the conditional sifted mismatch fraction; ``population[..., n, m]``
    resolves the gain by source photon numbers.
    """

    gain: np.ndarray
    error_rate: np.ndarray
    population: np.ndarray
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


def _no_events() -> np.ndarray:
    return np.empty(0, dtype=np.int8)


def _records(*columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Event-record columns in int8, so the records a session keeps until it
    ends take 8 bytes per event."""
    return tuple(column.astype(np.int8) for column in columns)


def _no_records() -> tuple[np.ndarray, ...]:
    return tuple(_no_events() for _ in range(8))


@dataclass
class SiftedData:
    """Accumulated sifting output of one key-generation session.

    The estimators read only the counts.  A Monte-Carlo session also keeps
    per-event records of every announced coincidence: Bell state, basis,
    intensity pair, the paired bits after Bob's flip, and the true source
    photon numbers (ground truth, for estimator validation only).  The
    closed-form session of `expected_sifted_data` leaves them empty.
    """

    n_pulses: int
    z_counts: np.ndarray
    x_counts: np.ndarray
    z_errors: np.ndarray
    x_errors: np.ndarray
    population: np.ndarray
    ev_bell: np.ndarray = field(default_factory=_no_events)
    ev_basis: np.ndarray = field(default_factory=_no_events)
    ev_ia: np.ndarray = field(default_factory=_no_events)
    ev_ib: np.ndarray = field(default_factory=_no_events)
    ev_alice_bit: np.ndarray = field(default_factory=_no_events)
    ev_bob_bit: np.ndarray = field(default_factory=_no_events)
    ev_src_a: np.ndarray = field(default_factory=_no_events)
    ev_src_b: np.ndarray = field(default_factory=_no_events)

    def _event_mask(self, basis_idx, bell_idx, ia, ib):
        return (
            (self.ev_basis == basis_idx)
            & (self.ev_bell == bell_idx)
            & (self.ev_ia == ia)
            & (self.ev_ib == ib)
        )

    def signal_z_source_photons(self, bell_idx: int) -> tuple[np.ndarray, np.ndarray]:
        mask = self._event_mask(0, bell_idx, 0, 0)
        return self.ev_src_a[mask], self.ev_src_b[mask]

    def signal_x_truth(self, bell_idx: int):
        """(errors, src_a, src_b) for the signal-signal X set."""
        mask = self._event_mask(1, bell_idx, 0, 0)
        errors = self.ev_alice_bit[mask] != self.ev_bob_bit[mask]
        return errors, self.ev_src_a[mask], self.ev_src_b[mask]


def run_kgp_session(tables: ChannelTables, n_pulses: int, seed: int) -> SiftedData:
    """Run one measurement-device-independent key-generation session of
    ``n_pulses`` pulses through the link that ``tables`` describes.

    Deterministic for a fixed seed: every batch derives its random stream
    from (seed, batch index), so results do not depend on scheduling.
    """
    records = [_no_records()]
    for batch_idx, start in enumerate(range(0, n_pulses, _BATCH_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(batch_idx,)))
        records += _run_batch(tables, min(_BATCH_SIZE, n_pulses - start), rng)
    bell, basis, ia, ib, alice, raw_bob, src_a, src_b = (
        np.concatenate(column) for column in zip(*records)
    )
    bob = _sift_bits(basis, bell, raw_bob)
    tally = np.bincount(
        np.ravel_multi_index((bell, basis, ia, ib, alice != bob, src_a, src_b), _TALLY_SHAPE),
        minlength=math.prod(_TALLY_SHAPE),
    ).reshape(_TALLY_SHAPE)
    cells = tally.sum(axis=(5, 6))  # (bell, basis, ia, ib, error)
    return SiftedData(
        n_pulses=n_pulses,
        z_counts=cells[:, 0].sum(axis=-1),
        x_counts=cells[:, 1].sum(axis=-1),
        z_errors=cells[:, 0, ..., 1],
        x_errors=cells[:, 1, ..., 1],
        population=tally.sum(axis=4),
        ev_bell=bell,
        ev_basis=basis,
        ev_ia=ia,
        ev_ib=ib,
        ev_alice_bit=alice,
        ev_bob_bit=bob,
        ev_src_a=src_a,
        ev_src_b=src_b,
    )


def _run_batch(tables: ChannelTables, m: int, rng: np.random.Generator) -> list[tuple]:
    """The event records of one batch of ``m`` pulses, one per pulse class:
    int8 columns (bell, basis, ia, ib, Alice's bit, Bob's raw bit, source
    photons a, source photons b)."""
    # One uniform per party classifies each pulse's arriving photons into
    # {0, 1, 2+}.  Only pulses where both sides arrive, or where one side
    # carries a multi-photon bunch, need full materialization: a lone photon
    # (or nothing) can only be announced through dark counts, with a
    # polarization-independent probability handled by thinned counts.
    u_a = rng.random(m)
    u_b = rng.random(m)
    z0_a, z1_a = tables.marginal_zero["a"], tables.marginal_single["a"]
    z0_b, z1_b = tables.marginal_zero["b"], tables.marginal_single["b"]
    class_a = (u_a >= z0_a).astype(np.int8) + (u_a >= z0_a + z1_a).astype(np.int8)
    class_b = (u_b >= z0_b).astype(np.int8) + (u_b >= z0_b + z1_b).astype(np.int8)

    both = (class_a > 0) & (class_b > 0)
    heavy = both | ((class_a == 2) & (class_b == 0)) | ((class_b == 2) & (class_a == 0))
    recs = []
    if heavy.any():
        recs.append(_process_heavy(tables, class_a[heavy], class_b[heavy], rng))
    # a lone arriving photon (or none) announces independently of its
    # polarization; take the relay rows for H
    k_a, k_b = zip(*_THINNED_ARRIVALS)
    rows = tables.relay_outcomes(0, k_a, 0, k_b)
    for (p_minus, p_plus), (arr_a, arr_b) in zip(rows, _THINNED_ARRIVALS):
        count = int(np.count_nonzero((class_a == arr_a) & (class_b == arr_b)))
        recs.append(_process_thinned(tables, count, p_minus, p_plus, arr_a, arr_b, rng))
    return recs


def _draw_party(tables: ChannelTables, party: str, klass: np.ndarray, rng):
    """Intensity index and arriving photon count for one party of the heavy
    subset, conditioned on its arrival class (0, 1, or 2+)."""
    n = len(klass)
    intensity = np.empty(n, dtype=np.int64)
    arrived = np.zeros(n, dtype=np.int64)
    for value, cdf in (
        (0, tables.zero_intensity_cdf[party]),
        (1, tables.single_intensity_cdf[party]),
    ):
        mask = klass == value
        cnt = int(np.count_nonzero(mask))
        if cnt:
            idx = np.searchsorted(cdf, rng.random(cnt), side="right")
            intensity[mask] = np.minimum(idx, 2)
            arrived[mask] = value
    mask = klass == 2
    cnt = int(np.count_nonzero(mask))
    if cnt:
        cells = tables.multi_joint_cells[party]
        idx = np.searchsorted(tables.multi_joint_cdf[party], rng.random(cnt), side="right")
        idx = np.minimum(idx, len(cells) - 1)
        intensity[mask] = cells[idx, 0]
        arrived[mask] = cells[idx, 1]
    return intensity, arrived


def _process_heavy(tables: ChannelTables, class_a: np.ndarray, class_b: np.ndarray, rng):
    """Fully materialize pulses whose relay input needs the Fock engine."""
    n = len(class_a)
    ia, arr_a = _draw_party(tables, "a", class_a, rng)
    ib, arr_b = _draw_party(tables, "b", class_b, rng)
    basis_a = (rng.random(n) >= tables.basis_z_prob["a"]).astype(np.int64)
    basis_b = (rng.random(n) >= tables.basis_z_prob["b"]).astype(np.int64)
    bit_a = rng.integers(0, 2, n)
    bit_b = rng.integers(0, 2, n)

    # basis 0 = Z (H/V by bit), basis 1 = X (D/A by bit)
    pol_a = basis_a * 2 + bit_a
    pol_b = basis_b * 2 + bit_b
    probs = tables.relay_outcomes(pol_a, arr_a, pol_b, arr_b)
    u = rng.random(n)
    is_minus = u < probs[:, 0]
    is_plus = (~is_minus) & (u < probs[:, 0] + probs[:, 1])
    announced = is_minus | is_plus
    recorded = announced & (basis_a == basis_b)
    if not recorded.any():
        return _no_records()

    sel = np.flatnonzero(recorded)
    bell = np.where(is_minus[sel], 0, 1)
    basis = basis_a[sel]
    src_a = _draw_source_photons(tables, "a", ia[sel], arr_a[sel], rng)
    src_b = _draw_source_photons(tables, "b", ib[sel], arr_b[sel], rng)
    return _records(bell, basis, ia[sel], ib[sel], bit_a[sel], bit_b[sel], src_a, src_b)


def _process_thinned(
    tables: ChannelTables,
    n_pulses: int,
    p_minus: float,
    p_plus: float,
    arr_a: int,
    arr_b: int,
    rng,
):
    """Announcements among pulses whose outcome probability is a known
    constant (no arriving photons, or one lone photon on a single side).

    The per-pulse Bernoulli announcement is drawn as one binomial count
    (exact thinning; the probability is independent of every per-pulse
    choice), then attributes are drawn per announced event.
    """
    total = p_minus + p_plus
    if total <= 0.0 or n_pulses == 0:
        return _no_records()
    count = int(rng.binomial(n_pulses, total))
    if count == 0:
        return _no_records()
    bell = (rng.random(count) >= p_minus / total).astype(np.int64)
    # both parties must share a basis, else the event is discarded in sifting
    pz = tables.basis_z_prob["a"] * tables.basis_z_prob["b"]
    px = (1.0 - tables.basis_z_prob["a"]) * (1.0 - tables.basis_z_prob["b"])
    u = rng.random(count)
    keep = u < pz + px
    if not keep.any():
        return _no_records()
    bell = bell[keep]
    k = len(bell)
    basis = (u[keep] >= pz).astype(np.int64)
    cdf_a = (
        tables.single_intensity_cdf["a"] if arr_a else tables.zero_intensity_cdf["a"]
    )
    cdf_b = (
        tables.single_intensity_cdf["b"] if arr_b else tables.zero_intensity_cdf["b"]
    )
    ia = np.minimum(np.searchsorted(cdf_a, rng.random(k), side="right"), 2)
    ib = np.minimum(np.searchsorted(cdf_b, rng.random(k), side="right"), 2)
    abit = rng.integers(0, 2, k)
    raw_b = rng.integers(0, 2, k)
    src_a = _draw_source_photons(tables, "a", ia, np.full(k, arr_a, dtype=np.int64), rng)
    src_b = _draw_source_photons(tables, "b", ib, np.full(k, arr_b, dtype=np.int64), rng)
    return _records(bell, basis, ia, ib, abit, raw_b, src_a, src_b)


def _sift_bits(basis: np.ndarray, bell: np.ndarray, raw_bits: np.ndarray) -> np.ndarray:
    flip = (basis == 0) | (bell == 0)
    return raw_bits ^ flip.astype(raw_bits.dtype)


def _draw_source_photons(tables, party, intensity, arrived, rng):
    """Ground-truth source photon numbers for recorded events, drawn from the
    exact conditional given (intensity, arrived)."""
    n = len(intensity)
    out = np.empty(n, dtype=np.int64)
    cdf = tables.src_given_arrive_cdf[party]
    for i in range(3):
        for k in np.unique(arrived[intensity == i]):
            mask = (intensity == i) & (arrived == k)
            cnt = int(np.count_nonzero(mask))
            if cnt == 0:
                continue
            idx = np.searchsorted(cdf[i, :, k], rng.random(cnt), side="right")
            out[mask] = np.minimum(idx, N_CUT)
    return out


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
    expectations.  Used to size budgets and to exercise the estimators at
    scales a desk cannot simulate; it holds counts only, so its size does
    not grow with the pulse budget."""
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
