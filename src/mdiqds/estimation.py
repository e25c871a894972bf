"""Decoy-state estimation: from observed set sizes to vacuum / single-photon
lower bounds and the single-photon phase-error upper bound.

The chain per Bell state k:

1. Chernoff intervals turn each observed |Z_k^{a,b}| into a two-sided
   constraint on the photon-number populations S_{k,nm}.
2. A linear program minimizes the vacuum (or single-photon-pair) share of
   the signal-signal set over all populations consistent with the nine
   constraints, giving m_{k,0} and m_{k,1}.
3. A Serfling correction converts those to bounds n_{k,0}, n_{k,1} on the
   randomly chosen keep half of the code string.
4. X-basis statistics bound the single-photon phase error e_{k,1}.

All probability bookkeeping lives in ErrorBudget; every bound holds except
with the probability recorded there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.optimize import linprog

from .entropy import chernoff_delta, mu_parameter, serfling_lambda, upsilon
from .errors import DegenerateSessionError, DomainError, InfeasibleObservationsError
from .session import SiftedData
from .sources import INTENSITY_LABELS, N_CUT, DecoySourceConfig

_GRID = N_CUT + 1

# spawn key of estimate_yields' random stream, (seed, _ESTIMATE_STREAM)
_ESTIMATE_STREAM = 97


@dataclass(frozen=True)
class ErrorBudget:
    """Failure probabilities of every estimation step.

    Defaults follow the worked example: every epsilon 1e-10 except the
    error-rate sampling correction (1e-5) and the forging level g (1e-5).
    """

    eps_pe: float = 1e-5
    g: float = 1e-5
    eps_k: float = 1e-10
    eps_k_prime: float = 1e-10
    eps_k_hat: float = 1e-10
    eps_set: float = 1e-10
    eps_set_hat: float = 1e-10
    eps_set_dot: float = 1e-10
    eps_0: float = 1e-10
    eps_1: float = 1e-10
    eps_k0_serfling: float = 1e-10
    eps_k1_serfling: float = 1e-10
    eps_ke_x1: float = 1e-10
    eps_ke_x2: float = 1e-10
    eps_ke_upsilon: float = 1e-10
    eps_cap: float = 1e-10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 < value <= 1.0:
                raise DomainError(f"{f.name} must lie in (0,1], got {value}")

    @property
    def gamma_set(self) -> float:
        """Per-set failure probability of the Chernoff decomposition."""
        return self.eps_set + self.eps_set_hat + self.eps_set_dot

    @property
    def _lp_side_info(self) -> float:
        """Union bound over the nine set intervals and the per-(n,m)
        population caps."""
        return 9 * self.gamma_set + _GRID * _GRID * self.eps_cap

    @property
    def eps_k0(self) -> float:
        return self.eps_0 + self._lp_side_info + self.eps_k0_serfling

    @property
    def eps_k1(self) -> float:
        return self.eps_1 + self._lp_side_info + self.eps_k1_serfling

    @property
    def eps_ke(self) -> float:
        return (
            self.eps_ke_x1
            + self.eps_ke_x2
            + 2 * self._lp_side_info
            + self.eps_ke_upsilon
        )

    def to_dict(self) -> dict[str, float]:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(eps_k0=self.eps_k0, eps_k1=self.eps_k1, eps_ke=self.eps_ke)
        return out


@dataclass
class PhotonPopulation:
    """Conditional intensity-pair probabilities given source photon numbers.

    ``conditional[ia, ib, n, m]`` is p_{a,b|nm}: the probability that the
    parties chose intensities (a, b) given that their pulses carried (n, m)
    photons.  Columns are normalized over the nine intensity pairs.
    ``pair_pmf[n, m]`` is the marginal photon-pair distribution of one
    basis-matched pulse, which caps how many (n, m) events a session of a
    given length can contain.
    """

    conditional: np.ndarray
    pair_pmf: np.ndarray
    basis_pair_prob: dict[str, float]


def photon_population(
    config_a: DecoySourceConfig, config_b: DecoySourceConfig
) -> PhotonPopulation:
    pa = np.array([config_a.intensity_probs[l] for l in INTENSITY_LABELS])
    pb = np.array([config_b.intensity_probs[l] for l in INTENSITY_LABELS])
    pmf_a = np.stack([config_a.photon_pmf(l) for l in INTENSITY_LABELS])
    pmf_b = np.stack([config_b.photon_pmf(l) for l in INTENSITY_LABELS])
    joint = (
        pa[:, None, None, None]
        * pb[None, :, None, None]
        * pmf_a[:, None, :, None]
        * pmf_b[None, :, None, :]
    )
    pair_pmf = joint.sum(axis=(0, 1))
    total = joint.sum(axis=(0, 1), keepdims=True)
    total[total == 0.0] = 1.0
    return PhotonPopulation(
        conditional=joint / total,
        pair_pmf=pair_pmf,
        basis_pair_prob={
            "Z": config_a.basis_probs["Z"] * config_b.basis_probs["Z"],
            "X": config_a.basis_probs["X"] * config_b.basis_probs["X"],
        },
    )


def chernoff_interval(observed: float, budget: ErrorBudget) -> tuple[float, float]:
    """Deviation widths (Delta, Delta_hat) of one observed set size.

    The population sum lies in [observed - Delta_hat, observed + Delta]
    except with probability eps_set + eps_set_hat.
    """
    if observed < 0:
        raise DomainError(f"negative set size: {observed}")
    if observed == 0:
        return 0.0, 0.0
    delta = chernoff_delta(observed, budget.eps_set**4 / 16.0)
    delta_hat = chernoff_delta(observed, budget.eps_set_hat**1.5)
    return delta, delta_hat


def check_validity(mu_kl: float, budget: ErrorBudget) -> bool:
    """Chernoff applicability conditions for one set's concentration
    parameter: (2/eps)^(1/mu) <= exp((3/(4*sqrt(2)))^2) and
    (1/eps_hat)^(1/mu) <= exp(1/3), which for mu > 0 reduce to two lower
    bounds on mu."""
    bound = max(
        math.log(2.0 / budget.eps_set) / ((3.0 / (4.0 * math.sqrt(2.0))) ** 2),
        3.0 * math.log(1.0 / budget.eps_set_hat),
    )
    return mu_kl >= bound


def concentration_parameters(set_sizes: np.ndarray, budget: ErrorBudget) -> np.ndarray:
    """mu_{k,L}^{a,b} = |Z_k^{a,b}| - sqrt(sum_{a,b}|Z_k^{a,b}|/2 * ln(1/eps))
    for each of the nine sets."""
    sizes = np.asarray(set_sizes, dtype=float)
    spread = math.sqrt(sizes.sum() / 2.0 * math.log(1.0 / budget.eps_set_dot))
    return sizes - spread


def set_validity(set_sizes: np.ndarray, budget: ErrorBudget) -> tuple[bool, np.ndarray]:
    """Apply the validity conditions to every set; the boolean is the
    all-sets conjunction used as the report flag."""
    mu = concentration_parameters(set_sizes, budget)
    flags = np.array([[check_validity(float(m), budget) for m in row] for row in mu])
    return bool(flags.all()), flags


def _interval_rows(set_sizes: np.ndarray, budget: ErrorBudget):
    """Lower/upper bounds on each set's population sum."""
    lower = np.empty((3, 3))
    upper = np.empty((3, 3))
    for ia in range(3):
        for ib in range(3):
            obs = float(set_sizes[ia, ib])
            delta, delta_hat = chernoff_interval(obs, budget)
            lower[ia, ib] = max(obs - delta_hat, 0.0)
            upper[ia, ib] = obs + delta
    return lower, upper


def _solve_lp(cost, a_ub, b_ub, n_vars: int, maximize: bool = False, upper=None):
    c = -np.asarray(cost) if maximize else np.asarray(cost)
    if upper is None:
        bounds = [(0, None)] * n_vars
    else:
        bounds = [(0, float(u) if np.isfinite(u) else None) for u in upper]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status == 2:
        raise InfeasibleObservationsError(
            "observed set sizes admit no consistent photon-number population"
        )
    if not res.success:
        raise InfeasibleObservationsError(f"population LP failed: {res.message}")
    value = -res.fun if maximize else res.fun
    return res.x, value


def _population_constraints(set_sizes: np.ndarray, pop: PhotonPopulation, budget: ErrorBudget):
    """Two-sided constraint rows for the nine observed sets.

    Sets with no observations are skipped: the printed deviation widths
    vanish at zero and would pin the population share to exactly zero,
    which the concentration argument cannot justify there.  Dropping the
    rows only relaxes the program, so minima stay valid lower bounds (and
    maxima valid upper bounds).
    """
    lower, upper = _interval_rows(set_sizes, budget)
    rows = []
    rhs = []
    for ia in range(3):
        for ib in range(3):
            if set_sizes[ia, ib] <= 0:
                continue
            coeffs = pop.conditional[ia, ib].reshape(-1)
            rows.append(coeffs)
            rhs.append(upper[ia, ib])
            rows.append(-coeffs)
            rhs.append(-lower[ia, ib])
    if not rows:
        return np.zeros((1, _GRID * _GRID)), np.zeros(1)
    return np.array(rows), np.array(rhs)


def _population_caps(pop: PhotonPopulation, budget: ErrorBudget, n_basis_pairs: float):
    """Upper confidence bounds on how many (n, m)-photon pulse pairs a
    session of n_basis_pairs basis-matched pulses can contain.

    An announced event with (n, m) photons requires such a pulse pair, so
    S_nm cannot exceed the pair count.  Without this cap the nine set
    constraints alone cannot pin the low-photon-number populations.
    """
    expected = n_basis_pairs * pop.pair_pmf
    caps = np.empty_like(expected)
    for idx, mean in np.ndenumerate(expected):
        caps[idx] = mean + (chernoff_delta(mean, budget.eps_cap) if mean > 0 else 0.0)
    return caps


def _objective_minimum(
    set_sizes: np.ndarray,
    pop: PhotonPopulation,
    budget: ErrorBudget,
    objective: np.ndarray,
    n_basis_pairs: float = 0.0,
) -> tuple[np.ndarray, float]:
    """Minimize a linear functional of the populations over the constraint
    polytope.  ``n_basis_pairs`` enables the per-(n,m) caps; zero disables
    them (a relaxation, still sound for lower bounds)."""
    a_ub, b_ub = _population_constraints(set_sizes, pop, budget)
    caps = None
    if n_basis_pairs > 0:
        caps = _population_caps(pop, budget, n_basis_pairs).reshape(-1)
    return _solve_lp(objective.reshape(-1), a_ub, b_ub, _GRID * _GRID, upper=caps)


def vacuum_objective(pop: PhotonPopulation) -> np.ndarray:
    """Coefficients of sum_n p_{ss|n0} S_{n0}."""
    obj = np.zeros((_GRID, _GRID))
    obj[:, 0] = pop.conditional[0, 0, :, 0]
    return obj


def single_pair_objective(pop: PhotonPopulation) -> np.ndarray:
    """Coefficient of p_{ss|11} S_{11}."""
    obj = np.zeros((_GRID, _GRID))
    obj[1, 1] = pop.conditional[0, 0, 1, 1]
    return obj


def _clamped_lower(value: float, eps: float) -> float:
    bound = value - chernoff_delta(value, eps)
    return max(bound, 0.0)


def _z_pairs(sifted: SiftedData, pop: PhotonPopulation) -> float:
    return sifted.n_pulses * pop.basis_pair_prob["Z"]


def lower_bound_m_k0(
    sifted: SiftedData, bell: int, pop: PhotonPopulation, budget: ErrorBudget
) -> float:
    """Lower bound on the number of Z signal-signal events where the second
    party sent a vacuum state."""
    _, value = _objective_minimum(
        sifted.z_counts[bell], pop, budget, vacuum_objective(pop), _z_pairs(sifted, pop)
    )
    return _clamped_lower(value, budget.eps_0)


def lower_bound_m_k1(
    sifted: SiftedData, bell: int, pop: PhotonPopulation, budget: ErrorBudget
) -> float:
    """Lower bound on the number of Z signal-signal events where both parties
    sent single photons."""
    _, value = _objective_minimum(
        sifted.z_counts[bell], pop, budget, single_pair_objective(pop), _z_pairs(sifted, pop)
    )
    return _clamped_lower(value, budget.eps_1)


def serfling_scale(m_bound: float, z_size: int, n_half: int, eps: float) -> int:
    """Scale a full-set count bound to a random keep half of the code string.

    Returns max(floor((n_half) * m/|Z| - n_half * Lambda(|Z|, n_half, eps)), 0).
    """
    if n_half > z_size:
        raise DomainError(f"keep half {n_half} exceeds set size {z_size}")
    if n_half < 1 or m_bound <= 0:
        return 0
    lam = serfling_lambda(z_size, n_half, eps)
    return max(math.floor(n_half * (m_bound / z_size) - n_half * lam), 0)


@dataclass(frozen=True)
class XBasisAux:
    """X-basis side information: a lower bound on single-photon-pair events
    and an upper bound on their errors, both for the signal-signal X set."""

    n_bar_k1: float
    e_bar_k1: float


def x_basis_bounds(
    sifted: SiftedData,
    bell: int,
    pop: PhotonPopulation,
    budget: ErrorBudget,
) -> XBasisAux:
    """Bound the single-photon-pair population and errors of the X sets.

    The single-photon errors are bounded by a joint linear program over
    (populations, error populations), constrained by both the nine set sizes
    and the nine error counts.
    """
    x_sizes = sifted.x_counts[bell]
    x_pairs = sifted.n_pulses * pop.basis_pair_prob["X"]
    _, value = _objective_minimum(
        x_sizes, pop, budget, single_pair_objective(pop), x_pairs
    )
    n_bar = _clamped_lower(value, budget.eps_ke_x1)

    n_vars = 2 * _GRID * _GRID  # populations S then error populations V
    a_size, b_size = _population_constraints(x_sizes, pop, budget)
    a_err, b_err = _population_constraints(sifted.x_errors[bell], pop, budget)
    rows = []
    rhs = []
    for row, b in zip(a_size, b_size):
        rows.append(np.concatenate([row, np.zeros(_GRID * _GRID)]))
        rhs.append(b)
    for row, b in zip(a_err, b_err):
        rows.append(np.concatenate([np.zeros(_GRID * _GRID), row]))
        rhs.append(b)
    eye = np.eye(_GRID * _GRID)
    for j in range(_GRID * _GRID):  # V_nm <= S_nm
        rows.append(np.concatenate([-eye[j], eye[j]]))
        rhs.append(0.0)
    objective = np.concatenate(
        [np.zeros(_GRID * _GRID), single_pair_objective(pop).reshape(-1)]
    )
    caps = None
    if x_pairs > 0:
        cap_s = _population_caps(pop, budget, x_pairs).reshape(-1)
        caps = np.concatenate([cap_s, cap_s])
    _, worst_errors = _solve_lp(
        objective, np.array(rows), np.array(rhs), n_vars, maximize=True, upper=caps
    )
    e_bar = worst_errors + (
        chernoff_delta(worst_errors, budget.eps_ke_x2) if worst_errors > 0 else 0.0
    )
    return XBasisAux(n_bar_k1=n_bar, e_bar_k1=e_bar)


def upper_bound_e_k1(n_k1: int, aux: XBasisAux, budget: ErrorBudget) -> float:
    """Single-photon phase-error rate bound transferred from the X basis."""
    if n_k1 <= 0:
        raise DegenerateSessionError("n_k1 = 0: the code string carries no bound")
    n_bar = math.floor(aux.n_bar_k1)
    if n_bar < 1:
        raise DegenerateSessionError("no single-photon X statistics to transfer")
    count = n_k1 * (aux.e_bar_k1 / n_bar) + (n_k1 + n_bar) * upsilon(
        n_k1, n_bar, budget.eps_ke_upsilon
    )
    count = min(math.ceil(count), n_k1)
    return min(max(count / n_k1, 0.0), 1.0)


# numpy's hypergeometric sampler needs fewer than 1e9 items of each kind
_HYPERGEOMETRIC_LIMIT = 10**9


def _hypergeometric(good: int, bad: int, draws: int, rng: np.random.Generator) -> int:
    """Number of good items among ``draws`` taken without replacement.

    Beyond numpy's limit the population is split into two halves: how many
    draws land in the first half is itself hypergeometric, and each half is
    then sampled on its own, so the draw stays exact up to 2e9 items.
    """
    if good < _HYPERGEOMETRIC_LIMIT and bad < _HYPERGEOMETRIC_LIMIT:
        return int(rng.hypergeometric(good, bad, draws))
    good_1, bad_1 = good // 2, bad // 2
    first = int(rng.hypergeometric(good_1 + bad_1, good - good_1 + bad - bad_1, draws))
    return _hypergeometric(good_1, bad_1, first, rng) + _hypergeometric(
        good - good_1, bad - bad_1, draws - first, rng
    )


def observed_error_rate(size: int, errors: int, r_k: int, rng: np.random.Generator) -> float:
    """Spend r_k random bits of a signal-signal Z set of ``size`` bits, of
    which ``errors`` mismatch, on error estimation.

    The mismatches in the sample follow the hypergeometric law of drawing
    r_k bits without replacement; returns their fraction.
    """
    if r_k < 1 or r_k >= size:
        raise DegenerateSessionError(
            f"need 1 <= R_k < |Z_ss| = {size}, got R_k = {r_k}"
        )
    return _hypergeometric(errors, size - errors, r_k, rng) / r_k


def true_error_upper_bound(e_obs: float, n_half: int, r_k: int, eps_pe: float) -> float:
    """Observed-to-true error conversion for random sampling without
    replacement."""
    return e_obs + mu_parameter(n_half, r_k, eps_pe)


@dataclass
class YieldEstimate:
    """Everything the security bounds need from one Bell state's data."""

    bell: int
    n_k: int
    r_k: int
    e_obs: float
    e_upper: float
    m_k0: float
    m_k1: float
    n_k0: int
    n_k1: int
    e_k1: float
    n_bar_k1: float
    e_bar_k1: float
    validity_ok: bool
    usable: bool
    budget: ErrorBudget
    abort_reason: str | None = None

    @property
    def n_half(self) -> int:
        return self.n_k // 2

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "budget"}
        out.update(self.budget.to_dict())
        return out


@dataclass
class EstimationResult:
    estimates: dict[int, YieldEstimate]

    def best_bell(self) -> int:
        """The Bell state whose code string has the smallest phase error."""
        usable = {b: est for b, est in self.estimates.items() if est.usable}
        if not usable:
            raise DegenerateSessionError("no Bell state produced a usable bound")
        return min(usable, key=lambda b: usable[b].e_k1)


def _estimate_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(_ESTIMATE_STREAM,)))


def estimate_yields(
    sifted: SiftedData,
    config_a: DecoySourceConfig,
    config_b: DecoySourceConfig,
    budget: ErrorBudget,
    r_fraction: float = 0.055,
    seed: int = 0,
) -> EstimationResult:
    """Run the estimation chain for both announced Bell states.

    Bell states without enough data are marked unusable rather than raising,
    because the session only aborts when every Bell state fails.
    """
    pop = photon_population(config_a, config_b)
    rng = _estimate_rng(seed)
    estimates: dict[int, YieldEstimate] = {}
    for bell in (0, 1):
        size = int(sifted.z_counts[bell, 0, 0])
        r_k = int(round(r_fraction * size))
        est = YieldEstimate(
            bell=bell, n_k=0, r_k=0, e_obs=0.0, e_upper=1.0,
            m_k0=0.0, m_k1=0.0, n_k0=0, n_k1=0, e_k1=1.0,
            n_bar_k1=0.0, e_bar_k1=0.0, validity_ok=False, usable=False,
            budget=budget,
        )
        estimates[bell] = est
        if size < 4 or r_k < 1 or size - r_k < 2:
            est.abort_reason = f"signal-signal Z set too small ({size})"
            continue
        est.r_k = r_k
        est.e_obs = observed_error_rate(size, int(sifted.z_errors[bell, 0, 0]), r_k, rng)
        est.n_k = (size - r_k) // 2 * 2  # keep/forward split needs an even code string
        n_half = est.n_half
        est.e_upper = true_error_upper_bound(est.e_obs, n_half, r_k, budget.eps_pe)
        est.validity_ok = set_validity(sifted.z_counts[bell], budget)[0]
        try:
            est.m_k0 = lower_bound_m_k0(sifted, bell, pop, budget)
            est.m_k1 = lower_bound_m_k1(sifted, bell, pop, budget)
        except InfeasibleObservationsError as exc:
            est.abort_reason = str(exc)
            continue
        est.n_k0 = serfling_scale(est.m_k0, size, n_half, budget.eps_k0_serfling)
        est.n_k1 = serfling_scale(est.m_k1, size, n_half, budget.eps_k1_serfling)
        try:
            aux = x_basis_bounds(sifted, bell, pop, budget)
            est.n_bar_k1 = aux.n_bar_k1
            est.e_bar_k1 = aux.e_bar_k1
            est.e_k1 = upper_bound_e_k1(est.n_k1, aux, budget)
        except (DegenerateSessionError, InfeasibleObservationsError) as exc:
            est.abort_reason = str(exc)
            est.e_k1 = 1.0
            continue
        est.usable = True
    return EstimationResult(estimates=estimates)
