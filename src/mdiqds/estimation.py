"""Decoy-state estimation: from observed set sizes to vacuum / single-photon
lower bounds and the single-photon phase-error upper bound.

This is the finite-size decoy-state linear program of MDI-QKD (Curty et al.,
Nat. Commun. 5, 3732 (2014)).  The chain per Bell state k:

1. Chernoff intervals turn the nine observed |Z_k^{a,b}| of one basis into
   one block of two-sided constraints on the photon-number populations
   S_{k,nm}.  The expected photon-pair counts of the session cap every
   S_nm; the caps are built once per basis.
2. A linear program minimizes the vacuum (or single-photon-pair) share of
   the signal-signal set over the Z block and caps, giving m_{k,0} and
   m_{k,1}.
3. A Serfling correction converts those to bounds n_{k,0}, n_{k,1} on the
   randomly chosen keep half of the code string.
4. The X block bounds the single-photon pairs n̄_{k,1} from below; a joint
   program over the populations and their error populations bounds their
   errors ē_{k,1} from above.  Together they bound the single-photon phase
   error e_{k,1}.

That is four programs per Bell state.  A Bell state whose Z counts, X counts
and X error counts equal an earlier state's takes that state's program
results instead of solving them again; the expected session of a symmetric
link gives both Bell states the same counts, so it solves four programs in
all.  All probability bookkeeping lives in ErrorBudget; every bound holds
except with the probability recorded there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.optimize import linprog

from . import presets
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


def chernoff_interval(observed, budget: ErrorBudget):
    """Deviation widths (Delta, Delta_hat) of an observed set size, or of
    an array of them.

    The population sum lies in [observed - Delta_hat, observed + Delta]
    except with probability eps_set + eps_set_hat.  Both widths vanish at
    zero.
    """
    return (
        chernoff_delta(observed, budget.eps_set**4 / 16.0),
        chernoff_delta(observed, budget.eps_set_hat**1.5),
    )


def check_validity(mu_kl, budget: ErrorBudget):
    """Chernoff applicability conditions for a set's concentration
    parameter (a number or an array): (2/eps)^(1/mu) <= exp((3/(4*sqrt(2)))^2)
    and (1/eps_hat)^(1/mu) <= exp(1/3), which for mu > 0 reduce to two lower
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
    flags = check_validity(concentration_parameters(set_sizes, budget), budget)
    return bool(flags.all()), flags


def _solve_lp(cost, a_ub, b_ub, caps, maximize: bool = False):
    """Optimize cost @ x over {a_ub @ x <= b_ub, 0 <= x <= caps}; an
    infinite cap leaves its variable unbounded.  Returns (x, value)."""
    cost = np.ravel(cost)
    bounds = np.column_stack((np.zeros_like(caps), caps))
    res = linprog(-cost if maximize else cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                  method="highs")
    if res.status == 2:
        raise InfeasibleObservationsError(
            "observed set sizes admit no consistent photon-number population"
        )
    if not res.success:
        raise InfeasibleObservationsError(f"population LP failed: {res.message}")
    value = -res.fun if maximize else res.fun
    return res.x, value


def _population_constraints(set_sizes: np.ndarray, pop: PhotonPopulation, budget: ErrorBudget):
    """Two-sided constraint rows (A, b) for the nine observed sets of one
    Bell state and basis: an upper row then a lower row per set, in set
    order.

    Sets with no observations are skipped: the printed deviation widths
    vanish at zero and would pin the population share to exactly zero,
    which the concentration argument cannot justify there.  Dropping the
    rows only relaxes the program, so minima stay valid lower bounds (and
    maxima valid upper bounds).
    """
    sizes = np.asarray(set_sizes, dtype=float).reshape(-1)
    delta, delta_hat = chernoff_interval(sizes, budget)
    observed = sizes > 0
    if not observed.any():
        return np.zeros((1, _GRID * _GRID)), np.zeros(1)
    coeffs = pop.conditional.reshape(9, -1)[observed]
    rows = np.stack((coeffs, -coeffs), axis=1).reshape(-1, _GRID * _GRID)
    rhs = np.stack((sizes + delta, -np.maximum(sizes - delta_hat, 0.0)), axis=1)
    return rows, rhs[observed].reshape(-1)


def _population_caps(pop: PhotonPopulation, budget: ErrorBudget, n_basis_pairs: float):
    """Upper confidence bounds on how many (n, m)-photon pulse pairs a
    session of n_basis_pairs basis-matched pulses can contain, flattened
    like the populations.

    An announced event with (n, m) photons requires such a pulse pair, so
    S_nm cannot exceed the pair count.  Without this cap the nine set
    constraints alone cannot pin the low-photon-number populations.
    """
    expected = (n_basis_pairs * pop.pair_pmf).reshape(-1)
    return expected + chernoff_delta(expected, budget.eps_cap)


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


def _lower_bound(constraints, caps: np.ndarray, objective: np.ndarray, eps: float) -> float:
    """Minimum of the objective over one constraint block and the caps,
    less its Chernoff deviation at ``eps``, clamped at zero."""
    _, value = _solve_lp(objective, *constraints, caps)
    return max(value - chernoff_delta(value, eps), 0.0)


def _upper_bound_errors(
    size_block, error_block, caps: np.ndarray, objective: np.ndarray, eps: float
) -> float:
    """Upper bound on the single-photon-pair errors of the signal-signal X
    set: the largest error population V_11 of a joint program over the
    populations S and error populations V, which satisfy the set-size and
    the error-count blocks and V_nm <= S_nm, plus its Chernoff deviation."""
    (a_size, b_size), (a_err, b_err) = size_block, error_block
    width = _GRID * _GRID
    eye = np.eye(width)
    a_ub = np.block([
        [a_size, np.zeros((len(a_size), width))],
        [np.zeros((len(a_err), width)), a_err],
        [-eye, eye],
    ])
    b_ub = np.concatenate((b_size, b_err, np.zeros(width)))
    cost = np.concatenate((np.zeros(width), objective.reshape(-1)))
    _, worst = _solve_lp(cost, a_ub, b_ub, np.concatenate((caps, caps)), maximize=True)
    return worst + (chernoff_delta(worst, eps) if worst > 0 else 0.0)


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


def upper_bound_e_k1(
    n_k1: int, n_bar_k1: float, e_bar_k1: float, budget: ErrorBudget
) -> float:
    """Single-photon phase-error rate bound transferred from the X basis,
    from its single-pair lower bound n_bar_k1 and error upper bound
    e_bar_k1."""
    if n_k1 <= 0:
        raise DegenerateSessionError("n_k1 = 0: the code string carries no bound")
    n_bar = math.floor(n_bar_k1)
    if n_bar < 1:
        raise DegenerateSessionError("no single-photon X statistics to transfer")
    count = n_k1 * (e_bar_k1 / n_bar) + (n_k1 + n_bar) * upsilon(
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
    then sampled on its own, so the draw stays exact up to 2e9 items.  A
    larger population raises DomainError.
    """
    if good < _HYPERGEOMETRIC_LIMIT and bad < _HYPERGEOMETRIC_LIMIT:
        return int(rng.hypergeometric(good, bad, draws))
    good_1, bad_1 = good // 2, bad // 2
    good_2, bad_2 = good - good_1, bad - bad_1
    if good_2 + bad_2 >= _HYPERGEOMETRIC_LIMIT:
        raise DomainError(f"sampling without replacement is exact below ~2e9 items, "
                          f"got {good + bad}")
    first = int(rng.hypergeometric(good_1 + bad_1, good_2 + bad_2, draws))
    return (int(rng.hypergeometric(good_1, bad_1, first))
            + int(rng.hypergeometric(good_2, bad_2, draws - first)))


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
    """Everything the security bounds need from one Bell state's data.

    The defaults describe a Bell state of which nothing was estimated.
    """

    bell: int
    budget: ErrorBudget
    n_k: int = 0
    r_k: int = 0
    e_obs: float = 0.0
    e_upper: float = 1.0
    m_k0: float = 0.0
    m_k1: float = 0.0
    n_k0: int = 0
    n_k1: int = 0
    e_k1: float = 1.0
    n_bar_k1: float = 0.0
    e_bar_k1: float = 0.0
    validity_ok: bool = False
    usable: bool = False
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
    """One link's estimates: per Bell state, its YieldEstimate and the size
    |Z_ss| of its signal-signal Z set, which the code string is drawn from."""

    estimates: dict[int, YieldEstimate]
    z_sizes: dict[int, int]

    @property
    def usable(self) -> bool:
        return any(est.usable for est in self.estimates.values())

    def selected(self) -> tuple[YieldEstimate, int]:
        """(estimate, |Z_ss|) of the usable Bell state whose code string has
        the smallest phase error."""
        usable = [est for est in self.estimates.values() if est.usable]
        if not usable:
            raise DegenerateSessionError("no Bell state produced a usable bound")
        est = min(usable, key=lambda est: est.e_k1)
        return est, self.z_sizes[est.bell]

    def to_dict(self) -> dict:
        return {str(bell): est.to_dict() for bell, est in self.estimates.items()}


def _estimate_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(_ESTIMATE_STREAM,)))


def split_signal_set(size: int, r_fraction: float) -> tuple[int, int] | None:
    """(R_k, n_k): the error-estimation bits of a signal-signal Z set of
    ``size`` bits and the code string left, rounded down to even for the
    keep/forward split; None when the set is too small to split."""
    r_k = int(round(r_fraction * size))
    if size < 4 or r_k < 1 or size - r_k < 2:
        return None
    return r_k, (size - r_k) // 2 * 2


# the YieldEstimate fields that the decoy programs determine
_PROGRAM_FIELDS = ("m_k0", "m_k1", "n_k0", "n_k1", "n_bar_k1", "e_bar_k1", "e_k1", "usable",
                   "abort_reason")


def estimate_yields(
    sifted: SiftedData,
    config_a: DecoySourceConfig,
    config_b: DecoySourceConfig,
    budget: ErrorBudget,
    r_fraction: float = presets.DEFAULT_R_FRACTION,
    seed: int = 0,
) -> EstimationResult:
    """Run the estimation chain for both announced Bell states.

    Bell states without enough data are marked unusable rather than raising,
    because the session only aborts when every Bell state fails.  A Bell
    state whose program inputs (Z counts, X counts, X error counts) equal an
    earlier state's reuses its program results; its own e_obs is still
    drawn, so the random stream does not depend on the reuse.
    """
    pop = photon_population(config_a, config_b)
    caps = {
        basis: _population_caps(pop, budget, sifted.n_pulses * pop.basis_pair_prob[basis])
        for basis in ("Z", "X")
    }
    vacuum, single = vacuum_objective(pop), single_pair_objective(pop)
    rng = _estimate_rng(seed)
    result = EstimationResult(estimates={}, z_sizes={})
    solved: list[tuple[tuple[np.ndarray, ...], YieldEstimate]] = []
    for bell in (0, 1):
        size = result.z_sizes[bell] = int(sifted.z_counts[bell, 0, 0])
        est = result.estimates[bell] = YieldEstimate(bell=bell, budget=budget)
        split = split_signal_set(size, r_fraction)
        if split is None:
            est.abort_reason = f"signal-signal Z set too small ({size})"
            continue
        est.r_k, est.n_k = split
        est.e_obs = observed_error_rate(size, int(sifted.z_errors[bell, 0, 0]), est.r_k, rng)
        n_half = est.n_half
        est.e_upper = true_error_upper_bound(est.e_obs, n_half, est.r_k, budget.eps_pe)
        est.validity_ok = set_validity(sifted.z_counts[bell], budget)[0]
        counts = (sifted.z_counts[bell], sifted.x_counts[bell], sifted.x_errors[bell])
        twin = next((done for seen, done in solved if all(map(np.array_equal, seen, counts))),
                    None)
        if twin is not None:
            for name in _PROGRAM_FIELDS:
                setattr(est, name, getattr(twin, name))
            continue
        solved.append((counts, est))
        z_block = _population_constraints(sifted.z_counts[bell], pop, budget)
        try:
            est.m_k0 = _lower_bound(z_block, caps["Z"], vacuum, budget.eps_0)
            est.m_k1 = _lower_bound(z_block, caps["Z"], single, budget.eps_1)
        except InfeasibleObservationsError as exc:
            est.abort_reason = str(exc)
            continue
        est.n_k0 = serfling_scale(est.m_k0, size, n_half, budget.eps_k0_serfling)
        est.n_k1 = serfling_scale(est.m_k1, size, n_half, budget.eps_k1_serfling)
        x_block = _population_constraints(sifted.x_counts[bell], pop, budget)
        error_block = _population_constraints(sifted.x_errors[bell], pop, budget)
        try:
            n_bar = _lower_bound(x_block, caps["X"], single, budget.eps_ke_x1)
            e_bar = _upper_bound_errors(
                x_block, error_block, caps["X"], single, budget.eps_ke_x2
            )
            est.n_bar_k1, est.e_bar_k1 = n_bar, e_bar
            est.e_k1 = upper_bound_e_k1(est.n_k1, n_bar, e_bar, budget)
        except (DegenerateSessionError, InfeasibleObservationsError) as exc:
            est.abort_reason = str(exc)
            est.e_k1 = 1.0
            continue
        est.usable = True
    return result
