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

That is at most four programs per Bell state; a Bell state stops at its
first failed check.  The two Z programs come first, the X single-pair
program only if n_{k,1} > 0, and the joint error program only if
floor(n̄_{k,1}) >= 1.  A Bell state whose Z counts, X counts and X error
counts equal an earlier state's takes that state's program results instead
of solving them again; the expected session of a symmetric link gives both
Bell states the same counts, so it solves at most four programs in all.

The programs are values (``DecoyPrograms``), built once per source pair
and kept for a whole length search or Monte-Carlo run: the photon
population, the two objectives, and two constraint matrices, each with one
kept HiGHS model.  The basis block has an upper and a lower row per set and
serves the Z and X blocks; the joint error program stacks two such blocks
over its V_nm <= S_nm rows.  A set with no observations keeps its rows with
an infinite right-hand side.  A solve changes a kept model's cost, caps and
right-hand side and runs the HiGHS dual simplex cold, without presolve, to
the optimum scipy's ``linprog(method="highs")`` gives.  HiGHS is scipy's
binding, loaded from its file on the first solve without importing
scipy.optimize.

Every deviation bound and its epsilon transform live in ``concentration``;
each bound holds except with the probability recorded in ErrorBudget.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import presets
from .concentration import (chernoff_delta, chernoff_interval, serfling_scale, set_validity,
                            true_error_upper_bound, upsilon)
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


# the options scipy's linprog(method="highs", options={"presolve": False})
# gives HiGHS: silent, no presolve, dual simplex
_HIGHS_OPTIONS = (("output_flag", False), ("presolve", "off"), ("simplex_strategy", 1))

_HIGHS_MODULE = "scipy.optimize._highspy._core"

# how far scipy's linprog lets a returned point break a bound or a row:
# 10 * sqrt of its default tolerance 1e-9
_POINT_TOL = 10 * math.sqrt(1e-9)


def _highs():
    """scipy's HiGHS binding, ``scipy.optimize._highspy._core``, loaded from
    its file in scipy's folder without running ``scipy.optimize``'s
    ``__init__``, which imports all of scipy.optimize: several times the
    import time and memory of the binding.  The module goes into
    ``sys.modules`` under its own name, so a later ``import scipy.optimize``
    finds it there and both share one module, and one ``_Highs`` type."""
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    import scipy

    folder = Path(scipy.__file__).parent / "optimize" / "_highspy"
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS_MODULE, [str(folder)])
    if spec is None:
        raise ImportError(f"no HiGHS binding {_HIGHS_MODULE} in {folder}", name=_HIGHS_MODULE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_HIGHS_MODULE] = module
    return module


class ConstraintMatrix:
    """The rows A_ub of programs min cost @ x over {A_ub @ x <= b_ub,
    0 <= x <= caps} that differ only in cost, b_ub and caps, and the HiGHS
    model that ``linprog`` keeps for them (none before the first solve)
    with the right-hand side it holds."""

    def __init__(self, a_ub: np.ndarray):
        self.a_ub = a_ub
        self.solver = None
        self.b_ub = None


def linprog(cost, matrix: ConstraintMatrix, b_ub, caps):
    """Minimize cost @ x over {matrix.a_ub @ x <= b_ub, 0 <= x <= caps} with
    one HiGHS run; an infinite b_ub leaves its row free.  Returns (status,
    x, value, activity): HiGHS's model status name, and when the status is
    "Optimal" the optimum, its value and HiGHS's row activities at it (else
    None).

    The first solve of a matrix passes HiGHS the solver, options and model
    of scipy's ``linprog(method="highs")``, the matrix column-wise in
    ``csc_array(a_ub)`` order (columns in order, row indices ascending,
    zeros dropped), so the optimum is the same to the bit, without scipy's
    front end, which costs several times the solve here.  The model goes in
    as arrays, because ``HighsLp``'s matrix fields copy element by element
    from Python.  Later solves keep the matrix's model and set its cost and
    caps and the rows whose right-hand side differs in any bit, which spares
    the matrix conversion and solver set-up that cost about as much as the
    run.  Each run ends by clearing the solver's basis and status, failed
    runs too, so the next one is cold and gives the bits of a fresh model.
    The binding is loaded on the first solve (``_highs``), without the rest
    of scipy.optimize, so the run modes that solve no program never load it
    and no run mode imports scipy.optimize."""
    highs = _highs()

    num_row, num_col = matrix.a_ub.shape
    upper = np.minimum(caps, highs.kHighsInf)
    solver = matrix.solver
    if solver is None:
        nonzero = matrix.a_ub.T != 0
        starts = np.concatenate(([0], np.cumsum(nonzero.sum(axis=1))))
        solver = matrix.solver = highs._Highs()
        for name, value in _HIGHS_OPTIONS:
            solver.setOptionValue(name, value)
        solver.passModel(
            num_col, num_row, starts[-1], highs.MatrixFormat.kColwise,
            highs.ObjSense.kMinimize, 0.0, cost, np.zeros(num_col), upper,
            np.full(num_row, -highs.kHighsInf), b_ub, starts, np.nonzero(nonzero)[1],
            matrix.a_ub.T[nonzero], np.full(num_col, highs.HighsVarType.kContinuous.value),
        )
    else:
        columns = np.arange(num_col, dtype=np.int32)
        solver.changeColsCost(num_col, columns, cost)
        solver.changeColsBounds(num_col, columns, np.zeros(num_col), upper)
        for row in np.flatnonzero(b_ub.view(np.int64) != matrix.b_ub.view(np.int64)):
            solver.changeRowBounds(int(row), -highs.kHighsInf, b_ub[row])
    matrix.b_ub = b_ub.copy()
    solver.run()
    status = solver.modelStatusToString(solver.getModelStatus())
    x = value = activity = None
    if status == "Optimal":
        solution = solver.getSolution()
        x, activity = np.array(solution.col_value), np.array(solution.row_value)
        value = solver.getObjectiveValue()
    solver.clearSolver()
    return status, x, value, activity


def _solve_lp(cost, matrix: ConstraintMatrix, b_ub, caps, maximize: bool = False):
    """Optimize cost @ x over {matrix.a_ub @ x <= b_ub, 0 <= x <= caps}; an
    infinite cap leaves its variable unbounded.  Returns (x, value).

    HiGHS is called directly (``linprog``), with presolve off: on these
    small programs presolve costs a quarter to a third of each solve.  The
    returned point is checked as scipy's linprog checks it: no NaN, every
    bound kept to within 10 * sqrt(1e-9), and every row by the activity
    HiGHS returns, which a product recomputed here can miss by more than
    that on right-hand sides near 1e9."""
    cost = np.ravel(cost)
    status, x, value, activity = linprog(-cost if maximize else cost, matrix, b_ub, caps)
    if status == "Infeasible":
        raise InfeasibleObservationsError(
            "observed set sizes admit no consistent photon-number population"
        )
    if x is None:
        raise InfeasibleObservationsError(f"population LP failed: HiGHS model status {status}")
    # a comparison with NaN is false, so a NaN coordinate fails these too
    kept = ((x >= -_POINT_TOL).all() and (x <= caps + _POINT_TOL).all()
            and (b_ub - activity >= -_POINT_TOL).all() and not math.isnan(value))
    if not kept:
        raise InfeasibleObservationsError(
            f"population LP failed: the solver's point breaks a bound or a row "
            f"by more than {_POINT_TOL:.2e}"
        )
    return x, -value if maximize else value


def _set_intervals(set_sizes: np.ndarray, budget: ErrorBudget) -> np.ndarray:
    """The right-hand side of the constraint block of the nine observed
    sets of one Bell state and basis: an upper row then a lower row per
    set, in set order.

    Both rows of a set with no observations are +inf, so they constrain
    nothing: the printed deviation widths vanish at zero and would pin the
    population share to exactly zero, which the concentration argument
    cannot justify there.  Freeing the rows only relaxes the program, so
    minima stay valid lower bounds (and maxima valid upper bounds).
    """
    sizes = np.asarray(set_sizes, dtype=float).reshape(-1)
    delta, delta_hat = chernoff_interval(sizes, budget)
    rhs = np.stack((sizes + delta, -np.maximum(sizes - delta_hat, 0.0)), axis=1)
    rhs[sizes == 0] = np.inf
    return rhs.reshape(-1)


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


class DecoyPrograms:
    """The decoy programs of one source pair: its photon population, the
    vacuum and single-pair objectives, and their two ``ConstraintMatrix``
    values, ``basis`` for the Z and X blocks and ``errors`` for the joint
    error program.

    Each matrix keeps its HiGHS model while the value lives, so one value
    serves a whole length search or Monte-Carlo run, and its models go with
    it.
    """

    def __init__(self, population: PhotonPopulation):
        self.population = population
        self.vacuum = vacuum_objective(population)
        self.single = single_pair_objective(population)
        width = _GRID * _GRID
        coeffs = population.conditional.reshape(9, width)
        rows = np.stack((coeffs, -coeffs), axis=1).reshape(-1, width)
        zeros, eye = np.zeros_like(rows), np.eye(width)
        self.basis = ConstraintMatrix(rows)
        self.errors = ConstraintMatrix(np.block([[rows, zeros], [zeros, rows], [-eye, eye]]))

    def block(self, set_sizes: np.ndarray, budget: ErrorBudget):
        """(matrix, b_ub): the two-sided constraints on the populations S
        of the nine observed sets of one Bell state and basis."""
        return self.basis, _set_intervals(set_sizes, budget)

    def joint(self, set_sizes: np.ndarray, error_sizes: np.ndarray, budget: ErrorBudget):
        """(matrix, b_ub) over the populations S and their error populations
        V: the set-size block on S, the error-count block on V, and
        V_nm <= S_nm."""
        return self.errors, np.concatenate((_set_intervals(set_sizes, budget),
                                            _set_intervals(error_sizes, budget),
                                            np.zeros(_GRID * _GRID)))


def _lower_bound(constraints, caps: np.ndarray, objective: np.ndarray, eps: float) -> float:
    """Minimum of the objective over one constraint block and the caps,
    less its Chernoff deviation at ``eps``, clamped at zero."""
    _, value = _solve_lp(objective, *constraints, caps)
    return max(value - chernoff_delta(value, eps), 0.0)


def _upper_bound_errors(joint, caps: np.ndarray, objective: np.ndarray, eps: float) -> float:
    """Upper bound on the single-photon-pair errors of the signal-signal X
    set: the largest error population V_11 of the joint program
    (``DecoyPrograms.joint``), each of S and V under the caps, plus its
    Chernoff deviation."""
    cost = np.concatenate((np.zeros(_GRID * _GRID), objective.reshape(-1)))
    _, worst = _solve_lp(cost, *joint, np.concatenate((caps, caps)), maximize=True)
    return worst + (chernoff_delta(worst, eps) if worst > 0 else 0.0)


def _require_code_bound(n_k1: int) -> None:
    """Raise unless the code string has single-photon pairs to bound."""
    if n_k1 <= 0:
        raise DegenerateSessionError("n_k1 = 0: the code string carries no bound")


def _transferable_pairs(n_bar_k1: float) -> int:
    """floor(n_bar_k1), the X single pairs the phase error is transferred
    from; raises when there is not one."""
    n_bar = math.floor(n_bar_k1)
    if n_bar < 1:
        raise DegenerateSessionError("no single-photon X statistics to transfer")
    return n_bar


def upper_bound_e_k1(
    n_k1: int, n_bar_k1: float, e_bar_k1: float, budget: ErrorBudget
) -> float:
    """Single-photon phase-error rate bound transferred from the X basis,
    from its single-pair lower bound n_bar_k1 and error upper bound
    e_bar_k1."""
    _require_code_bound(n_k1)
    n_bar = _transferable_pairs(n_bar_k1)
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


@dataclass(frozen=True)
class LinkBound:
    """What the security report needs from one link: its selected Bell state
    and honest error bound E_bar (``e_upper``), and its vacuum and single
    pair counts and single-pair phase error on the keep half that both links
    sign with."""

    bell: int
    e_upper: float
    n_k0: int
    n_k1: int
    e_k1: float
    validity_ok: bool


@dataclass
class EstimationResult:
    """One link's estimates: per Bell state, its YieldEstimate and the size
    |Z_ss| of its signal-signal Z set, which the code string is drawn from."""

    estimates: dict[int, YieldEstimate]
    z_sizes: dict[int, int]

    @property
    def usable(self) -> bool:
        return any(est.usable for est in self.estimates.values())

    def selected(self) -> YieldEstimate:
        """The usable Bell state whose code string has the smallest phase
        error."""
        usable = [est for est in self.estimates.values() if est.usable]
        if not usable:
            raise DegenerateSessionError("no Bell state produced a usable bound")
        return min(usable, key=lambda est: est.e_k1)

    def link_bound(self, n_half: int) -> LinkBound:
        """The selected Bell state's bounds on a keep half of ``n_half``
        bits: its own counts at its own half; on a shorter half, the set's
        vacuum and single-pair bounds Serfling-rescaled to it."""
        est = self.selected()
        n_k0, n_k1 = est.n_k0, est.n_k1
        if n_half != est.n_half:
            z_size, budget = self.z_sizes[est.bell], est.budget
            n_k0 = serfling_scale(est.m_k0, z_size, n_half, budget.eps_k0_serfling)
            n_k1 = serfling_scale(est.m_k1, z_size, n_half, budget.eps_k1_serfling)
        return LinkBound(est.bell, est.e_upper, n_k0, n_k1, est.e_k1, est.validity_ok)

    def to_dict(self) -> dict:
        return {str(bell): est.to_dict() for bell, est in self.estimates.items()}


def _estimate_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(_ESTIMATE_STREAM,)))


def split_signal_set(size: int, r_fraction: float) -> tuple[int, int] | None:
    """(R_k, n_k): the error-estimation bits of a signal-signal Z set of
    ``size`` bits and the code string left, rounded down to even for the
    keep/forward split; None when `split_refusal` names a reason."""
    if split_refusal(size, r_fraction) is not None:
        return None
    r_k = int(round(r_fraction * size))
    return r_k, (size - r_k) // 2 * 2


def split_refusal(size: int, r_fraction: float) -> str | None:
    """Why a signal-signal Z set of ``size`` bits cannot be split: it is too
    small, or R_k = round(r_fraction * size) would exceed the keep half
    n_k/2, as the sampling correction needs; None when it can be."""
    r_k = int(round(r_fraction * size))
    if size < 4 or r_k < 1:
        return f"signal-signal Z set too small ({size})"
    if (size - r_k) // 2 < r_k:
        return (f"r_fraction {r_fraction} samples R_k = {r_k} bits of a signal-signal Z "
                f"set of {size}, more than its keep half of {(size - r_k) // 2}")
    return None


def estimate_yields(
    sifted: SiftedData,
    programs: DecoyPrograms,
    budget: ErrorBudget,
    r_fraction: float = presets.DEFAULT_R_FRACTION,
    seed: int = 0,
) -> EstimationResult:
    """Run the estimation chain for both announced Bell states.

    Bell states without enough data are marked unusable rather than raising,
    because the session only aborts when every Bell state fails.  Each Bell
    state solves its programs in the order its checks read them and stops
    at the first check that fails; a stopped state keeps n_bar_k1 and
    e_bar_k1 at 0.0.  A Bell state whose program inputs (Z counts, X
    counts, X error counts) equal an earlier state's reuses its program
    results; its own e_obs is still drawn, so the random stream does not
    depend on the reuse.  ``programs`` are the source pair's decoy programs,
    whose kept HiGHS models serve every call that passes them.
    """
    pop = programs.population
    caps = {
        basis: _population_caps(pop, budget, sifted.n_pulses * pop.basis_pair_prob[basis])
        for basis in ("Z", "X")
    }
    vacuum, single = programs.vacuum, programs.single
    rng = _estimate_rng(seed)
    result = EstimationResult(estimates={}, z_sizes={})
    solved: dict[bytes, YieldEstimate] = {}  # program inputs -> the estimate that solved them
    for bell in (0, 1):
        size = result.z_sizes[bell] = int(sifted.z_counts[bell, 0, 0])
        est = result.estimates[bell] = YieldEstimate(bell=bell, budget=budget)
        split = split_signal_set(size, r_fraction)
        if split is None:
            est.abort_reason = split_refusal(size, r_fraction)
            continue
        est.r_k, est.n_k = split
        est.e_obs = observed_error_rate(size, int(sifted.z_errors[bell, 0, 0]), est.r_k, rng)
        est.e_upper = true_error_upper_bound(est.e_obs, est.n_half, est.r_k, budget.eps_pe)
        key = b"".join(counts[bell].tobytes()
                       for counts in (sifted.z_counts, sifted.x_counts, sifted.x_errors))
        if key in solved:
            result.estimates[bell] = replace(solved[key], bell=bell, e_obs=est.e_obs,
                                             e_upper=est.e_upper)
            continue
        solved[key] = est
        est.validity_ok = set_validity(sifted.z_counts[bell], budget)[0]
        try:
            z_block = programs.block(sifted.z_counts[bell], budget)
            est.m_k0 = _lower_bound(z_block, caps["Z"], vacuum, budget.eps_0)
            est.m_k1 = _lower_bound(z_block, caps["Z"], single, budget.eps_1)
            est.n_k0 = serfling_scale(est.m_k0, size, est.n_half, budget.eps_k0_serfling)
            est.n_k1 = serfling_scale(est.m_k1, size, est.n_half, budget.eps_k1_serfling)
            _require_code_bound(est.n_k1)
            x_block = programs.block(sifted.x_counts[bell], budget)
            n_bar = _lower_bound(x_block, caps["X"], single, budget.eps_ke_x1)
            _transferable_pairs(n_bar)
            joint = programs.joint(sifted.x_counts[bell], sifted.x_errors[bell], budget)
            e_bar = _upper_bound_errors(joint, caps["X"], single, budget.eps_ke_x2)
            est.n_bar_k1, est.e_bar_k1 = n_bar, e_bar
            est.e_k1 = upper_bound_e_k1(est.n_k1, n_bar, e_bar, budget)
        except (DegenerateSessionError, InfeasibleObservationsError) as exc:
            est.abort_reason = str(exc)
            continue
        est.usable = True
    return result
