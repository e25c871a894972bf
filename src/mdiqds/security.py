"""Security quantities: min-entropy, forging and repudiation bounds,
thresholds, feasibility, and the comparison against full key distillation.

The report reads one ``LinkBound`` per key-generation link, its bounds on
the keep half that both links sign with.  How an estimate becomes those
bounds is decided in ``estimation``; the analytic replay gives them directly.

Count rates come in two printed conventions and both appear in reports:
``c_k0``/``c_k1`` are the keep-half rates 2*n_{k,i}/n_k used by the forging
exponent and the adversarial error floor, while ``c_k0_sifted``/
``c_k1_sifted`` are n_{k,i}/n_k as used by the asymptotic key-length form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import presets
from .entropy import (
    binary_entropy,
    binomial_tail_log2,
    count_below,
    inverse_binary_entropy,
    log2addexp,
)
from .errors import DegenerateSessionError, DomainError, InfeasibleBoundsError
from .estimation import (
    DecoyPrograms,
    ErrorBudget,
    EstimationResult,
    LinkBound,
    estimate_yields,
    photon_population,
    split_signal_set,
)
from .session import ChannelTables, expected_sifted_data
from .sources import DecoySourceConfig, SystemProfile

# the two key-generation links a signature rests on, each through its own relay
LINKS = ("alice_bob", "alice_charlie")

# correctness and privacy-amplification failure probabilities of the full key
# distillation that mdi_qkd_key_length compares against
EPS_COR = 1e-10
EPS_PA = 1e-10


def min_entropy_bound(
    n_k0: float, n_k1: float, e_k1: float, eps_prime: float, eps_hat: float
) -> tuple[float, float]:
    """Smooth min-entropy lower bound on the keep half of the code string.

    Returns (full, approximation): the full bound subtracts the smoothing
    penalty 2*log2(2/(eps_prime*eps_hat)); the approximation drops it.
    """
    approx = n_k0 + n_k1 * (1.0 - binary_entropy(e_k1))
    penalty = 2.0 * math.log2(2.0 / (eps_prime * eps_hat))
    return approx - penalty, approx


def forging_tail(
    n_k: int, r: float, h_min: float, eps_k: float, g: float
) -> tuple[float, float]:
    """Probability budget for an adversary guessing the unknown half-key.

    The average probability of making fewer than r mistakes is bounded by
    T(r) * 2^(-h_min) + eps_k where T(r) = sum_{m<r} C(n_k/2, m); by Markov
    the realized probability stays below g except with probability
    p_F = (T(r) * 2^(-h_min) + eps_k) / g.  Returns (p_F, log2(p_F)).

    The exact sum is used for n_k/2 <= 10^4; above that the entropy exponent
    (n_k/2) * h(2r/n_k) stands in for log2 T(r).
    """
    n_half = n_k // 2
    if r > n_half:
        raise DomainError(f"mistake threshold r={r} exceeds half-key {n_half}")
    if g <= 0.0:
        raise DomainError("g must be positive")
    log2_avg = binomial_tail_log2(n_half, count_below(r)) - h_min
    log2_p_f = log2addexp(log2_avg, math.log2(eps_k)) - math.log2(g)
    return 2.0 ** min(log2_p_f, 64.0), log2_p_f


def solve_p_e(c_k0: float, c_k1: float, e_k1: float) -> tuple[float, bool]:
    """Adversarial error floor: h(p_E) = c_k0 + c_k1*(1 - h(e_k1)).

    The entropy argument is clamped into [0, 1]; the flag reports whether
    clamping occurred.
    """
    argument = c_k0 + c_k1 * (1.0 - binary_entropy(e_k1))
    clamped = not 0.0 <= argument <= 1.0
    argument = min(max(argument, 0.0), 1.0)
    return inverse_binary_entropy(argument), clamped


def choose_thresholds(e_bar: float, p_e: float) -> tuple[float, float]:
    """Authentication and verification thresholds at the gap tertiles."""
    if not e_bar < p_e:
        raise InfeasibleBoundsError(
            f"no threshold gap: E_bar = {e_bar:.6f} >= p_E = {p_e:.6f}"
        )
    gap = p_e - e_bar
    return e_bar + gap / 3.0, e_bar + 2.0 * gap / 3.0


def honest_abort_bound(eps_pe: float) -> float:
    """Both halves of the key can trigger the abort."""
    return 2.0 * eps_pe


def repudiation_bound(s_a: float, s_v: float, n_k: int) -> tuple[float, float]:
    """(probability clamped to 1, raw log2) of one recipient accepting while
    the other rejects."""
    log2_raw = math.log2(2.0) - 0.25 * (s_v - s_a) ** 2 * n_k / math.log(2.0)
    return min(2.0**min(log2_raw, 1.0), 1.0), log2_raw


def forge_probability(p_f: float, budget: ErrorBudget) -> float:
    """Total forging probability: the guessing tail plus every estimation
    failure that could silently void it."""
    return p_f + budget.g + budget.eps_pe + budget.eps_k0 + budget.eps_k1 + budget.eps_ke


def mdi_qkd_key_length(
    n_k: int,
    c_k0_sifted: float,
    c_k1_sifted: float,
    e_k1: float,
    e_bar: float,
    zeta: float,
    budget: ErrorBudget,
) -> tuple[float, float]:
    """Secret key length of full key distillation over the same data.

    Returns (finite-size form, asymptotic form).  Count rates use the
    sifted-key convention c_i = n_{k,i}/n_k.  The error-correction leakage
    is n_k * zeta * h(E_bar).  Negative values are reported as they are.
    """
    if not 1.0 <= zeta <= 2.0:
        raise DomainError(f"leakage parameter out of range: {zeta}")
    n_k0 = c_k0_sifted * n_k
    n_k1 = c_k1_sifted * n_k
    leak_ec = n_k * zeta * binary_entropy(e_bar)
    full = (
        n_k0
        + n_k1 * (1.0 - binary_entropy(e_k1))
        - leak_ec
        - math.log2(8.0 / EPS_COR)
        - 2.0 * math.log2(2.0 / (budget.eps_k_prime * budget.eps_k_hat))
        - 2.0 * math.log2(1.0 / (2.0 * EPS_PA))
    )
    asymptotic = (n_k / 2.0) * (
        c_k0_sifted
        + c_k1_sifted * (1.0 - binary_entropy(e_k1))
        - zeta * binary_entropy(e_bar)
    )
    return full, asymptotic


# probabilities whose bounds can exceed 1 before they are reported
_CLAMPED_TO_ONE = ("p_F", "pr_honest_abort", "pr_repudiation", "pr_forge")


@dataclass
class SecurityReport:
    """All security quantities of one signature session (or replay)."""

    n_k: int
    N_sig: float
    pulse_rate: float
    bell: dict = field(default_factory=dict)  # per-KGP selected Bell state
    e_k1: float = 1.0
    h_min: float = 0.0
    h_min_approx: float = 0.0
    c_k0: float = 0.0
    c_k1: float = 0.0
    c_k0_sifted: float = 0.0
    c_k1_sifted: float = 0.0
    E_bar: float = 1.0
    p_E: float = 0.0
    p_E_clamped: bool = False
    feasible: bool = False
    s_a: float = 0.0
    s_v: float = 0.0
    p_F: float = 1.0
    log2_p_F: float = 0.0
    pr_honest_abort: float = 1.0
    pr_repudiation: float = 1.0
    log2_pr_repudiation: float = 0.0
    pr_forge: float = 1.0
    l_k: float = 0.0
    l_k_asymptotic: float = 0.0
    zeta: float = presets.DEFAULT_ZETA
    validity_ok: bool = True
    per_bell: dict = field(default_factory=dict)
    infeasible_reason: str | None = None

    @property
    def t_r_seconds(self) -> float:
        return self.N_sig / self.pulse_rate

    def meets_target(self, target: float) -> bool:
        return (
            self.feasible
            and self.pr_honest_abort <= target
            and self.pr_repudiation <= target
            and self.pr_forge <= target
        )

    def check_invariants(self) -> None:
        if self.feasible:
            if not self.E_bar <= self.s_a <= self.s_v <= self.p_E:
                raise DomainError(
                    "threshold ordering violated: "
                    f"{self.E_bar} <= {self.s_a} <= {self.s_v} <= {self.p_E}"
                )
        if not 0.0 <= self.pr_honest_abort <= 1.0:
            raise DomainError("honest abort probability out of range")

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update({name: min(out[name], 1.0) for name in _CLAMPED_TO_ONE})
        out["t_r_seconds"] = self.t_r_seconds
        return out


def build_security_report(
    links: dict[str, LinkBound],
    n_k: int,
    budget: ErrorBudget,
    n_sig: float,
    pulse_rate: float,
    zeta: float = presets.DEFAULT_ZETA,
) -> SecurityReport:
    """Combine the key-generation links' bounds into protocol security bounds.

    ``links`` maps a link name to its bounds on the keep half of the common
    code string of ``n_k`` bits (rounded down to even).  Raises DomainError,
    naming the link, when a link's vacuum and single-pair counts exceed that
    half, since they are disjoint parts of it.  The honest error bound is
    the worst of the links and the adversarial floor the best an adversary
    could face, so the report is valid for forging by either recipient.
    """
    if not links:
        raise DegenerateSessionError("no key-generation sessions provided")
    n_k -= n_k % 2
    if n_k < 2:
        raise DegenerateSessionError("sessions produced no usable code string")
    n_half = n_k // 2

    report = SecurityReport(
        n_k=n_k,
        N_sig=n_sig,
        pulse_rate=pulse_rate,
        zeta=zeta,
    )
    floors = []  # (p_E, bound) of each link
    for name, link in links.items():
        # in integers: c_k0 + c_k1 <= 1 in floats can round past 1
        if link.n_k0 + link.n_k1 > n_half:
            raise DomainError(f"{name}: n_k0 + n_k1 = {link.n_k0} + {link.n_k1} exceeds "
                              f"the keep half of {n_half} bits")
        p_e, clamped = solve_p_e(2.0 * link.n_k0 / n_k, 2.0 * link.n_k1 / n_k, link.e_k1)
        report.p_E_clamped |= clamped
        floors.append((p_e, link))
        report.bell[name] = link.bell
        report.validity_ok &= link.validity_ok

    report.E_bar = max(link.e_upper for link in links.values())
    # the link with the lowest adversarial floor sets every entropy term
    report.p_E, link = min(floors, key=lambda floor: floor[0])
    report.e_k1 = link.e_k1
    report.h_min, report.h_min_approx = min_entropy_bound(
        link.n_k0, link.n_k1, link.e_k1, budget.eps_k_prime, budget.eps_k_hat
    )
    report.c_k0 = 2.0 * link.n_k0 / n_k
    report.c_k1 = 2.0 * link.n_k1 / n_k
    report.c_k0_sifted = link.n_k0 / n_k
    report.c_k1_sifted = link.n_k1 / n_k

    report.pr_honest_abort = honest_abort_bound(budget.eps_pe)
    try:
        report.s_a, report.s_v = choose_thresholds(report.E_bar, report.p_E)
        report.feasible = True
    except InfeasibleBoundsError as exc:
        report.infeasible_reason = str(exc)
        report.check_invariants()
        return report

    p_f, log2_p_f = forging_tail(
        n_k, report.s_v * n_half, report.h_min, budget.eps_k, budget.g
    )
    report.p_F = p_f
    report.log2_p_F = log2_p_f
    report.pr_forge = forge_probability(p_f, budget)
    report.pr_repudiation, report.log2_pr_repudiation = repudiation_bound(
        report.s_a, report.s_v, n_k
    )
    report.l_k, report.l_k_asymptotic = mdi_qkd_key_length(
        n_k,
        report.c_k0_sifted,
        report.c_k1_sifted,
        link.e_k1,
        report.E_bar,
        zeta,
        budget,
    )
    report.check_invariants()
    return report


def link_report(
    results: dict[str, EstimationResult],
    budget: ErrorBudget,
    n_sig: float,
    pulse_rate: float,
    zeta: float = presets.DEFAULT_ZETA,
) -> SecurityReport:
    """The security report of the links' estimates: each link's selected
    Bell state, bounded on the keep half of the shorter code string, and
    every link's per-Bell estimates in ``per_bell``.  Raises
    DegenerateSessionError, prefixed with the link's name, at the first link
    that has no usable Bell state."""
    code_strings = []
    for name, result in results.items():
        try:
            code_strings.append(result.selected().n_k)
        except DegenerateSessionError as exc:
            raise DegenerateSessionError(f"{name}: {exc}") from exc
    n_k = min(code_strings)
    links = {name: result.link_bound(n_k // 2) for name, result in results.items()}
    report = build_security_report(links, n_k, budget, n_sig, pulse_rate, zeta)
    report.per_bell = {name: result.to_dict() for name, result in results.items()}
    return report


@dataclass
class SearchResult:
    n_sig: float
    report: SecurityReport


def _evaluate_budget(
    tables: ChannelTables,
    n_sig: float,
    budget: ErrorBudget,
    zeta: float,
    r_fraction: float,
    pulse_rate: float,
    programs: DecoyPrograms,
) -> SecurityReport | None:
    """The report of the expected session at ``n_sig`` pulses, standing for
    both links; None when it has no usable Bell state.  ``programs`` are the
    decoy programs of the tables' source pair."""
    sifted = expected_sifted_data(tables.expected_rates(), n_sig)
    result = estimate_yields(sifted, programs, budget, r_fraction=r_fraction, seed=0)
    try:
        return link_report(dict.fromkeys(LINKS, result), budget, n_sig, pulse_rate, zeta)
    except DegenerateSessionError:
        return None


def signature_length_search(
    config_a: DecoySourceConfig,
    config_b: DecoySourceConfig,
    profile: SystemProfile,
    budget: ErrorBudget,
    target_security: float,
    pulse_rate: float = presets.DEFAULT_PULSE_RATE,
    zeta: float = presets.DEFAULT_ZETA,
    r_fraction: float = presets.DEFAULT_R_FRACTION,
    relative_tolerance: float = 0.05,
    tables: ChannelTables | None = None,
) -> SearchResult:
    """Smallest pulse budget meeting the security target on every bound.

    Uses the closed-form expected statistics and the full bound pipeline.
    Both key-generation links are assumed symmetric, so one expected estimate
    stands for both links in ``link_report``.  A ×4 ladder from 1e6
    pulses brackets the budget and a geometric bisection narrows it to
    ``relative_tolerance``.  The ladder skips, without evaluating it, every
    budget whose code string is too short for the repudiation bound to meet
    the target at any thresholds: p_E <= 1/2 and E_bar >= 0, so
    s_v - s_a <= 1/6.  Such a budget fails anyway, so the bracket and the
    result are those of the plain ladder.  Raises InfeasibleBoundsError when
    even unlimited statistics cannot separate the honest error rate from the
    adversarial floor.
    """
    if tables is None:
        tables = ChannelTables(config_a, config_b, profile)
    budget_cap = 2e13  # beyond this the finite-size corrections are flat

    # abort and forging have floors set by the epsilon knobs, not by N
    forge_floor = forge_probability(budget.eps_k / budget.g, budget)
    if honest_abort_bound(budget.eps_pe) > target_security or forge_floor > target_security:
        raise InfeasibleBoundsError(
            f"target {target_security} is below the fixed terms: honest abort "
            f"{honest_abort_bound(budget.eps_pe):.2e}, forging floor {forge_floor:.2e}"
        )

    # built once for the search: every evaluation re-solves the same models
    programs = DecoyPrograms(photon_population(tables.config_a, tables.config_b))

    def evaluate(n_sig: float) -> SecurityReport | None:
        return _evaluate_budget(tables, n_sig, budget, zeta, r_fraction, pulse_rate,
                                programs)

    rates = tables.expected_rates()

    def repudiation_rules_out(n_sig: float) -> bool:
        # the longest code string either Bell state could give, split as
        # estimate_yields splits the expected session's set sizes
        sizes = np.rint(rates.expected_set_sizes(n_sig)["Z"][:, 0, 0])
        splits = [split_signal_set(int(size), r_fraction) for size in sizes]
        n_k = max((split[1] for split in splits if split is not None), default=0)
        return repudiation_bound(0.0, 1.0 / 6.0, n_k)[0] > target_security

    lo, hi = None, None
    n_sig = 1e6
    while n_sig < budget_cap:
        if not repudiation_rules_out(n_sig):
            report = evaluate(n_sig)
            if report is not None and report.meets_target(target_security):
                hi = (n_sig, report)
                break
        lo = n_sig
        n_sig *= 4.0
    if hi is None:
        report = evaluate(budget_cap)
        if report is not None and report.meets_target(target_security):
            hi = (budget_cap, report)
        elif report is None:
            # name what stopped each Bell state of the expected session
            result = estimate_yields(expected_sifted_data(rates, budget_cap), programs,
                                     budget, r_fraction=r_fraction, seed=0)
            reasons = dict.fromkeys(est.abort_reason for est in result.estimates.values())
            raise InfeasibleBoundsError(
                f"infeasible even in the asymptotic limit: no statistics: {'; '.join(reasons)}"
            )
        elif not report.feasible:
            raise InfeasibleBoundsError(
                f"infeasible even in the asymptotic limit: {report.infeasible_reason}"
            )
        else:
            raise InfeasibleBoundsError(
                f"no pulse budget up to {budget_cap:.0e} meets target "
                f"{target_security} (fixed terms like 2*eps_PE may exceed it)"
            )
    if lo is None:
        lo = hi[0] / 4.0
    low, (high, best) = lo, hi
    while high / low > 1.0 + relative_tolerance:
        mid = math.sqrt(low * high)
        report = evaluate(mid)
        if report is not None and report.meets_target(target_security):
            high, best = mid, report
        else:
            low = mid
    return SearchResult(n_sig=high, report=best)
