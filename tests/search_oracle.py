"""Plain length search: the reference for
`mdiqds.security.signature_length_search`.

Every ×4 ladder point from 1e6 pulses is evaluated with the full bound
pipeline until one meets the target; a geometric bisection then narrows the
bracket to the relative tolerance.  Nothing is skipped, so the production
search, which skips ladder points that the repudiation bound alone rules
out, must return the same budget and the same report.  `plain_length_search`
also returns every (N_sig, report) it evaluated, so a test can check that
each point the production search skipped fails here.
"""

import math

from mdiqds.errors import InfeasibleBoundsError
from mdiqds.estimation import DecoyPrograms, photon_population
from mdiqds.security import SearchResult, _evaluate_budget

BUDGET_CAP = 2e13


def plain_length_search(
    budget, target_security, tables,
    pulse_rate=1e9, zeta=1.16, r_fraction=0.055, relative_tolerance=0.05,
):
    """Returns (SearchResult, [(n_sig, report or None), ...] in the order
    evaluated)."""
    trajectory = []
    programs = DecoyPrograms(photon_population(tables.config_a, tables.config_b))

    def meets(n_sig):
        report = _evaluate_budget(tables, n_sig, budget, zeta, r_fraction, pulse_rate,
                                  programs)
        trajectory.append((n_sig, report))
        return report is not None and report.meets_target(target_security)

    low, n_sig = None, 1e6
    while n_sig < BUDGET_CAP and not meets(n_sig):
        low, n_sig = n_sig, n_sig * 4.0
    if n_sig >= BUDGET_CAP:
        n_sig = BUDGET_CAP
        if not meets(n_sig):
            raise InfeasibleBoundsError(f"no pulse budget up to {BUDGET_CAP:.0e} meets the target")
    high, best = n_sig, trajectory[-1][1]
    if low is None:
        low = high / 4.0
    while high / low > 1.0 + relative_tolerance:
        mid = math.sqrt(low * high)
        if meets(mid):
            high, best = mid, trajectory[-1][1]
        else:
            low = mid
    return SearchResult(n_sig=high, report=best), trajectory
