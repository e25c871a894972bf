"""Finite-size concentration: every deviation bound of the estimation chain
and the epsilon transforms it is called with.  Each docstring names the
``ErrorBudget`` field(s) that a bound spends and the condition it needs."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError

if TYPE_CHECKING:
    from .estimation import ErrorBudget


def chernoff_delta(x, y: float):
    """Deviation g(x, y) = sqrt(2*x*ln(1/y)) of the multiplicative Chernoff
    bound, element-wise when ``x`` is an array.  Spends the y it is given:
    eps_cap, eps_0, eps_1, eps_ke_x1, eps_ke_x2 or a ``chernoff_interval``
    transform.  Needs x >= 0; no other condition is checked."""
    if np.any(np.asarray(x) < 0):
        raise DomainError(f"need x >= 0, got {x}")
    if not 0.0 < y <= 1.0:
        raise DomainError(f"need 0 < y <= 1, got {y}")
    return np.sqrt(2.0 * x * math.log(1.0 / y))


def chernoff_interval(observed, budget: ErrorBudget):
    """Deviation widths (Delta, Delta_hat) = (g(x, eps_set^4/16),
    g(x, eps_set_hat^(3/2))) of an observed set size x, or an array of them.
    The population sum lies in [x - Delta_hat, x + Delta] except with
    probability eps_set + eps_set_hat, where the set passes ``set_validity``.
    Both widths vanish at zero."""
    return (chernoff_delta(observed, budget.eps_set**4 / 16.0),
            chernoff_delta(observed, budget.eps_set_hat**1.5))


def set_validity(set_sizes, budget: ErrorBudget) -> tuple[bool, np.ndarray]:
    """(all_ok, flags): where ``chernoff_interval`` applies among the nine
    sets of one Bell state and basis; all_ok is the report's ``validity_ok``.
    A set's concentration parameter mu = |Z^{ab}| - sqrt(sum_ab |Z^{ab}| / 2
    * ln(1/eps_set_dot)) holds except with probability eps_set_dot.  Its flag
    is (2/eps_set)^(1/mu) <= exp((3/(4*sqrt(2)))^2) and (1/eps_set_hat)^(1/mu)
    <= exp(1/3): mu >= max(ln(2/eps_set) / (3/(4*sqrt(2)))^2,
    3*ln(1/eps_set_hat)) for mu > 0; a set with mu <= 0 fails."""
    sizes = np.asarray(set_sizes, dtype=float)
    mu = sizes - math.sqrt(sizes.sum() / 2.0 * math.log(1.0 / budget.eps_set_dot))
    flags = mu >= max(math.log(2.0 / budget.eps_set) / ((3.0 / (4.0 * math.sqrt(2.0))) ** 2),
                      3.0 * math.log(1.0 / budget.eps_set_hat))
    return bool(flags.all()), flags


def serfling_lambda(x: float, y: float, z: float) -> float:
    """Serfling deviation sqrt((x - y + 1) * ln(1/z) / (2*x*y)) for sampling
    y items without replacement out of x.  Spends z; needs x >= y >= 1."""
    if not x >= y >= 1:
        raise DomainError(f"need x >= y >= 1, got x={x}, y={y}")
    if not 0.0 < z <= 1.0:
        raise DomainError(f"need 0 < z <= 1, got {z}")
    return math.sqrt((x - y + 1) * math.log(1.0 / z) / (2.0 * x * y))


def serfling_scale(m_bound: float, z_size: int, n_half: int, eps: float) -> int:
    """Scale a full-set count bound to a random keep half of the code string:
    max(floor((n_half) * m/|Z| - n_half * Lambda(|Z|, n_half, eps)), 0).
    Spends eps, eps_k0_serfling for n_k0 and eps_k1_serfling for n_k1; needs
    n_half <= |Z|, and an empty half or a bound of zero gives 0."""
    if n_half > z_size:
        raise DomainError(f"keep half {n_half} exceeds set size {z_size}")
    if n_half < 1 or m_bound <= 0:
        return 0
    lam = serfling_lambda(z_size, n_half, eps)
    return max(math.floor(n_half * (m_bound / z_size) - n_half * lam), 0)


def upsilon(x: float, y: float, z: float) -> float:
    """Deviation sqrt((x + 1) * ln(1/z) / (2*y*(x + y))) used by the
    phase-error transfer from the X-basis sample.  Spends z,
    eps_ke_upsilon; needs x >= 0 and y >= 1."""
    if x < 0:
        raise DomainError(f"need x >= 0, got {x}")
    if y < 1:
        raise DomainError(f"need y >= 1, got {y}")
    if not 0.0 < z <= 1.0:
        raise DomainError(f"need 0 < z <= 1, got {z}")
    return math.sqrt((x + 1) * math.log(1.0 / z) / (2.0 * y * (x + y)))


def mu_parameter(n_half: float, r_k: float, eps_pe: float) -> float:
    """Random-sampling correction mu(n_k/2, R_k, eps_PE) = sqrt((n_k/2 - R_k
    + 1) * ln(1/eps_PE) / (R_k * n_k)) with n_k = 2 * n_half, as used for the
    observed-to-true error-rate conversion.  Spends eps_pe; needs n_half >=
    R_k >= 1, which r_fraction <= 1/3 keeps (``split_signal_set``)."""
    if not n_half >= r_k >= 1:
        raise DomainError(f"need n_half >= R_k >= 1, got n_half={n_half}, R_k={r_k}")
    if not 0.0 < eps_pe <= 1.0:
        raise DomainError(f"need 0 < eps_PE <= 1, got {eps_pe}")
    n_k = 2.0 * n_half
    return math.sqrt((n_half - r_k + 1) * math.log(1.0 / eps_pe) / (r_k * n_k))


def true_error_upper_bound(e_obs: float, n_half: int, r_k: int, eps_pe: float) -> float:
    """E_bar = e_obs + mu(n_half, R_k, eps_pe): the observed-to-true error
    conversion for random sampling without replacement."""
    return e_obs + mu_parameter(n_half, r_k, eps_pe)
