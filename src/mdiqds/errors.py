"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ValidationError(ValueError):
    """A configuration value violates its declared invariants."""


class InfeasibleBoundsError(RuntimeError):
    """The observed error rate leaves no room for secure thresholds."""


class InfeasibleObservationsError(RuntimeError):
    """Observed counts admit no consistent photon-number population.

    Raised when the decoy linear program is infeasible; callers must
    treat this as an abort of the key generation session.
    """


class DegenerateSessionError(RuntimeError):
    """A session lacks the data required to evaluate a bound."""
