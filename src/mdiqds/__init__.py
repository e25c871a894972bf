"""Measurement-device-independent quantum digital signatures.

Monte-Carlo simulation of the decoy-state key generation protocol through an
untrusted linear-optics relay, the three-party signing state machines, and
the finite-size security bounds that tie them together.
"""

from .errors import (
    DegenerateSessionError,
    DomainError,
    InfeasibleBoundsError,
    InfeasibleObservationsError,
    ValidationError,
)
from .estimation import DecoyPrograms, ErrorBudget, LinkBound, YieldEstimate, estimate_yields
from .security import SecurityReport, build_security_report, signature_length_search
from .session import ChannelTables, SiftedData, run_kgp_session
from .sources import DecoySourceConfig, SystemProfile

__version__ = "0.1.0"

__all__ = [
    "ChannelTables",
    "DecoyPrograms",
    "DecoySourceConfig",
    "DegenerateSessionError",
    "DomainError",
    "ErrorBudget",
    "InfeasibleBoundsError",
    "InfeasibleObservationsError",
    "LinkBound",
    "SecurityReport",
    "SiftedData",
    "SystemProfile",
    "ValidationError",
    "YieldEstimate",
    "build_security_report",
    "estimate_yields",
    "run_kgp_session",
    "signature_length_search",
]
