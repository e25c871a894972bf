"""Decoy-state transmitters and the lossy channel."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Photon-number cutoff for the truncated Poisson source model.  The residual
# mass above the cutoff is folded into the top bucket; at the signal
# intensities used here (<= 0.5) that mass is below 1e-13.
N_CUT = 10

INTENSITY_LABELS = ("s", "d1", "d2")
BASES = ("Z", "X")

# Polarization prepared for (basis, bit).
POLARIZATION = {("Z", 0): "H", ("Z", 1): "V", ("X", 0): "D", ("X", 1): "A"}


def truncated_poisson_pmf(mean: float, cutoff: int = N_CUT) -> np.ndarray:
    """Poisson pmf over 0..cutoff with the tail mass folded into the top bucket."""
    if mean < 0:
        raise ValidationError(f"negative mean photon number: {mean}")
    if mean == 0.0:
        pmf = np.zeros(cutoff + 1)
        pmf[0] = 1.0
        return pmf
    n = np.arange(cutoff + 1)
    log_p = -mean + n * math.log(mean) - [math.lgamma(k + 1) for k in n]
    pmf = np.exp(log_p)
    pmf[cutoff] += max(0.0, 1.0 - pmf.sum())
    return pmf


@dataclass(frozen=True)
class DecoySourceConfig:
    """One party's transmitter: three intensities, basis and intensity mixing.

    Intensities are mean photon numbers and must be strictly decreasing
    signal > decoy1 > decoy2 >= 0.
    """

    intensities: dict[str, float]
    intensity_probs: dict[str, float]
    basis_probs: dict[str, float]
    pulse_rate: float = 1e9

    def __post_init__(self):
        if set(self.intensities) != set(INTENSITY_LABELS):
            raise ValidationError(f"intensities must have keys {INTENSITY_LABELS}")
        a_s, a_d1, a_d2 = (self.intensities[k] for k in INTENSITY_LABELS)
        if not (a_s > a_d1 > a_d2 >= 0.0):
            raise ValidationError(
                f"intensities must satisfy s > d1 > d2 >= 0, got {self.intensities}"
            )
        for name, probs, keys in (
            ("intensity_probs", self.intensity_probs, INTENSITY_LABELS),
            ("basis_probs", self.basis_probs, BASES),
        ):
            if set(probs) != set(keys):
                raise ValidationError(f"{name} must have keys {keys}")
            if any(not 0.0 <= p <= 1.0 for p in probs.values()):
                raise ValidationError(f"{name} entries must lie in [0,1]")
            if abs(sum(probs.values()) - 1.0) > 1e-9:
                raise ValidationError(f"{name} must sum to 1")
        if self.pulse_rate <= 0:
            raise ValidationError("pulse_rate must be positive")

    def photon_pmf(self, label: str) -> np.ndarray:
        return truncated_poisson_pmf(self.intensities[label])


@dataclass(frozen=True)
class SystemProfile:
    """Channel and relay-detector parameters.

    ``distance_km`` is the total separation between the two transmitters;
    the relay sits at the midpoint, so each half-link carries half of it.
    ``misalignment`` is the probability that a photon from one party,
    measured in the other party's polarization frame, is found orthogonal
    (the squared sine of the relative frame angle between the two links).
    """

    distance_km: float
    loss_coeff_db_per_km: float = 0.2
    detector_efficiency: float = 1.0
    dark_count_prob: float = 0.0
    misalignment: float = 0.0

    def __post_init__(self):
        if self.distance_km < 0 or self.loss_coeff_db_per_km < 0:
            raise ValidationError("distance and loss coefficient must be nonnegative")
        for name in ("detector_efficiency", "dark_count_prob", "misalignment"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0,1], got {value}")

    def transmittance(self) -> float:
        """Per-photon survival probability over one half-link."""
        return 10.0 ** (-self.loss_coeff_db_per_km * (self.distance_km / 2.0) / 10.0)
