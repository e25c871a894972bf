"""Detector presets and published benchmark rows for the 50 km link."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .sources import DecoySourceConfig, SystemProfile


@dataclass(frozen=True)
class DetectorPreset:
    detector_efficiency: float
    dark_count_prob: float


DETECTOR_PRESETS = {
    # standard single-photon detectors
    "standard": DetectorPreset(0.145, 6.02e-6),
    # InGaAs avalanche photodiode detectors
    "ingaas-apd": DetectorPreset(0.30, 1.30e-4),
    # InGaAs/InP avalanche photodiode detectors
    "ingaas-inp-apd": DetectorPreset(0.55, 5.00e-4),
    # superconducting nanowire single-photon detectors
    "snspd": DetectorPreset(0.93, 1.00e-6),
}


@dataclass(frozen=True)
class BenchmarkRow:
    """One published raw-key-generation-time row: the pulse count a party
    sends and the resulting time at a 1 GHz source, as printed."""

    detector: str
    n_sig: float
    t_r_minutes: float
    printed_decimals: int


# security threshold of order 1e-5
BENCHMARK_ROWS_1E5 = (
    BenchmarkRow("standard", 5.58e12, 93.0, 0),
    BenchmarkRow("ingaas-apd", 1.80e12, 30.0, 0),
    BenchmarkRow("ingaas-inp-apd", 0.87e12, 14.5, 1),
    BenchmarkRow("snspd", 0.098e12, 1.6, 1),
)

# security threshold of order 1e-10
BENCHMARK_ROWS_1E10 = (
    BenchmarkRow("standard", 10.5e12, 175.0, 0),
    BenchmarkRow("ingaas-apd", 3.35e12, 55.83, 2),
    BenchmarkRow("ingaas-inp-apd", 1.63e12, 27.1, 1),
    BenchmarkRow("snspd", 0.18e12, 3.0, 0),
)

BENCHMARKS = {"1e-5": BENCHMARK_ROWS_1E5, "1e-10": BENCHMARK_ROWS_1E10}

# Worked-example transmitter and channel settings.
DEFAULT_PULSE_RATE = 1e9
DEFAULT_INTENSITIES = {"s": 0.18, "d1": 0.09, "d2": 5e-4}
DEFAULT_INTENSITY_PROBS = {"s": 0.50, "d1": 0.25, "d2": 0.25}
DEFAULT_BASIS_PROBS = {"Z": 0.625, "X": 0.375}
DEFAULT_DISTANCE_KM = 50.0
DEFAULT_LOSS_DB_PER_KM = 0.2
DEFAULT_MISALIGNMENT = 0.01
DEFAULT_R_FRACTION = 0.055
DEFAULT_ZETA = 1.16
# pulses per party of the worked example: the standard detector's 1e-5 row
DEFAULT_N_SIG = 5.58e12


def default_source_config() -> DecoySourceConfig:
    return DecoySourceConfig(
        intensities=dict(DEFAULT_INTENSITIES),
        intensity_probs=dict(DEFAULT_INTENSITY_PROBS),
        basis_probs=dict(DEFAULT_BASIS_PROBS),
        pulse_rate=DEFAULT_PULSE_RATE,
    )


def profile_for_preset(name: str) -> SystemProfile:
    # a tuple, so an unhashable name is rejected too
    if name not in tuple(DETECTOR_PRESETS):
        raise ValidationError(
            f"unknown detector preset {name!r}; known: {sorted(DETECTOR_PRESETS)}"
        )
    preset = DETECTOR_PRESETS[name]
    return SystemProfile(
        distance_km=DEFAULT_DISTANCE_KM,
        loss_coeff_db_per_km=DEFAULT_LOSS_DB_PER_KM,
        detector_efficiency=preset.detector_efficiency,
        dark_count_prob=preset.dark_count_prob,
        misalignment=DEFAULT_MISALIGNMENT,
    )


def benchmark_minutes(row: BenchmarkRow) -> float:
    """Raw key time in minutes from the printed pulse count."""
    return row.n_sig / DEFAULT_PULSE_RATE / 60.0
