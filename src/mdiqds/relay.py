"""Linear-optics Bell-state relay simulated at the Fock level.

The relay interferes the two incoming spatial modes on a 50:50 beam
splitter, splits each output port on a polarizing beam splitter, and watches
four threshold detectors D1H, D1V, D2H, D2V.  A joint click on {D1H, D2V} or
{D1V, D2H} is announced as a psi_minus projection, {D1H, D1V} or {D2H, D2V}
as psi_plus, and every other click pattern (including three- and four-fold
coincidences and the same-polarization pairs) as a failure.  Phi outcomes
are therefore never announced.

Photons from the two parties are treated as fully indistinguishable at the
beam splitter.  Output mode occupations are computed by exact expansion of
the input creation-operator product in the four detector modes, which is
valid for any photon number the truncated sources can emit.

Channel misalignment is modeled as a constant relative rotation between the
two transmitters' polarization frames, applied here to party B's input: a
single photon from B, measured against A's frame, is found orthogonal with
probability sin^2(theta) = misalignment.  The rotation is coherent, so
multi-photon pulses stay in a single (rotated) polarization mode.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .sources import SystemProfile

# Single-photon polarization amplitudes in the (H, V) basis.
_POL_AMPLITUDES = {
    "H": (1.0, 0.0),
    "V": (0.0, 1.0),
    "D": (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    "A": (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)),
}

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# Input creation operators mapped onto the four detector modes:
# the beam splitter sends a -> (port1 + port2)/sqrt(2), b -> (port1 - port2)/sqrt(2)
# and each polarizing beam splitter routes H and V to separate detectors.
_MODE_MAP = {
    ("a", "H"): (_SQRT_HALF, 0.0, _SQRT_HALF, 0.0),
    ("a", "V"): (0.0, _SQRT_HALF, 0.0, _SQRT_HALF),
    ("b", "H"): (_SQRT_HALF, 0.0, -_SQRT_HALF, 0.0),
    ("b", "V"): (0.0, _SQRT_HALF, 0.0, -_SQRT_HALF),
}


def _creation_vector(
    port: str, polarization: str, frame_angle: float = 0.0
) -> tuple[float, float, float, float]:
    """Detector-mode amplitudes of one photon entering ``port`` with the
    given polarization, prepared in a frame rotated by ``frame_angle``."""
    c_h, c_v = _POL_AMPLITUDES[polarization]
    if frame_angle != 0.0:
        cos_t, sin_t = math.cos(frame_angle), math.sin(frame_angle)
        c_h, c_v = cos_t * c_h - sin_t * c_v, sin_t * c_h + cos_t * c_v
    vec_h = _MODE_MAP[(port, "H")]
    vec_v = _MODE_MAP[(port, "V")]
    return tuple(c_h * vh + c_v * vv for vh, vv in zip(vec_h, vec_v))


@lru_cache(maxsize=None)
def occupation_distribution(
    pol_a: str,
    k_a: int,
    pol_b: str,
    k_b: int,
    frame_angle_b: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact detector-mode occupation distribution for a relay input of
    k_a photons polarized ``pol_a`` from party A and k_b photons polarized
    ``pol_b`` from party B, with party B's frame rotated by ``frame_angle_b``.

    Returns the occupation vectors over (D1H, D1V, D2H, D2V) as a read-only
    int8 array of shape (M, 4) and their probabilities as a read-only float
    array of length M.  The expansion multiplies out the product of
    single-photon creation operators, so Hong-Ou-Mandel interference between
    indistinguishable photons is included exactly.
    """
    factors = [_creation_vector("a", pol_a)] * k_a
    factors += [_creation_vector("b", pol_b, frame_angle_b)] * k_b

    poly: dict[tuple[int, int, int, int], float] = {(0, 0, 0, 0): 1.0}
    for vec in factors:
        nxt: dict[tuple[int, int, int, int], float] = {}
        for occ, coeff in poly.items():
            for i in range(4):
                amp = vec[i]
                if amp == 0.0:
                    continue
                new = list(occ)
                new[i] += 1
                key = tuple(new)
                nxt[key] = nxt.get(key, 0.0) + coeff * amp
        poly = nxt

    norm = math.factorial(k_a) * math.factorial(k_b)
    occs = []
    probs = []
    for occ, coeff in poly.items():
        weight = coeff * coeff
        for n in occ:
            weight *= math.factorial(n)
        p = weight / norm
        if p > 0.0:
            occs.append(occ)
            probs.append(p)
    total = sum(probs)
    occs = np.array(occs, dtype=np.int8)
    probs = np.array([p / total for p in probs])
    occs.flags.writeable = probs.flags.writeable = False
    return occs, probs


class RelayEngine:
    """Announcement probabilities for a fixed detector efficiency,
    dark-count probability, and frame mismatch."""

    def __init__(
        self,
        detector_efficiency: float,
        dark_count_prob: float,
        misalignment: float = 0.0,
    ):
        self.eta = detector_efficiency
        self.dark = dark_count_prob
        self.frame_angle_b = math.asin(math.sqrt(misalignment))

    @classmethod
    def for_profile(cls, profile: SystemProfile) -> "RelayEngine":
        return cls(
            profile.detector_efficiency, profile.dark_count_prob, profile.misalignment
        )

    def outcome_table(self, inputs) -> np.ndarray:
        """Rows (P(psi_minus), P(psi_plus)) for a sequence of relay inputs
        (pol_a, k_a, pol_b, k_b), detector imperfections included."""
        dists = [
            occupation_distribution(pol_a, k_a, pol_b, k_b, self.frame_angle_b)
            for pol_a, k_a, pol_b, k_b in inputs
        ]
        occs = np.concatenate([occ for occ, _ in dists])
        probs = np.concatenate([p for _, p in dists])
        # a threshold detector holding n photons stays silent with probability
        # r[n]: it registers none of them and has no dark count.  psi_minus is
        # a click on exactly {D1H, D2V} or {D1V, D2H}, psi_plus on {D1H, D1V}
        # or {D2H, D2V}.  Gathering r and q per column keeps the temporaries
        # at one float per occupation vector.
        r = (1.0 - self.eta) ** np.arange(occs.max() + 1) * (1.0 - self.dark)
        q = 1.0 - r
        n0, n1, n2, n3 = occs.T
        minus = q[n0] * r[n1] * r[n2] * q[n3] + r[n0] * q[n1] * q[n2] * r[n3]
        plus = q[n0] * q[n1] * r[n2] * r[n3] + r[n0] * r[n1] * q[n2] * q[n3]
        starts = np.cumsum([0] + [len(p) for _, p in dists[:-1]])
        return np.stack([np.add.reduceat(probs * minus, starts),
                         np.add.reduceat(probs * plus, starts)], axis=1)

    def outcome_probabilities(
        self, pol_a: str, k_a: int, pol_b: str, k_b: int
    ) -> tuple[float, float]:
        """(P(psi_minus), P(psi_plus)) for one input configuration."""
        p_minus, p_plus = self.outcome_table([(pol_a, k_a, pol_b, k_b)])[0]
        return float(p_minus), float(p_plus)
