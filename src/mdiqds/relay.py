"""Linear-optics Bell-state relay: the announcement probability of every
relay input in closed form.

The relay interferes the two incoming spatial modes on a 50:50 beam
splitter, splits each output port on a polarizing beam splitter, and watches
four threshold detectors D1H, D1V, D2H, D2V.  A joint click on {D1H, D2V} or
{D1V, D2H} is announced as a psi_minus projection, {D1H, D1V} or {D2H, D2V}
as psi_plus, and every other click pattern (including three- and four-fold
coincidences and the same-polarization pairs) as a failure.  Phi outcomes
are therefore never announced.

Photons from the two parties are treated as fully indistinguishable at the
beam splitter.  `relay_table` needs only Q(S), the probability that the
detectors in a set S stay silent.  For k_a photons in party A's detector-mode
vector a and k_b in party B's vector b, Q(S) = (1-d)^|S| G(z) with z_i = 1-eta
on S and 1 elsewhere, where G is the two-mode case of the linear-optics
permanent formula (Aaronson & Arkhipov, Theory of Computing 9, 143 (2013)):

    G(z) = sum_j C(k_a, j) C(k_b, j) M_aa^(k_a-j) M_bb^(k_b-j) M_ab^(2j),
    M_xy = sum_i x_i z_i y_i.

Inclusion-exclusion over the silent sets then gives each click pattern
exactly.  `occupation_distribution` expands the same input into detector
occupations term by term; it is the reference the table is checked against.

Channel misalignment is modeled as a constant relative rotation between the
two transmitters' polarization frames, applied here to party B's input: a
single photon from B, measured against A's frame, is found orthogonal with
probability sin^2(theta) = misalignment.  The rotation is coherent, so
multi-photon pulses stay in a single (rotated) polarization mode.
"""

from __future__ import annotations

import math

import numpy as np

from .sources import BASES, N_CUT, POLARIZATION

# Polarization at index 2 * basis + bit of the relay table's pol_a and pol_b
# axes: H, V, D, A.
_POL_ORDER = tuple(POLARIZATION[basis, bit] for basis in BASES for bit in (0, 1))

# Click patterns announced as psi_minus ({D1H, D2V}, {D1V, D2H}) and as
# psi_plus ({D1H, D1V}, {D2H, D2V}), over detectors D1H, D1V, D2H, D2V = 0..3.
_BELL_PATTERNS = (((0, 3), (1, 2)), ((0, 1), (2, 3)))

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


# The exact reference for `relay_table`: the tests compare the table with it,
# and perfbench/tracing.py wraps it as the relay layer's timer.
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


def relay_table(eta: float, dark: float, misalignment: float) -> np.ndarray:
    """relay[pol_a, k_a, pol_b, k_b] = (P(psi_minus), P(psi_plus)) for k_a
    photons from party A and k_b from party B arriving at detectors of
    efficiency ``eta`` and dark-count probability ``dark``; party B's frame
    is rotated so that a lone photon from B is found orthogonal with
    probability ``misalignment``.  Polarizations are in the order H, V, D, A.
    """
    frame_angle_b = math.asin(math.sqrt(misalignment))
    vec_a = np.array([_creation_vector("a", pol) for pol in _POL_ORDER])
    vec_b = np.array([_creation_vector("b", pol, frame_angle_b) for pol in _POL_ORDER])
    # z[s, i]: the weight a photon in detector i carries in G when bit i of
    # the silent-set mask s is set
    z = np.where((np.arange(16)[:, None] >> np.arange(4)) & 1, 1.0 - eta, 1.0)
    m_aa = np.einsum("pi,si,pi->sp", vec_a, z, vec_a)
    m_bb = np.einsum("pi,si,pi->sp", vec_b, z, vec_b)
    m_ab = np.einsum("pi,si,qi->spq", vec_a, z, vec_b)
    k = np.arange(N_CUT + 1)
    binom = np.array([[math.comb(n, j) for j in k] for n in k], dtype=float)
    power = np.maximum(k[:, None] - k, 0)  # k - j where C(k, j) > 0
    # g[s, pol_a, k_a, pol_b, k_b] = G for silent set s
    g = np.einsum("spkj,sqlj,spqj->spkql",
                  binom * m_aa[..., None, None] ** power,
                  binom * m_bb[..., None, None] ** power,
                  m_ab[..., None] ** (2 * k), optimize=True)
    # A clicking detector is d + (1-d)(1-y) with y its photons' no-detection
    # probability.  Expanding the d terms by hand keeps the alternating sums
    # to G alone: summed over Q(S) they cancel terms of order 1 on entries
    # that dark counts dominate (vacuum announces only 2 d^2 (1-d)^2).
    quiet = 1.0 - dark
    table = np.zeros((4, N_CUT + 1, 4, N_CUT + 1, 2))
    for bell, patterns in enumerate(_BELL_PATTERNS):
        for i, j in patterns:
            rest = 15 ^ (1 << i) ^ (1 << j)
            g_rest, g_i, g_j = g[rest], g[rest | 1 << i], g[rest | 1 << j]
            table[..., bell] += (quiet**4 * (g_rest - g_i - g_j + g[15])
                                 + quiet**3 * dark * (2.0 * g_rest - g_i - g_j)
                                 + quiet**2 * dark**2 * g_rest)
    # cos(pi/2) is not 0 in floating point: at misalignment 1 some
    # impossible patterns come out near -4e-33, which no sampler accepts
    return np.maximum(table, 0.0)
