"""Brute-force oracle for the relay network, independent of the engine.

Evolves labeled photons one assignment at a time: every input photon is
routed through the 50:50 beam splitter and the polarizing beam splitters by
explicit enumeration of all 4^N detector assignments, and the bosonic
amplitudes are accumulated per occupation pattern.  Costs O(4^N) and is only
meant for few-photon cross-checks.
"""

import itertools
import math
from collections import defaultdict

SQ2 = math.sqrt(2.0)

# Detector order: D1H, D1V, D2H, D2V.
# Beam splitter: a -> (port1 + port2)/sqrt(2), b -> (port1 - port2)/sqrt(2);
# each PBS sends H to the H detector and V to the V detector of its port.
ROUTE = {
    ("a", "H"): [1 / SQ2, 0.0, 1 / SQ2, 0.0],
    ("a", "V"): [0.0, 1 / SQ2, 0.0, 1 / SQ2],
    ("b", "H"): [1 / SQ2, 0.0, -1 / SQ2, 0.0],
    ("b", "V"): [0.0, 1 / SQ2, 0.0, -1 / SQ2],
}

POL_HV = {
    "H": {"H": 1.0},
    "V": {"V": 1.0},
    "D": {"H": 1 / SQ2, "V": 1 / SQ2},
    "A": {"H": 1 / SQ2, "V": -1 / SQ2},
}


def photon_amplitudes(port, polarization):
    vec = [0.0, 0.0, 0.0, 0.0]
    for hv, c in POL_HV[polarization].items():
        for i, r in enumerate(ROUTE[(port, hv)]):
            vec[i] += c * r
    return vec


def occupation_probs(photons):
    """photons: list of (port, polarization) labels, e.g. [("a","H"), ("b","V")].

    Returns {occupation 4-tuple: probability}.
    """
    vecs = [photon_amplitudes(port, pol) for port, pol in photons]
    amplitude = defaultdict(float)
    for assignment in itertools.product(range(4), repeat=len(photons)):
        occ = [0, 0, 0, 0]
        amp = 1.0
        for j, det in enumerate(assignment):
            amp *= vecs[j][det]
            occ[det] += 1
        amplitude[tuple(occ)] += amp

    group_sizes = defaultdict(int)
    for photon in photons:
        group_sizes[photon] += 1
    norm = 1.0
    for g in group_sizes.values():
        norm *= math.factorial(g)

    probs = {}
    for occ, amp in amplitude.items():
        weight = amp * amp
        for n in occ:
            weight *= math.factorial(n)
        p = weight / norm
        if p > 1e-15:
            probs[occ] = p
    return probs


def outcome_probs(photons, eta=1.0, dark=0.0):
    """(P(psi_minus), P(psi_plus), P(failure)) with threshold detectors."""
    occ_probs = occupation_probs(photons) if photons else {(0, 0, 0, 0): 1.0}
    return click_probs(occ_probs, eta, dark)


def click_probs(occ_probs, eta=1.0, dark=0.0):
    """(P(psi_minus), P(psi_plus), P(failure)) of an occupation distribution
    {occupation 4-tuple: probability} read by threshold detectors.  Plain
    arithmetic only, so it also runs on extended-precision numbers."""
    psi_minus_patterns = ({0, 3}, {1, 2})
    psi_plus_patterns = ({0, 1}, {2, 3})
    p_minus = p_plus = 0.0
    for occ, p_occ in occ_probs.items():
        q = [1.0 - ((1.0 - eta) ** n) * (1.0 - dark) for n in occ]
        for clicked in psi_minus_patterns:
            p_minus += p_occ * _pattern_prob(q, clicked)
        for clicked in psi_plus_patterns:
            p_plus += p_occ * _pattern_prob(q, clicked)
    return p_minus, p_plus, 1.0 - p_minus - p_plus


def _pattern_prob(q, clicked):
    """Probability that exactly the detectors in ``clicked`` fire, given each
    detector's click probability q[i]."""
    p_pattern = 1.0
    for i in range(4):
        p_pattern *= q[i] if i in clicked else 1.0 - q[i]
    return p_pattern
