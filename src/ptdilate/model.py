"""The swept two-level Hamiltonian and its spectrum.

H(t) = [[E + i w t, 1], [1, E - i w t]] with real E and sweep rate w > 0.
Parity is sigma_x, time reversal is complex conjugation.  The instantaneous
eigenvalues E +- sqrt(1 - (w t)^2) coalesce at w t = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

__all__ = [
    "SIGMA_X",
    "HamiltonianParams",
    "PhaseLabel",
    "Spectrum",
    "hamiltonian",
    "instantaneous_spectrum",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

EP_DETECT_TOL = 1e-12   # degeneracy condition |1 - (w t)^2| below this


@dataclass(frozen=True)
class HamiltonianParams:
    """Energy offset E and sweep rate omega (hbar = 1)."""

    E: float
    omega: float

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ValidationError(f"omega must be positive, got {self.omega}")


class PhaseLabel(Enum):
    UNBROKEN = "unbroken"
    EP = "EP"
    BROKEN = "broken"


class Spectrum(NamedTuple):
    lam_plus: complex
    lam_minus: complex
    phase: PhaseLabel


def hamiltonian(p: HamiltonianParams, t) -> np.ndarray:
    """H(t) at a float t, shape (2, 2), or over a 1-D array of n times,
    stacked: shape (n, 2, 2), a view of a time-last (2, 2, n) array."""
    sweep = 1j * p.omega * np.asarray(t, dtype=float)
    H = np.ones((2, 2) + sweep.shape, dtype=complex)
    H[0, 0], H[1, 1] = p.E + sweep, p.E - sweep
    return H.transpose(*range(2, H.ndim), 0, 1)


def instantaneous_spectrum(p: HamiltonianParams, t: float) -> Spectrum:
    """Instantaneous eigenvalues E +- sqrt(1 - (w t)^2) with a phase label."""
    s = 1.0 - (p.omega * t) ** 2
    if abs(s) < EP_DETECT_TOL:
        return Spectrum(complex(p.E), complex(p.E), PhaseLabel.EP)
    if s > 0.0:
        root = np.sqrt(s)
        return Spectrum(complex(p.E + root), complex(p.E - root), PhaseLabel.UNBROKEN)
    root = 1j * np.sqrt(-s)
    return Spectrum(p.E + root, p.E - root, PhaseLabel.BROKEN)

