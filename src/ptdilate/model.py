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


def instantaneous_spectrum(p: HamiltonianParams, t) -> Spectrum:
    """Instantaneous eigenvalues E +- sqrt(1 - (w t)^2) with a phase label
    at a float t, or as arrays (labels' values) over a 1-D array of times;
    parts are set apart, so zeros keep the signs complex arithmetic gives."""
    s = 1.0 - np.square(p.omega * np.asarray(t, dtype=float))
    ep = np.abs(s) < EP_DETECT_TOL
    unbroken, broken, root = (s > 0.0) & ~ep, (s < 0.0) & ~ep, np.sqrt(np.abs(s))
    shift = np.where(unbroken, root, 0.0)
    lam = np.empty((2,) + s.shape, dtype=complex)
    lam.real = np.where(ep, p.E, p.E + shift), p.E - shift
    lam.imag = np.where(broken, root, 0.0), np.where(broken, -root, 0.0)
    phase = np.where(ep, PhaseLabel.EP.value, np.where(unbroken, PhaseLabel.UNBROKEN.value, PhaseLabel.BROKEN.value))
    if s.ndim == 0:
        return Spectrum(complex(lam[0]), complex(lam[1]), PhaseLabel(str(phase)))
    return Spectrum(lam[0], lam[1], phase)

