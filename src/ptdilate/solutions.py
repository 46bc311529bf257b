"""Fundamental solutions of the sweep model and their duals.

x0 and x1 span the solutions of i psi' = H(t) psi; the dual pair
y0 = sigma_x x1, y1 = sigma_x x0 solves i phi' = H(t)^dag phi.  For a
general sweep rate the components are Whittaker W functions of w t^2 on
the positive and rotated rays.  For w = 1/2 there is an elementary closed
form, which is the canonical normalization:

    x0 = e^{-iEt - t^2/4} (1, -i t)
    x1 = e^{-iEt - t^2/4} (gamma, delta)
    gamma = -i sqrt(2) erfi(t / sqrt(2))
    delta = e^{t^2/2} - sqrt(2) t erfi(t / sqrt(2))

with the prefactor-free erfi(x) = e^{x^2} F(x) of `specfun`, F Dawson's
integral (DLMF 7.2.5).  delta = e^{t^2/2} (1 - 2 x F(x)), x = t / sqrt(2),
does not cancel in doubles.  The Whittaker representation is never rescaled
onto the closed form; cross-representation checks compare ratios only.

E enters only through the common phase e^{-iEt}: each representation
evaluates phase-free amplitudes, and `SolutionBasis.x_pair` alone applies it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.special import dawsn

from .errors import DomainError, OverflowRangeError, ValidationError
from .model import HamiltonianParams
from .specfun import (
    Ray,
    _erfi_series_mp,
    _whittaker_mp,
)

__all__ = [
    "MU",
    "T_SMALL",
    "CLOSED_FORM_T_MAX",
    "Representation",
    "SolutionBasis",
    "solution_basis",
    "model_kappas",
    "wronskian",
]

MU = 0.25                   # second Whittaker index of the model
T_SMALL = 1e-3              # below this the Whittaker basis uses the sqrt(t) limit
CLOSED_FORM_T_MAX = 6.0     # closed-form horizon without rescaling
# x0(0) carries 1/Gamma(1 - 1/(4 w)), of size about Gamma(1/(4 w)), which
# is past double range once 1/(4 w) exceeds 171.62 (Gamma(171.62) ~ 1.8e308)
WHITTAKER_OMEGA_MIN = 1.0 / (4.0 * 171.62)


def model_kappas(omega: float) -> tuple[float, float]:
    """First Whittaker indices (kappa, kappa') of the sweep model."""
    return (-0.25 + 1.0 / (4.0 * omega), 0.25 + 1.0 / (4.0 * omega))


class Representation(Enum):
    WHITTAKER_GENERAL = "whittaker_general"
    CLOSED_FORM_HALF = "closed_form_half"


# --- closed form (omega = 1/2) ---------------------------------------------

def _on_time_axis(t):
    """(t as a 1-D float array, a function that shapes values computed on
    that axis like t).

    Scalar t runs as a one-point array, so that scalar and array calls do
    their complex arithmetic in the same numpy loops; numpy's complex
    scalar arithmetic rounds differently.
    """
    ts = np.asarray(t, dtype=float)
    if ts.size == 0:
        raise ValidationError("need at least one time")
    if ts.ndim == 0:
        return ts.reshape(1), lambda v: v[..., 0]
    return ts, lambda v: v


def _closed_half_amplitudes(ts: np.ndarray) -> np.ndarray:
    """Phase-free closed-form pair e^{-t^2/4} ((1, -i t), (gamma, delta))
    on a 1-D time axis, stacked: shape (2, 2, n); exact at t = 0."""
    if abs(ts).max() > CLOSED_FORM_T_MAX:
        raise OverflowRangeError(
            f"closed-form basis is limited to |t| <= {CLOSED_FORM_T_MAX} without rescaling"
        )
    x = ts / math.sqrt(2.0)
    f = dawsn(x)  # Dawson's integral F(x)
    growth = np.exp(x * x)
    gamma, delta = -1j * math.sqrt(2.0) * growth * f, growth * (1.0 - 2.0 * x * f)
    g = np.exp(-ts * ts / 4.0)
    return np.array([[g, -1j * ts * g], [g * gamma, g * delta]])


# --- Whittaker representation ----------------------------------------------

def _whittaker_pair_mp(omega, t):
    """Whittaker x-pair components in mpmath arithmetic (no e^{-iEt} phase);
    for t <= T_SMALL the amplitude is the one at T_SMALL."""
    kap, kap_p = model_kappas(omega)
    ts = max(float(t), T_SMALL)
    mag = omega * ts * ts
    rt = mp.sqrt(ts)
    sw = mp.sqrt(omega)

    def _w(kappa, ray):
        return _whittaker_mp(kappa, MU, mag, ray)

    x0 = (_w(kap, Ray.POSITIVE) / rt, -2j * sw * _w(kap_p, Ray.POSITIVE) / rt)
    x1 = (_w(-kap, Ray.ROTATED) / rt, _w(-kap_p, Ray.ROTATED) / (2 * sw) / rt)
    return x0, x1


@lru_cache(maxsize=1 << 14)
def _whittaker_pair_raw(omega: float, t: float) -> tuple[complex, complex, complex, complex]:
    """`_whittaker_pair_mp` rounded to doubles: x0 up, x0 down, x1 up, x1 down."""
    x0, x1 = _whittaker_pair_mp(omega, t)
    return tuple(complex(v) for v in (*x0, *x1))


def _whittaker_amplitudes(omega: float, ts: np.ndarray) -> np.ndarray:
    """Phase-free Whittaker pair, stacked like the closed form's; one cached
    mpmath evaluation per time point (the one at T_SMALL for t <= T_SMALL)."""
    if ts.min() < 0.0:
        raise DomainError("Whittaker basis supports t >= 0 only")
    if omega < WHITTAKER_OMEGA_MIN:
        raise OverflowRangeError(f"Whittaker basis exceeds double range for omega < {WHITTAKER_OMEGA_MIN:.4g}")
    x = np.array([_whittaker_pair_raw(omega, float(s)) for s in ts]).T.reshape(2, 2, -1)
    bad = ~np.isfinite(x).all(axis=(0, 1))
    if bad.any():
        raise OverflowRangeError(f"Whittaker basis exceeds double range at t = {ts[bad][0]}")
    return x


# --- basis object -----------------------------------------------------------

@dataclass(frozen=True)
class SolutionBasis:
    """Evaluable solution basis in one of the two representations."""

    params: HamiltonianParams
    representation: Representation

    def __post_init__(self):
        if (
            self.representation is Representation.CLOSED_FORM_HALF
            and self.params.omega != 0.5
        ):
            raise ValidationError("closed-form representation requires omega = 1/2 exactly")

    @property
    def horizon(self) -> float:
        """Largest time the representation can evaluate in double range."""
        if self.representation is Representation.CLOSED_FORM_HALF:
            return CLOSED_FORM_T_MAX
        return math.sqrt(700.0 / self.params.omega)

    @property
    def gram_det(self) -> float:
        """|det[y0, y1]|^2 = ||y0||^2 ||y1||^2 - |<y0|y1>|^2, constant in t by
        Liouville's formula (the phase-free amplitudes obey a traceless system)."""
        if self.representation is Representation.CLOSED_FORM_HALF:
            return 1.0
        return 4.0 * self.params.omega ** 2

    def _amplitudes(self, ts: np.ndarray) -> np.ndarray:
        """Phase-free x-pair e^{iEt} (x0, x1) on a 1-D time axis, shape (2, 2, n)."""
        if self.representation is Representation.CLOSED_FORM_HALF:
            return _closed_half_amplitudes(ts)
        return _whittaker_amplitudes(self.params.omega, ts)

    def x_pair(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(x0, x1) at t, a float or 1-D array of n times: shape (2,) or (2, n)."""
        ts, shaped = _on_time_axis(t)
        x = np.exp(-1j * self.params.E * ts) * self._amplitudes(ts)
        return shaped(x[0]), shaped(x[1])

    def y_pair(self, t) -> np.ndarray:
        """Dual pair y0 = sigma_x x1, y1 = sigma_x x0 stacked, shape (2, 2)
        or (2, 2, n): a reversed view of the stacked x_pair."""
        return np.array(self.x_pair(t))[::-1, ::-1]

    def dual_amplitudes(self, t) -> np.ndarray:
        """Phase-free dual pair e^{iEt} (y0, y1), shaped like y_pair: the
        metric reads these, as the phase cancels in each |y_k><y_k|."""
        ts, shaped = _on_time_axis(t)
        return shaped(self._amplitudes(ts)[::-1, ::-1])

    def y_pair_mp(self, t: float):
        """Phase-free dual pair as mpmath complex tuples at the caller's precision."""
        if self.representation is Representation.CLOSED_FORM_HALF:
            tm = mp.mpf(t)
            e = _erfi_series_mp(tm / mp.sqrt(2))
            g = mp.exp(-tm * tm / 4)
            gamma, delta = -1j * mp.sqrt(2) * e, mp.exp(tm * tm / 2) - mp.sqrt(2) * tm * e
            return (g * delta, g * gamma), (g * (-1j * tm), g)
        (x0u, x0d), (x1u, x1d) = _whittaker_pair_mp(self.params.omega, t)
        return (x1d, x1u), (x0d, x0u)


def solution_basis(p: HamiltonianParams, representation: Representation | None = None) -> SolutionBasis:
    """Basis in the requested representation; closed form is canonical at
    omega = 1/2 exactly, Whittaker otherwise."""
    if representation is None:
        representation = (
            Representation.CLOSED_FORM_HALF if p.omega == 0.5 else Representation.WHITTAKER_GENERAL
        )
    return SolutionBasis(p, representation)


def _basis_for(p: HamiltonianParams, basis: SolutionBasis | None) -> SolutionBasis:
    """basis, or p's canonical basis if it is None; refuses one built for other parameters."""
    if basis is None:
        return solution_basis(p)
    if basis.params != p:
        raise ValidationError(f"basis was built for {basis.params}, not for {p}")
    return basis


def wronskian(basis: SolutionBasis, t: float) -> complex:
    """det[x0(t), x1(t)] * e^{2iEt}; constant in t for a true basis."""
    x0, x1 = basis.x_pair(t)
    det = x0[0] * x1[1] - x0[1] * x1[0]
    return det * cmath.exp(2j * basis.params.E * t)

