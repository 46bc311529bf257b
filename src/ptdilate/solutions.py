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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

import mpmath as mp
import numpy as np
from scipy.special import dawsn

from .errors import DomainError, OverflowRangeError, ValidationError
from .model import HamiltonianParams, hamiltonian
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
    "x_basis_whittaker",
    "x_basis_closed_half",
    "y_basis",
    "wronskian",
    "ode_residual",
]

MU = 0.25                   # second Whittaker index of the model
T_SMALL = 1e-3              # below this the Whittaker basis uses the sqrt(t) limit
CLOSED_FORM_T_MAX = 6.0     # closed-form horizon without rescaling
RESIDUAL_STEP_SCALE = 1e-6  # finite-difference step is this times max(1, |t|)


def model_kappas(omega: float) -> tuple[float, float]:
    """First Whittaker indices (kappa, kappa') of the sweep model."""
    return (-0.25 + 1.0 / (4.0 * omega), 0.25 + 1.0 / (4.0 * omega))


class Representation(Enum):
    WHITTAKER_GENERAL = "whittaker_general"
    CLOSED_FORM_HALF = "closed_form_half"


# --- closed form (omega = 1/2) ---------------------------------------------

def _closed_scalars_mp(t):
    """(gamma, delta) as mpmath values at the caller's precision."""
    tm = mp.mpf(t)
    e = _erfi_series_mp(tm / mp.sqrt(2))
    return -1j * mp.sqrt(2) * e, mp.exp(tm * tm / 2) - mp.sqrt(2) * tm * e


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


def x_basis_closed_half(E: float, t) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form basis pair at omega = 1/2, shaped like `x_pair`'s;
    exact at t = 0."""
    ts, shaped = _on_time_axis(t)
    if abs(ts).max() > CLOSED_FORM_T_MAX:
        raise OverflowRangeError(
            f"closed-form basis is limited to |t| <= {CLOSED_FORM_T_MAX} without rescaling"
        )
    x = ts / math.sqrt(2.0)
    f = dawsn(x)  # Dawson's integral F(x)
    growth = np.exp(x * x)
    gamma, delta = -1j * math.sqrt(2.0) * growth * f, growth * (1.0 - 2.0 * x * f)
    pref = np.exp(-1j * E * ts - ts * ts / 4.0)
    x0 = np.array([pref, -1j * ts * pref])
    x1 = np.array([pref * gamma, pref * delta])
    return shaped(x0), shaped(x1)


# --- Whittaker representation ----------------------------------------------

@lru_cache(maxsize=1 << 14)
def _whittaker_pair_raw(omega: float, t: float) -> tuple[complex, complex, complex, complex]:
    """Components of x0, x1 at t > 0 without the e^{-iEt} phase."""
    kap, kap_p = model_kappas(omega)
    mag = omega * t * t
    rt = math.sqrt(t)
    sw = math.sqrt(omega)

    def _w(kappa, ray):
        return complex(_whittaker_mp(kappa, MU, mag, ray))

    x0_up = _w(kap, Ray.POSITIVE) / rt
    x0_dn = -2j * sw * _w(kap_p, Ray.POSITIVE) / rt
    x1_up = _w(-kap, Ray.ROTATED) / rt
    x1_dn = _w(-kap_p, Ray.ROTATED) / (2.0 * sw) / rt
    return x0_up, x0_dn, x1_up, x1_dn


def x_basis_whittaker(p: HamiltonianParams, t) -> tuple[np.ndarray, np.ndarray]:
    """Whittaker basis pair, shaped like the closed form's; one cached
    mpmath evaluation per time point.  For t <= 1e-3 the sqrt(t) limit
    freezes the amplitude at t = 1e-3 and only the phase keeps moving."""
    ts, shaped = _on_time_axis(t)
    if ts.min() < 0.0:
        raise DomainError("Whittaker basis supports t >= 0 only")
    raw = np.array([_whittaker_pair_raw(p.omega, max(float(s), T_SMALL)) for s in ts]).T
    x = np.exp(-1j * p.E * ts) * raw   # rows: x0 up, x0 down, x1 up, x1 down
    bad = ~np.isfinite(x).all(axis=0)
    if bad.any():
        raise OverflowRangeError(f"Whittaker basis exceeds double range at t = {ts[bad][0]}")
    return shaped(x[:2]), shaped(x[2:])


def _whittaker_pair_mp(omega, t):
    """Whittaker x-pair components in mpmath arithmetic (no e^{-iEt} phase)."""
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
        """|det[y0, y1]|^2 = ||y0||^2 ||y1||^2 - |<y0|y1>|^2, constant in t
        by Liouville's formula (trace H is 2E, so det[x0, x1] ~ e^{-2iEt})."""
        if self.representation is Representation.CLOSED_FORM_HALF:
            return 1.0
        return 4.0 * self.params.omega ** 2

    def x_pair(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(x0, x1) at t, a float or 1-D array of n times: shape (2,) or (2, n)."""
        if self.representation is Representation.CLOSED_FORM_HALF:
            return x_basis_closed_half(self.params.E, t)
        return x_basis_whittaker(self.params, t)

    def y_pair(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Dual pair y0 = sigma_x x1, y1 = sigma_x x0, shaped like x_pair."""
        x0, x1 = self.x_pair(t)
        return x1[::-1].copy(), x0[::-1].copy()

    def x0(self, t: float) -> np.ndarray:
        return self.x_pair(t)[0]

    def x1(self, t: float) -> np.ndarray:
        return self.x_pair(t)[1]

    def y0(self, t: float) -> np.ndarray:
        return self.y_pair(t)[0]

    def y1(self, t: float) -> np.ndarray:
        return self.y_pair(t)[1]

    def y_pair_mp(self, t: float):
        """Dual pair as mpmath complex tuples at the caller's precision."""
        E = self.params.E
        if self.representation is Representation.CLOSED_FORM_HALF:
            tm = mp.mpf(t)
            gamma, delta = _closed_scalars_mp(tm)
            pref = mp.exp(-1j * E * tm - tm * tm / 4)
            y0 = (pref * delta, pref * gamma)
            y1 = (pref * (-1j * tm), pref)
            return y0, y1
        (x0u, x0d), (x1u, x1d) = _whittaker_pair_mp(self.params.omega, t)
        phase = mp.exp(-1j * mp.mpf(E) * mp.mpf(t))
        y0 = (phase * x1d, phase * x1u)
        y1 = (phase * x0d, phase * x0u)
        return y0, y1


def solution_basis(p: HamiltonianParams, representation: Representation | None = None) -> SolutionBasis:
    """Basis in the requested representation; closed form is canonical at
    omega = 1/2 exactly, Whittaker otherwise."""
    if representation is None:
        representation = (
            Representation.CLOSED_FORM_HALF if p.omega == 0.5 else Representation.WHITTAKER_GENERAL
        )
    return SolutionBasis(p, representation)


def y_basis(p: HamiltonianParams, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Dual basis pair in the canonical representation for these params."""
    return solution_basis(p).y_pair(t)


def wronskian(basis: SolutionBasis, t: float) -> complex:
    """det[x0(t), x1(t)] * e^{2iEt}; constant in t for a true basis."""
    x0, x1 = basis.x_pair(t)
    det = x0[0] * x1[1] - x0[1] * x1[0]
    return det * cmath.exp(2j * basis.params.E * t)


def ode_residual(
    p: HamiltonianParams,
    v: Callable[[float], np.ndarray],
    t: float,
    dual: bool = False,
) -> float:
    """Max component magnitude of i v'(t) - M v(t), M = H or H^dag.

    The derivative is a central difference with step 1e-6 * max(1, |t|).
    """
    h = RESIDUAL_STEP_SCALE * max(1.0, abs(t))
    v_dot = (np.asarray(v(t + h), dtype=complex) - np.asarray(v(t - h), dtype=complex)) / (2.0 * h)
    H = hamiltonian(p, t)
    M = H.conj().T if dual else H
    residual = 1j * v_dot - M @ np.asarray(v(t), dtype=complex)
    return float(np.abs(residual).max())
