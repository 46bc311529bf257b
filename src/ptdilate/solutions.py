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

with the prefactor-free erfi(x) = e^{x^2} F(x), F Dawson's integral (DLMF
7.2.5), taken from `specfun.dawson`, a numpy Taylor table.  delta =
e^{t^2/2} (1 - 2 x F(x)), x = t / sqrt(2), does not cancel in doubles.
The Whittaker representation is never rescaled onto the closed form;
cross-representation checks compare ratios only.

The Whittaker pair is evaluated in doubles.  Per sweep rate, one cached
table holds both columns at knots from 0 to just past the horizon, from one
pass of Taylor steps of x' = (-i sigma_x + w t sigma_z) x, the phase-free
system, as knot propagators: x1 forward from its value at t = 0, x0, the
recessive column, backward by their adjugates from past the horizon and
scaled to its value at t = 0.  A time is then one Taylor step from the knot
on its left (x1) or right (x0).  Only the extended-precision references
`_whittaker_pair_mp` and `SolutionBasis.y_pair_mp` import mpmath.

E enters only through the common phase e^{-iEt}: each representation
evaluates phase-free amplitudes, and `SolutionBasis.x_pair` alone applies it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import DomainError, OverflowRangeError, ValidationError
from .model import HamiltonianParams
from .specfun import (
    Ray,
    _erfi_series_mp,
    _whittaker_mp,
    dawson,
)

__all__ = [
    "Representation",
    "SolutionBasis",
    "solution_basis",
    "model_kappas",
    "wronskian",
]

MU = 0.25                   # second Whittaker index of the model
T_SMALL = 1e-3              # below this the Whittaker basis takes the amplitude at T_SMALL
CLOSED_FORM_T_MAX = 6.0     # closed-form horizon without rescaling
WHITTAKER_Z_MAX = 700.0     # w t^2 at the Whittaker horizon
WHITTAKER_Z_ANCHOR = 850.0  # w t^2 where x0's backward carry starts (at w = 0.0015, 760 leaves 6e-9)
KNOT_STEP = 1.5             # Whittaker knot spacing KNOT_STEP / (1 + w t + 2 sqrt(w))
TAYLOR_TERMS = 25           # terms per Taylor step; 60 agree to rounding for w up to 1e4
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
    scalar arithmetic rounds differently.  A NaN time is refused here, for
    every representation; an infinite one meets the horizon checks.
    """
    ts = np.asarray(t, dtype=float)
    if ts.size == 0 or np.isnan(ts).any():
        raise ValidationError("need at least one time and no NaN")
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
    f = dawson(x)
    growth = np.exp(x * x)
    gamma, delta = -1j * math.sqrt(2.0) * growth * f, growth * (1.0 - 2.0 * x * f)
    g = np.exp(-ts * ts / 4.0)
    return np.array([[g, -1j * ts * g], [g * gamma, g * delta]])


# --- Whittaker representation ----------------------------------------------

def _whittaker_pair_mp(omega, t):
    """(x0, x1), the Whittaker x-pair in mpmath arithmetic (no e^{-iEt}
    phase): x0 from W_kappa and W_kappa' on the positive ray, x1 from
    W_-kappa and W_-kappa' on the rotated ray.  For t <= T_SMALL the
    amplitude is the one at T_SMALL."""
    import mpmath as mp
    kap, kap_p = model_kappas(omega)
    ts = max(float(t), T_SMALL)
    mag, rt, sw = omega * ts * ts, mp.sqrt(ts), mp.sqrt(omega)
    w, w_p = (_whittaker_mp(k, MU, mag, Ray.POSITIVE) for k in (kap, kap_p))
    v, v_p = (_whittaker_mp(-k, MU, mag, Ray.ROTATED) for k in (kap, kap_p))
    return (w / rt, -2j * sw * w_p / rt), (v / rt, v_p / (2 * sw) / rt)


def _over_gamma(scale: float, x: float) -> float:
    """scale / Gamma(x) as a double wherever it is one: 0 at the poles; for
    x < 1/2 by reflection, sin(pi x) Gamma(1 - x) / pi; past 171, where
    Gamma leaves double range, one step Gamma(y) = (y - 1) Gamma(y - 1)."""
    n = round(x)
    if x < 0.5:
        if x == n:
            return 0.0
        scale *= (-1) ** n * math.sin(math.pi * (x - n)) / math.pi
        y, power = 1.0 - x, 1
    else:
        y, power = x, -1
    if y > 171.0:
        scale, y = scale * (y - 1.0) ** power, y - 1.0
    return scale * math.gamma(y) ** power


def _whittaker_at_zero(omega: float) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """(x0(0), x1(0)), the t -> 0 limit of `_whittaker_pair_mp`: with
    W_{k,1/4}(z) ~ sqrt(pi) z^{1/4} / Gamma(3/4 - k) (DLMF 13.14.18),

        x0(0) = sqrt(pi) w^{1/4} (1/Gamma(3/4 - kappa), -2i sqrt(w)/Gamma(3/4 - kappa'))
        x1(0) = sqrt(pi) w^{1/4} e^{i pi/4} (1/Gamma(3/4 + kappa), 1/(2 sqrt(w) Gamma(3/4 + kappa')))

    An entry of x0(0) is exactly 0 where 3/4 - kappa or 3/4 - kappa' is a
    nonpositive integer, the Hermite cases w = 1/(2m)."""
    kap, kap_p = model_kappas(omega)
    c, sw = math.sqrt(math.pi) * omega ** 0.25, math.sqrt(omega)
    x0 = (complex(_over_gamma(c, 0.75 - kap)), complex(0.0, _over_gamma(-2.0 * sw * c, 0.75 - kap_p)))
    c1 = c * complex(math.sqrt(0.5), math.sqrt(0.5))
    x1 = (c1 * _over_gamma(1.0, 0.75 + kap), c1 * _over_gamma(0.5 / sw, 0.75 + kap_p))
    return x0, x1


def _taylor_step(omega: float, centres: np.ndarray, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Phase-free solutions at centres + s, from their values x (shape (2, n))
    at the centres: TAYLOR_TERMS terms of the series of x' = (-i sigma_x +
    w t sigma_z) x about each centre c, whose coefficients obey

        (n + 1) a_{n+1} = (-i sigma_x + w c sigma_z) a_n + w sigma_z a_{n-1}.

    Elementwise in the n columns, with no product of two general complex
    numbers, so one column rounds alike however many are evaluated."""
    wc = omega * centres
    up, down = x
    prev_up = prev_down = np.zeros_like(up)
    sum_up, sum_down = up, down
    power = np.ones_like(s)
    for n in range(1, TAYLOR_TERMS + 1):
        up, down, prev_up, prev_down = (
            (wc * up - 1j * down + omega * prev_up) * (1.0 / n),
            (-1j * up - wc * down - omega * prev_down) * (1.0 / n),
            up,
            down,
        )
        power = power * s
        sum_up, sum_down = sum_up + power * up, sum_down + power * down
    return np.array([sum_up, sum_down])


@lru_cache(maxsize=32)
def _whittaker_knots(omega: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t_k, x0(t_k), x1(t_k)) on knots from 0 to just past the horizon,
    spaced h_k = KNOT_STEP / (1 + w t_k + 2 sqrt(w)), so that w t h stays
    below KNOT_STEP and w h^2 below KNOT_STEP^2 / 4, and TAYLOR_TERMS terms
    sum each step to rounding.  One array pass gives each step's propagator
    F_k = [[a, b], [c, d]], the steps of (1, 0) and (0, 1), out to extra knots
    at w t^2 = WHITTAKER_Z_ANCHOR.  Each column is chained through them in
    Python complex arithmetic in the direction it grows: x1 forward from
    `_whittaker_at_zero`; x0, the recessive column, backward by Miller's
    method (DLMF 3.6(iii)) from its leading direction (1, -2i w t) at the last
    knot by adj(F_k) = [[d, -b], [-c, a]], which is F_k^-1 as the system is
    traceless (det F_k = 1, Liouville), then scaled to the larger entry of
    x0(0).  The extra knots are dropped."""
    at_zero, sw = _whittaker_at_zero(omega), math.sqrt(omega)
    knots = [0.0]
    while knots[-1] <= math.sqrt(WHITTAKER_Z_ANCHOR / omega):
        knots.append(knots[-1] + KNOT_STEP / (1.0 + omega * knots[-1] + 2.0 * sw))
    knots = np.array(knots)
    n = knots.size - 1
    keep = np.searchsorted(knots, math.sqrt(WHITTAKER_Z_MAX / omega), side="right") + 1
    steps = _taylor_step(omega, np.repeat(knots[:-1], 2), np.repeat(np.diff(knots), 2), np.tile(np.eye(2), n))
    propagators = steps.reshape(2, n, 2).transpose(1, 0, 2).tolist()
    x1 = [at_zero[1]]
    for (a, b), (c, d) in propagators[:keep - 1]:
        u, v = x1[-1]
        x1.append((a * u + b * v, c * u + d * v))
    x0 = [(1.0, complex(0.0, -2.0 * omega * knots[-1]))]
    for (a, b), (c, d) in reversed(propagators):
        u, v = x0[-1]
        x0.append((d * u - b * v, a * v - c * u))
    x0 = np.array(x0[::-1][:keep]).T
    i = int(abs(at_zero[0][1]) > abs(at_zero[0][0]))
    table = (knots[:keep], x0 * (at_zero[0][i] / x0[i, 0]), np.array(x1).T)
    for a in table:
        a.flags.writeable = False
    return table


def _whittaker_amplitudes(omega: float, ts: np.ndarray) -> np.ndarray:
    """Phase-free Whittaker pair, stacked like the closed form's: x1 by a
    Taylor step from the knot on the left of each time, x0 from the knot on
    its right (the amplitude at T_SMALL for t <= T_SMALL)."""
    if ts.min() < 0.0:
        raise DomainError("Whittaker basis supports t >= 0 only")
    if omega < WHITTAKER_OMEGA_MIN:
        raise OverflowRangeError(f"Whittaker basis exceeds double range for omega < {WHITTAKER_OMEGA_MIN:.4g}")
    knots, x0, x1 = _whittaker_knots(omega)
    if ts.max() > knots[-1]:
        raise OverflowRangeError(f"Whittaker basis is tabulated up to t = {knots[-1]:.6g} only")
    tc = np.maximum(ts, T_SMALL)
    k = np.clip(np.searchsorted(knots, tc, side="right") - 1, 0, knots.size - 2)
    centres = np.concatenate([knots[k + 1], knots[k]])
    starts = np.concatenate([x0[:, k + 1], x1[:, k]], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        x = _taylor_step(omega, centres, np.concatenate([tc, tc]) - centres, starts)
    x = x.reshape(2, 2, -1).swapaxes(0, 1)
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
        return math.sqrt(WHITTAKER_Z_MAX / self.params.omega)

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
        import mpmath as mp
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

