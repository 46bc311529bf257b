"""Metric operator eta(t; D0, D1), validity analysis and parameter bounds.

eta = |D0|^2 |y0><y0| + |D1|^2 |y1><y1| built on the dual basis.  Its
eigenvalues are lam_pm = l/2 +- sqrt(l^2/4 - |D0 D1|^2 Delta) with
l = |D0|^2 ||y0||^2 + |D1|^2 ||y1||^2 and the Gram quantity
Delta = ||y0||^2 ||y1||^2 - |<y0|y1>|^2 = |det[y0, y1]|^2.  A Hermitian
dilation exists while lam_minus >= 1; the first crossing below one is the
breakdown time.

lam_minus decays like e^{-w t^2} while l grows like e^{+w t^2}.  By
Liouville's formula Delta is constant in time, `SolutionBasis.gram_det`, so
lam_plus is a sum of positive terms and lam_minus = |D0 D1|^2 Delta /
lam_plus needs no subtraction: every time point is reduced in doubles
through one formula.  `metric`, `eigenvalues` and the scans take a float or
a 1-D array of times.  `_scalars_mp` is the extended-precision reference
for that formula.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.optimize import minimize_scalar

from .errors import (
    DegenerateDenominatorError,
    DomainError,
    InvalidMetricError,
    OverflowRangeError,
    ValidationError,
)
from .model import HamiltonianParams, hamiltonian
from .solutions import SolutionBasis, _on_time_axis, solution_basis
from .specfun import ASYM_MIN_Z

__all__ = [
    "DilationParams",
    "MetricState",
    "metric",
    "eigenvalues",
    "eta_evolution_residual",
    "validity",
    "equal_d_bound",
    "approx_bounds_interval",
    "refined_d1_bound",
    "breakdown_time",
    "metric_asymptotics",
    "gauge_decompose",
]

VALIDITY_TOL = 1e-12        # lam_minus >= 1 - this counts as valid
SCAN_STEP = 1e-3            # grid step of every scan
BISECT_XTOL = 1e-9          # breakdown-time bisection width


@dataclass(frozen=True)
class DilationParams:
    """Squared moduli |D0|^2, |D1|^2; phases never enter the metric."""

    d0_sq: float
    d1_sq: float

    def __post_init__(self):
        if self.d0_sq < 0.0 or self.d1_sq < 0.0:
            raise ValidationError("dilation parameters are squared moduli and must be >= 0")


@dataclass
class MetricState:
    """Metric operator and derived scalars at a time t, or over a 1-D array
    of n times: then eta and eta_dot have shape (2, 2, n) and every scalar
    field but delta, the basis's constant Gram determinant, is an array of
    length n."""

    t: float
    eta: np.ndarray
    eta_dot: np.ndarray
    lambda_plus: float
    lambda_minus: float
    l: float
    delta: float
    X: float
    Y: float
    Z: float
    W: float
    params: HamiltonianParams
    dparams: DilationParams


def _abs2(v):
    return v.real * v.real + v.imag * v.imag


def _duals(basis, t):
    """y0 = sigma_x x1, y1 = sigma_x x0 at a 1-D t, shape (2 vectors, 2, n)."""
    return np.array(basis.x_pair(t))[::-1, ::-1]


def _scalars_double(d, y, delta):
    """Scalars from stacked dual pairs and the constant Gram determinant,
    in doubles.  An infinite l gives lam_p = inf and lam_m = 0."""
    with np.errstate(over="ignore"):   # callers decide what an infinite l means
        n0, n1 = _abs2(y).sum(axis=1)
        l = d.d0_sq * n0 + d.d1_sq * n1
    prod = d.d0_sq * d.d1_sq * delta
    # l/2 + sqrt(l^2/4 - prod) without squaring l, which overflows past 1e154
    half, root = l / 2.0, math.sqrt(prod)
    lam_p = half + np.sqrt(np.maximum(half - root, 0.0)) * np.sqrt(half + root)
    # lam_p = 0 only where l = 0, and there prod = 0 too
    lam_m = prod / (lam_p + (lam_p == 0.0))
    return n0, n1, l, lam_p, lam_m


def _scalars_mp(basis, d, t, z):
    """Scalars at one t in extended precision, with Delta from the duals;
    the reference for `_scalars_double`."""
    with mp.workdps(max(40, 30 + int(0.5 * z))):
        (y0u, y0d), (y1u, y1d) = basis.y_pair_mp(t)
        n0 = abs(y0u) ** 2 + abs(y0d) ** 2
        n1 = abs(y1u) ** 2 + abs(y1d) ** 2
        ip = mp.conj(y0u) * y1u + mp.conj(y0d) * y1d
        l = d.d0_sq * n0 + d.d1_sq * n1
        delta = n0 * n1 - abs(ip) ** 2
        prod = d.d0_sq * d.d1_sq * delta
        disc = mp.sqrt(l * l / 4 - prod)
        lam_p = l / 2 + disc
        lam_m = prod / lam_p if lam_p > 0 else mp.mpf(0)
        out = tuple(float(v) for v in (n0, n1, l, delta, lam_p, lam_m))
    if not all(math.isfinite(v) for v in out[:3]):
        raise OverflowRangeError(f"metric scalars exceed double range at t = {t}")
    return out


def _scalars(d, t, basis, y=None):
    """(n0, n1, l, lam_p, lam_m), each shaped like t; y, if given, is
    _duals(basis, t) for a 1-D t.  Raises where l leaves double range."""
    ts, shaped = _on_time_axis(t)
    if abs(ts).max() > basis.horizon:
        t_bad = ts[abs(ts) > basis.horizon][0]
        raise OverflowRangeError(f"t = {t_bad} beyond the numeric horizon {basis.horizon:.3f} of this basis")
    out = _scalars_double(d, _duals(basis, ts) if y is None else y, basis.gram_det)
    if not math.isfinite(out[2].max()):   # l >= 0, so only inf or NaN can fail
        t_bad = ts[~np.isfinite(out[2])][0]
        raise OverflowRangeError(f"metric scalars exceed double range at t = {t_bad}")
    return tuple(shaped(v) for v in out)


def metric(
    p: HamiltonianParams,
    d: DilationParams,
    t,
    basis: SolutionBasis | None = None,
) -> MetricState:
    """Fully populated metric state at t, a float or a 1-D array.

    eta_dot comes from the analytic derivative y' = -i H^dag y pushed
    through the outer-product sum, not from finite differences.
    """
    basis = basis or solution_basis(p)
    ts, shaped = _on_time_axis(t)
    y = _duals(basis, ts)
    w = np.array([d.d0_sq, d.d1_sq])[:, None, None, None]
    eta = (w * y[:, :, None] * y.conj()[:, None]).sum(axis=0)
    # eta_dot = m + m^dag, m = sum_k |D_k|^2 |y_k'><y_k| = -i H^dag eta
    a_bar = p.E - 1j * p.omega * ts   # conjugate of H_00
    m = -1j * np.array([a_bar * eta[0] + eta[1], eta[0] + a_bar.conj() * eta[1]])
    eta, eta_dot = shaped(eta), shaped(m + m.conj().swapaxes(0, 1))
    _, _, l, lam_p, lam_m = (shaped(v) for v in _scalars(d, ts, basis, y))
    return MetricState(
        t=shaped(ts),
        eta=eta,
        eta_dot=eta_dot,
        lambda_plus=lam_p,
        lambda_minus=lam_m,
        l=l,
        delta=basis.gram_det,
        X=eta[1, 0].real,
        Y=eta[1, 0].imag,
        Z=(eta[0, 0].real - eta[1, 1].real) / 2.0,
        W=(eta[0, 0].real + eta[1, 1].real) / 2.0 - 1.0,
        params=p,
        dparams=d,
    )


def eigenvalues(
    p: HamiltonianParams,
    d: DilationParams,
    t,
    basis: SolutionBasis | None = None,
) -> tuple:
    """(lam_plus, lam_minus) at t, a float or a 1-D array, without
    assembling the full state; each is shaped like t."""
    return _scalars(d, t, basis or solution_basis(p))[3:]


def eta_evolution_residual(
    p: HamiltonianParams,
    d: DilationParams,
    t: float,
    basis: SolutionBasis | None = None,
) -> float:
    """Max-entry magnitude of i eta_dot - (H^dag eta - eta H) with eta_dot
    recomputed by central finite differences of metric(.)."""
    basis = basis or solution_basis(p)
    h = 1e-6 * max(1.0, abs(t))
    eta_plus = metric(p, d, t + h, basis).eta
    eta_minus = metric(p, d, t - h, basis).eta
    eta_dot_fd = (eta_plus - eta_minus) / (2.0 * h)
    eta = metric(p, d, t, basis).eta
    H = hamiltonian(p, t)
    residual = 1j * eta_dot_fd - (H.conj().T @ eta - eta @ H)
    return float(np.abs(residual).max())


def validity(d: DilationParams, ms: MetricState) -> bool:
    """True while the smaller metric eigenvalue stays at or above one."""
    return bool(ms.lambda_minus >= 1.0 - VALIDITY_TOL)


# --- scan helpers ------------------------------------------------------------

def _grid(a: float, b: float, step: float = SCAN_STEP) -> np.ndarray:
    if b < a:
        raise ValidationError(f"empty interval [{a}, {b}]")
    n = max(1, int(round((b - a) / step)))
    return np.linspace(a, b, n + 1)


# --- parameter bounds ---------------------------------------------------------
# With a = |D0|^2, b = |D1|^2, n0 = ||y0||^2 and n1 = ||y1||^2, lam_minus >= 1
# holds exactly when det(eta - 1) = a b Delta - (a n0 + b n1) + 1 >= 0 and
# tr(eta - 1) >= 0.  Each bound is a slice of that region, maximized over t.

_UNIT = DilationParams(1.0, 1.0)


def _slice_max(basis, ts: np.ndarray, bound) -> float:
    """Max over t of bound(n0, n1, lam_p, Delta), with the unit-D scalars
    scanned on the grid ts, then refined between the best point's grid
    neighbours by scipy's bounded minimizer."""

    def f(t):
        n0, n1, _, lam_p, _ = _scalars(_UNIT, t, basis)
        return bound(n0, n1, lam_p, basis.gram_det)

    values = f(ts)
    k = int(np.argmax(values))
    lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]
    res = minimize_scalar(lambda t: -f(t), bounds=(lo, hi), method="bounded", options={"xatol": 1e-10})
    return float(max(values[k], -res.fun))


def equal_d_bound(
    p: HamiltonianParams,
    interval: tuple[float, float],
    basis: SolutionBasis | None = None,
) -> float:
    """Smallest |D|^2 with D0 = D1 = D keeping the dilation valid on the
    interval: max of lam_plus / Delta at D0 = D1 = 1, the larger root of
    det(eta - 1) = 0 on the diagonal a = b."""
    ts = _grid(float(interval[0]), float(interval[1]))
    return _slice_max(basis or solution_basis(p), ts, lambda n0, n1, lam_p, delta: lam_p / delta)


def approx_bounds_interval(
    p: HamiltonianParams,
    interval: tuple[float, float],
    basis: SolutionBasis | None = None,
) -> tuple[float, float]:
    """Large-time approximate bounds on an interval [0, t_b]:
    d0_min = max 2/||y0||^2 and d1_min = max ||y0||^2 / Delta, the
    |D0|^2 -> inf limit of `refined_d1_bound`."""
    basis = basis or solution_basis(p)
    ts = _grid(float(interval[0]), float(interval[1]))
    n0_end, n1_end = _scalars(_UNIT, ts[-1], basis)[:2]
    if math.sqrt(n1_end) > 0.1 * math.sqrt(n0_end):
        warnings.warn(
            "||y1(t_b)|| is not small against ||y0(t_b)||; the approximate bounds may be loose",
            stacklevel=2,
        )
    d0_min = _slice_max(basis, ts, lambda n0, n1, lam_p, delta: 2.0 / n0)
    d1_min = _slice_max(basis, ts, lambda n0, n1, lam_p, delta: n0 / delta)
    return d0_min, d1_min


def refined_d1_bound(
    p: HamiltonianParams,
    d0_sq: float,
    t0: float,
    basis: SolutionBasis | None = None,
) -> float:
    """Smallest |D1|^2 keeping the dilation valid on [0, t0] at the given
    |D0|^2: the max over t of (|D0|^2 ||y0||^2 - 1) / (|D0|^2 Delta -
    ||y1||^2), the b-root of det(eta - 1) = 0; in practice the endpoint
    dominates."""
    basis = basis or solution_basis(p)
    ts = _grid(0.0, float(t0))
    n1_end = _scalars(_UNIT, ts[-1], basis)[1]
    if d0_sq * basis.gram_det <= n1_end:
        raise DegenerateDenominatorError(
            f"need d0_sq * Delta > ||y1(t0)||^2 = {n1_end}, got d0_sq = {d0_sq}, Delta = {basis.gram_det}"
        )

    def bound(n0, n1, lam_p, delta):
        den = d0_sq * delta - n1
        usable = den > 1e-12
        return np.where(usable, (d0_sq * n0 - 1.0) / np.where(usable, den, 1.0), -math.inf)

    return _slice_max(basis, ts, bound)


def _breakdown_scan(d, t_lo: float, t_hi: float, basis) -> float | None:
    """First t in (t_lo, t_hi] where lam_minus crosses one, or None.  Where
    l leaves double range lam_minus reads as 0, since it is below
    2 |D0 D1|^2 Delta / l there."""
    if t_hi > basis.horizon:
        raise OverflowRangeError(
            f"t_max = {t_hi} beyond the numeric horizon {basis.horizon:.3f} of this basis"
        )

    def drop(ts):   # lam_minus - 1
        return _scalars_double(d, _duals(basis, ts), basis.gram_det)[4] - 1.0

    ts = _grid(t_lo, t_hi)
    f = drop(ts)
    if f[0] < -VALIDITY_TOL:
        raise InvalidMetricError(
            f"dilation invalid already at t = {t_lo:g} (lambda_minus = {1.0 + f[0]})"
        )
    drops = np.flatnonzero((f[:-1] >= 0.0) & (f[1:] < 0.0))   # f[k] >= 0 > f[k + 1]
    if not drops.size:
        return None
    lo, hi = float(ts[drops[0]]), float(ts[drops[0] + 1])
    while hi - lo > BISECT_XTOL:
        mid = (lo + hi) / 2.0
        if drop(np.array([mid]))[0] >= 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def breakdown_time(
    p: HamiltonianParams,
    d: DilationParams,
    t_max: float,
    basis: SolutionBasis | None = None,
) -> float | None:
    """First t in (0, t_max] where lam_minus crosses one, or None.

    Scans with step 1e-3 and bisects the first sign change down to 1e-9.
    """
    return _breakdown_scan(d, 0.0, float(t_max), basis or solution_basis(p))


@lru_cache(maxsize=256)
def _breakdown_cached(
    p: HamiltonianParams, d: DilationParams, t_start: float, t_end: float, basis: SolutionBasis
) -> float | None:
    """Breakdown time inside the span (t_start, t_end], memoized."""
    return _breakdown_scan(d, t_start, t_end, basis)


def metric_asymptotics(
    p: HamiltonianParams,
    d: DilationParams,
    t: float,
) -> tuple[float, float]:
    """Large-time eigenvalue forms for the Whittaker-normalized dual basis:

    lam_plus  ~ sqrt(w) / (w t^2)^{1/(2w)} * |D0|^2 * e^{+w t^2}
    lam_minus ~ |D1|^2 * 4 w^{3/2} * (w t^2)^{1/(2w)} * e^{-w t^2}
    """
    w = p.omega
    z = w * t * t
    if z < ASYM_MIN_Z:
        raise DomainError(f"asymptotic eigenvalues need w t^2 >= {ASYM_MIN_Z}, got {z}")
    try:
        grow = math.exp(z)
    except OverflowError as exc:
        raise OverflowRangeError(f"e^(w t^2) exceeds double range at t = {t}") from exc
    lam_p = math.sqrt(w) / z ** (1.0 / (2.0 * w)) * d.d0_sq * grow
    lam_m = d.d1_sq * 4.0 * w**1.5 * z ** (1.0 / (2.0 * w)) * math.exp(-z)
    if not math.isfinite(lam_p):
        raise OverflowRangeError(f"asymptotic lam_plus exceeds double range at t = {t}")
    return lam_p, lam_m


def gauge_decompose(
    p: HamiltonianParams,
    d: DilationParams,
    t: float,
    basis: SolutionBasis | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Split H = h_pt + gauge with gauge = -(i/2) eta^-1 eta_dot.

    h_pt is eta-pseudo-Hermitian: h_pt^dag eta = eta h_pt up to rounding.
    """
    ms = metric(p, d, t, basis)
    gauge = -0.5j * (np.linalg.inv(ms.eta) @ ms.eta_dot)
    h_pt = hamiltonian(p, t) - gauge
    return h_pt, gauge
