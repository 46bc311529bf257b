"""Metric operator eta(t; D0, D1), validity analysis and parameter bounds.

eta = |D0|^2 |y0><y0| + |D1|^2 |y1><y1| built on the dual basis.  Its
eigenvalues are lam_pm = l/2 +- sqrt(l^2/4 - |D0 D1|^2 Delta) with
l = |D0|^2 ||y0||^2 + |D1|^2 ||y1||^2 and the Gram quantity
Delta = ||y0||^2 ||y1||^2 - |<y0|y1>|^2.  A Hermitian dilation exists while
lam_minus >= 1; the first crossing below one is the breakdown time.

lam_minus decays like e^{-w t^2} while l grows like e^{+w t^2}, so for
w t^2 > 12 all scalar reductions run in extended precision (>= 30 digits)
before rounding back to floats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

from .errors import (
    DegenerateDenominatorError,
    DomainError,
    InvalidMetricError,
    OverflowRangeError,
    ValidationError,
)
from .model import HamiltonianParams, hamiltonian
from .solutions import SolutionBasis, solution_basis
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
_MP_Z_THRESHOLD = 12.0      # w t^2 beyond which doubles lose the small eigenvalue


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
    """Metric operator and derived scalars at a single time."""

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


def _mp_dps_for(z: float) -> int:
    return max(40, 30 + int(0.5 * z))


def _scalars_double(basis, d, t):
    y0, y1 = basis.y_pair(t)
    n0 = float(np.vdot(y0, y0).real)
    n1 = float(np.vdot(y1, y1).real)
    ip = complex(np.vdot(y0, y1))
    l = d.d0_sq * n0 + d.d1_sq * n1
    delta = n0 * n1 - abs(ip) ** 2
    prod = d.d0_sq * d.d1_sq * delta
    disc = math.sqrt(max(l * l / 4.0 - prod, 0.0))
    lam_p = l / 2.0 + disc
    lam_m = prod / lam_p if lam_p > 0.0 else 0.0
    return n0, n1, l, delta, lam_p, lam_m


def _scalars_mp(basis, d, t, z):
    with mp.workdps(_mp_dps_for(z)):
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


def _scalars(p, d, t, basis):
    if abs(t) > basis.horizon:
        raise OverflowRangeError(
            f"t = {t} beyond the numeric horizon {basis.horizon:.3f} of this basis"
        )
    z = p.omega * t * t
    if z > _MP_Z_THRESHOLD:
        return _scalars_mp(basis, d, t, z)
    return _scalars_double(basis, d, t)


def metric(
    p: HamiltonianParams,
    d: DilationParams,
    t: float,
    basis: SolutionBasis | None = None,
) -> MetricState:
    """Fully populated metric state at time t.

    eta_dot comes from the analytic derivative y' = -i H^dag y pushed
    through the outer-product sum, not from finite differences.
    """
    if basis is None:
        basis = solution_basis(p)
    y0, y1 = basis.y_pair(t)
    eta = d.d0_sq * np.outer(y0, y0.conj()) + d.d1_sq * np.outer(y1, y1.conj())
    Hd = hamiltonian(p, t).conj().T
    y0_dot = -1j * (Hd @ y0)
    y1_dot = -1j * (Hd @ y1)
    eta_dot = d.d0_sq * (np.outer(y0_dot, y0.conj()) + np.outer(y0, y0_dot.conj())) + d.d1_sq * (
        np.outer(y1_dot, y1.conj()) + np.outer(y1, y1_dot.conj())
    )
    _, _, l, delta, lam_p, lam_m = _scalars(p, d, t, basis)
    return MetricState(
        t=float(t),
        eta=eta,
        eta_dot=eta_dot,
        lambda_plus=lam_p,
        lambda_minus=lam_m,
        l=l,
        delta=delta,
        X=float(eta[1, 0].real),
        Y=float(eta[1, 0].imag),
        Z=float((eta[0, 0].real - eta[1, 1].real) / 2.0),
        W=float((eta[0, 0].real + eta[1, 1].real) / 2.0 - 1.0),
        params=p,
        dparams=d,
    )


def eigenvalues(
    p: HamiltonianParams,
    d: DilationParams,
    t: float,
    basis: SolutionBasis | None = None,
) -> tuple[float, float]:
    """(lam_plus, lam_minus) without assembling the full state."""
    if basis is None:
        basis = solution_basis(p)
    _, _, _, _, lam_p, lam_m = _scalars(p, d, t, basis)
    return lam_p, lam_m


def _lambda_minus(p, d, t, basis):
    return _scalars(p, d, t, basis)[5]


def eta_evolution_residual(
    p: HamiltonianParams,
    d: DilationParams,
    t: float,
    basis: SolutionBasis | None = None,
) -> float:
    """Max-entry magnitude of i eta_dot - (H^dag eta - eta H) with eta_dot
    recomputed by central finite differences of metric(.)."""
    if basis is None:
        basis = solution_basis(p)
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
    return ms.lambda_minus >= 1.0 - VALIDITY_TOL


# --- scan helpers ------------------------------------------------------------

def _grid(a: float, b: float, step: float = SCAN_STEP) -> np.ndarray:
    if b < a:
        raise ValidationError(f"empty interval [{a}, {b}]")
    n = max(1, int(round((b - a) / step)))
    return np.linspace(a, b, n + 1)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _refine_max(f, lo: float, hi: float, iters: int = 60) -> float:
    """Golden-section maximum refinement on [lo, hi]; returns max value."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d_ = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d_)
    for _ in range(iters):
        if b - a < 1e-10:
            break
        if fc > fd:
            b, d_, fd = d_, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + _GOLDEN * (b - a)
            fd = f(d_)
    return max(fc, fd, f((a + b) / 2.0))


def _grid_max_refined(f, lo: float, hi: float, step: float = SCAN_STEP) -> float:
    ts = _grid(lo, hi, step)
    values = [f(t) for t in ts]
    k = int(np.argmax(values))
    bracket_lo = ts[max(k - 1, 0)]
    bracket_hi = ts[min(k + 1, len(ts) - 1)]
    if bracket_hi <= bracket_lo:
        return values[k]
    return max(values[k], _refine_max(f, bracket_lo, bracket_hi))


def equal_d_bound(
    p: HamiltonianParams,
    interval: tuple[float, float],
    basis: SolutionBasis | None = None,
) -> float:
    """Smallest |D|^2 with D0 = D1 = D keeping the dilation valid on the
    interval: max of (l~ + sqrt(l~^2 - 4 Delta)) / (2 Delta)."""
    if basis is None:
        basis = solution_basis(p)
    unit = DilationParams(1.0, 1.0)

    def f(t):
        n0, n1, _, delta, _, _ = _scalars(p, unit, t, basis)
        lt = n0 + n1
        return (lt + math.sqrt(max(lt * lt - 4.0 * delta, 0.0))) / (2.0 * delta)

    lo, hi = float(interval[0]), float(interval[1])
    if hi == lo:
        return f(lo)
    return _grid_max_refined(f, lo, hi)


def approx_bounds_interval(
    p: HamiltonianParams,
    interval: tuple[float, float],
    basis: SolutionBasis | None = None,
) -> tuple[float, float]:
    """Large-time approximate bounds on an interval [0, t_b]:
    d0_min = max 2/||y0||^2 and d1_min = max ||y0||^2."""
    if basis is None:
        basis = solution_basis(p)
    unit = DilationParams(1.0, 1.0)
    lo, hi = float(interval[0]), float(interval[1])

    def n0_at(t):
        return _scalars(p, unit, t, basis)[0]

    n0_end, n1_end = _scalars(p, unit, hi, basis)[:2]
    if math.sqrt(n1_end) > 0.1 * math.sqrt(n0_end):
        warnings.warn(
            "||y1(t_b)|| is not small against ||y0(t_b)||; the approximate bounds may be loose",
            stacklevel=2,
        )
    if hi == lo:
        return 2.0 / n0_at(lo), n0_at(lo)
    d0_min = _grid_max_refined(lambda t: 2.0 / n0_at(t), lo, hi)
    d1_min = _grid_max_refined(n0_at, lo, hi)
    return d0_min, d1_min


def refined_d1_bound(
    p: HamiltonianParams,
    d0_sq: float,
    t0: float,
    basis: SolutionBasis | None = None,
) -> float:
    """Refined |D1|^2 bound (|D0|^2 ||y0||^2 - 1) / (|D0|^2 - ||y1||^2),
    maximized over a grid on [0, t0]; in practice the endpoint dominates."""
    if basis is None:
        basis = solution_basis(p)
    unit = DilationParams(1.0, 1.0)

    def norms(t):
        s = _scalars(p, unit, t, basis)
        return s[0], s[1]

    n1_end = norms(t0)[1]
    if d0_sq <= n1_end:
        raise DegenerateDenominatorError(
            f"need d0_sq > ||y1(t0)||^2 = {n1_end}, got d0_sq = {d0_sq}"
        )

    def rhs(t):
        n0, n1 = norms(t)
        den = d0_sq - n1
        if den <= 1e-12:
            return -math.inf
        return (d0_sq * n0 - 1.0) / den

    if t0 == 0.0:
        return rhs(0.0)
    return _grid_max_refined(rhs, 0.0, float(t0))


def breakdown_time(
    p: HamiltonianParams,
    d: DilationParams,
    t_max: float,
    basis: SolutionBasis | None = None,
) -> float | None:
    """First t in (0, t_max] where lam_minus crosses one, or None.

    Scans with step 1e-3 and bisects the first sign change down to 1e-9.
    """
    if basis is None:
        basis = solution_basis(p)
    if t_max > basis.horizon:
        raise OverflowRangeError(
            f"t_max = {t_max} beyond the numeric horizon {basis.horizon:.3f} of this basis"
        )

    def f(t):
        return _lambda_minus(p, d, t, basis) - 1.0

    f_prev = f(0.0)
    if f_prev < -VALIDITY_TOL:
        raise InvalidMetricError(
            f"dilation invalid already at t = 0 (lambda_minus = {1.0 + f_prev})"
        )
    ts = _grid(0.0, float(t_max))
    t_prev = ts[0]
    for t in ts[1:]:
        f_cur = f(float(t))
        if f_prev >= 0.0 > f_cur:
            lo, hi = t_prev, float(t)
            while hi - lo > BISECT_XTOL:
                mid = (lo + hi) / 2.0
                if f(mid) >= 0.0:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2.0
        t_prev, f_prev = float(t), f_cur
    return None


@lru_cache(maxsize=256)
def _breakdown_cached(
    p: HamiltonianParams, d: DilationParams, t_max: float, basis: SolutionBasis
) -> float | None:
    return breakdown_time(p, d, t_max, basis)


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
