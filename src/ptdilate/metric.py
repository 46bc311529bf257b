"""Metric operator eta(t; D0, D1), validity analysis and parameter bounds.

eta = |D0|^2 |y0><y0| + |D1|^2 |y1><y1| built on the dual basis's phase-free
amplitudes, the energy offset's phase cancelling in each outer product.  Its
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
for that formula.  `_valid` is the package's one validity test.  A `Region`
holds ||y0||^2 and ||y1||^2 on a time grid from one basis pass; lam_pm for
any D, the breakdown step and the parameter bounds are read from it, and
only the narrowing and refinement passes evaluate the basis again.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    DomainError,
    InvalidMetricError,
    OverflowRangeError,
    ValidationError,
)
from .model import HamiltonianParams, hamiltonian
from .solutions import SolutionBasis, _basis_for, _on_time_axis

__all__ = [
    "DilationParams",
    "MetricState",
    "Region",
    "metric",
    "eigenvalues",
    "eta_evolution_residual",
    "validity",
    "equal_d_bound",
    "approx_bounds_interval",
    "refined_d1_bound",
    "breakdown_time",
    "metric_asymptotics",
]

VALIDITY_TOL = 1e-12        # lam_minus >= 1 - this counts as valid
SCAN_STEP = 1e-3            # grid step of every scan
SCAN_CHUNK = 1000           # breakdown-scan points evaluated per pass
# 2^5 + 1 points, so a pass visits the dyadic points of five bisection steps
REFINE_POINTS = 33          # points per refinement pass
REFINE_TOL = 1e-10          # width at which a bound's maximum is refined
BREAKDOWN_XTOL = 1e-9       # width at which the breakdown bracket is refined
ASYM_MIN_Z = 10.0           # w t^2 floor of the large-time eigenvalue forms


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
    params: HamiltonianParams
    dparams: DilationParams


def _abs2(v):
    return v.real * v.real + v.imag * v.imag


def _scalars_double(d, n0, n1, delta):
    """(l, lam_p, lam_m) from n0 = ||y0||^2, n1 = ||y1||^2 and the constant
    Gram determinant, in doubles.  An infinite l gives lam_p = inf and lam_m = 0."""
    with np.errstate(over="ignore"):   # callers decide what an infinite l means
        l = d.d0_sq * n0 + d.d1_sq * n1
    prod = d.d0_sq * d.d1_sq * delta
    # l/2 + sqrt(l^2/4 - prod) without squaring l, which overflows past 1e154
    half, root = l / 2.0, math.sqrt(prod)
    lam_p = half + np.sqrt(np.maximum(half - root, 0.0)) * np.sqrt(half + root)
    # lam_p = 0 only where l = 0, and there prod = 0 too
    lam_m = prod / (lam_p + (lam_p == 0.0))
    return l, lam_p, lam_m


def _scalars_mp(basis, d, t, z):
    """Scalars at one t in extended precision, with Delta from the duals;
    the reference for `_scalars_double`."""
    import mpmath as mp
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
    basis.dual_amplitudes(t) for a 1-D t.  Raises where l leaves double range."""
    ts, shaped = _on_time_axis(t)
    region = Region(basis, ts, y)
    return tuple(shaped(v) for v in (region.n0, region.n1, *region.eigenvalues(d)))


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
    basis = _basis_for(p, basis)
    ts, shaped = _on_time_axis(t)
    y = basis.dual_amplitudes(ts)
    w = np.array([d.d0_sq, d.d1_sq])[:, None, None, None]
    eta = (w * y[:, :, None] * y.conj()[:, None]).sum(axis=0)
    # eta_dot = m + m^dag, m = sum_k |D_k|^2 |y_k'><y_k| = -i K^dag eta, where
    # K = H - tr(H)/2, traceless, moves the phase-free duals
    a_bar = -1j * p.omega * ts   # conjugate of K_00
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
    return _scalars(d, t, _basis_for(p, basis))[3:]


def eta_evolution_residual(
    p: HamiltonianParams,
    d: DilationParams,
    t: float,
    basis: SolutionBasis | None = None,
) -> float:
    """Max-entry magnitude of i eta_dot - (H^dag eta - eta H) with eta_dot
    recomputed by central finite differences of metric(.)."""
    basis = _basis_for(p, basis)
    h = 1e-6 * max(1.0, abs(t))
    eta_plus = metric(p, d, t + h, basis).eta
    eta_minus = metric(p, d, t - h, basis).eta
    eta_dot_fd = (eta_plus - eta_minus) / (2.0 * h)
    eta = metric(p, d, t, basis).eta
    H = hamiltonian(p, t)
    residual = 1j * eta_dot_fd - (H.conj().T @ eta - eta @ H)
    return float(np.abs(residual).max())


def _valid(lam_m):
    """lam_minus >= 1 up to VALIDITY_TOL, elementwise, as numpy booleans."""
    return np.greater_equal(lam_m, 1.0 - VALIDITY_TOL)


def validity(ms: MetricState) -> bool:
    """True while the smaller metric eigenvalue stays at or above one."""
    return bool(_valid(ms.lambda_minus))


# --- validity regions ---------------------------------------------------------

def _grid(a: float, b: float, step: float = SCAN_STEP) -> np.ndarray:
    if b < a:
        raise ValidationError(f"empty interval [{a}, {b}]")
    n = max(1, int(round((b - a) / step)))
    return np.linspace(a, b, n + 1)


# With a = |D0|^2, b = |D1|^2, n0 = ||y0||^2 and n1 = ||y1||^2, lam_minus >= 1
# holds exactly when det(eta - 1) = a b Delta - (a n0 + b n1) + 1 >= 0 and
# tr(eta - 1) >= 0.  Each bound is a slice of that region, maximized over t.

_UNIT = DilationParams(1.0, 1.0)


class Region:
    """The unit scalars n0 = ||y0||^2 and n1 = ||y1||^2 of a basis on a time
    grid ts, from one `dual_amplitudes` pass or from the caller's
    y = basis.dual_amplitudes(ts).  lam_pm for any D, the first invalid grid
    step and a bound's grid maximum are read from these arrays; only the
    narrowing of that step and the refinement of that maximum evaluate the
    basis again, in passes of REFINE_POINTS times."""

    def __init__(self, basis: SolutionBasis, ts: np.ndarray, y: np.ndarray | None = None):
        if abs(ts).max() > basis.horizon:
            t_bad = ts[abs(ts) > basis.horizon][0]
            raise OverflowRangeError(f"t = {t_bad} beyond the numeric horizon {basis.horizon:.3f} of this basis")
        self.basis, self.ts = basis, ts
        with np.errstate(over="ignore"):
            self.n0, self.n1 = _abs2(basis.dual_amplitudes(ts) if y is None else y).sum(axis=1)

    def prefix(self, ts: np.ndarray) -> "Region | None":
        """This region on its leading points if they are ts, else None."""
        n = ts.size
        if n > self.ts.size or not np.array_equal(self.ts[:n], ts):
            return None
        sub = copy.copy(self)
        sub.ts, sub.n0, sub.n1 = ts, self.n0[:n], self.n1[:n]
        return sub

    def scalars(self, d: DilationParams) -> tuple:
        """(l, lam_p, lam_m) for D on the grid; lam_m reads 0 where l is infinite."""
        return _scalars_double(d, self.n0, self.n1, self.basis.gram_det)

    def eigenvalues(self, d: DilationParams) -> tuple:
        """`scalars(d)`, raising where l leaves double range."""
        out = self.scalars(d)
        if not math.isfinite(out[0].max()):   # l >= 0, so only inf or NaN can fail
            t_bad = self.ts[~np.isfinite(out[0])][0]
            raise OverflowRangeError(f"metric scalars exceed double range at t = {t_bad}")
        return out

    def slice_max(self, bound) -> float:
        """Max over t of bound(n0, n1, lam_p, Delta), lam_p at D0 = D1 = 1,
        on the grid and then below its step by `_refine_max`."""
        values = bound(self.n0, self.n1, self.eigenvalues(_UNIT)[1], self.basis.gram_det)
        return _refine_max(self.basis, bound, self.ts, values)


def _refine_max(basis, bound, ts: np.ndarray, values: np.ndarray) -> float:
    """The larger of the best of values, the bound on ts, and the bound's
    maximum between that point's neighbours: a region of REFINE_POINTS
    times there, refined in turn until the neighbours are REFINE_TOL apart."""
    k = int(np.argmax(values))
    lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]
    if hi - lo <= REFINE_TOL:
        return float(values[k])
    return max(float(values[k]), Region(basis, np.linspace(lo, hi, REFINE_POINTS)).slice_max(bound))


def _scan_region(p, interval, basis, region) -> Region:
    """`region` on the interval's scan grid if that is a prefix of it, else a new region."""
    ts = _grid(float(interval[0]), float(interval[1]))
    basis = _basis_for(p, basis if region is None else region.basis)
    return (region and region.prefix(ts)) or Region(basis, ts)


# --- parameter bounds ---------------------------------------------------------

def equal_d_bound(
    p: HamiltonianParams,
    interval: tuple[float, float],
    basis: SolutionBasis | None = None,
    *,
    region: Region | None = None,
) -> float:
    """Smallest |D|^2 with D0 = D1 = D keeping the dilation valid on the
    interval: max of lam_plus / Delta at D0 = D1 = 1, the larger root of
    det(eta - 1) = 0 on the diagonal a = b."""
    return _scan_region(p, interval, basis, region).slice_max(lambda n0, n1, lam_p, delta: lam_p / delta)


def _approx_d1_min(region: Region) -> float:
    """max ||y0||^2 / Delta on the region, the d1_min of `approx_bounds_interval`."""
    n0_end, n1_end = region.n0[-1], region.n1[-1]
    if math.sqrt(n1_end) > 0.1 * math.sqrt(n0_end):
        warnings.warn("||y1(t_b)|| is not small against ||y0(t_b)||; the approximate bounds may be loose", stacklevel=3)
    return region.slice_max(lambda n0, n1, lam_p, delta: n0 / delta)


def approx_bounds_interval(
    p: HamiltonianParams,
    interval: tuple[float, float],
    basis: SolutionBasis | None = None,
    *,
    region: Region | None = None,
) -> tuple[float, float]:
    """Large-time approximate bounds on the interval [t_a, t_b]:
    d0_min = max 2/||y0||^2 and d1_min = max ||y0||^2 / Delta, the
    |D0|^2 -> inf limit of `refined_d1_bound`."""
    region = _scan_region(p, interval, basis, region)
    d1_min = _approx_d1_min(region)
    return region.slice_max(lambda n0, n1, lam_p, delta: 2.0 / n0), d1_min


def refined_d1_bound(
    p: HamiltonianParams,
    d0_sq: float,
    interval: tuple[float, float],
    basis: SolutionBasis | None = None,
    *,
    region: Region | None = None,
) -> float:
    """Smallest |D1|^2 keeping the dilation valid on the interval at the
    given |D0|^2: the max over t of (|D0|^2 ||y0||^2 - 1) / (|D0|^2 Delta -
    ||y1||^2), the b-root of det(eta - 1) = 0; in practice the endpoint
    dominates."""
    region = _scan_region(p, interval, basis, region)
    # the b-root exists only where |D0|^2 Delta > ||y1||^2: demand it at every t
    n1_max, ts = region.n1.max(), region.ts
    if d0_sq * region.basis.gram_det <= n1_max:
        raise DegenerateDenominatorError(
            f"need d0_sq * Delta > max ||y1||^2 on [{ts[0]:g}, {ts[-1]:g}] = {n1_max}, "
            f"got d0_sq = {d0_sq}, Delta = {region.basis.gram_det}"
        )

    def bound(n0, n1, lam_p, delta):
        den = d0_sq * delta - n1
        usable = den > 1e-12
        return np.where(usable, (d0_sq * n0 - 1.0) / np.where(usable, den, 1.0), -math.inf)

    return region.slice_max(bound)


def _breakdown_scan(d, t_lo: float, t_hi: float, basis, region: Region | None = None) -> float | None:
    """First t in (t_lo, t_hi] where the dilation turns invalid, or None.
    Where l leaves double range lam_minus reads as 0, since it is below
    2 |D0 D1|^2 Delta / l there; only at t_lo is that an overflow error.
    The grid is read in one pass from `region` where it is the region's
    leading points, else evaluated in equal passes of at most SCAN_CHUNK
    points, up to the first pass that holds an invalid point.  The step
    into it is then narrowed in passes over the REFINE_POINTS - 2 interior
    points of the bracket, each keeping the first valid-to-invalid step,
    until it is BREAKDOWN_XTOL wide."""
    if t_hi > basis.horizon:
        raise OverflowRangeError(
            f"t_max = {t_hi} beyond the numeric horizon {basis.horizon:.3f} of this basis"
        )
    ts = _grid(t_lo, t_hi)
    whole = region and region.prefix(ts)
    passes = [whole] if whole else (Region(basis, part) for part in np.array_split(ts, -(-ts.size // SCAN_CHUNK)))
    k = 0   # ts[k] is the first point of the pass
    for part in passes:
        l, _, lam_m = part.scalars(d)
        if k == 0 and not _valid(lam_m[0]):
            if not math.isfinite(l[0]):
                raise OverflowRangeError(f"metric scalars exceed double range at t = {t_lo}")
            raise InvalidMetricError(f"dilation invalid already at t = {t_lo:g} (lambda_minus = {lam_m[0]})")
        valid = _valid(lam_m)
        if not valid.all():
            break
        k += part.ts.size
    else:
        return None
    k += int(np.argmin(valid))   # ts[k - 1] is valid, ts[k] is not
    lo, hi = float(ts[k - 1]), float(ts[k])
    while hi - lo > BREAKDOWN_XTOL:
        pts = np.linspace(lo, hi, REFINE_POINTS)
        i = int(np.argmin(np.append(_valid(Region(basis, pts[1:-1]).scalars(d)[2]), False)))   # pts[i + 1] is invalid
        lo, hi = float(pts[i]), float(pts[i + 1])
    return (lo + hi) / 2.0


def breakdown_time(
    p: HamiltonianParams,
    d: DilationParams,
    t_max: float,
    basis: SolutionBasis | None = None,
    *,
    region: Region | None = None,
) -> float | None:
    """First t in (0, t_max] where lam_minus crosses one, or None.

    Scans with step 1e-3, read from `region` where its leading points are
    that grid, and narrows the first invalid step to 1e-9 in passes of 33 points.
    """
    basis = _basis_for(p, basis if region is None else region.basis)
    return _breakdown_scan(d, 0.0, float(t_max), basis, region)


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

