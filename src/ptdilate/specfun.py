"""Special functions backing the analytic solution machinery.

Whittaker W on two rays of the complex plane, Dawson's integral F in
doubles, the prefactor-free imaginary error function e^{x^2} F(x) (DLMF
7.2.5) and physicists' Hermite polynomials.

Everything here is a pure function of its arguments.  mpmath is imported
inside the functions that use it, so a W call loads it.  Whittaker W sums
Kummer's M with mpmath's compiled hypergeometric series kernel
(`mp.hyp1f1`), which raises its own precision until the sum is accurate
or, for a terminating series, exactly zero.  Whittaker values are computed
in mpmath working precision sized to the argument and kappa, because the
connection formula cancels like e^z |z|^{-2 kappa} on the positive ray,
then rounded to a Python complex on return; past magnitude 50 mpmath's
`whitw` takes over at the caller's precision, capped at 35 digits.  The
rotated ray (argument e^{i pi} * z) is kept symbolic through the `Ray` enum
so that fractional powers never see a floating-point branch ambiguity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, OverflowRangeError, ValidationError

__all__ = [
    "Ray",
    "RayArgument",
    "WhittakerIndex",
    "whittaker_w",
    "dawson",
    "erfi",
    "hermite_poly",
]

# Magnitude above which whittaker_w calls mpmath's `whitw`; both paths are
# accurate on either side.  From 50 to 65 either can be twice as fast,
# depending on kappa; beyond, the series' precision grows and `whitw` is
# faster, 100x at 699 (tools/whittaker_crossover.py).
ASYM_CROSSOVER = 50.0
KAPPA_FLOOR = -1.25         # below this kappa the series needs extra digits
ZERO_PREC_FACTOR = 8        # hyp1f1 sums cancelling past 8x the working bits are zero
ERFI_MAX_ARG = 20.0         # erfi exceeds double range beyond this
DAWSON_CELL = 1.0 / 32.0    # Dawson table: cells of this width centred on its multiples
DAWSON_TABLE_MAX = 8.0      # |x| past which Dawson's integral takes the asymptotic series
DAWSON_TERMS = 9            # Taylor coefficients per cell (|x - centre| <= DAWSON_CELL / 2)
DAWSON_STEP_TERMS = 10      # Taylor terms per step of DAWSON_CELL while the table is built
DAWSON_ASYM_TERMS = 18      # asymptotic terms; the last is 1e-17 of the first at |x| = 8
HERMITE_MAX_DEGREE = 50


class Ray(Enum):
    """Ray of the complex plane carrying a Whittaker argument."""

    POSITIVE = "positive"
    ROTATED = "rotated"     # e^{i pi} times the magnitude


@dataclass(frozen=True)
class RayArgument:
    """Nonnegative magnitude plus the ray it sits on."""

    magnitude: float
    ray: Ray = Ray.POSITIVE

    def __post_init__(self):
        if not self.magnitude >= 0.0:
            raise ValidationError(f"magnitude must be >= 0, got {self.magnitude}")

    @classmethod
    def positive(cls, magnitude):
        return cls(float(magnitude), Ray.POSITIVE)

    @classmethod
    def rotated(cls, magnitude):
        return cls(float(magnitude), Ray.ROTATED)


@dataclass(frozen=True)
class WhittakerIndex:
    """Index pair (kappa, mu); 2*mu must not be an integer."""

    kappa: float
    mu: float = 0.25

    def __post_init__(self):
        two_mu = 2.0 * self.mu
        if abs(two_mu - round(two_mu)) < 1e-12:
            raise ValidationError(
                f"2*mu = {two_mu} is an integer; the connection-formula path needs 2*mu non-integral"
            )


def _hyp1f1(a, b, z):
    """M(a, b, z) at the current mpmath precision.

    A terminating series can sum to exactly zero (M(-1, 1/2, 1/2), the
    Hermite cases), where the kernel would raise instead of returning.
    `zeroprec` lets it return 0 once the sum cancels by more than
    ZERO_PREC_FACTOR times the working bits; a threshold of one working
    precision zeroes values that genuinely cancel that far.
    """
    import mpmath as mp
    return mp.hyp1f1(a, b, z, zeroprec=ZERO_PREC_FACTOR * mp.mp.prec)


def _whittaker_series_mp(kappa, mu, magnitude, ray):
    """Connection-formula evaluation of W_{kappa,mu}; returns an mpc.

    W = Gamma(-2 mu)/Gamma(1/2 - mu - kappa) * M_{kappa,mu}
      + Gamma(2 mu)/Gamma(1/2 + mu - kappa) * M_{kappa,-mu},
    with M_{kappa,mu}(z) = e^{-z/2} z^{1/2+mu} M(1/2+mu-kappa, 1+2mu, z),
    valid because 2 mu is non-integral.  On the rotated ray the power
    z^{1/2+mu} carries the phase e^{i pi (1/2+mu)} and the series argument
    is -magnitude.  The working precision grows with the magnitude because
    the two branches cancel like e^z |z|^{-2 kappa} on the positive ray.
    """
    import mpmath as mp
    extra = 2.0 * max(0.0, KAPPA_FLOOR - kappa) * math.log10(max(magnitude, 1.0))
    dps = max(30, 20 + int(0.6 * magnitude + extra))
    with mp.workdps(dps):
        kap = mp.mpf(kappa)
        muu = mp.mpf(mu)
        mag = mp.mpf(magnitude)
        z = -mag if ray is Ray.ROTATED else mag
        half = mp.mpf("0.5")
        out = mp.mpc(0)
        for m_sign in (+1, -1):
            ms = m_sign * muu
            coef = mp.gamma(-2 * ms) * mp.rgamma(half - ms - kap)
            if coef == 0:
                continue
            power = mag ** (half + ms)
            if ray is Ray.ROTATED:
                power *= mp.exp(1j * mp.pi * (half + ms))
            series = _hyp1f1(half + ms - kap, 1 + 2 * ms, z)
            out += coef * mp.exp(-z / 2) * power * series
        return out


def _whittaker_asym_mp(kappa, mu, magnitude, ray):
    """W_{kappa,mu} from mpmath's `whitw`; returns an mpc.  Its U sums the
    large-argument 2F0 series, checks that it converged and otherwise falls
    back to the connection formula.  No `zeroprec`: its threshold is
    absolute and zeroes W near 1e-297 (kappa = -166.4, magnitude 700,
    rotated ray), and a branch of the formula terminates only where the
    2F0 series does, which then converges.  At most 35 digits: at the
    hundreds an extended-precision caller asks for, the series never
    converges and the fallback is up to 100x slower."""
    import mpmath as mp
    with mp.workdps(min(mp.mp.dps, 35)):
        z = mp.mpc(-magnitude, 0) if ray is Ray.ROTATED else mp.mpf(magnitude)
        return mp.whitw(kappa, mu, z)


def _as_finite_complex(value) -> complex:
    out = complex(value)
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise OverflowRangeError("Whittaker value exceeds double range")
    if value and abs(out) < sys.float_info.min:
        raise OverflowRangeError("Whittaker value is below double range")
    return out


def _whittaker_mp(kappa, mu, magnitude, ray):
    """W_{kappa,mu} as an mpc: connection formula up to ASYM_CROSSOVER,
    mpmath's `whitw` beyond."""
    if magnitude > ASYM_CROSSOVER:
        return _whittaker_asym_mp(kappa, mu, magnitude, ray)
    return _whittaker_series_mp(kappa, mu, magnitude, ray)


def whittaker_w(idx: WhittakerIndex, z: RayArgument) -> complex:
    """Whittaker W_{kappa,mu} at magnitude * e^{0 or i pi}.

    Uses the M-series connection formula up to magnitude ASYM_CROSSOVER = 50
    and mpmath's `whitw` beyond.  magnitude = 0 is rejected; callers handle
    the small-argument limit themselves.
    """
    if z.magnitude <= 0.0:
        raise DomainError("whittaker_w needs magnitude > 0 (use the small-t limit path)")
    return _as_finite_complex(_whittaker_mp(idx.kappa, idx.mu, z.magnitude, z.ray))


def _dawson_table() -> np.ndarray:
    """Taylor coefficients a_0 .. of F about every multiple c of DAWSON_CELL
    up to DAWSON_TABLE_MAX, shape (DAWSON_TERMS, cells).  F' = 1 - 2 x F
    gives a_1 = 1 - 2 c a_0 and (n + 1) a_{n+1} = -2 c a_n - 2 a_{n-1}.
    Each centre value a_0 is the previous centre's series, DAWSON_STEP_TERMS
    long, summed one cell on, from F(0) = 0: stable forward, as the
    homogeneous solution e^{-x^2} decays."""
    rows, f = [], 0.0
    for j in range(round(DAWSON_TABLE_MAX / DAWSON_CELL) + 1):
        c = j * DAWSON_CELL
        a = [f, 1.0 - 2.0 * c * f]
        for n in range(1, DAWSON_STEP_TERMS - 1):
            a.append((-2.0 * c * a[n] - 2.0 * a[n - 1]) / (n + 1))
        rows.append(a[:DAWSON_TERMS])
        f = 0.0
        for coef in reversed(a):
            f = f * DAWSON_CELL + coef
    table = np.array(rows).T.copy()
    table.flags.writeable = False
    return table


_DAWSON_TABLE = _dawson_table()
# (2n - 1)!!, the asymptotic series' coefficients in powers of 1 / (2 x^2)
_DAWSON_ASYM = np.cumprod([1.0] + [2.0 * n - 1.0 for n in range(1, DAWSON_ASYM_TERMS)])


def dawson(x):
    """Dawson's integral F(x) = e^{-x^2} integral_0^x e^{s^2} ds (DLMF 7.2.5)
    of a float or an array of floats, shaped like x; odd, F(0) = 0.

    |x| <= DAWSON_TABLE_MAX: the Taylor polynomial about the nearest
    multiple of DAWSON_CELL.  Beyond: the asymptotic series
    F ~ sum_n (2n - 1)!! / (2^{n+1} x^{2n+1}).  Within 4e-16 relative of
    30-digit values; a scalar runs as a one-point array, so it rounds alike.
    """
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    ax = np.abs(flat)
    near = np.fmin(ax, DAWSON_TABLE_MAX)   # NaN and |x| past the table: the last cell, replaced below
    k = np.rint(near * (1.0 / DAWSON_CELL)).astype(np.intp)
    h = near - k * DAWSON_CELL
    coefs = np.take(_DAWSON_TABLE, k, axis=1)   # one contiguous row per coefficient
    f = coefs[-1]
    for row in coefs[-2::-1]:
        f *= h
        f += row
    far = ~(ax <= DAWSON_TABLE_MAX)
    if far.any():
        a = ax[far]
        u = 0.5 / (a * a)
        s = _DAWSON_ASYM[-1]
        for coef in _DAWSON_ASYM[-2::-1]:
            s = s * u + coef
        f[far] = s / (2.0 * a)
    out = np.copysign(f, flat).reshape(xs.shape)
    return float(out) if out.ndim == 0 else out


def _erfi_series_mp(x):
    """Prefactor-free erfi, integral_0^x exp(s^2) ds, at the caller's mpmath precision."""
    import mpmath as mp
    return mp.sqrt(mp.pi) / 2 * mp.erfi(x)


def erfi(x: float) -> float:
    """Imaginary error function without the 2/sqrt(pi) prefactor.

    erfi(x) = integral_0^x exp(s^2) ds = e^{x^2} F(x), F Dawson's integral;
    odd in x.  |x| <= 20, beyond which the value exceeds double range.
    """
    x = float(x)
    if abs(x) > ERFI_MAX_ARG:
        raise OverflowRangeError(f"erfi({x}) exceeds double range (|x| <= {ERFI_MAX_ARG})")
    return math.exp(x * x) * dawson(x)


def hermite_poly(n: int, x: float) -> float:
    """Physicists' Hermite polynomial H_n(x) by the three-term recurrence."""
    if n < 0 or n != int(n):
        raise DomainError(f"degree must be a nonnegative integer, got {n}")
    if n > HERMITE_MAX_DEGREE:
        raise DomainError(f"degree {n} above supported maximum {HERMITE_MAX_DEGREE}")
    h_prev = 1.0
    if n == 0:
        return h_prev
    h_cur = 2.0 * x
    for k in range(1, n):
        h_prev, h_cur = h_cur, 2.0 * x * h_cur - 2.0 * k * h_prev
    return h_cur
