"""Special functions backing the analytic solution machinery.

Whittaker W on two rays of the complex plane, the prefactor-free imaginary
error function e^{x^2} F(x) through Dawson's integral F (DLMF 7.2.5) and
physicists' Hermite polynomials.

Everything here is a pure function of its arguments.  Whittaker W sums
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

import mpmath as mp
from scipy.special import dawsn

from .errors import DomainError, OverflowRangeError, ValidationError

__all__ = [
    "Ray",
    "RayArgument",
    "WhittakerIndex",
    "whittaker_w",
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


def _erfi_series_mp(x):
    """Prefactor-free erfi, integral_0^x exp(s^2) ds, at the caller's mpmath precision."""
    return mp.sqrt(mp.pi) / 2 * mp.erfi(x)


def erfi(x: float) -> float:
    """Imaginary error function without the 2/sqrt(pi) prefactor.

    erfi(x) = integral_0^x exp(s^2) ds = e^{x^2} F(x), F Dawson's integral;
    odd in x.  |x| <= 20, beyond which the value exceeds double range.
    """
    x = float(x)
    if abs(x) > ERFI_MAX_ARG:
        raise OverflowRangeError(f"erfi({x}) exceeds double range (|x| <= {ERFI_MAX_ARG})")
    if x == 0.0:
        return 0.0
    return math.exp(x * x) * float(dawsn(x))


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
