"""Special-function checks against independent oracles and identities."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_hermite

from ptdilate.errors import (
    DomainError,
    OverflowRangeError,
    ValidationError,
)
from ptdilate.specfun import (
    ASYM_CROSSOVER,
    DAWSON_CELL,
    DAWSON_TABLE_MAX,
    Ray,
    RayArgument,
    WhittakerIndex,
    _erfi_series_mp,
    _hyp1f1,
    _whittaker_asym_mp,
    _whittaker_series_mp,
    dawson,
    erfi,
    hermite_poly,
    whittaker_w,
)

# frozen oracle: 200-term direct series of M(1/2, 3/2, -1) in 50-digit arithmetic
KUMMER_HALF_ORACLE = 0.7468241328124270254

# frozen oracle: adaptive quadrature of integral_0^1 exp(s^2) ds
ERFI_ONE_ORACLE = 1.4626517459071816088


def kummer_m(a, b, z):
    """Kummer's M through the kernel Whittaker W sums it with, at 25 digits."""
    with mp.workdps(25):
        return complex(_hyp1f1(mp.mpf(a), mp.mpf(b), mp.mpf(z)))


class TestKummerM:
    def test_z_zero_gives_one(self):
        assert kummer_m(0.3, 1.7, 0.0) == pytest.approx(1.0, abs=0)

    def test_exponential_reduction(self):
        # M(a, a, z) = e^z
        assert kummer_m(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-14)
        assert kummer_m(2.5, 2.5, 0.7) == pytest.approx(math.exp(0.7), rel=1e-14)

    def test_frozen_series_oracle(self):
        assert kummer_m(0.5, 1.5, -1.0) == pytest.approx(KUMMER_HALF_ORACLE, rel=1e-13)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_erf_reduction(self, x):
        # M(1/2, 3/2, -x^2) = sqrt(pi) erf(x) / (2 x)
        expected = math.sqrt(math.pi) * math.erf(x) / (2.0 * x)
        assert kummer_m(0.5, 1.5, -x * x) == pytest.approx(expected, rel=1e-13)

    def test_terminating_series_exact_zero(self):
        # M(-1, 1/2, z) = 1 - 2z; a zero must come back as 0, not as an error
        assert kummer_m(-1.0, 0.5, 0.5) == 0.0


def _whitw_oracle(kappa, mag, ray):
    """W_{kappa,1/4} at mag * e^{0 or i pi} in 50-digit mpmath.

    mpmath's whitw first tries its large-argument 2F0 series, which raises
    ValueError (not NoConvergence, so there is no fallback) at magnitude 1/2
    for |kappa| = 5/4, where one connection-formula branch is a terminating
    series summing to zero.  There the oracle is DLMF 13.14.33 over whitm.
    """
    with mp.workdps(50):
        k, m = mp.mpf(kappa), mp.mpf(0.25)
        z = mp.mpc(-mag, 0) if ray is Ray.ROTATED else mp.mpf(mag)
        try:
            return complex(mp.whitw(k, m, z))
        except ValueError:
            return complex(
                mp.gamma(-2 * m) * mp.rgamma(0.5 - m - k) * mp.whitm(k, m, z, zeroprec=1000)
                + mp.gamma(2 * m) * mp.rgamma(0.5 + m - k) * mp.whitm(k, -m, z, zeroprec=1000)
            )


class TestWhittakerW:
    def test_hermite_n0_n1_at_one(self):
        ref = math.exp(-0.5)
        assert whittaker_w(WhittakerIndex(0.25), RayArgument.positive(1.0)) == pytest.approx(ref, rel=1e-12)
        assert whittaker_w(WhittakerIndex(0.75), RayArgument.positive(1.0)) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 5.0])
    def test_hermite_truncation(self, n, z):
        value = whittaker_w(WhittakerIndex(0.25 + n / 2.0), RayArgument.positive(z))
        ref = math.exp(-z / 2.0) * z**0.25 * hermite_poly(n, math.sqrt(z)) / 2.0**n
        assert abs(value - ref) <= max(1e-10 * abs(ref), 1e-12)

    def test_large_argument_leading_order(self):
        value = whittaker_w(WhittakerIndex(0.25), RayArgument.positive(40.0))
        ref = math.exp(-20.0) * 40.0**0.25
        assert abs(value / ref - 1.0) < 0.03

    @pytest.mark.parametrize(
        "kappa, mag, ray",
        [
            (0.0, 0.7, Ray.POSITIVE),
            (0.3, 2.0, Ray.POSITIVE),
            (-0.6, 5.0, Ray.ROTATED),
            (1.1, 9.0, Ray.POSITIVE),
            (0.75, 1.3, Ray.ROTATED),
            (-1.25, 4.2, Ray.ROTATED),
            (0.5, 11.0, Ray.POSITIVE),
            (-0.25, 0.2, Ray.ROTATED),
            (0.9, 24.0, Ray.POSITIVE),
            (0.1, 16.0, Ray.ROTATED),
        ],
    )
    def test_mu_sign_symmetry(self, kappa, mag, ray):
        plus = whittaker_w(WhittakerIndex(kappa, 0.25), RayArgument(mag, ray))
        minus = whittaker_w(WhittakerIndex(kappa, -0.25), RayArgument(mag, ray))
        assert abs(plus - minus) <= 1e-10 * abs(plus)

    def test_rejects_zero_magnitude(self):
        with pytest.raises(DomainError):
            whittaker_w(WhittakerIndex(0.25), RayArgument.positive(0.0))

    @pytest.mark.parametrize("kappa", [0.0, 0.25, 0.75, -0.5, 1.25])
    @pytest.mark.parametrize("mag", [0.7, 2.0, 9.0])
    def test_wronskian_branch_constant(self, kappa, mag):
        # DLMF pair identity: W{W_k(z), W_-k(e^{i pi} z)} = e^{-i pi k};
        # pins the rotated-ray branch to an analytic constant
        h = 1e-6
        f = lambda m: whittaker_w(WhittakerIndex(kappa), RayArgument.positive(m))
        g = lambda m: whittaker_w(WhittakerIndex(-kappa), RayArgument.rotated(m))
        wr = f(mag) * (g(mag + h) - g(mag - h)) / (2 * h) - (f(mag + h) - f(mag - h)) / (2 * h) * g(mag)
        assert wr == pytest.approx(cmath.exp(-1j * math.pi * kappa), abs=5e-9)

    @pytest.mark.parametrize("omega", [0.25, 0.5, 1.0])
    def test_series_asymptotic_handoff(self, omega):
        kap = -0.25 + 1.0 / (4.0 * omega)
        kap_p = 0.25 + 1.0 / (4.0 * omega)
        cases = [
            (kap, Ray.POSITIVE),
            (kap_p, Ray.POSITIVE),
            (-kap, Ray.ROTATED),
            (-kap_p, Ray.ROTATED),
        ]
        for kappa, ray in cases:
            series = complex(_whittaker_series_mp(kappa, 0.25, 30.0, ray))
            asym = complex(_whittaker_asym_mp(kappa, 0.25, 30.0, ray))
            assert abs(series - asym) <= 1e-6 * abs(asym)

    @pytest.mark.parametrize("omega", [0.05, 0.1, 0.25, 0.37, 1.0, 1.3])
    @pytest.mark.parametrize("which", ["kappa", "kappa_prime"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("ray", [Ray.POSITIVE, Ray.ROTATED])
    def test_against_mpmath_whitw(self, omega, which, sign, ray):
        # magnitudes straddle 30 and the crossover at 50, then reach the
        # Whittaker horizon, w t^2 = 700; an exact zero must stay exact
        kappa = sign * (1.0 / (4.0 * omega) + (-0.25 if which == "kappa" else 0.25))
        for mag in (0.5, 5.0, 12.0, 29.9, 30.01, 30.5, 33.0, 37.0, 45.0, 49.9, 50.01, 55.0, 80.0, 200.0, 699.0):
            value = whittaker_w(WhittakerIndex(kappa), RayArgument(mag, ray))
            ref = _whitw_oracle(kappa, mag, ray)
            assert abs(value - ref) <= 1e-13 * abs(ref), (mag, value, ref)

    @pytest.mark.parametrize("omega", [0.03, 0.05, 0.1, 0.15])
    @pytest.mark.parametrize("ray", [Ray.POSITIVE, Ray.ROTATED])
    def test_crossover_follows_kappa(self, omega, ray):
        # either side of the crossover, which is one magnitude for every
        # kappa, also for the strongly negative indices of small omega
        for kappa in (0.25 - 1.0 / (4.0 * omega), -0.25 - 1.0 / (4.0 * omega)):
            for mag in (ASYM_CROSSOVER - 0.01, ASYM_CROSSOVER + 0.01):
                value = whittaker_w(WhittakerIndex(kappa), RayArgument(mag, ray))
                ref = _whitw_oracle(kappa, mag, ray)
                assert abs(value - ref) <= 1e-13 * abs(ref), (kappa, mag, value, ref)

    @pytest.mark.parametrize(
        "omega, mag",
        [(0.0015, 60.0), (0.0015, 200.0), (0.0015, 700.0), (0.002, 700.0), (0.003, 700.0), (0.01, 700.0)],
    )
    @pytest.mark.parametrize("which", ["kappa", "kappa_prime"])
    def test_rotated_ray_near_the_omega_floor(self, omega, mag, which):
        # x1's W_{-kappa} of slow sweeps, down to 1e-298: an absolute zero
        # threshold once turned the values at 700 for omega <= 0.002 into 0j
        kappa = -(1.0 / (4.0 * omega) + (-0.25 if which == "kappa" else 0.25))
        value = whittaker_w(WhittakerIndex(kappa), RayArgument.rotated(mag))
        with mp.workdps(60):
            ref = complex(mp.whitw(kappa, 0.25, mp.mpc(-mag, 0)))
        assert abs(value - ref) <= 1e-12 * abs(ref), (value, ref)

    def test_below_double_range_raises(self):
        # |W_{-200,1/4}(700 e^{i pi})| is about 7e-374, which a double rounds to 0
        with pytest.raises(OverflowRangeError, match="below double range"):
            whittaker_w(WhittakerIndex(-200.0), RayArgument.rotated(700.0))

    def test_hermite_exact_zero(self):
        # W_{5/4,1/4}(1/2) is e^{-z/2} z^{1/4} H_2(sqrt z) / 4 with H_2(sqrt(1/2)) = 0
        value = whittaker_w(WhittakerIndex(1.25), RayArgument.positive(0.5))
        assert cmath.isfinite(value)
        assert abs(value) <= 1e-15


class TestErfi:
    def test_zero(self):
        assert erfi(0.0) == 0.0

    def test_frozen_quadrature_oracle(self):
        assert erfi(1.0) == pytest.approx(ERFI_ONE_ORACLE, rel=1e-12)

    @pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 6.0])
    def test_against_quadrature(self, x):
        ref, err = quad(lambda s: math.exp(s * s), 0.0, x)
        assert erfi(x) == pytest.approx(ref, rel=max(1e-12, 2.0 * err / ref))

    @pytest.mark.parametrize("x", [0.25, 1.0, 3.7, 19.0])
    def test_odd(self, x):
        assert erfi(-x) == -erfi(x)

    def test_overflow_guard(self):
        with pytest.raises(OverflowRangeError):
            erfi(20.5)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_range_ends_at_twenty(self, sign):
        assert math.isfinite(erfi(sign * 20.0))
        with pytest.raises(OverflowRangeError):
            erfi(sign * np.nextafter(20.0, 21.0))

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_derivative_is_gaussian(self, x):
        h = 1e-6
        deriv = (erfi(x + h) - erfi(x - h)) / (2.0 * h)
        assert deriv == pytest.approx(math.exp(x * x), rel=1e-6)


def _dawson_oracle(x: float) -> float:
    """F(x) = e^{-x^2} integral_0^x e^{s^2} ds at 30 digits, rounded once."""
    with mp.workdps(30):
        xm = mp.mpf(x)
        return float(mp.sqrt(mp.pi) / 2 * mp.exp(-xm * xm) * mp.erfi(xm))


class TestDawson:
    # a uniform grid, the table's cell centres and cell edges, both sides
    # of the switch to the asymptotic series, and random points
    POINTS = np.concatenate([
        np.linspace(-20.0, 20.0, 801),
        np.arange(0.0, DAWSON_TABLE_MAX + 0.5, DAWSON_CELL),
        np.arange(DAWSON_CELL / 2.0, DAWSON_TABLE_MAX + 0.5, DAWSON_CELL),
        [1e-300, 1e-8, np.nextafter(DAWSON_TABLE_MAX, 0.0), np.nextafter(DAWSON_TABLE_MAX, 9.0)],
        np.random.default_rng(7).uniform(-20.0, 20.0, 500),
    ])

    def test_against_mpmath(self):
        ref = np.array([_dawson_oracle(x) for x in self.POINTS])
        value = dawson(self.POINTS)
        nonzero = ref != 0.0
        assert np.all(value[~nonzero] == 0.0)
        assert (np.abs(value[nonzero] - ref[nonzero]) / np.abs(ref[nonzero])).max() <= 2e-15

    def test_zero_is_exact(self):
        assert dawson(0.0) == 0.0
        assert dawson(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_odd(self):
        assert np.array_equal(dawson(-self.POINTS), -dawson(self.POINTS))

    def test_scalar_matches_one_point_array(self):
        for x in self.POINTS[::7]:
            value = dawson(float(x))
            assert isinstance(value, float)
            assert value == dawson(np.array([x]))[0]

    def test_shape_follows_the_input(self):
        x = np.linspace(-3.0, 9.0, 12).reshape(3, 4)
        assert dawson(x).shape == (3, 4)
        assert np.array_equal(dawson(x).ravel(), dawson(x.ravel()))
        assert dawson(np.array([])).shape == (0,)

    def test_nan_propagates(self):
        assert math.isnan(dawson(math.nan))


class TestErfiSeriesMp:
    @pytest.mark.parametrize("x", ["-4.5", "-0.3", "0.3", "2.0", "6.5"])
    def test_against_quadrature(self, x):
        # integral_0^x exp(s^2) ds at 40 digits; odd, so negative x included
        with mp.workdps(40):
            xm = mp.mpf(x)
            ref = mp.quad(lambda s: mp.exp(s * s), [0, xm])
            assert abs(_erfi_series_mp(xm) - ref) <= mp.mpf("1e-35") * abs(ref)


class TestHermite:
    def test_reference_points(self):
        assert hermite_poly(0, 3.7) == 1.0
        assert hermite_poly(1, 2.0) == 4.0
        assert hermite_poly(2, 1.0) == 2.0

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    @pytest.mark.parametrize("x", [-1.3, 0.4, 2.2])
    def test_against_scipy(self, n, x):
        assert hermite_poly(n, x) == pytest.approx(float(eval_hermite(n, x)), rel=1e-12)

    def test_degree_guard(self):
        with pytest.raises(DomainError):
            hermite_poly(51, 1.0)
        with pytest.raises(DomainError):
            hermite_poly(-1, 1.0)


class TestDomainTypes:
    def test_ray_argument_rejects_negative(self):
        with pytest.raises(ValidationError):
            RayArgument(-1.0)

    def test_index_rejects_integer_two_mu(self):
        with pytest.raises(ValidationError):
            WhittakerIndex(0.25, mu=0.5)
        with pytest.raises(ValidationError):
            WhittakerIndex(0.25, mu=0.0)
