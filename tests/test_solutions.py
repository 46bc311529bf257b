"""Solution bases: closed form, Whittaker form, duals and conserved checks."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptdilate.errors import DomainError, OverflowRangeError, ValidationError
from ptdilate.model import HamiltonianParams, hamiltonian
from ptdilate.solutions import (
    MU,
    Representation,
    WHITTAKER_Z_MAX,
    SolutionBasis,
    _whittaker_at_zero,
    _whittaker_knots,
    model_kappas,
    solution_basis,
    wronskian,
)

P_HALF = HamiltonianParams(E=1.0, omega=0.5)
P_ONE = HamiltonianParams(E=1.0, omega=1.0)

# frozen oracles: ||y0(t)||^2 of the closed-form dual basis, 40-digit arithmetic
Y0_NORM_SQ_2P1 = 4.128503534077681
Y0_NORM_SQ_4 = 237.7919096827548


def ode_residual(p, v, t, dual=False):
    """Max component magnitude of i v'(t) - M v(t), M = H or H^dag, with v'
    a central difference of step 1e-6 * max(1, |t|)."""
    h = 1e-6 * max(1.0, abs(t))
    v_dot = (np.asarray(v(t + h), dtype=complex) - np.asarray(v(t - h), dtype=complex)) / (2.0 * h)
    H = hamiltonian(p, t)
    M = H.conj().T if dual else H
    return float(np.abs(1j * v_dot - M @ np.asarray(v(t), dtype=complex)).max())


def test_model_kappas():
    assert model_kappas(0.5) == pytest.approx((0.25, 0.75))
    assert model_kappas(1.0) == pytest.approx((0.0, 0.5))
    assert model_kappas(0.25) == pytest.approx((0.75, 1.25))


class TestClosedForm:
    def test_initial_vectors(self):
        x0, x1 = solution_basis(P_HALF).x_pair(0.0)
        np.testing.assert_allclose(x0, [1.0, 0.0], atol=0)
        np.testing.assert_allclose(x1, [0.0, 1.0], atol=0)

    def test_direct_substitution(self):
        x0, _ = solution_basis(HamiltonianParams(E=0.0, omega=0.5)).x_pair(1.0)
        np.testing.assert_allclose(x0, math.exp(-0.25) * np.array([1.0, -1.0j]), rtol=1e-14)

    def test_x1_satisfies_ode(self):
        res = ode_residual(P_HALF, lambda t: solution_basis(P_HALF).x_pair(t)[1], 2.0)
        assert res < 1e-8

    def test_x0_satisfies_ode(self):
        res = ode_residual(P_HALF, lambda t: solution_basis(P_HALF).x_pair(t)[0], 1.3)
        assert res < 1e-8

    def test_horizon_guard(self):
        with pytest.raises(OverflowRangeError):
            solution_basis(P_HALF).x_pair(6.5)

    def test_extended_precision_region_smooth(self):
        # no seam at t = 3, where delta once switched to extended precision
        lo = solution_basis(P_HALF).x_pair(2.9999999)[1]
        hi = solution_basis(P_HALF).x_pair(3.0000001)[1]
        np.testing.assert_allclose(lo, hi, rtol=1e-5)

    @pytest.mark.parametrize("t", [*np.linspace(-6.0, 6.0, 61), 3.001, 4.5, 5.75, 6.0])
    def test_gamma_delta_match_mpmath_oracle(self, t):
        # 50-digit oracle with mpmath's own erfi; E = 0 keeps the prefactor real
        with mp.workdps(50):
            tm = mp.mpf(float(t))
            e = mp.sqrt(mp.pi) / 2 * mp.erfi(tm / mp.sqrt(2))
            pref = mp.exp(-tm * tm / 4)
            gamma = complex(pref * -1j * mp.sqrt(2) * e)
            delta = float(pref * (mp.exp(tm * tm / 2) - mp.sqrt(2) * tm * e))
        _, x1 = solution_basis(HamiltonianParams(E=0.0, omega=0.5)).x_pair(float(t))
        assert abs(x1[0] - gamma) <= 1e-12 * abs(gamma)
        assert abs(x1[1] - delta) <= 1e-12 * abs(delta)

    @settings(max_examples=200, deadline=None)
    @given(t=st.floats(-6.0, 6.0))
    def test_wronskian_is_one(self, t):
        x0, x1 = solution_basis(P_HALF).x_pair(t)
        det = (x0[0] * x1[1] - x0[1] * x1[0]) * cmath.exp(2j * t)
        assert abs(det - 1.0) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(t=st.floats(-5.9999, 5.9999))
    def test_both_vectors_solve_ode(self, t):
        # |x1| grows to ~1400 at t = 6, and the central difference's error
        # with it, so the residual is measured relative to max(1, |x(t)|)
        for idx in (0, 1):
            v = lambda s: solution_basis(P_HALF).x_pair(s)[idx]
            scale = max(1.0, float(np.linalg.norm(v(t))))
            assert ode_residual(P_HALF, v, t) / scale < 1e-8


class TestWhittakerBasis:
    def test_component_ratio_matches_closed_form(self):
        # beta/alpha = -i t in the closed form; ratios are normalization-free
        x0, _ = solution_basis(P_HALF, Representation.WHITTAKER_GENERAL).x_pair(1.0)
        assert x0[1] / x0[0] == pytest.approx(-1.0j, rel=1e-9)

    def test_upper_component_value(self):
        x0, _ = solution_basis(HamiltonianParams(E=0.0, omega=0.5), Representation.WHITTAKER_GENERAL).x_pair(2.0)
        assert x0[0] == pytest.approx(2.0**-0.25 * math.exp(-1.0), rel=1e-9)

    def test_both_vectors_satisfy_ode(self):
        p = HamiltonianParams(E=1.0, omega=1.0)
        for idx in (0, 1):
            res = ode_residual(p, lambda t: solution_basis(p).x_pair(t)[idx], 0.5)
            assert res < 1e-8

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            solution_basis(P_HALF, Representation.WHITTAKER_GENERAL).x_pair(-0.1)

    def test_small_time_limit_finite_and_continuous(self):
        tiny = solution_basis(P_HALF, Representation.WHITTAKER_GENERAL).x_pair(0.0)
        assert np.isfinite(tiny[0]).all() and np.isfinite(tiny[1]).all()
        # below t = 1e-3 the amplitude is frozen, so components of size O(t)
        # carry an absolute error of that order; the O(1) ones stay tight
        just_below = solution_basis(P_HALF, Representation.WHITTAKER_GENERAL).x_pair(9e-4)
        just_above = solution_basis(P_HALF, Representation.WHITTAKER_GENERAL).x_pair(1.1e-3)
        np.testing.assert_allclose(just_below[0], just_above[0], rtol=2e-3, atol=3e-4)
        np.testing.assert_allclose(just_below[1], just_above[1], rtol=2e-3, atol=3e-4)


class TestWhittakerKnotTable:
    """The double-precision Whittaker pair against 40-digit mpmath W."""

    OMEGAS = [1.0 / 6.0, 0.25, 0.37, 1.0, 1.3, 3.0]   # 1/6 and 1/4: an entry of x0(0) is 0

    @staticmethod
    def _oracle(omega, t):
        """(x0, x1) at t from mpmath's whitw at 40 digits, shape (2, 2)."""
        kap, kap_p = model_kappas(omega)
        with mp.workdps(40):
            t = mp.mpf(t)
            mag, rt, sw = omega * t * t, mp.sqrt(t), mp.sqrt(omega)
            rot = mp.mpc(-mag, 0)
            x0 = (mp.whitw(kap, MU, mag) / rt, -2j * sw * mp.whitw(kap_p, MU, mag) / rt)
            x1 = (mp.whitw(-kap, MU, rot) / rt, mp.whitw(-kap_p, MU, rot) / (2 * sw) / rt)
            return np.array([[complex(v) for v in x0], [complex(v) for v in x1]])

    @staticmethod
    def _column_errors(x, ref):
        """Relative error of each column, taken on the column divided by its
        largest oracle entry, as entries near the omega floor reach 1e300."""
        scale = np.abs(ref).max(axis=-1, keepdims=True)
        return np.linalg.norm((x - ref) / scale, axis=-1) / np.linalg.norm(ref / scale, axis=-1)

    @pytest.mark.parametrize("omega", OMEGAS)
    def test_both_columns_match_mpmath(self, omega):
        basis = solution_basis(HamiltonianParams(E=0.0, omega=omega), Representation.WHITTAKER_GENERAL)
        t_hi = min(basis.horizon, 20.0)
        knots = _whittaker_knots(omega)[0]
        inner = knots[(knots > 0.0) & (knots < t_hi)]
        on_knots = inner[:: max(1, inner.size // 4)]
        ts = np.concatenate([np.linspace(0.01, t_hi, 12), on_knots, on_knots - 1e-12, on_knots + 1e-12])
        x = np.array(basis.x_pair(ts))   # E = 0: the phase-free pair
        for i, t in enumerate(ts):
            errors = self._column_errors(x[:, :, i], self._oracle(omega, float(t)))
            assert errors.max() <= 1e-12, (t, errors)

    @pytest.mark.parametrize("omega", OMEGAS + [0.0015])
    def test_value_at_zero_is_the_small_t_limit(self, omega):
        x0, x1 = _whittaker_at_zero(omega)
        ref = self._oracle(omega, 1e-20)
        assert self._column_errors(np.array([x0, x1]), ref).max() <= 1e-12
        if omega in (1.0 / 6.0, 0.25):   # 1/Gamma at a nonpositive integer
            assert 0.0 in x0

    @pytest.mark.parametrize("omega", [0.0015, 0.002, 0.01, 0.37, 1.0, 3.0, 10.0])
    def test_both_columns_match_mpmath_to_the_horizon(self, omega):
        # x0 is anchored with no mpmath, by a backward carry from past the
        # horizon, so its error is largest where that carry started: near z = 700
        basis = solution_basis(HamiltonianParams(E=0.0, omega=omega), Representation.WHITTAKER_GENERAL)
        z = np.concatenate([np.linspace(0.5, 600.0, 5), np.linspace(650.0, WHITTAKER_Z_MAX, 4)])
        ts = np.sqrt(z / omega)
        x = np.array(basis.x_pair(ts))
        for i, t in enumerate(ts):
            errors = self._column_errors(x[:, :, i], self._oracle(omega, float(t)))
            assert errors.max() <= 1e-12, (t, errors)

    @pytest.mark.parametrize("omega", [0.37, 1.0, 3.0])
    def test_scalar_call_equals_array_element(self, omega):
        basis = solution_basis(HamiltonianParams(E=1.3, omega=omega))
        knots = _whittaker_knots(omega)[0]
        ts = np.concatenate([[0.0, 5e-4], np.linspace(0.01, basis.horizon, 40), knots[1:-1:9] + 1e-12])
        x0, x1 = basis.x_pair(ts)
        for i, t in enumerate(ts):
            s0, s1 = basis.x_pair(float(t))
            np.testing.assert_array_equal(s0, x0[:, i])
            np.testing.assert_array_equal(s1, x1[:, i])

    @pytest.mark.parametrize("omega", OMEGAS)
    def test_determinant_modulus_constant(self, omega):
        # |det[x0, x1]| = sqrt(gram_det) = 2 w, out to w t^2 = 300
        basis = solution_basis(HamiltonianParams(E=0.7, omega=omega), Representation.WHITTAKER_GENERAL)
        x0, x1 = basis.x_pair(np.linspace(0.0, math.sqrt(300.0 / omega), 601))
        det = np.abs(x0[0] * x1[1] - x0[1] * x1[0])
        assert np.abs(det / det[0] - 1.0).max() <= 1e-12
        assert det[0] == pytest.approx(2.0 * omega, rel=1e-12)

    def test_past_the_table_refused(self):
        basis = solution_basis(P_ONE)
        with pytest.raises(OverflowRangeError):
            basis.x_pair(_whittaker_knots(1.0)[0][-1] * 1.01)


class TestDualBasis:
    def test_labels_at_origin(self):
        y0, y1 = solution_basis(P_HALF).y_pair(0.0)
        np.testing.assert_allclose(y0, [1.0, 0.0], atol=0)
        np.testing.assert_allclose(y1, [0.0, 1.0], atol=0)

    def test_y0_norm_growth(self):
        y0_21, _ = solution_basis(P_HALF).y_pair(2.1)
        assert np.vdot(y0_21, y0_21).real == pytest.approx(4.129, rel=5e-3)
        assert np.vdot(y0_21, y0_21).real == pytest.approx(Y0_NORM_SQ_2P1, rel=1e-12)
        y0_4, _ = solution_basis(P_HALF).y_pair(4.0)
        assert np.vdot(y0_4, y0_4).real == pytest.approx(237.80, rel=1e-3)
        assert np.vdot(y0_4, y0_4).real == pytest.approx(Y0_NORM_SQ_4, rel=1e-12)

    def test_duals_satisfy_dual_equation(self):
        for idx, t in [(0, 2.0), (1, 1.1)]:
            res = ode_residual(P_HALF, lambda s: solution_basis(P_HALF).y_pair(s)[idx], t, dual=True)
            assert res < 1e-8

    @pytest.mark.parametrize("p, rep", [
        (P_HALF, Representation.CLOSED_FORM_HALF),
        (P_ONE, Representation.WHITTAKER_GENERAL),
    ])
    def test_sigma_x_maps_solutions_to_duals(self, p, rep):
        basis = solution_basis(p, rep)
        rng = np.random.default_rng(7)
        t_hi = 4.0 if rep is Representation.CLOSED_FORM_HALF else 2.0
        for t in rng.uniform(0.1, t_hi, size=20):
            for idx in (0, 1):
                res = ode_residual(p, lambda s: basis.x_pair(s)[idx][::-1], float(t), dual=True)
                assert res < 1e-7


class TestNonSolution:
    def test_constant_vector_has_nonzero_residual(self):
        res = ode_residual(P_HALF, lambda t: np.array([1.0, 0.0], dtype=complex), 1.0)
        # i d/dt (1,0) - H (1,0) = -(1 + i/2, 1); max component is sqrt(1.25)
        assert res == pytest.approx(math.sqrt(1.25), rel=1e-6)


class TestWronskian:
    def test_closed_form_is_one(self):
        basis = solution_basis(P_HALF)
        for t in (0.0, 0.7, 1.3, 2.8, 4.1):
            assert wronskian(basis, t) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("p, ts", [
        (P_HALF, (0.5, 1.0, 2.0, 3.0)),
        (P_ONE, (0.5, 1.0, 1.5)),
    ])
    def test_whittaker_constancy(self, p, ts):
        basis = solution_basis(p, Representation.WHITTAKER_GENERAL)
        values = [wronskian(basis, t) for t in ts]
        for value in values[1:]:
            assert abs(value - values[0]) <= 1e-8 * abs(values[0])


class TestRepresentationConsistency:
    def test_x0_proportionality_constant(self):
        closed = solution_basis(P_HALF)
        whittaker = solution_basis(P_HALF, Representation.WHITTAKER_GENERAL)
        expected = 2.0**-0.25
        for t in np.linspace(0.2, 4.0, 20):
            xc = closed.x_pair(float(t))[0]
            xw = whittaker.x_pair(float(t))[0]
            np.testing.assert_allclose(xw, expected * xc, rtol=1e-8)

    def test_x1_decomposition_is_time_independent(self):
        # the rotated-ray Whittaker x1 is one fixed solution: its closed-basis
        # coefficients, measured once at t = 1, hold at every other time.
        # (It is NOT proportional to the closed x1: the z^(1/4) Frobenius
        # coefficient Gamma(2 mu)/Gamma(1/2 + mu - nu) cannot vanish at
        # nu = -1/4, so a constant x0 admixture is always present.)
        closed = solution_basis(P_HALF)
        whittaker = solution_basis(P_HALF, Representation.WHITTAKER_GENERAL)

        def coeffs(t):
            A = np.column_stack(closed.x_pair(t))
            return np.linalg.solve(A, whittaker.x_pair(t)[1])

        ref = coeffs(1.0)
        assert abs(ref[1]) > 0.1
        for t in np.linspace(0.2, 4.0, 20):
            np.testing.assert_allclose(coeffs(float(t)), ref, rtol=1e-8)

    def test_closed_rep_requires_half(self):
        with pytest.raises(ValidationError):
            SolutionBasis(P_ONE, Representation.CLOSED_FORM_HALF)


class TestEpSmoothness:
    @pytest.mark.parametrize("rep", [Representation.CLOSED_FORM_HALF, Representation.WHITTAKER_GENERAL])
    def test_second_differences_consistent_at_ep(self, rep):
        basis = solution_basis(P_HALF, rep)
        for which in (0, 1):
            for comp in (0, 1):
                estimates = []
                for h in (1e-2, 1e-3):
                    f = lambda t: basis.x_pair(t)[which][comp]
                    d2 = (f(2.0 + h) - 2.0 * f(2.0) + f(2.0 - h)) / (h * h)
                    estimates.append(d2)
                    assert abs(d2) < 1e3
                scale = max(abs(estimates[0]), 1e-3)
                assert abs(estimates[0] - estimates[1]) <= 0.01 * scale


class TestLargeTimeShape:
    def test_x0_ratio_to_asymptotic_form_stabilizes(self):
        # componentwise ratio against e^{-iEt - w t^2/2} w^(-1/4 + 1/(4w)) t^(1/(2w) - 1) (1, -2 i w t)
        p = P_HALF
        basis = solution_basis(p, Representation.WHITTAKER_GENERAL)

        def form(t):
            w = p.omega
            pref = cmath.exp(-1j * p.E * t - 0.5 * w * t * t) * w ** (-0.25 + 1.0 / (4 * w)) * t ** (1.0 / (2 * w) - 1.0)
            return np.array([pref, pref * (-2j * w * t)])

        r5 = basis.x_pair(5.0)[0] / form(5.0)
        r6 = basis.x_pair(6.0)[0] / form(6.0)
        np.testing.assert_allclose(r5, r6, rtol=0.05)
