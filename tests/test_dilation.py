"""Square-root coupling tau, block assembly, post-breakdown diagnostics."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from ptdilate.dilation import (
    H4Mode,
    _root,
    _tau_dot,
    assemble_dilated,
    hermiticity_defect,
    tau_derivative,
    tau_from_metric,
)
from ptdilate.errors import InvalidMetricError, NearBreakdownError
from ptdilate.metric import DilationParams, MetricState, eigenvalues, metric
from ptdilate.model import HamiltonianParams, hamiltonian
from ptdilate.solutions import Representation, solution_basis

P = HamiltonianParams(E=1.0, omega=0.5)
D_REF = DilationParams(3.5, 238.0)
D_SMALL = DilationParams(3.5, 4.634)


def principal_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Eigendecomposition oracle: principal square root of a Hermitian 2x2,
    indefinite allowed.  Negative eigenvalues map to +i sqrt(|.|), so the
    result is normal but not Hermitian once the matrix is indefinite."""
    w, V = np.linalg.eigh(matrix)
    roots = np.sqrt(w.astype(complex))
    return (V * roots) @ V.conj().T


def _oracle_tau(p, d, t, basis=None):
    return principal_sqrt(metric(p, d, t, basis).eta - np.eye(2))


def _oracle_tau_dot(p, d, t, basis=None, h=3e-4):
    """Five-point central difference of the oracle root, error O(h^4)."""
    f = [_oracle_tau(p, d, t + k * h, basis) for k in (-2, -1, 1, 2)]
    return (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)


def _diagonal_state(f, g, f_dot=0.0, g_dot=0.0):
    """A metric state with eta = diag(f, g), f <= g, and eta' = diag(f', g')."""
    return MetricState(
        t=0.0,
        eta=np.diag([f, g]).astype(complex),
        eta_dot=np.diag([f_dot, g_dot]).astype(complex),
        lambda_plus=g,
        lambda_minus=f,
        l=f + g,
        delta=f * g,
        params=P,
        dparams=DilationParams(1.0, 1.0),
    )


class TestTauEntries:
    def test_diagonal_case(self):
        tau = tau_from_metric(_diagonal_state(3.5, 238.0))
        assert tau[1, 0] == tau[0, 1] == 0.0
        assert tau[0, 0] == pytest.approx(math.sqrt(2.5), rel=1e-12)
        assert tau[1, 1] == pytest.approx(math.sqrt(237.0), rel=1e-12)

    def test_zero_matrix(self):
        # D = (1, 1) at t = 0 gives eta = 1 exactly, so tau^2 = 0 and 2d = 0
        ms = metric(P, DilationParams(1.0, 1.0), 0.0)
        assert np.array_equal(ms.eta, np.eye(2))
        assert np.array_equal(tau_from_metric(ms), np.zeros((2, 2)))


class TestTauFromMetric:
    def test_square_reproduces_eta_minus_one(self):
        ms = metric(P, D_REF, 1.7)
        tau = tau_from_metric(ms)
        target = ms.eta - np.eye(2)
        err = np.abs(tau @ tau - target).max()
        assert err <= 1e-9 * np.abs(target).max()

    def test_matches_eigendecomposition_oracle(self):
        ms = metric(P, D_REF, 1.7)
        tau = tau_from_metric(ms)
        np.testing.assert_allclose(tau, principal_sqrt(ms.eta - np.eye(2)), rtol=1e-9, atol=1e-12)

    def test_many_random_valid_points(self):
        rng = np.random.default_rng(11)
        cases = [(D_REF, 3.9), (D_SMALL, 2.0)]
        for d, t_hi in cases:
            for t in rng.uniform(0.0, t_hi, size=25):
                ms = metric(P, d, float(t))
                tau = tau_from_metric(ms)
                target = ms.eta - np.eye(2)
                assert np.abs(tau @ tau - target).max() <= 1e-9 * max(1.0, np.abs(target).max())
                assert np.abs(tau - tau.conj().T).max() <= 1e-12 * max(1.0, np.abs(tau).max())
                assert (np.linalg.eigvalsh(tau) >= -1e-12).all()

    def test_invalid_metric_rejected(self):
        with pytest.raises(InvalidMetricError):
            tau_from_metric(metric(P, D_REF, 4.2))


class TestTauDerivative:
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_chain_rule_matches_finite_difference(self, t):
        h = 1e-6
        fd = (
            tau_from_metric(metric(P, D_REF, t + h))
            - tau_from_metric(metric(P, D_REF, t - h))
        ) / (2.0 * h)
        assert np.abs(tau_derivative(P, D_REF, t) - fd).max() < 1e-6

    def test_synthetic_diagonal(self):
        # eta(t) = diag(f, g) gives tau' = diag(f'/(2 sqrt(f-1)), g'/(2 sqrt(g-1)))
        f, f_dot = 3.7, 0.9
        g, g_dot = 12.0, -2.0
        ms = _diagonal_state(f, g, f_dot, g_dot)
        tau_dot = _tau_dot(ms, _root(ms))
        assert tau_dot[0, 1] == tau_dot[1, 0] == 0.0
        assert tau_dot[0, 0].real == pytest.approx(f_dot / (2.0 * math.sqrt(f - 1.0)), rel=1e-12)
        assert tau_dot[1, 1].real == pytest.approx(g_dot / (2.0 * math.sqrt(g - 1.0)), rel=1e-12)

    def test_near_breakdown_guard(self):
        # the crossing lam_minus = 1 is the only point where tau is not
        # differentiable; on both sides of it tau' is finite
        t_c = brentq(lambda t: eigenvalues(P, D_REF, t)[1] - 1.0, 3.9, 4.1, xtol=1e-15)
        assert abs(eigenvalues(P, D_REF, t_c)[1] - 1.0) < 1e-12
        with pytest.raises(NearBreakdownError):
            tau_derivative(P, D_REF, t_c)
        for t in (t_c - 1e-3, t_c + 1e-3):
            assert np.isfinite(tau_derivative(P, D_REF, t)).all()


class TestGeneralOmega:
    """On the Whittaker basis away from w = 1/2, Re eta_10 is far from zero,
    so every entry of eta - 1 enters tau and tau'."""

    @pytest.fixture(params=[0.37, 1.3])
    def case(self, request):
        p = HamiltonianParams(E=1.0, omega=request.param)
        return p, solution_basis(p, Representation.WHITTAKER_GENERAL)

    @pytest.mark.parametrize("t", [0.3, 1.5])
    def test_tau_is_the_principal_root(self, case, t):
        p, basis = case
        ms = metric(p, D_REF, t, basis)
        target = ms.eta - np.eye(2)
        assert abs(target[1, 0].real) > 1.0
        tau = tau_from_metric(ms)
        scale = np.abs(target).max()
        assert np.abs(tau @ tau - target).max() <= 1e-12 * scale
        np.testing.assert_allclose(tau, principal_sqrt(target), rtol=0, atol=1e-12 * math.sqrt(scale))

    @pytest.mark.parametrize("t", [0.3, 1.5])
    def test_derivative_matches_finite_difference(self, case, t):
        p, basis = case
        h = 1e-6
        fd = (
            tau_from_metric(metric(p, D_REF, t + h, basis))
            - tau_from_metric(metric(p, D_REF, t - h, basis))
        ) / (2.0 * h)
        tau_dot = tau_derivative(p, D_REF, t, basis)
        assert np.abs(tau_dot - fd).max() <= 1e-7 * np.abs(tau_dot).max()

    @pytest.mark.parametrize("mode", [H4Mode.HERMITIAN_PART, H4Mode.MIRROR])
    def test_hh_hermitian(self, case, mode):
        p, basis = case
        for t in (0.3, 1.5):
            hh = assemble_dilated(p, D_REF, t, mode, basis).hh
            assert np.abs(hh - hh.conj().T).max() <= 1e-9 * np.abs(hh).max()


class TestH4Select:
    def test_hermitian_part(self):
        dh = assemble_dilated(P, D_REF, 2.7, H4Mode.HERMITIAN_PART)
        np.testing.assert_allclose(dh.h4, np.array([[1.0, 1.0], [1.0, 1.0]]), atol=0)
        assert dh.h4_residual == 0.0

    def test_mirror_reevaluation_oracle(self):
        t = 1.0
        ms = metric(P, D_REF, t)
        tau = tau_from_metric(ms)
        tau_dot = tau_derivative(P, D_REF, t)
        H = hamiltonian(P, t)
        expected = (H + (1j * tau_dot + tau @ H) @ tau) @ np.linalg.inv(ms.eta)
        dh = assemble_dilated(P, D_REF, t, H4Mode.MIRROR)
        np.testing.assert_allclose(dh.h4, expected, rtol=1e-10)
        assert dh.h4_residual < 1e-8

    def test_mirror_hand_expansion_at_zero(self):
        # diagonal eta(0) = diag(e0, e1), tau(0) = diag(t0, t1) and
        # tau'(0) = [[0, -i q], [i q, 0]] give, entry by entry,
        # h4 = [[E (1 + t0^2)/e0, (1 + t0 t1 + q t1)/e1],
        #       [(1 + t0 t1 - q t0)/e0, E (1 + t1^2)/e1]]
        e0, e1 = 3.5, 238.0
        t0, t1 = math.sqrt(e0 - 1.0), math.sqrt(e1 - 1.0)
        q = float(tau_derivative(P, D_REF, 0.0)[1, 0].imag)
        hand = np.array(
            [
                [P.E * (1.0 + t0 * t0) / e0, (1.0 + t0 * t1 + q * t1) / e1],
                [(1.0 + t0 * t1 - q * t0) / e0, P.E * (1.0 + t1 * t1) / e1],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(assemble_dilated(P, D_REF, 0.0, H4Mode.MIRROR).h4, hand, rtol=1e-10)

    def test_mirror_is_hermitian_here(self):
        # the mirror gauge h4 = H + h2^dag tau inherits Hermiticity from the
        # metric evolution law; the residual stays at rounding level
        for t in (0.0, 1.0, 2.0, 3.5):
            assert assemble_dilated(P, D_REF, t, H4Mode.MIRROR).h4_residual < 1e-12


class TestAssembleDilated:
    def test_consistency_condition_upper(self):
        dh = assemble_dilated(P, D_REF, 0.0, H4Mode.HERMITIAN_PART)
        tau = tau_from_metric(metric(P, D_REF, 0.0))
        H = hamiltonian(P, 0.0)
        assert np.abs(dh.h1 + dh.h2 @ tau - H).max() < 1e-10

    def test_consistency_condition_lower_at_ep(self):
        t = 2.0
        dh = assemble_dilated(P, D_REF, t, H4Mode.HERMITIAN_PART)
        tau = tau_from_metric(metric(P, D_REF, t))
        tau_dot = tau_derivative(P, D_REF, t)
        H = hamiltonian(P, t)
        lhs = dh.h2.conj().T + dh.h4 @ tau
        rhs = 1j * tau_dot + tau @ H
        assert np.abs(lhs - rhs).max() <= 1e-8 * max(1.0, np.abs(rhs).max())

    @pytest.mark.parametrize("mode", [H4Mode.HERMITIAN_PART, H4Mode.MIRROR])
    @pytest.mark.parametrize("d, t", [(D_REF, 1.5), (D_SMALL, 1.5), (D_REF, 3.0)])
    def test_hh_hermitian_and_conditions(self, mode, d, t):
        dh = assemble_dilated(P, d, t, mode)
        scale = np.abs(dh.hh).max()
        assert np.abs(dh.hh - dh.hh.conj().T).max() <= 1e-9 * scale
        tau = tau_from_metric(metric(P, d, t))
        tau_dot = tau_derivative(P, d, t)
        H = hamiltonian(P, t)
        assert np.abs(dh.h1 + dh.h2 @ tau - H).max() <= 1e-8 * scale
        assert np.abs(dh.h2.conj().T + dh.h4 @ tau - 1j * tau_dot - tau @ H).max() <= 1e-8 * scale


class TestPostBreakdown:
    def test_principal_root_of_indefinite_diagonal(self):
        # eta = diag(0.81, 6) gives A = diag(-0.19, 5)
        tau = _root(_diagonal_state(0.81, 6.0))[-1]
        np.testing.assert_allclose(tau, np.diag([1j * math.sqrt(0.19), math.sqrt(5.0)]), rtol=1e-12)

    def test_defect_past_breakdown(self):
        ms = metric(P, D_REF, 4.2)
        tau = _root(ms)[-1]
        assert np.abs(tau - tau.conj().T).max() > 1e-3
        np.testing.assert_allclose(tau @ tau, ms.eta - np.eye(2), atol=1e-9)
        assert hermiticity_defect(P, D_REF, 4.2) > 1e-3

    def test_defect_past_early_breakdown(self):
        assert hermiticity_defect(P, DilationParams(3.5, 4.13), 2.5) > 0.0


class TestPastBreakdownOracle:
    """The identity against the eigendecomposition oracle past breakdown: on
    the Whittaker basis at three sweep rates, and where lam_plus < 1 too,
    so that both roots r_pm are imaginary."""

    # (w, D, t, representation); each t lies past that case's breakdown
    CASES = [
        (0.37, D_REF, 4.87, Representation.WHITTAKER_GENERAL),
        (0.5, D_REF, 4.19, Representation.WHITTAKER_GENERAL),
        (1.3, D_REF, 2.78, Representation.WHITTAKER_GENERAL),
        (0.5, DilationParams(0.5, 0.5), 0.5, Representation.CLOSED_FORM_HALF),
    ]

    @pytest.fixture(params=CASES, ids=["w0.37", "w0.5", "w1.3", "lam_plus_below_1"])
    def case(self, request):
        w, d, t, rep = request.param
        p = HamiltonianParams(E=1.0, omega=w)
        return p, d, t, solution_basis(p, rep)

    def test_root_matches_oracle(self, case):
        p, d, t, basis = case
        ms = metric(p, d, t, basis)
        assert ms.lambda_minus < 0.5
        target = ms.eta - np.eye(2)
        tau = _root(ms)[-1]
        scale = np.abs(target).max()
        assert np.abs(tau @ tau - target).max() <= 1e-12 * scale
        np.testing.assert_allclose(tau, principal_sqrt(target), rtol=0, atol=1e-12 * math.sqrt(scale))

    def test_derivative_matches_oracle_difference(self, case):
        p, d, t, basis = case
        tau_dot = tau_derivative(p, d, t, basis)
        fd = _oracle_tau_dot(p, d, t, basis)
        assert np.abs(tau_dot - fd).max() <= 1e-10 * np.abs(tau_dot).max()


class TestHermiticityDefect:
    @pytest.mark.parametrize("d, t_before, t_after", [
        (D_REF, 3.9, 4.1),
        (DilationParams(3.5, 1474.0), 4.45, 4.55),
        (DilationParams(3.5, 4.13), 1.95, 2.1),
        (D_SMALL, 2.05, 2.2),
    ])
    def test_defect_switches_on_at_breakdown(self, d, t_before, t_after):
        assert hermiticity_defect(P, d, t_before) < 1e-9
        assert hermiticity_defect(P, d, t_after) > 1e-6

    def test_defect_uses_the_given_basis(self):
        # on the Whittaker basis at w = 1/2 this D breaks down before t = 3.95;
        # tau and tau' must come from the same basis; expected from the oracle
        basis = solution_basis(P, Representation.WHITTAKER_GENERAL)
        t = 3.95
        tau = _oracle_tau(P, D_REF, t, basis)
        tau_dot = _oracle_tau_dot(P, D_REF, t, basis)
        H = hamiltonian(P, t)
        H_h, tau_h = H.conj().T, tau.conj().T
        h4 = 0.5 * (H + H_h)
        # h1 = H - h2 tau with h2 = -i tau'^dag + H^dag tau^dag - tau^dag h4
        h1 = H + 1j * tau_dot.conj().T @ tau - H_h @ tau_h @ tau + tau_h @ h4 @ tau
        expected = np.abs(h1 - h1.conj().T).max()
        assert expected > 1.0
        assert hermiticity_defect(P, D_REF, t, basis=basis) == pytest.approx(expected, rel=1e-9)

    def test_mode_does_not_matter_for_defect(self):
        # h4 enters h1 as tau^dag h4 tau, which cancels in h1 - h1^dag for
        # every Hermitian h4
        for mode in H4Mode:
            h1 = assemble_dilated(P, D_REF, 2.5, mode).h1
            assert np.abs(h1 - h1.conj().T).max() < 1e-9
        assert hermiticity_defect(P, D_REF, 2.5) < 1e-9


@pytest.mark.parametrize("mode", [H4Mode.HERMITIAN_PART, H4Mode.MIRROR])
def test_generator_fill_equals_np_block(mode):
    for t in (0.0, 1.3, 2.0, 3.9):
        dh = assemble_dilated(P, D_REF, t, mode)
        expected = np.block([[dh.h1, dh.h2], [dh.h2.conj().T, dh.h4]])
        assert np.array_equal(dh.hh, expected)


class TestArrayAssembly:
    @pytest.mark.parametrize("mode", [H4Mode.HERMITIAN_PART, H4Mode.MIRROR])
    @pytest.mark.parametrize("omega, t0, t1", [(0.5, 0.0, 3.9), (0.37, 0.05, 2.0)])
    def test_matches_scalar_calls(self, mode, omega, t0, t1):
        p = HamiltonianParams(1.0, omega)
        basis = solution_basis(p)
        ts = np.linspace(t0, t1, 40)
        dh = assemble_dilated(p, D_REF, ts, mode, basis)
        assert dh.hh.shape == (40, 4, 4) and dh.tau.shape == (40, 2, 2)
        scalar = [assemble_dilated(p, D_REF, float(t), mode, basis) for t in ts]
        for name in ("h1", "h2", "h4", "hh", "tau"):
            stacked = np.array([getattr(one, name) for one in scalar])
            scale = np.abs(stacked).max(axis=(1, 2), keepdims=True)
            assert (np.abs(getattr(dh, name) - stacked) <= 1e-12 * scale).all(), name
        assert dh.h4_residual == pytest.approx(max(one.h4_residual for one in scalar), abs=1e-13)

    @pytest.mark.parametrize("mode", [H4Mode.HERMITIAN_PART, H4Mode.MIRROR])
    @pytest.mark.parametrize("omega, t0, t1", [(0.5, 0.0, 3.9), (0.37, 0.05, 2.0)])
    def test_matches_per_time_block_oracle(self, mode, omega, t0, t1):
        # per time, with np.matmul on (2, 2) matrices from metric and
        # tau_derivative: h2^dag = i tau' + tau H - h4 tau, h1 = H - h2 tau;
        # relative to max|hh| |tau|, the size of the h2 tau that cancels in h1
        p = HamiltonianParams(1.0, omega)
        basis = solution_basis(p)
        ts = np.linspace(t0, t1, 25)
        dh = assemble_dilated(p, D_REF, ts, mode, basis)
        for k, t in enumerate(ts):
            ms = metric(p, D_REF, float(t), basis)
            tau, tau_dot, H = tau_from_metric(ms), tau_derivative(p, D_REF, float(t), basis), hamiltonian(p, float(t))
            g = 1j * tau_dot + tau @ H
            if mode is H4Mode.HERMITIAN_PART:
                h4 = 0.5 * (H + H.conj().T)
            else:   # h4 eta = H + g tau, checked without inverting eta
                h4 = dh.h4[k]
                assert np.abs(h4 @ ms.eta - H - g @ tau).max() <= 1e-13 * np.abs(H + g @ tau).max()
            h2_dag = g - h4 @ tau
            h1 = H - h2_dag.conj().T @ tau
            expected = np.block([[h1, h2_dag.conj().T], [h2_dag, h4]])
            scale = np.abs(expected).max() * np.abs(tau).max()
            assert np.abs(dh.hh[k] - expected).max() <= 1e-13 * scale
            assert np.abs(dh.tau[k] - tau).max() <= 1e-13 * np.abs(tau).max()

    @pytest.mark.parametrize("mode", [H4Mode.HERMITIAN_PART, H4Mode.MIRROR])
    def test_public_shapes(self, mode):
        one = assemble_dilated(P, D_REF, 1.0, mode)
        many = assemble_dilated(P, D_REF, np.linspace(0.0, 3.0, 7), mode)
        for name, m in (("h1", 2), ("h2", 2), ("h4", 2), ("hh", 4), ("tau", 2)):
            assert getattr(one, name).shape == (m, m), name
            assert getattr(many, name).shape == (7, m, m), name
        assert isinstance(one.h4_residual, float) and isinstance(many.h4_residual, float)

    def test_near_breakdown_time_in_an_array(self):
        t_c = brentq(lambda t: eigenvalues(P, D_REF, t)[1] - 1.0, 3.9, 4.1, xtol=1e-15)
        with pytest.raises(NearBreakdownError, match=f"t = {t_c}"):
            assemble_dilated(P, D_REF, np.array([1.0, 3.0, t_c]))

    def test_invalid_time_in_an_array_is_named(self):
        with pytest.raises(InvalidMetricError, match="t = 4.2"):
            assemble_dilated(P, D_REF, np.array([1.0, 4.2, 4.3]))
