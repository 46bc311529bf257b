"""Integration of the small system, its dual and the 4-dim embedding."""

import numpy as np
import pytest
from scipy.linalg import expm

from ptdilate import evolve
from ptdilate.dilation import H4Mode, assemble_dilated, tau_from_metric
from ptdilate.errors import BreakdownError, IntegrationError, ValidationError
from ptdilate.evolve import (
    EvolutionConfig,
    dilation_efficiency,
    integrate_linear,
    propagate_analytic,
    simulate_dilated,
)
from ptdilate.metric import DilationParams, metric
from ptdilate.model import HamiltonianParams, hamiltonian
from ptdilate.solutions import Representation, solution_basis

P = HamiltonianParams(E=1.0, omega=0.5)
D_REF = DilationParams(3.5, 238.0)


class TestIntegrateLinear:
    def test_constant_diagonal_generator(self):
        M = np.diag([1.0, 2.0]).astype(complex)
        cfg = EvolutionConfig(output_grid=np.array([np.pi]))
        traj = integrate_linear(lambda t: M, np.array([1.0, 0.0]), (0.0, np.pi), cfg)
        np.testing.assert_allclose(traj.states[-1], [-1.0, 0.0], atol=1e-9)

    def test_reproduces_closed_form(self):
        grid = np.linspace(0.0, 3.0, 31)
        cfg = EvolutionConfig(output_grid=grid)
        traj = integrate_linear(lambda t: hamiltonian(P, t), np.array([1.0, 0.0]), (0.0, 3.0), cfg)
        for t, state in zip(traj.times, traj.states):
            ref = solution_basis(P).x_pair(float(t))[0]
            assert np.abs(state - ref).max() < 1e-8

    def test_dual_generator_reproduces_y0(self):
        grid = np.linspace(0.0, 3.0, 31)
        cfg = EvolutionConfig(output_grid=grid)
        gen = lambda t: hamiltonian(P, t).conj().T
        traj = integrate_linear(gen, np.array([1.0, 0.0]), (0.0, 3.0), cfg)
        for t, state in zip(traj.times, traj.states):
            ref = solution_basis(P).y_pair(float(t))[0]
            assert np.abs(state - ref).max() < 1e-8

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            EvolutionConfig(rel_tol=0.0)
        with pytest.raises(ValidationError):
            EvolutionConfig(output_grid=np.array([1.0, 0.5]))
        with pytest.raises(ValidationError):
            integrate_linear(lambda t: np.eye(2, dtype=complex), np.array([1.0, 0.0]), (1.0, 1.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": np.inf},
            {"abs_tol": np.inf},
            {"max_step": np.inf},
            {"max_step": np.nan},
            {"output_grid": [0.0, np.nan, 1.0]},
            {"output_grid": [0.0, 1.0, np.inf]},
        ],
    )
    def test_nonfinite_config_rejected(self, kwargs):
        # NaN fails every comparison, so it must be refused, not let through
        with pytest.raises(ValidationError, match="finite"):
            EvolutionConfig(**kwargs)

    def test_nonfinite_generator_rejected(self):
        def bad(t):
            return np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex)

        with pytest.raises(IntegrationError):
            integrate_linear(bad, np.array([1.0, 0.0]), (0.0, 1.0))


@pytest.fixture(scope="module")
def reference_run():
    cfg = EvolutionConfig(output_grid=np.linspace(0.0, 3.9, 40))
    return simulate_dilated(P, D_REF, np.array([1.0, 0.0]), (0.0, 3.9), cfg)


class TestSimulateDilated:
    def test_norm_conserved(self, reference_run):
        traj = reference_run
        assert np.abs(traj.norms / traj.norms[0] - 1.0).max() <= 1e-8

    def test_upper_component_matches_analytic(self, reference_run):
        assert reference_run.extras["upper_deviation"].max() < 1e-6

    def test_lower_component_consistency(self, reference_run):
        traj = reference_run
        psi_norms = np.linalg.norm(traj.states, axis=1)
        assert (traj.extras["lower_consistency"] <= 1e-6 * psi_norms).all()

    def test_validity_flags_all_true(self, reference_run):
        assert reference_run.valid.all()

    def test_fidelity_near_one(self, reference_run):
        assert reference_run.fidelity.min() > 1.0 - 1e-10

    def test_breakdown_inside_span(self):
        with pytest.raises(BreakdownError) as err:
            simulate_dilated(P, D_REF, np.array([1.0, 0.0]), (0.0, 4.2))
        assert err.value.breakdown_time == pytest.approx(4.0001, abs=0.002)

    def test_breakdown_guard_uses_the_given_basis(self):
        # the Whittaker normalization breaks down at 3.8939, the closed form
        # only at 4.0001, so a guard on the closed form would let [0, 3.95] pass
        whittaker = solution_basis(P, Representation.WHITTAKER_GENERAL)
        with pytest.raises(BreakdownError) as err:
            simulate_dilated(P, D_REF, np.array([1.0, 0.0]), (0.0, 3.95), basis=whittaker)
        assert err.value.breakdown_time == pytest.approx(3.8939, abs=1e-4)

    def test_zero_state_rejected(self):
        with pytest.raises(ValidationError):
            simulate_dilated(P, D_REF, np.array([0.0, 0.0]), (0.0, 1.0))

    def test_mode_robustness_on_random_states(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 3.9, 14)
        cfg = EvolutionConfig(output_grid=grid)
        for _ in range(3):
            raw = rng.normal(size=4)
            psi0 = (raw[:2] + 1j * raw[2:]).astype(complex)
            psi0 /= np.linalg.norm(psi0)
            runs = {
                mode: simulate_dilated(P, D_REF, psi0, (0.0, 3.9), cfg, mode)
                for mode in (H4Mode.HERMITIAN_PART, H4Mode.MIRROR)
            }
            up_a = runs[H4Mode.HERMITIAN_PART].states[:, :2]
            up_b = runs[H4Mode.MIRROR].states[:, :2]
            ref = np.array([propagate_analytic(P, psi0, 0.0, float(t)) for t in grid])
            ref_norm = np.linalg.norm(ref, axis=1)
            assert (np.linalg.norm(up_a - up_b, axis=1) <= 1e-6 * ref_norm).all()
            assert (np.linalg.norm(up_a - ref, axis=1) <= 1e-6 * ref_norm).all()

    def test_small_system_norm_not_conserved_but_eta_norm_is(self):
        grid = np.linspace(0.0, 3.0, 31)
        cfg = EvolutionConfig(output_grid=grid)
        traj = integrate_linear(lambda t: hamiltonian(P, t), np.array([1.0, 0.0]), (0.0, 3.0), cfg)
        assert np.abs(traj.norms - traj.norms[0]).max() > 1e-3
        eta_norms = []
        for t, state in zip(traj.times, traj.states):
            eta = metric(P, D_REF, float(t)).eta
            eta_norms.append(float(np.vdot(state, eta @ state).real))
        eta_norms = np.array(eta_norms)
        assert np.abs(eta_norms / eta_norms[0] - 1.0).max() <= 1e-6

    def test_tolerance_halving_changes_nothing_material(self):
        grid = np.linspace(0.0, 3.0, 16)
        base = EvolutionConfig(rel_tol=1e-10, output_grid=grid)
        tight = EvolutionConfig(rel_tol=5e-11, output_grid=grid)
        a = simulate_dilated(P, D_REF, np.array([1.0, 0.0]), (0.0, 3.0), base)
        b = simulate_dilated(P, D_REF, np.array([1.0, 0.0]), (0.0, 3.0), tight)
        assert np.abs(a.states - b.states).max() < 1e-8


def _dop853_propagator(p, d, mode, basis, span, grid):
    """U(t, t0) on the grid from one DOP853 run (rtol 1e-12) over the four
    columns of the identity: i U' = hh U, with U flattened row by row."""
    cfg = EvolutionConfig(rel_tol=1e-12, abs_tol=1e-14, output_grid=grid)
    gen = lambda t: np.kron(assemble_dilated(p, d, t, mode, basis).hh, np.eye(4))
    return integrate_linear(gen, np.eye(4, dtype=complex).ravel(), span, cfg).states.reshape(-1, 4, 4)


class TestMagnus:
    @pytest.mark.parametrize("mode", [H4Mode.HERMITIAN_PART, H4Mode.MIRROR])
    @pytest.mark.parametrize("omega, span", [(0.5, (0.0, 3.9)), (1.0, (0.5, 1.0))])
    def test_matches_dop853_propagator(self, omega, span, mode):
        p = HamiltonianParams(1.0, omega)
        basis = solution_basis(p)
        grid = np.linspace(*span, 6)
        psi0 = np.array([0.6 + 0.1j, 0.3 - 0.7j])
        traj = simulate_dilated(p, D_REF, psi0, span, EvolutionConfig(output_grid=grid), mode, basis)
        tau0 = tau_from_metric(metric(p, D_REF, span[0], basis))
        ref = _dop853_propagator(p, D_REF, mode, basis, span, grid) @ np.concatenate([psi0, tau0 @ psi0])
        assert (np.linalg.norm(traj.states - ref, axis=1) <= 1e-8 * np.linalg.norm(ref, axis=1)).all()

    def test_steps_are_unitary(self):
        # a random Hermitian generator with a large norm: each step keeps
        # the norm to rounding, whatever its accuracy
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gen = lambda ts: (a + a.conj().T)[None] * (1.0 + ts[:, None, None] ** 2)
        u = evolve._magnus_steps(gen, np.linspace(0.0, 1.0, 5), np.full(5, 0.7))
        assert np.abs(u @ u.conj().swapaxes(1, 2) - np.eye(4)).max() < 1e-13

    @pytest.mark.parametrize("mode", [H4Mode.HERMITIAN_PART, H4Mode.MIRROR])
    @pytest.mark.parametrize("omega, t0", [(0.5, 0.0), (0.5, 3.4), (1.0, 0.5)])
    def test_steps_match_per_step_oracle(self, omega, t0, mode):
        # Omega of each step from (4, 4) slices of the same generator values,
        # with np.matmul commutators, exponentiated by scipy's expm
        p = HamiltonianParams(1.0, omega)
        basis = solution_basis(p)
        starts = t0 + np.linspace(0.0, 0.45, 10)
        widths = np.linspace(0.002, 0.01, 10)
        M = assemble_dilated(p, D_REF, (starts[:, None] + widths[:, None] * evolve._GL_NODES).ravel(), mode, basis).hh
        u = evolve._magnus_steps(lambda ts: M, starts, widths)
        assert u.shape == (10, 4, 4)
        comm = lambda a, b: a @ b - b @ a
        for k, h in enumerate(widths):
            a1, a2, a3 = (-1j * h * M[3 * k + j] for j in range(3))
            alpha1, alpha2, alpha3 = a2, np.sqrt(15.0) / 3.0 * (a3 - a1), 10.0 / 3.0 * (a3 - 2.0 * a2 + a1)
            c1 = comm(alpha1, alpha2)
            c2 = -comm(alpha1, 2.0 * alpha3 + c1) / 60.0
            omega_k = alpha1 + alpha3 / 12.0 + comm(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0
            assert np.abs(u[k] - expm(omega_k)).max() <= 1e-13
        assert np.abs(u @ u.conj().swapaxes(1, 2) - np.eye(4)).max() <= 1e-13

    @pytest.mark.parametrize("norm", [0.0, 1e-8, 1e-3, 0.3, 0.49, 0.7, 1.5, 3.5, 7.0, 15.0, 30.0, 60.0])
    def test_exponential_matches_expm(self, norm):
        # random anti-Hermitian 4x4 stacks of one Frobenius norm (s = 0 .. 7),
        # and the same steps in one chunk with a step of norm 60, which sets
        # s = 7 for all of them; steps 0 and 6 are rank one, so that their
        # 2-norm is their Frobenius norm and the truncation error the largest
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4, 7)) + 1j * rng.normal(size=(4, 4, 7))
        x = 0.5 * (a - a.conj().swapaxes(0, 1))
        v = a[:, 0, ::6]
        x[..., ::6] = 1j * v[:, None] * v[None].conj()
        x *= np.append(np.full(6, norm), 60.0) / np.linalg.norm(x, axis=(0, 1))
        for stack in (x[..., :6], x):
            u = evolve._expm_skew(stack, float(np.linalg.norm(stack, axis=(0, 1)).max())).transpose(2, 0, 1)
            ref = np.array([expm(stack[..., k]) for k in range(stack.shape[2])])
            assert (np.linalg.norm(u - ref, axis=(1, 2)) <= 1e-13 * np.linalg.norm(ref, axis=(1, 2))).all()
            assert np.abs(u @ u.conj().swapaxes(1, 2) - np.eye(4)).max() <= 1e-13
        if norm == 0.0:
            assert (evolve._expm_skew(x[..., :6], 0.0) == np.eye(4)[..., None]).all()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflowing_exponent_rejected(self):
        # a finite generator whose Omega overflows (1e200 * 1e120), or whose
        # Omega is finite but too large for its norm (1e160 * 1, squared):
        # an IntegrationError that names the first bad step
        for scale, width in ((1e200, 1e120), (1e160, 1.0)):
            gen = lambda ts: np.where(ts >= 1.0, scale, 1.0)[:, None, None] * np.ones((4, 4))
            with pytest.raises(IntegrationError, match=r"from t = 1\.0\b"):
                evolve._magnus_steps(gen, np.array([0.0, 1.0, 2.0]), np.array([0.5, width, width]))

    def test_needs_no_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        traj = simulate_dilated(P, D_REF, np.array([1.0, 0.0]), (0.0, 1.0))
        assert traj.extras["upper_deviation"].max() < 1e-8

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(evolve, "MAX_STEPS", 10)
        with pytest.raises(IntegrationError, match="10 Magnus"):
            simulate_dilated(P, D_REF, np.array([1.0, 0.0]), (0.0, 1.0))

    def test_nonfinite_generator_rejected(self):
        gen = lambda ts: np.full((ts.size, 2, 2), np.inf, dtype=complex)
        with pytest.raises(IntegrationError, match="not finite"):
            evolve._integrate_magnus(gen, np.array([1.0, 0.0], dtype=complex), (0.0, 1.0), EvolutionConfig())

    def test_tiny_rel_tol_is_floored_with_a_warning(self):
        with pytest.warns(UserWarning, match="below 100 eps"):
            traj = simulate_dilated(P, D_REF, np.array([1.0, 0.0]), (0.0, 1.0), EvolutionConfig(rel_tol=1e-300))
        assert traj.extras["upper_deviation"].max() < 1e-10


class TestEfficiency:
    def test_basis_states_at_zero(self):
        assert dilation_efficiency(P, D_REF, np.array([1.0, 0.0]), 0.0) == pytest.approx(1.0 / 3.5, rel=1e-12)
        assert dilation_efficiency(P, D_REF, np.array([0.0, 1.0]), 0.0) == pytest.approx(1.0 / 238.0, rel=1e-12)

    def test_identity_metric_gives_unity(self):
        d_unit = DilationParams(1.0, 1.0)
        for psi in (np.array([1.0, 0.0]), np.array([0.3 + 0.4j, 0.5 - 0.2j])):
            assert dilation_efficiency(P, d_unit, psi, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_bounded_by_one_while_valid(self):
        rng = np.random.default_rng(5)
        for t in (0.5, 2.0, 3.5):
            for _ in range(3):
                raw = rng.normal(size=4)
                psi = raw[:2] + 1j * raw[2:]
                eff = dilation_efficiency(P, D_REF, psi, t)
                assert 0.0 < eff <= 1.0 + 1e-12
