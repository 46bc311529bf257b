"""Adaptive integration of the two-level system, its dual and the dilation.

All three problems are linear, i v' = M(t) v, and are driven through one
embedded Runge-Kutta front end (scipy's DOP853 pair) with dense output on
a caller-supplied grid.  The generator of the 4x4 run is assembled lazily
at whatever off-grid times the step controller asks for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .dilation import H4Mode, assemble_dilated, tau_from_metric
from .errors import BreakdownError, IntegrationError, ValidationError
from .metric import VALIDITY_TOL, DilationParams, _abs2, _breakdown_cached, metric
from .model import HamiltonianParams
from .solutions import SolutionBasis, _basis_for

__all__ = [
    "EvolutionConfig",
    "Trajectory",
    "integrate_linear",
    "simulate_dilated",
    "propagate_analytic",
    "dilation_efficiency",
]

DEFAULT_GRID_POINTS = 201


@dataclass
class EvolutionConfig:
    """Integrator tolerances and the dense-output grid."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 1e-2
    output_grid: np.ndarray | None = None

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0 and self.max_step > 0.0):
            raise ValidationError("tolerances and max_step must be positive")
        if self.output_grid is not None:
            grid = np.asarray(self.output_grid, dtype=float)
            if grid.ndim != 1 or grid.size < 1 or np.any(np.diff(grid) <= 0.0):
                raise ValidationError("output_grid must be strictly increasing")
            self.output_grid = grid


@dataclass
class Trajectory:
    """Sampled states with per-sample diagnostics."""

    times: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    fidelity: np.ndarray | None = None
    valid: np.ndarray | None = None
    extras: dict = field(default_factory=dict)


def _resolve_grid(span, cfg):
    t0, t1 = float(span[0]), float(span[1])
    if not t1 > t0:
        raise ValidationError(f"span must satisfy t0 < t1, got {span}")
    if cfg.output_grid is None:
        return np.linspace(t0, t1, DEFAULT_GRID_POINTS)
    grid = cfg.output_grid
    if grid[0] < t0 - 1e-12 or grid[-1] > t1 + 1e-12:
        raise ValidationError("output_grid must lie inside the span")
    return grid


def integrate_linear(
    generator: Callable[[float], np.ndarray],
    psi0: np.ndarray,
    span: tuple[float, float],
    cfg: EvolutionConfig | None = None,
) -> Trajectory:
    """Solve i v' = M(t) v with an embedded adaptive Runge-Kutta pair."""
    cfg = cfg or EvolutionConfig()
    grid = _resolve_grid(span, cfg)
    psi0 = np.asarray(psi0, dtype=complex)

    def rhs(t, y):
        M = np.asarray(generator(t), dtype=complex)
        if not np.isfinite(M).all():
            raise IntegrationError(f"generator is not finite at t = {t}")
        return -1j * (M @ y)

    sol = solve_ivp(
        rhs,
        (float(span[0]), float(span[1])),
        psi0,
        method="DOP853",
        t_eval=grid,
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        max_step=cfg.max_step,
    )
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")
    states = sol.y.T.copy()
    norms = np.linalg.norm(states, axis=1)
    return Trajectory(times=grid.copy(), states=states, norms=norms)


def propagate_analytic(
    p: HamiltonianParams,
    psi0: np.ndarray,
    t0: float,
    t,
    basis: SolutionBasis | None = None,
) -> np.ndarray:
    """psi(t) from the basis combination matching psi0 at t0; t is a float
    or a 1-D array of n times, psi has shape (2,) or (2, n)."""
    basis = _basis_for(p, basis)
    c0, c1 = np.linalg.solve(np.column_stack(basis.x_pair(t0)), np.asarray(psi0, dtype=complex))
    x0, x1 = basis.x_pair(t)
    return c0 * x0 + c1 * x1


def simulate_dilated(
    p: HamiltonianParams,
    d: DilationParams,
    psi0: np.ndarray,
    span: tuple[float, float],
    cfg: EvolutionConfig | None = None,
    mode: H4Mode = H4Mode.HERMITIAN_PART,
    basis: SolutionBasis | None = None,
) -> Trajectory:
    """Integrate the 4-dim embedded evolution of Psi = (psi, tau psi).

    The initial lower component uses the exact tau at span start.  Raises
    BreakdownError (with the computed time attached) if the dilation fails
    inside the span (t0, t1], in the representation of `basis`, and
    InvalidMetricError if it is invalid at t0.  Diagnostics: norm,
    fidelity of the upper component against the analytic psi(t), validity
    flag, and in `extras`, one entry per sample:

    - "psi_ref": the analytic psi(t), shape (n, 2);
    - "efficiency": <psi|psi> / <psi|eta|psi> of the analytic psi(t);
    - "lower_consistency": ||Psi_low - tau Psi_up||;
    - "upper_deviation": ||Psi_up - psi|| / ||psi||.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (2,) or np.linalg.norm(psi0) == 0.0:
        raise ValidationError("psi0 must be a nonzero 2-dim complex vector")
    basis = _basis_for(p, basis)
    t_break = _breakdown_cached(p, d, float(span[0]), float(span[1]), basis)
    if t_break is not None:
        raise BreakdownError(
            f"dilation breaks down at t = {t_break:.6f}, inside the span {span}",
            breakdown_time=t_break,
        )
    tau0 = tau_from_metric(metric(p, d, float(span[0]), basis))
    big_psi0 = np.concatenate([psi0, tau0 @ psi0])

    def generator(t):
        return assemble_dilated(p, d, t, mode, basis).hh

    traj = integrate_linear(generator, big_psi0, span, cfg)

    psi_ref = propagate_analytic(p, psi0, float(span[0]), traj.times, basis)
    upper, lower = traj.states[:, :2].T, traj.states[:, 2:].T
    ms = metric(p, d, traj.times, basis)
    tau_t = tau_from_metric(ms)
    ref_norm = np.linalg.norm(psi_ref, axis=0)
    up_norm = np.linalg.norm(upper, axis=0)
    traj.fidelity = _abs2((psi_ref.conj() * upper).sum(axis=0)) / (ref_norm**2 * up_norm**2)
    traj.valid = ms.lambda_minus >= 1.0 - VALIDITY_TOL
    traj.extras["psi_ref"] = psi_ref.T
    traj.extras["efficiency"] = _efficiency(psi_ref, ms.eta)
    traj.extras["lower_consistency"] = np.linalg.norm(lower - _apply(tau_t, upper), axis=0)
    traj.extras["upper_deviation"] = np.linalg.norm(upper - psi_ref, axis=0) / ref_norm
    return traj


def _apply(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """matrix @ v for 2x2 matrices and 2-vectors with an optional trailing time axis."""
    return (matrix * v[None]).sum(axis=1)


def _eta_norm(psi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """<psi|eta|psi>, with an optional trailing time axis."""
    return (psi.conj() * _apply(eta, psi)).sum(axis=0).real


def _efficiency(psi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    return _abs2(psi).sum(axis=0) / _eta_norm(psi, eta)


def dilation_efficiency(
    p: HamiltonianParams,
    d: DilationParams,
    psi: np.ndarray,
    t: float,
    basis: SolutionBasis | None = None,
) -> float:
    """<psi|psi> / <psi|eta(t)|psi>, in (0, 1] while the dilation is valid."""
    return _efficiency(np.asarray(psi, dtype=complex), metric(p, d, t, basis).eta)
