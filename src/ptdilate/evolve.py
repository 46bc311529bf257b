"""Integration of the two-level system, its dual and the dilation.

All three problems are linear, i v' = M(t) v.  `integrate_linear` drives
any of them through an embedded Runge-Kutta pair (scipy's DOP853) with
dense output on a caller-supplied grid; the tests use it as the oracle.
scipy's integrators are imported on its first call, so that no CLI
command pays for loading them.

`simulate_dilated` takes sixth-order Magnus steps over the 4x4 generator,
which is assembled in array passes of `CHUNK_STEPS` steps, three
Gauss-Legendre nodes each (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
(2009)).  Omega is combined in time-last (m, m, n) stacks, and so is each
step's exponential: the Taylor polynomial of the anti-Hermitian part of
Omega, scaled and squared, of the least degree whose truncation error is
below 4e-17 (at most 8 for ||Omega||_F <= 0.044), so every step is unitary to
rounding.  The state crosses blocks of `BLOCK_STEPS` steps in one product.
Step lengths are verified before the output run: the span is cut into
cells no longer than `max_step`, and a cell is halved until the Richardson
estimate of its error, ||two half steps - one step||_F / 63, is within
`rel_tol` times the cell's share of the span.  Unitary steps do not amplify
earlier errors, so these local errors add up to at most `rel_tol` of
||Psi||; cells refine only where the generator is steep, as just before a
breakdown, where tau' grows like 1 / sqrt(lam_minus - 1).  The output run
then crosses each piece between grid points and cell edges in its cell's
verified step.  `abs_tol` is read by `integrate_linear` only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dilation import H4Mode, _matmul, assemble_dilated, tau_from_metric
from .errors import BreakdownError, IntegrationError, ValidationError
from .metric import DilationParams, _abs2, _breakdown_scan, _valid, metric
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
CHUNK_STEPS = 512           # Magnus steps per generator assembly
MAX_STEPS = 10**6           # longest Magnus run the step control may ask for
REL_TOL_FLOOR = 100.0 * np.finfo(float).eps
# Gauss-Legendre nodes on [0, 1] of the sixth-order Magnus step
_GL_NODES = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
_TAYLOR = 1.0 / np.cumprod(np.arange(16.0).clip(1.0))   # 1 / k!, k = 0 .. 15
BLOCK_STEPS = 8             # steps per running product in `_magnus_run`


@dataclass
class EvolutionConfig:
    """Integrator tolerances and the output grid; `abs_tol` is read by
    `integrate_linear` only."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 1e-2
    output_grid: np.ndarray | None = None

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.rel_tol, self.abs_tol, self.max_step)):
            raise ValidationError("tolerances and max_step must be positive and finite")
        if self.output_grid is not None:
            grid = np.asarray(self.output_grid, dtype=float)
            if grid.ndim != 1 or grid.size < 1 or not np.isfinite(grid).all() or np.any(np.diff(grid) <= 0.0):
                raise ValidationError("output_grid must be finite and strictly increasing")
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


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call.  A module-level
    name, so that `integrate_linear` looks it up here at every call."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


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


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _matmul(a, b) - _matmul(b, a)


def _magnus_steps(generator, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Unitary sixth-order Magnus propagators, shape (n, m, m), of the n
    steps [starts, starts + widths] of i v' = M(t) v; generator maps a 1-D
    array of times to the (3n, m, m) Hermitian M, best a view of a time-last
    array.  Each propagator is exp of the anti-Hermitian part of Omega, by
    `_expm_skew` with one scaling for the whole stack; a non-finite Omega
    raises IntegrationError.  The result views a new time-last stack."""
    ts = (starts[:, None] + widths[:, None] * _GL_NODES).ravel()
    M = generator(ts).transpose(1, 2, 0)
    finite = np.isfinite(M).all(axis=(0, 1))
    if not finite.all():
        raise IntegrationError(f"generator is not finite at t = {ts[~finite][0]}")
    # a_k = -i h M(node k), each read once: alpha1 = a2, alpha2 = sqrt(15)/3 (a3 - a1), alpha3 = 10/3 (a3 - 2 a2 + a1)
    w = -1j * widths
    alpha1, alpha3, a3 = M[..., 1::3] * w, M[..., 0::3] * (10.0 / 3.0 * w), M[..., 2::3] * (10.0 / 3.0 * w)
    alpha2 = (a3 - alpha3) * (math.sqrt(15.0) / 10.0)
    alpha3 += a3 - 20.0 / 3.0 * alpha1
    c1 = _commutator(alpha1, alpha2)
    g = _commutator(alpha3 * 2.0 + c1, alpha1 / 60.0)   # alpha2 + c2, c2 = [alpha1, 2 alpha3 + c1] / -60
    g += alpha2
    c1 -= 20.0 * alpha1 + alpha3
    x = _commutator(c1, g)   # 240 Omega = 240 alpha1 + 20 alpha3 + [-20 alpha1 - alpha3 + c1, alpha2 + c2]
    x += 20.0 * alpha3 + 240.0 * alpha1
    x -= x.conj().swapaxes(0, 1)
    x *= 1.0 / 480.0   # the anti-Hermitian part of Omega
    norms = np.sqrt(_abs2(x).sum(axis=(0, 1)))
    finite = np.isfinite(norms)
    if not finite.all():
        raise IntegrationError(f"Magnus exponent is not finite on the step from t = {starts[~finite][0]}")
    return _expm_skew(x, float(norms.max())).transpose(2, 0, 1)


def _expm_skew(x: np.ndarray, norm: float) -> np.ndarray:
    """exp(x) for a time-last (m, m, n) stack whose largest ||x||_F is norm:
    the Taylor polynomial of x / 2^s, r = ||x / 2^s||_F < 1/2, squared s
    times (Moler & Van Loan, SIAM Rev. 45, 3 (2003)), of the least degree q
    whose truncation error bound r^(q+1) / (q+1)! e^r is below 4e-17 (Higham,
    SIMAX 26, 1179 (2005)), by Paterson-Stockmeyer in x^p, p ~ sqrt(q); for
    anti-Hermitian x the result is unitary to rounding."""
    s = math.frexp(norm)[1] + 1 if norm >= 0.5 else 0
    r = math.ldexp(norm, -s)
    q = next(q for q in range(1, 15) if r ** (q + 1) * _TAYLOR[q + 1] * math.exp(r) < 4e-17)
    powers = [x * 2.0**-s]   # x, x^2, .., x^p
    for _ in range(1, round(math.sqrt(q))):
        powers.append(_matmul(powers[-1], powers[0]))
    u, p = 0.0, len(powers)
    for j in range(p * ((q - 1) // p), -1, -p):   # Horner in x^p: x^p times the higher terms, plus terms j + 1 .. j + p
        u = _matmul(powers[-1], u) if np.ndim(u) else u
        for c, xk in zip(_TAYLOR[j + 1:q + 1], powers):
            u += c * xk
    u[np.diag_indices(x.shape[0])] += 1.0
    for _ in range(s):
        u = _matmul(u, u)
    return u


def _magnus_run(generator, psi0: np.ndarray, edges: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """States at the edges, shape (len(edges), m), from psi0 at edges[0],
    crossing [edges[j], edges[j + 1]] in counts[j] equal steps.  A chunk's
    propagators are multiplied up in blocks of `BLOCK_STEPS` steps, and the
    state crosses each block in one product."""
    ends = np.cumsum(counts)   # steps taken on reaching edges[1:]
    states = np.empty((len(edges), psi0.size), dtype=complex)
    states[0] = psi = psi0
    states[1:][ends == 0] = psi0
    for first in range(0, int(ends[-1]), CHUNK_STEPS):
        steps = np.arange(first, min(first + CHUNK_STEPS, int(ends[-1])))
        j = np.searchsorted(ends, steps, side="right")   # interval of each step
        widths = (edges[j + 1] - edges[j]) / counts[j]
        starts = edges[j] + (steps - ends[j] + counts[j]) * widths
        u = _magnus_steps(generator, starts, widths).transpose(1, 2, 0)
        for i in range(1, BLOCK_STEPS):   # u[..., k]: the product of its block's steps up to k
            u[..., i::BLOCK_STEPS] = _matmul(u[..., i::BLOCK_STEPS], u[..., i - 1:-1:BLOCK_STEPS])
        heads = [psi]   # the state entering each block
        for k in range(BLOCK_STEPS, steps.size, BLOCK_STEPS):
            heads.append(u[..., k - 1].dot(heads[-1]))
        trail = (u * np.repeat(np.transpose(heads), BLOCK_STEPS, axis=1)[None, :, :steps.size]).sum(axis=1)
        psi = trail[:, -1]   # trail[:, i]: the state after step first + i
        reached = (ends > first) & (ends <= first + steps.size)
        states[1:][reached] = trail[:, ends[reached] - first - 1].T
    return states


def _richardson(generator, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Error estimate ||fine - coarse||_F / 63 of two half steps across each
    cell [starts, starts + widths], against one step across it."""
    n, halves = starts.size, widths / 2.0
    u = _magnus_steps(generator, np.r_[starts, starts, starts + halves], np.r_[widths, halves, halves]).transpose(1, 2, 0)
    return np.sqrt(_abs2(_matmul(u[..., 2 * n:], u[..., n:2 * n]) - u[..., :n]).sum(axis=(0, 1))) / 63.0


def _verified_cells(generator, t0: float, t1: float, max_step: float, rel_tol: float):
    """(starts, steps) of cells covering [t0, t1], sorted, and the verified
    Magnus step in each.  Cells start no longer than max_step and are halved
    until the Richardson estimate of each cell's half-step error is within
    rel_tol times its share of the span (at least one ulp): the steps are
    unitary, so these local errors add up to at most rel_tol."""
    n = math.ceil((t1 - t0) / max_step)
    starts, widths = np.linspace(t0, t1, n + 1)[:-1], np.full(n, (t1 - t0) / n)
    done_starts, done_steps = [], []
    per_pass = CHUNK_STEPS // 3
    while starts.size:
        if starts.size + sum(map(len, done_starts)) > MAX_STEPS:
            raise IntegrationError(f"rel_tol not met with {MAX_STEPS} Magnus cells on [{t0}, {t1}]")
        est = np.concatenate([
            _richardson(generator, starts[k:k + per_pass], widths[k:k + per_pass])
            for k in range(0, starts.size, per_pass)
        ])
        met = est <= np.maximum(rel_tol * widths / (t1 - t0), np.finfo(float).eps)
        done_starts.append(starts[met])
        done_steps.append(widths[met] / 2.0)
        starts, widths = starts[~met], widths[~met] / 2.0
        starts, widths = np.concatenate([starts, starts + widths]), np.concatenate([widths, widths])
    starts, steps = np.concatenate(done_starts), np.concatenate(done_steps)
    order = np.argsort(starts)
    return starts[order], steps[order]


def _integrate_magnus(
    generator: Callable[[np.ndarray], np.ndarray],
    psi0: np.ndarray,
    span: tuple[float, float],
    cfg: EvolutionConfig,
) -> Trajectory:
    """Solve i v' = M(t) v for a Hermitian M with unitary Magnus-6 steps."""
    grid = _resolve_grid(span, cfg)
    t0, t1 = float(span[0]), float(span[1])
    rel_tol = cfg.rel_tol
    if rel_tol < REL_TOL_FLOOR:
        warnings.warn(f"rel_tol = {rel_tol:g} is below 100 eps; using {REL_TOL_FLOOR:g}", stacklevel=3)
        rel_tol = REL_TOL_FLOOR
    cell_starts, cell_steps = _verified_cells(generator, t0, t1, cfg.max_step, rel_tol)
    # pieces between grid points and cell edges, each inside one cell and
    # crossed in its verified step; a piece of a rounding's length takes none
    # sorted and deduplicated by hand: np.union1d loads numpy.ma on first use
    edges = np.sort(np.concatenate([cell_starts, [t1], grid]))
    edges = edges[np.append(True, edges[1:] != edges[:-1]) & (edges <= grid[-1])]
    cell = np.maximum(np.searchsorted(cell_starts, edges[:-1], side="right") - 1, 0)
    counts = np.ceil(np.diff(edges) / cell_steps[cell] - 1e-9).astype(int)
    states = _magnus_run(generator, psi0, edges, counts)[np.searchsorted(edges, grid)]
    return Trajectory(times=grid.copy(), states=states, norms=np.linalg.norm(states, axis=1))


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
    """Integrate the 4-dim embedded evolution of Psi = (psi, tau psi) in
    unitary Magnus-6 steps.

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
    t_break = _breakdown_scan(d, float(span[0]), float(span[1]), basis)
    if t_break is not None:
        raise BreakdownError(
            f"dilation breaks down at t = {t_break:.6f}, inside the span {span}",
            breakdown_time=t_break,
        )
    tau0 = tau_from_metric(metric(p, d, float(span[0]), basis))
    big_psi0 = np.concatenate([psi0, tau0 @ psi0])

    def generator(ts):
        return assemble_dilated(p, d, ts, mode, basis).hh

    traj = _integrate_magnus(generator, big_psi0, span, cfg or EvolutionConfig())

    psi_ref = propagate_analytic(p, psi0, float(span[0]), traj.times, basis)
    upper, lower = traj.states[:, :2].T, traj.states[:, 2:].T
    ms = metric(p, d, traj.times, basis)
    tau_t = tau_from_metric(ms)
    ref_norm = np.linalg.norm(psi_ref, axis=0)
    up_norm = np.linalg.norm(upper, axis=0)
    traj.fidelity = _abs2((psi_ref.conj() * upper).sum(axis=0)) / (ref_norm**2 * up_norm**2)
    traj.valid = _valid(ms.lambda_minus)
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
