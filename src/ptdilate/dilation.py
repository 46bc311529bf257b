"""Ancilla coupling tau = sqrt(eta - 1) and the 4x4 dilated Hamiltonian.

While lam_minus >= 1 the Hermitian square root exists and is parametrized
by four reals through the entries of eta - 1,

    tau = [[d + c, a - i b], [a + i b, d - c]],
    tau^2 = [[W + Z, X - i Y], [X + i Y, W - Z]],
    d = sqrt((W + S) / 2),  a = X/(2d),  b = Y/(2d),  c = Z/(2d),
    S = sqrt(W^2 - X^2 - Y^2 - Z^2) = sqrt((lam_plus - 1)(lam_minus - 1)).

The dilated generator is assembled from the two exact block conditions
h1 + h2 tau = H and h2^dag + h4 tau = i tau' + tau H; h4 is a gauge choice
(Hermitian part of H, or the mirror choice h4 = [H + (i tau' + tau H) tau]
eta^-1, which equals H + h2^dag tau).  Past breakdown the principal square
root is no longer Hermitian and h1 picks up a nonzero Hermiticity defect.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidMetricError, NearBreakdownError, ValidationError
from .metric import VALIDITY_TOL, DilationParams, MetricState, metric
from .model import HamiltonianParams, hamiltonian
from .solutions import SolutionBasis

__all__ = [
    "TauDecomp",
    "H4Mode",
    "DilatedHamiltonian",
    "tau_entries",
    "tau_dot_entries",
    "tau_from_metric",
    "tau_derivative",
    "h4_select",
    "assemble_dilated",
    "principal_sqrt",
    "post_breakdown_tau",
    "hermiticity_defect",
]

TAU_DOT_GUARD = 1e-9        # lam_minus - 1 below this makes tau' unreliable
H4_HERMITICITY_TOL = 1e-8


@dataclass(frozen=True)
class TauDecomp:
    """Hermitian tau with its real parametrization (a, b, c, d)."""

    a: float
    b: float
    c: float
    d: float
    tau: np.ndarray


class H4Mode(Enum):
    HERMITIAN_PART = "hermitian_part"
    MIRROR = "mirror"   # h4 = [H + (i tau' + tau H) tau] eta^-1


@dataclass
class DilatedHamiltonian:
    """Blocks and assembled 4x4 generator [[h1, h2], [h2^dag, h4]], with
    the tau they were built from."""

    h1: np.ndarray
    h2: np.ndarray
    h4: np.ndarray
    hh: np.ndarray
    h4_mode: H4Mode
    h4_residual: float
    tau: TauDecomp


def _hermitian_from(a: float, b: float, c: float, d: float) -> np.ndarray:
    return np.array(
        [[d + c, a - 1j * b], [a + 1j * b, d - c]],
        dtype=complex,
    )


def _abcd(entries, S):
    """(a, b, c, d) from the entries (X, Y, Z, W) of tau^2 and its S."""
    X, Y, Z, W = entries
    d = np.sqrt(np.maximum((W + S) / 2.0, 0.0))
    # d = 0 only for tau^2 = 0, where X = Y = Z = 0 and any divisor will do
    two_d = 2.0 * d + (d == 0.0)
    return X / two_d, Y / two_d, Z / two_d, d


def _abcd_rates(entries, rates, S):
    """(a', b', c', d') by the chain rule through (X, Y, Z, W) and S > 0."""
    X, Y, Z, W = entries
    Xd, Yd, Zd, Wd = rates
    a, b, c, d = _abcd(entries, S)
    Sd = (W * Wd - X * Xd - Y * Yd - Z * Zd) / S
    dd = (Wd + Sd) / (4.0 * d)
    ad = (Xd - 2.0 * a * dd) / (2.0 * d)
    bd = (Yd - 2.0 * b * dd) / (2.0 * d)
    cd = (Zd - 2.0 * c * dd) / (2.0 * d)
    return ad, bd, cd, dd


def _s_from_entries(entries) -> float:
    X, Y, Z, W = entries
    return math.sqrt(max(W * W - X * X - Y * Y - Z * Z, 0.0))


def _s_from_state(ms: MetricState) -> float:
    # the eigenvalue form is stable when W^2 nearly cancels against X^2+Y^2+Z^2
    return np.sqrt(np.maximum((ms.lambda_plus - 1.0) * (ms.lambda_minus - 1.0), 0.0))


def tau_entries(X: float, Y: float, Z: float, W: float) -> tuple[float, float, float, float]:
    """(a, b, c, d) from the entries of a positive semidefinite tau^2."""
    entries = (X, Y, Z, W)
    return _abcd(entries, _s_from_entries(entries))


def tau_dot_entries(
    entries: tuple[float, float, float, float],
    rates: tuple[float, float, float, float],
) -> tuple[float, float, float, float]:
    """(a', b', c', d') from (X, Y, Z, W) and their time derivatives."""
    S = _s_from_entries(entries)
    if S <= 0.0:
        raise NearBreakdownError("tau derivative undefined where (eta - 1) is singular")
    return _abcd_rates(entries, rates, S)


def tau_from_metric(ms: MetricState) -> TauDecomp:
    """Hermitian square root of eta - 1; requires lam_minus >= 1.  For a
    state over n times, a, b, c, d are arrays and tau has shape (2, 2, n)."""
    invalid = ms.lambda_minus < 1.0 - VALIDITY_TOL
    if invalid.any():
        k = np.argmax(invalid)
        lam_m, t = np.ravel(ms.lambda_minus)[k], np.ravel(ms.t)[k]
        raise InvalidMetricError(f"lambda_minus = {lam_m} < 1 at t = {t}; no Hermitian root")
    abcd = _abcd((ms.X, ms.Y, ms.Z, ms.W), _s_from_state(ms))
    return TauDecomp(*abcd, _hermitian_from(*abcd))


def _tau_dot_from_state(ms: MetricState) -> np.ndarray:
    # the guard comes first, so tau_derivative raises NearBreakdownError on
    # both sides of the breakdown point
    if ms.lambda_minus - 1.0 < TAU_DOT_GUARD:
        raise NearBreakdownError(
            f"lambda_minus - 1 = {ms.lambda_minus - 1.0:.3e} at t = {ms.t}; "
            "the square root is not differentiable at the breakdown point"
        )
    ed = ms.eta_dot
    rates = (
        float(ed[1, 0].real),
        float(ed[1, 0].imag),
        float((ed[0, 0].real - ed[1, 1].real) / 2.0),
        float((ed[0, 0].real + ed[1, 1].real) / 2.0),
    )
    return _hermitian_from(*_abcd_rates((ms.X, ms.Y, ms.Z, ms.W), rates, _s_from_state(ms)))


def tau_derivative(
    p: HamiltonianParams,
    d: DilationParams,
    t: float,
    basis: SolutionBasis | None = None,
) -> np.ndarray:
    """d tau / dt by the chain rule through (X, Y, Z, W) and their rates."""
    return _tau_dot_from_state(metric(p, d, t, basis))


def _h4_from_pieces(mode, H, eta, tau, tau_dot):
    if mode is H4Mode.HERMITIAN_PART:
        return 0.5 * (H + H.conj().T), 0.0
    h4 = (H + (1j * tau_dot + tau @ H) @ tau) @ np.linalg.inv(eta)
    residual = float(np.abs(h4 - h4.conj().T).max() / max(1.0, np.abs(h4).max()))
    if residual > H4_HERMITICITY_TOL:
        warnings.warn(
            f"mirror h4 deviates from Hermiticity by {residual:.3e} at this point",
            stacklevel=2,
        )
    return h4, residual


def h4_select(
    mode: H4Mode,
    p: HamiltonianParams,
    d: DilationParams,
    t: float,
    basis: SolutionBasis | None = None,
) -> tuple[np.ndarray, float]:
    """Ancilla block for the chosen gauge, with its Hermiticity residual."""
    if mode is H4Mode.HERMITIAN_PART:
        return _h4_from_pieces(mode, hamiltonian(p, t), None, None, None)
    dh = assemble_dilated(p, d, t, mode, basis)
    return dh.h4, dh.h4_residual


def _blocks(H, tau, tau_dot, h4):
    H_h = H.conj().T
    tau_h = tau.conj().T
    tau_dot_h = tau_dot.conj().T
    tau_h_h4 = tau_h @ h4
    h2 = -1j * tau_dot_h + H_h @ tau_h - tau_h_h4
    h1 = H + 1j * (tau_dot_h @ tau) - H_h @ (tau_h @ tau) + tau_h_h4 @ tau
    hh = np.empty((4, 4), dtype=complex)
    hh[:2, :2], hh[:2, 2:], hh[2:, :2], hh[2:, 2:] = h1, h2, h2.conj().T, h4
    return h1, h2, hh


def _assemble(ms: MetricState, mode: H4Mode) -> DilatedHamiltonian:
    td = tau_from_metric(ms)
    tau_dot = _tau_dot_from_state(ms)
    H = hamiltonian(ms.params, ms.t)
    h4, h4_residual = _h4_from_pieces(mode, H, ms.eta, td.tau, tau_dot)
    h1, h2, hh = _blocks(H, td.tau, tau_dot, h4)
    return DilatedHamiltonian(
        h1=h1, h2=h2, h4=h4, hh=hh, h4_mode=mode, h4_residual=h4_residual, tau=td
    )


def assemble_dilated(
    p: HamiltonianParams,
    d: DilationParams,
    t: float,
    mode: H4Mode = H4Mode.HERMITIAN_PART,
    basis: SolutionBasis | None = None,
) -> DilatedHamiltonian:
    """4x4 generator of the embedded evolution at time t (valid metric)."""
    return _assemble(metric(p, d, t, basis), mode)


def principal_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian 2x2, indefinite allowed.

    Negative eigenvalues map to +i sqrt(|.|), so the result is normal but
    not Hermitian once the matrix is indefinite.
    """
    w, V = np.linalg.eigh(matrix)
    roots = np.sqrt(w.astype(complex))
    return (V * roots) @ V.conj().T


def post_breakdown_tau(ms: MetricState) -> tuple[np.ndarray, float]:
    """Principal root of eta - 1 past breakdown plus the h1 defect it causes.

    The defect is ||h1 - h1^dag||_max with h4 fixed to the Hermitian part
    of H (the defect does not depend on any Hermitian h4 choice); tau' is
    a central finite difference of the principal root.
    """
    if ms.lambda_minus >= 1.0 - VALIDITY_TOL:
        raise ValidationError(
            f"lambda_minus = {ms.lambda_minus} >= 1 at t = {ms.t}; use tau_from_metric"
        )
    eye = np.eye(2)
    tau = principal_sqrt(ms.eta - eye)
    h = 1e-6 * max(1.0, abs(ms.t))
    tau_plus = principal_sqrt(metric(ms.params, ms.dparams, ms.t + h).eta - eye)
    tau_minus = principal_sqrt(metric(ms.params, ms.dparams, ms.t - h).eta - eye)
    tau_dot = (tau_plus - tau_minus) / (2.0 * h)
    H = hamiltonian(ms.params, ms.t)
    h4 = 0.5 * (H + H.conj().T)
    h1, _, _ = _blocks(H, tau, tau_dot, h4)
    defect = float(np.abs(h1 - h1.conj().T).max())
    return tau, defect


def hermiticity_defect(
    p: HamiltonianParams,
    d: DilationParams,
    t: float,
    mode: H4Mode = H4Mode.HERMITIAN_PART,
    basis: SolutionBasis | None = None,
) -> float:
    """||h1 - h1^dag||_max at time t, on either side of breakdown."""
    ms = metric(p, d, t, basis)
    if ms.lambda_minus < 1.0 - VALIDITY_TOL:
        return post_breakdown_tau(ms)[1]
    h1 = _assemble(ms, mode).h1
    return float(np.abs(h1 - h1.conj().T).max())
