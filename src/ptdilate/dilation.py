"""Ancilla coupling tau = sqrt(eta - 1) and the 4x4 dilated Hamiltonian.

While lam_minus >= 1, A = eta - 1 is positive semidefinite and its
Hermitian square root is one identity (Cayley-Hamilton for 2x2 matrices,
Higham, Functions of Matrices, SIAM 2008),

    tau = (A + s 1) / (2d),  s = sqrt(det A),  2d = sqrt(tr A + 2 s),

with s taken as sqrt((lam_plus - 1)(lam_minus - 1)), stable where det A
cancels.  Differentiating tau (2d) = A + s 1 gives

    tau' = (eta' + s' 1 - tau (2d)') / (2d),
    s' = (tr A tr eta' - tr(A eta')) / (2 s),  (2d)' = (tr eta' + 2 s') / (2 (2d)).

The dilated generator is assembled from the two exact block conditions
h1 + h2 tau = H and h2^dag + h4 tau = i tau' + tau H; h4 is a gauge choice
(Hermitian part of H, or the mirror choice h4 = [H + (i tau' + tau H) tau]
eta^-1, which equals H + h2^dag tau).  Past breakdown the principal square
root is no longer Hermitian and h1 picks up a nonzero Hermiticity defect.
"""

from __future__ import annotations

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
    """Hermitian tau = [[d + c, a - i b], [a + i b, d - c]] with its reals."""

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


def _root(ms: MetricState):
    """(eye, A, s, 2d, tau) of the square-root identity, for a state at one
    time or over n times (then eye broadcasts and tau has shape (2, 2, n))."""
    eye = np.eye(2)[(...,) + (None,) * np.ndim(ms.t)]
    A = ms.eta - eye
    s = np.sqrt(np.maximum((ms.lambda_plus - 1.0) * (ms.lambda_minus - 1.0), 0.0))
    two_d = np.sqrt(np.maximum(A[0, 0].real + A[1, 1].real + 2.0 * s, 0.0))
    # 2d = 0 only for A = 0, where any divisor will do
    tau = (A + s * eye) / (two_d + (two_d == 0.0))
    return eye, A, s, two_d, tau


def _require_valid(ms: MetricState) -> None:
    invalid = ms.lambda_minus < 1.0 - VALIDITY_TOL
    if np.any(invalid):
        k = np.argmax(invalid)
        lam_m, t = np.ravel(ms.lambda_minus)[k], np.ravel(ms.t)[k]
        raise InvalidMetricError(f"lambda_minus = {lam_m} < 1 at t = {t}; no Hermitian root")


def _decomp(tau: np.ndarray) -> TauDecomp:
    diag_sum, diag_diff = tau[0, 0].real + tau[1, 1].real, tau[0, 0].real - tau[1, 1].real
    return TauDecomp(tau[1, 0].real, tau[1, 0].imag, diag_diff / 2.0, diag_sum / 2.0, tau)


def tau_from_metric(ms: MetricState) -> TauDecomp:
    """Hermitian square root of eta - 1; requires lam_minus >= 1.  For a
    state over n times, a, b, c, d are arrays and tau has shape (2, 2, n)."""
    _require_valid(ms)
    return _decomp(_root(ms)[-1])


def _tau_dot(ms: MetricState, root) -> np.ndarray:
    # the guard comes first, so tau_derivative raises NearBreakdownError on
    # both sides of the breakdown point
    if ms.lambda_minus - 1.0 < TAU_DOT_GUARD:
        raise NearBreakdownError(
            f"lambda_minus - 1 = {ms.lambda_minus - 1.0:.3e} at t = {ms.t}; "
            "the square root is not differentiable at the breakdown point"
        )
    eye, A, s, two_d, tau = root
    ed = ms.eta_dot
    tr_ed = ed[0, 0].real + ed[1, 1].real
    tr_a_ed = (A * ed.swapaxes(0, 1)).sum(axis=(0, 1)).real
    s_dot = ((A[0, 0].real + A[1, 1].real) * tr_ed - tr_a_ed) / (2.0 * s)
    two_d_dot = (tr_ed + 2.0 * s_dot) / (2.0 * two_d)
    return (ed + s_dot * eye - tau * two_d_dot) / two_d


def tau_derivative(
    p: HamiltonianParams,
    d: DilationParams,
    t: float,
    basis: SolutionBasis | None = None,
) -> np.ndarray:
    """d tau / dt from the derivative of tau (2d) = A + s 1 and the
    analytic eta'."""
    ms = metric(p, d, t, basis)
    return _tau_dot(ms, _root(ms))


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
    """h2^dag = i tau' + tau H - h4 tau and h1 = H - h2 tau, straight from
    the two block conditions; no adjoint of tau enters, so the same blocks
    serve the principal root past breakdown."""
    h2_dag = 1j * tau_dot + tau @ H - h4 @ tau
    h2 = h2_dag.conj().T
    h1 = H - h2 @ tau
    hh = np.empty((4, 4), dtype=complex)
    hh[:2, :2], hh[:2, 2:], hh[2:, :2], hh[2:, 2:] = h1, h2, h2_dag, h4
    return h1, h2, hh


def _assemble(ms: MetricState, mode: H4Mode) -> DilatedHamiltonian:
    _require_valid(ms)
    root = _root(ms)
    td = _decomp(root[-1])
    tau_dot = _tau_dot(ms, root)
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


def post_breakdown_tau(
    ms: MetricState, basis: SolutionBasis | None = None
) -> tuple[np.ndarray, float]:
    """Principal root of eta - 1 past breakdown plus the h1 defect it causes.

    The defect is ||h1 - h1^dag||_max with h4 fixed to the Hermitian part
    of H (the defect does not depend on any Hermitian h4 choice); tau' is
    a central finite difference of the principal root, on `basis`, which
    must be the basis `ms` was computed on.
    """
    if ms.lambda_minus >= 1.0 - VALIDITY_TOL:
        raise ValidationError(
            f"lambda_minus = {ms.lambda_minus} >= 1 at t = {ms.t}; use tau_from_metric"
        )
    eye = np.eye(2)
    tau = principal_sqrt(ms.eta - eye)
    h = 1e-6 * max(1.0, abs(ms.t))
    tau_plus = principal_sqrt(metric(ms.params, ms.dparams, ms.t + h, basis).eta - eye)
    tau_minus = principal_sqrt(metric(ms.params, ms.dparams, ms.t - h, basis).eta - eye)
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
        return post_breakdown_tau(ms, basis)[1]
    h1 = _assemble(ms, mode).h1
    return float(np.abs(h1 - h1.conj().T).max())
