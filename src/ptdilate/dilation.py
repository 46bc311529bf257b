"""Ancilla coupling tau = sqrt(eta - 1) and the 4x4 dilated Hamiltonian.

tau is the principal square root of A = eta - 1, from one identity for
2x2 matrices (Cayley-Hamilton; Higham, Functions of Matrices, SIAM 2008).
With r_pm = sqrt(lam_pm - 1), the principal complex roots of A's
eigenvalues,

    tau = (A + s 1) / (2d),  s = r_+ r_-,  2d = r_+ + r_-.

While lam_minus >= 1 both roots are real and tau is the Hermitian root.
Past breakdown r_- is imaginary (and r_+ too once lam_plus < 1), and the
same formula gives the principal root, normal but no longer Hermitian.  s
is the product of the roots, not the root of det A = (lam_+ - 1)(lam_- - 1):
that root takes the wrong sign when both eigenvalues of A are negative.
Differentiating tau (2d) = A + s 1, with s^2 = det A and (2d)^2 = tr A + 2 s,
gives

    tau' = (eta' + s' 1 - tau (2d)') / (2d),
    s' = (tr A tr eta' - tr(A eta')) / (2 s),  (2d)' = (tr eta' + 2 s') / (2 (2d)),

everywhere but at lam_minus = 1, where tau is not differentiable.

The dilated generator is assembled from the two exact block conditions
h1 + h2 tau = H and h2^dag + h4 tau = i tau' + tau H; h4 is a gauge choice
(Hermitian part of H, or the mirror choice h4 = [H + (i tau' + tau H) tau]
eta^-1, which equals H + h2^dag tau; eta^-1 = adj(eta) / (lam_+ lam_-)).
Past breakdown h1 picks up a nonzero Hermiticity defect.  `assemble_dilated`
takes a float or a 1-D array of times, as `metric` does; over n times every
block is an (n, ., .) view of a time-last (., ., n) stack, like eta.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidMetricError, NearBreakdownError
from .metric import DilationParams, MetricState, _valid, metric
from .model import HamiltonianParams, hamiltonian
from .solutions import SolutionBasis, _on_time_axis

__all__ = [
    "H4Mode",
    "DilatedHamiltonian",
    "tau_from_metric",
    "tau_derivative",
    "assemble_dilated",
    "hermiticity_defect",
]

TAU_DOT_GUARD = 1e-9        # |lam_minus - 1| below this makes tau' unreliable
H4_HERMITICITY_TOL = 1e-8


class H4Mode(Enum):
    HERMITIAN_PART = "hermitian_part"
    MIRROR = "mirror"   # h4 = [H + (i tau' + tau H) tau] eta^-1


@dataclass
class DilatedHamiltonian:
    """Blocks and assembled 4x4 generator [[h1, h2], [h2^dag, h4]], with
    the tau they were built from; over n times each matrix is an (n, ., .)
    stack and h4_residual is the largest over the times."""

    h1: np.ndarray
    h2: np.ndarray
    h4: np.ndarray
    hh: np.ndarray
    h4_residual: float
    tau: np.ndarray


def _root(ms: MetricState):
    """(eye, A, s, 2d, tau) of the square-root identity, for a state at one
    time or over n times (then eye broadcasts and tau has shape (2, 2, n)).

    s = r_+ r_- and 2d = r_+ + r_- are the product and sum of the principal
    roots r_pm = sqrt(lam_pm - 1 + 0j): complex, and real while
    lam_minus >= 1.  Taking the product of the roots, not the root of
    their product, keeps tau the principal root when lam_plus < 1 as well.
    """
    eye = np.eye(2)[(...,) + (None,) * np.ndim(ms.t)]
    A = ms.eta - eye
    r_plus, r_minus = np.sqrt(ms.lambda_plus - 1.0 + 0j), np.sqrt(ms.lambda_minus - 1.0 + 0j)
    s, two_d = r_plus * r_minus, r_plus + r_minus
    # 2d = 0 only for A = 0, where any divisor will do
    tau = (A + s * eye) / (two_d + (two_d == 0.0))
    return eye, A, s, two_d, tau


def _first_flagged(ms: MetricState, flags) -> tuple:
    """(lambda_minus, t) at the first flagged time of a state at one or n times."""
    k = np.argmax(flags)
    return np.ravel(ms.lambda_minus)[k], np.ravel(ms.t)[k]


def _require_valid(ms: MetricState) -> None:
    invalid = ~_valid(ms.lambda_minus)
    if np.any(invalid):
        lam_m, t = _first_flagged(ms, invalid)
        raise InvalidMetricError(f"lambda_minus = {lam_m} < 1 at t = {t}; no Hermitian root")


def tau_from_metric(ms: MetricState) -> np.ndarray:
    """Hermitian square root of eta - 1; requires lam_minus >= 1.  For a
    state over n times it has shape (2, 2, n)."""
    _require_valid(ms)
    return _root(ms)[-1]


def _tau_dot(ms: MetricState, root) -> np.ndarray:
    near = abs(ms.lambda_minus - 1.0) < TAU_DOT_GUARD
    if np.any(near):
        lam_m, t = _first_flagged(ms, near)
        raise NearBreakdownError(
            f"lambda_minus - 1 = {lam_m - 1.0:.3e} at t = {t}; "
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
    analytic eta', on either side of breakdown."""
    ms = metric(p, d, t, basis)
    return _tau_dot(ms, _root(ms))


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for time-last (m, m, n) stacks, accumulated over the inner
    index, so that no (m, m, m, n) temporary is made."""
    out = a[:, :1] * b[None, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j:j + 1] * b[None, j]
    return out


def _h4_from_pieces(mode, ms, H, g, tau):
    """h4 and its largest relative Hermiticity residual over the time-last
    (2, 2, n) stacks, where g = i tau' + tau H."""
    if mode is H4Mode.HERMITIAN_PART:
        return 0.5 * (H + H.conj().swapaxes(0, 1)), 0.0
    eta = ms.eta   # eta^-1 = adj(eta) / det eta, with det eta = lam_+ lam_-
    eta_inv = np.array([[eta[1, 1], -eta[0, 1]], [-eta[1, 0], eta[0, 0]]]) / (ms.lambda_plus * ms.lambda_minus)
    h4 = _matmul(H + _matmul(g, tau), eta_inv)
    residuals = np.abs(h4 - h4.conj().swapaxes(0, 1)).max(axis=(0, 1)) / np.maximum(1.0, np.abs(h4).max(axis=(0, 1)))
    k = int(np.argmax(residuals))
    if residuals[k] > H4_HERMITICITY_TOL:
        warnings.warn(
            f"mirror h4 deviates from Hermiticity by {residuals[k]:.3e} at t = {ms.t[k]}",
            stacklevel=3,
        )
    return h4, float(residuals[k])


def _assemble(ms: MetricState, mode: H4Mode) -> DilatedHamiltonian:
    """Generator over the 1-D time axis of ms, as (n, ., .) views of
    time-last stacks.  h2^dag = g - h4 tau and h1 = H - h2 tau, where
    g = i tau' + tau H, come straight from the two block conditions; no
    adjoint of tau enters, so the same blocks serve the principal root
    past breakdown."""
    root = _root(ms)
    tau = root[-1]
    H = hamiltonian(ms.params, ms.t).transpose(1, 2, 0)
    g = 1j * _tau_dot(ms, root) + _matmul(tau, H)
    h4, h4_residual = _h4_from_pieces(mode, ms, H, g, tau)
    h2_dag = g - _matmul(h4, tau)
    h2 = h2_dag.conj().swapaxes(0, 1)
    h1 = H - _matmul(h2, tau)
    hh = np.empty((4, 4) + H.shape[2:], dtype=complex)
    hh[:2, :2], hh[:2, 2:], hh[2:, :2], hh[2:, 2:] = h1, h2, h2_dag, h4
    h1, h2, h4, hh, tau = (m.transpose(2, 0, 1) for m in (h1, h2, h4, hh, tau))
    return DilatedHamiltonian(h1=h1, h2=h2, h4=h4, hh=hh, h4_residual=h4_residual, tau=tau)


def assemble_dilated(
    p: HamiltonianParams,
    d: DilationParams,
    t,
    mode: H4Mode = H4Mode.HERMITIAN_PART,
    basis: SolutionBasis | None = None,
) -> DilatedHamiltonian:
    """4x4 generator of the embedded evolution at t, a float or a 1-D
    array of n times (valid metric); hh has shape (4, 4) or (n, 4, 4)."""
    ms = metric(p, d, _on_time_axis(t)[0], basis)
    _require_valid(ms)
    dh = _assemble(ms, mode)
    if np.ndim(t) == 0:
        return DilatedHamiltonian(dh.h1[0], dh.h2[0], dh.h4[0], dh.hh[0], dh.h4_residual, dh.tau[0])
    return dh


def hermiticity_defect(
    p: HamiltonianParams,
    d: DilationParams,
    t: float,
    basis: SolutionBasis | None = None,
) -> float:
    """||h1 - h1^dag||_max at time t, on either side of breakdown.  The h4
    terms cancel in h1 - h1^dag for every Hermitian h4, so the Hermitian
    part of H serves."""
    h1 = _assemble(metric(p, d, _on_time_axis(t)[0], basis), H4Mode.HERMITIAN_PART).h1[0]
    return float(np.abs(h1 - h1.conj().T).max())
