"""Hamiltonian matrix, spectrum phases and the PT symmetry identities."""

import math

import numpy as np
import pytest

from ptdilate.errors import ValidationError
from ptdilate.model import (
    EP_DETECT_TOL,
    HamiltonianParams,
    PhaseLabel,
    SIGMA_X,
    hamiltonian,
    instantaneous_spectrum,
)


def test_omega_must_be_positive():
    with pytest.raises(ValidationError):
        HamiltonianParams(E=1.0, omega=0.0)
    with pytest.raises(ValidationError):
        HamiltonianParams(E=1.0, omega=-0.5)


@pytest.mark.parametrize(
    "E, omega, t, expected",
    [
        (1.0, 0.5, 0.0, [[1, 1], [1, 1]]),
        (0.0, 0.5, 2.0, [[1j, 1], [1, -1j]]),
        (1.0, 1.0, 3.0, [[1 + 3j, 1], [1, 1 - 3j]]),
    ],
)
def test_hamiltonian_entries(E, omega, t, expected):
    H = hamiltonian(HamiltonianParams(E, omega), t)
    np.testing.assert_allclose(H, np.array(expected, dtype=complex), atol=0)


@pytest.mark.parametrize("E", [0.0, 1.0, -2.5])
@pytest.mark.parametrize("t", [0.0, 0.3, 2.0, 17.0])
def test_trace_and_symmetry_exact(E, t):
    H = hamiltonian(HamiltonianParams(E, 0.7), t)
    assert H[0, 0] + H[1, 1] == 2.0 * E
    assert H[0, 1] == H[1, 0]


def test_spectrum_unbroken_ep_broken():
    p = HamiltonianParams(1.0, 0.5)
    s0 = instantaneous_spectrum(p, 0.0)
    assert s0.phase is PhaseLabel.UNBROKEN
    assert s0.lam_plus == pytest.approx(2.0)
    assert s0.lam_minus == pytest.approx(0.0)

    s2 = instantaneous_spectrum(p, 2.0)
    assert s2.phase is PhaseLabel.EP
    assert s2.lam_plus == s2.lam_minus == pytest.approx(1.0)

    s4 = instantaneous_spectrum(p, 4.0)
    assert s4.phase is PhaseLabel.BROKEN
    assert s4.lam_plus == pytest.approx(1.0 + 1j * math.sqrt(3.0))
    assert s4.lam_minus == pytest.approx(1.0 - 1j * math.sqrt(3.0))


def _spectrum_by_cases(p, t):
    """The spectrum at one float t, case by case in Python complex arithmetic."""
    s = 1.0 - (p.omega * t) * (p.omega * t)
    if abs(s) < EP_DETECT_TOL:
        return complex(p.E), complex(p.E), PhaseLabel.EP
    if s > 0.0:
        return complex(p.E + math.sqrt(s)), complex(p.E - math.sqrt(s)), PhaseLabel.UNBROKEN
    root = 1j * math.sqrt(-s)
    return p.E + root, p.E - root, PhaseLabel.BROKEN


@pytest.mark.parametrize("energy", [1.0, 0.0, -0.0, -1.5])
@pytest.mark.parametrize("omega", [0.37, 0.5, 1.0])
def test_spectrum_array_equals_cases_bitwise(energy, omega):
    # zeros included: (sign, value) of each part, as a CSV cell would show it
    def parts(z):
        return [(math.copysign(1.0, v), v) for v in (z.real, z.imag)]

    p = HamiltonianParams(energy, omega)
    t_ep = 1.0 / omega
    ts = np.concatenate([np.linspace(0.0, 4.0, 801), [t_ep, t_ep * (1.0 + 1e-13), t_ep * (1.0 - 1e-13)]])
    spectrum = instantaneous_spectrum(p, ts)
    for i, t in enumerate(ts):
        lam_p, lam_m, label = _spectrum_by_cases(p, float(t))
        scalar = instantaneous_spectrum(p, float(t))
        assert type(scalar.lam_plus) is complex and scalar.phase is label
        assert parts(scalar.lam_plus) == parts(lam_p) == parts(complex(spectrum.lam_plus[i]))
        assert parts(scalar.lam_minus) == parts(lam_m) == parts(complex(spectrum.lam_minus[i]))
        assert spectrum.phase[i] == label.value


@pytest.mark.parametrize("omega", [0.25, 0.5, 1.0, 2.0])
def test_phase_flips_once(omega):
    p = HamiltonianParams(1.0, omega)
    t_ep = 1.0 / omega   # the exceptional point, w t = 1
    ts = np.linspace(0.0, 2.0 * t_ep, 4001)
    labels = [instantaneous_spectrum(p, float(t)).phase for t in ts]
    assert labels[0] is PhaseLabel.UNBROKEN
    assert labels[-1] is PhaseLabel.BROKEN
    first_broken = labels.index(PhaseLabel.BROKEN)
    # exactly one change on the ray: everything before the first broken point
    # is unbroken (or the EP itself), everything after stays broken
    assert all(l in (PhaseLabel.UNBROKEN, PhaseLabel.EP) for l in labels[:first_broken])
    assert all(l is PhaseLabel.BROKEN for l in labels[first_broken:])
    for t, label in zip(ts, labels):
        if label is PhaseLabel.UNBROKEN:
            assert t < t_ep
        elif label is PhaseLabel.BROKEN:
            assert t > t_ep


@pytest.mark.parametrize(
    "E, omega, t",
    [(1.0, 0.5, 1.7), (0.0, 1.0, 0.3), (2.0, 0.5, 3.0), (1.0, 0.5, 2.0), (3.0, 2.0, 0.1)],
)
def test_symmetry_residuals(E, omega, t):
    # PT symmetry (P = sigma_x, T = complex conjugation): sigma_x H* sigma_x = H;
    # sigma_x-pseudo-Hermiticity: sigma_x H = H^dag sigma_x
    H = hamiltonian(HamiltonianParams(E, omega), t)
    assert np.abs(SIGMA_X @ H.conj() @ SIGMA_X - H).max() <= 1e-14
    assert np.abs(SIGMA_X @ H - H.conj().T @ SIGMA_X).max() <= 1e-14
