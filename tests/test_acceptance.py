"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one `ACCEPTANCE <n> <PASS|FAIL>` line (run with -s or check
captured output).  Criterion 1 pins the reference constant 3.43 for the
lower coupling bound on [0, 4]; its defining formula max 2/||y0||^2
evaluates to 2.2528 under the same normalization that reproduces every
other pinned constant (237.80, 4.129, 4.633, 1474 and all four breakdown
times), and the product identity
    (max 2/||y0||^2) * (max ||y0||^2) = 2 max ||y0||^2 / min ||y0||^2
is normalization independent, so no rescaling of y0 can reach 3.43 while
keeping 237.80.  The 3.43 reference value is therefore unreachable and
that sub-check fails by design; see the assertion message.
"""

import math
import warnings

import numpy as np
import pytest

from ptdilate.dilation import H4Mode, hermiticity_defect
from ptdilate.evolve import EvolutionConfig, simulate_dilated
from ptdilate.metric import (
    DilationParams,
    approx_bounds_interval,
    breakdown_time,
    eigenvalues,
    eta_evolution_residual,
    metric,
    metric_asymptotics,
    refined_d1_bound,
)
from ptdilate.model import HamiltonianParams
from ptdilate.solutions import Representation, solution_basis, wronskian
from ptdilate.specfun import RayArgument, WhittakerIndex, erfi, hermite_poly, whittaker_w

P = HamiltonianParams(E=1.0, omega=0.5)
D_REF = DilationParams(3.5, 238.0)

BREAKDOWN_CASES = [
    (238.0, 4.0001, 0.002),
    (1474.0, 4.5, 0.05),
    (4.13, 2.003, 0.003),
    (4.634, 2.1003, 0.002),
]


def _report(number, ok, detail):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def breakdowns():
    return {d1: breakdown_time(P, DilationParams(3.5, d1), 5.0) for d1, _, _ in BREAKDOWN_CASES}


def test_criterion_1_threshold_constants():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        d0_min, d1_min = approx_bounds_interval(P, (0.0, 4.0))
    ok_d1 = abs(d1_min - 237.80) <= 0.25
    ok_d0 = abs(d0_min - 3.43) <= 0.01
    _report(
        1,
        ok_d0 and ok_d1,
        f"max 2/||y0||^2 = {d0_min:.4f} (quoted 3.43 +- 0.01), "
        f"max ||y0||^2 = {d1_min:.2f} (quoted 237.80 +- 0.25)",
    )
    assert ok_d1
    assert ok_d0, (
        f"computed max over [0,4] of 2/||y0||^2 is {d0_min:.4f}, not 3.43 +- 0.01; "
        "the companion constant 237.80 and all breakdown times confirm the "
        "normalization, and the scale-free identity 2*max/min rules out any "
        "normalization reaching both quoted values"
    )


def test_criterion_2_breakdown_times(breakdowns):
    results = []
    for d1_sq, expected, tol in BREAKDOWN_CASES:
        t_break = breakdowns[d1_sq]
        results.append(t_break is not None and abs(t_break - expected) <= tol)
    detail = ", ".join(
        f"D1^2={d1:g}: {breakdowns[d1]:.4f} (want {exp} +- {tol})" for d1, exp, tol in BREAKDOWN_CASES
    )
    _report(2, all(results), detail)
    assert all(results)


def test_criterion_3_refined_bound():
    bound = refined_d1_bound(P, 3.5, (0.0, 2.1))
    basis = solution_basis(P)
    y0 = basis.y_pair(2.1)[0]
    n0 = float(np.vdot(y0, y0).real)
    ok = abs(bound - 4.633) <= 0.005 and abs(n0 - 4.129) <= 0.005
    _report(3, ok, f"refined bound = {bound:.4f} (want 4.633), ||y0(2.1)||^2 = {n0:.4f} (want 4.129)")
    assert ok


def test_criterion_4_gram_conservation():
    # metric(...).delta is the basis constant, so Delta is recomputed from the duals
    worst = 0.0
    for t in np.arange(0.0, 4.5 + 1e-9, 1e-2):
        y0, y1 = solution_basis(P).y_pair(float(t))
        delta = np.vdot(y0, y0).real * np.vdot(y1, y1).real - abs(np.vdot(y0, y1)) ** 2
        worst = max(worst, abs(delta - 1.0))
    ok_delta = worst <= 1e-9
    ok_det = True
    for omega, t_hi in ((0.25, 4.0), (0.5, 4.0), (1.0, 2.5)):
        basis = solution_basis(HamiltonianParams(1.0, omega), Representation.WHITTAKER_GENERAL)
        dets = []
        for t in np.linspace(0.3, t_hi, 10):
            y0, y1 = basis.y_pair(float(t))
            dets.append(abs(y0[0] * y1[1] - y0[1] * y1[0]))
        ok_det &= all(abs(v - dets[0]) <= 1e-8 * dets[0] for v in dets)
    _report(4, ok_delta and ok_det, f"max |Delta - 1| = {worst:.2e}; |det| constant across sweep rates: {ok_det}")
    assert ok_delta and ok_det


def test_criterion_5_metric_evolution_law():
    worst = 0.0
    for t in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 3.9):
        scale = float(np.abs(metric(P, D_REF, t).eta).max())
        worst = max(worst, eta_evolution_residual(P, D_REF, t) / scale)
    ok = worst < 1e-6
    _report(5, ok, f"max relative residual of i deta/dt = H^dag eta - eta H: {worst:.2e}")
    assert ok


def test_criterion_6_dilation_equivalence():
    rng = np.random.default_rng(42)
    grid = np.linspace(0.0, 3.9, 14)
    worst_norm = 0.0
    worst_upper = 0.0
    for _ in range(10):
        raw = rng.normal(size=4)
        psi0 = (raw[:2] + 1j * raw[2:]).astype(complex)
        psi0 /= np.linalg.norm(psi0)
        for mode in (H4Mode.HERMITIAN_PART, H4Mode.MIRROR):
            cfg = EvolutionConfig(output_grid=grid)
            traj = simulate_dilated(P, D_REF, psi0, (0.0, 3.9), cfg, mode)
            worst_norm = max(worst_norm, float(np.abs(traj.norms / traj.norms[0] - 1.0).max()))
            worst_upper = max(worst_upper, float(traj.extras["upper_deviation"].max()))
    ok = worst_norm <= 1e-8 and worst_upper <= 1e-6
    _report(6, ok, f"10 random states, both gauges: norm drift {worst_norm:.2e}, upper deviation {worst_upper:.2e}")
    assert ok


def test_criterion_7_ep_smoothness():
    lam_ok = True
    estimates = []
    for h in (1e-2, 1e-3):
        lm = lambda t: eigenvalues(P, D_REF, t)[1]
        estimates.append((lm(2.0 + h) - 2.0 * lm(2.0) + lm(2.0 - h)) / (h * h))
    lam_ok &= abs(estimates[0]) < 1e3 and abs(estimates[0] - estimates[1]) <= 0.01 * abs(estimates[0])
    basis = solution_basis(P)
    comp_ok = True
    for which in (0, 1):
        for comp in (0, 1):
            d2 = []
            for h in (1e-2, 1e-3):
                f = lambda t: basis.x_pair(t)[which][comp]
                d2.append((f(2.0 + h) - 2.0 * f(2.0) + f(2.0 - h)) / (h * h))
            comp_ok &= abs(d2[0]) < 1e3 and abs(d2[0] - d2[1]) <= 0.01 * max(abs(d2[0]), 1e-3)
    flag_ok = True
    for d1_sq, _, _ in BREAKDOWN_CASES:
        d = DilationParams(3.5, d1_sq)
        flags = {eigenvalues(P, d, t)[1] >= 1.0 - 1e-12 for t in (1.999, 2.0, 2.001)}
        flag_ok &= len(flags) == 1
    ok = lam_ok and comp_ok and flag_ok
    _report(7, ok, f"lambda_minus'' at EP = {estimates[1]:.3f}, components smooth: {comp_ok}, no validity flip: {flag_ok}")
    assert ok


def test_criterion_8_asymptotics():
    basis = solution_basis(P, Representation.WHITTAKER_GENERAL)
    lam_p, lam_m = eigenvalues(P, D_REF, 6.0, basis)  # w t^2 = 18, extended precision
    asym_p, asym_m = metric_asymptotics(P, D_REF, 6.0)
    rp, rm = lam_p / asym_p, lam_m / asym_m
    ok = 0.8 <= rp <= 1.2 and 0.8 <= rm <= 1.2
    _report(8, ok, f"exact/asymptotic at w t^2 = 18: lam_plus ratio {rp:.4f}, lam_minus ratio {rm:.4f}")
    assert ok


def test_criterion_9_special_function_identities():
    hermite_ok = True
    for n in range(4):
        for z in (0.5, 1.0, 2.0, 5.0):
            value = whittaker_w(WhittakerIndex(0.25 + n / 2.0), RayArgument.positive(z))
            ref = math.exp(-z / 2.0) * z**0.25 * hermite_poly(n, math.sqrt(z)) / 2.0**n
            hermite_ok &= abs(value - ref) <= max(1e-10 * abs(ref), 1e-12)
    wronskian_ok = True
    for omega, rep, ts in (
        (0.5, Representation.CLOSED_FORM_HALF, (0.5, 1.0, 2.0, 3.0)),
        (0.5, Representation.WHITTAKER_GENERAL, (0.5, 1.0, 2.0, 3.0)),
        (1.0, Representation.WHITTAKER_GENERAL, (0.5, 1.0, 1.5)),
    ):
        basis = solution_basis(HamiltonianParams(1.0, omega), rep)
        values = [wronskian(basis, t) for t in ts]
        wronskian_ok &= all(abs(v - values[0]) <= 1e-8 * abs(values[0]) for v in values)
    erfi_ok = True
    for x in (0.5, 1.0, 2.0):
        deriv = (erfi(x + 1e-6) - erfi(x - 1e-6)) / 2e-6
        erfi_ok &= abs(deriv - math.exp(x * x)) <= 1e-6 * math.exp(x * x)
    ok = hermite_ok and wronskian_ok and erfi_ok
    _report(9, ok, f"Hermite truncation: {hermite_ok}, Wronskian constancy: {wronskian_ok}, erfi derivative: {erfi_ok}")
    assert ok


def test_criterion_10_post_breakdown_defect(breakdowns):
    ok = True
    details = []
    for d1_sq, _, _ in BREAKDOWN_CASES:
        d = DilationParams(3.5, d1_sq)
        t_break = breakdowns[d1_sq]
        before = hermiticity_defect(P, d, t_break - 0.05)
        after = hermiticity_defect(P, d, t_break + 0.05)
        ok &= before < 1e-9 and after > 0.0
        details.append(f"D1^2={d1_sq:g}: before {before:.1e}, after {after:.1e}")
    _report(10, ok, "; ".join(details))
    assert ok
