"""End-to-end CLI checks: files, exit codes, determinism."""

import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptdilate.cli import _CSV_BLOCK_ROWS, MAX_GRID_POINTS, Scenario, _e_cells, _write_csv, main
from ptdilate.dilation import tau_from_metric
from ptdilate.errors import OverflowRangeError, ValidationError
from ptdilate.evolve import dilation_efficiency, propagate_analytic
from ptdilate.metric import (
    REFINE_POINTS,
    DilationParams,
    approx_bounds_interval,
    breakdown_time,
    eigenvalues,
    equal_d_bound,
    metric,
    refined_d1_bound,
)
from ptdilate.model import HamiltonianParams, PhaseLabel, instantaneous_spectrum
from ptdilate.solutions import SolutionBasis, _whittaker_knots


def _write_scenario(path, **overrides):
    payload = {
        "E": 1.0,
        "omega": 0.5,
        "d0_sq": 3.5,
        "d1_sq": 238.0,
        "t_start": 0.0,
        "t_end": 4.0,
        "grid_step": 1e-3,
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestScenario:
    def test_defaults_are_valid(self):
        scn = Scenario().validate()
        assert scn.omega == 0.5 and scn.d1_sq == 238.0

    def test_unknown_key_rejected(self, tmp_path):
        path = _write_scenario(tmp_path / "s.json", dd0=1.0)
        with pytest.raises(Exception):
            Scenario.from_file(path)

    def test_unknown_tolerance_key_rejected(self, tmp_path):
        path = _write_scenario(tmp_path / "s.json", tolerances={"rtol": 1e-8})
        with pytest.raises(Exception):
            Scenario.from_file(path)

    @pytest.mark.parametrize(
        "overrides, flags",
        [
            ({"grid_step": math.nan}, []),
            ({"E": "x"}, []),
            ({"d1_sq": math.nan}, []),
            ({"t_end": math.inf}, []),
            ({"omega": 10**400}, []),
            ({"initial_state": [math.nan, 0, 0, 0]}, []),
            ({"initial_state": "ab"}, []),
            ({"initial_state": 5}, []),
            ({"tolerances": {"rel_tol": "x"}}, []),
            ({"tolerances": {"abs_tol": math.nan}}, []),
            ({"tolerances": {"rel_tol": math.inf}}, []),
            ({"tolerances": {"abs_tol": math.inf}}, []),
            ({"tolerances": {"max_step": math.inf}}, []),
            # JSON booleans and strings are not numbers
            ({"omega": True}, []),
            ({"d0_sq": "3"}, []),
            ({"initial_state": [True, 0, 0, 0]}, []),
            ({"initial_state": ["1", 0, 0, 0]}, []),
            ({"tolerances": {"rel_tol": True}}, []),
            ({"tolerances": {"max_step": "0.1"}}, []),
            ({}, ["--grid-step", "nan"]),
            ({}, ["--grid-step", "1e-12"]),
        ],
    )
    def test_malformed_values_exit_2(self, tmp_path, overrides, flags):
        path = _write_scenario(tmp_path / "s.json", **{"t_end": 1.0, "grid_step": 0.5, **overrides})
        assert main(["simulate", "--scenario", path, "--out", str(tmp_path), *flags]) == 2

    def test_grid_cap_rejected_before_allocation(self):
        # 4e12 points: validate() must refuse without building the grid
        with pytest.raises(ValidationError, match=str(MAX_GRID_POINTS)):
            Scenario(grid_step=1e-12).validate()

    def test_max_step_cap_exit_2(self, tmp_path):
        # max_step = 1e-7 on [0, 0.5] would ask DOP853 for 5e6 steps; refused
        # before integrating, like a grid_step with too many points
        path = _write_scenario(tmp_path / "s.json", t_end=0.5, grid_step=0.1, tolerances={"max_step": 1e-7})
        with pytest.raises(ValidationError, match=str(MAX_GRID_POINTS)):
            Scenario.from_file(path)
        assert main(["simulate", "--scenario", path, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "simulate.csv").exists()
        # the bound itself still passes
        path = _write_scenario(tmp_path / "s.json", t_end=0.5, tolerances={"max_step": 0.5 / MAX_GRID_POINTS})
        assert Scenario.from_file(path).tolerances.max_step == 5e-7

    def test_unreadable_file_exit_2(self, tmp_path):
        bad = tmp_path / "s.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["spectrum", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
        assert main(["spectrum", "--scenario", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2

    def test_roundtrip(self, tmp_path):
        path = _write_scenario(
            tmp_path / "s.json",
            tolerances={"rel_tol": 1e-9},
            initial_state=[0.5, 0.0, 0.5, 0.0],
            h4_mode="mirror",
        )
        scn = Scenario.from_file(path)
        assert scn.tolerances.rel_tol == 1e-9
        assert scn.mode.value == "mirror"
        np.testing.assert_allclose(scn.psi0, [0.5, 0.5])


class TestSpectrumCommand:
    def test_phase_flip_at_ep(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", grid_step=1e-3)
        assert main(["spectrum", "--scenario", scn, "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "spectrum.csv")
        phase_col = header.index("phase")
        t_col = header.index("t")
        before = [r for r in rows if float(r[t_col]) < 2.0 - 1e-9]
        after = [r for r in rows if float(r[t_col]) > 2.0 + 1e-9]
        assert all(r[phase_col] == "unbroken" for r in before)
        assert all(r[phase_col] == "broken" for r in after)
        at_ep = [r for r in rows if abs(float(r[t_col]) - 2.0) <= 1e-9]
        assert at_ep and at_ep[0][phase_col] == "EP"

    def test_row_values(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", omega=1.0, t_end=0.5, grid_step=0.5)
        assert main(["spectrum", "--scenario", scn, "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "spectrum.csv")
        last = rows[-1]
        assert float(last[header.index("re_lam_plus")]) == pytest.approx(1.0 + math.sqrt(0.75), rel=1e-11)
        assert float(last[header.index("re_lam_minus")]) == pytest.approx(1.0 - math.sqrt(0.75), rel=1e-11)

    def test_empty_range_exit_code(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", t_start=1.0, t_end=1.0)
        assert main(["spectrum", "--scenario", scn, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("energy", [1.0, -0.0])
    def test_rows_are_the_per_point_spectrum(self, tmp_path, energy):
        # the one array pass writes what one instantaneous_spectrum call per
        # point gives, EP rows and the signs of zero parts included
        scn = _write_scenario(tmp_path / "s.json", E=energy)
        assert main(["spectrum", "--scenario", scn, "--out", str(tmp_path)]) == 0
        p = HamiltonianParams(energy, 0.5)
        rows = []
        for t in Scenario.from_file(scn).grid():
            sp = instantaneous_spectrum(p, float(t))
            cells = (t, sp.lam_plus.real, sp.lam_plus.imag, sp.lam_minus.real, sp.lam_minus.imag)
            rows.append(",".join([*(f"{v:.11e}" for v in cells), sp.phase.value]))
        header = "t,re_lam_plus,im_lam_plus,re_lam_minus,im_lam_minus,phase"
        assert (tmp_path / "spectrum.csv").read_text() == "\n".join([header, *rows]) + "\n"
        assert "EP" in {row.rsplit(",", 1)[1] for row in rows}

    def test_byte_determinism(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", grid_step=1e-2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["spectrum", "--scenario", scn, "--out", str(out_a)]) == 0
        assert main(["spectrum", "--scenario", scn, "--out", str(out_b)]) == 0
        assert (out_a / "spectrum.csv").read_bytes() == (out_b / "spectrum.csv").read_bytes()


class TestMetricScanCommand:
    @pytest.mark.parametrize(
        "d1_sq, t_end, expected, tol",
        [(238.0, 5.0, 4.0001, 0.002), (1474.0, 5.0, 4.5, 0.05), (4.13, 2.5, 2.003, 0.003)],
    )
    def test_last_valid_row(self, tmp_path, d1_sq, t_end, expected, tol):
        scn = _write_scenario(tmp_path / "s.json", d1_sq=d1_sq, t_end=t_end)
        assert main(["metric-scan", "--scenario", scn, "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "metric_scan.csv")
        t_col, valid_col = header.index("t"), header.index("valid")
        last_valid = max(float(r[t_col]) for r in rows if r[valid_col] == "1")
        assert abs(last_valid - expected) <= tol

    def test_overflow_horizon_exit_code(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", t_end=7.0)
        assert main(["metric-scan", "--scenario", scn, "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("omega", [1e-300, 1e-60])
    def test_tiny_omega_refused_at_once(self, tmp_path, omega):
        # x0(0) carries 1/Gamma(1 - 1/(4 w)), past double range for such w:
        # refused before any mpmath series in kappa ~ 1/(4 w) is summed
        scn = _write_scenario(tmp_path / "s.json", omega=omega, t_end=1.0, grid_step=0.5)
        start = time.perf_counter()
        assert main(["metric-scan", "--scenario", scn, "--out", str(tmp_path)]) == 3
        assert time.perf_counter() - start < 1.0


class TestBoundsCommand:
    # intervals ending near t = 2 legitimately warn that ||y1|| is not small
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_report_fields(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", t_end=2.1)
        assert main(["bounds", "--scenario", scn, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bounds.json").read_text())
        assert report["refined_d1_bound"] == pytest.approx(4.633, abs=0.005)
        assert report["naive_d1_bound"] == pytest.approx(4.129, abs=0.005)
        assert report["naive_sufficient"] is False

    def test_interval_0_4(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", t_end=4.0)
        assert main(["bounds", "--scenario", scn, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bounds.json").read_text())
        assert report["approx_d1_min"] == pytest.approx(237.80, abs=0.25)
        assert report["equal_d_bound"] == pytest.approx(237.79, abs=0.25)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_refined_null_when_guard_fails(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", d0_sq=0.5, t_end=2.1)
        assert main(["bounds", "--scenario", scn, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bounds.json").read_text())
        assert report["refined_d1_bound"] is None
        assert "y1" in report["refined_reason"]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_refined_bound_at_general_omega(self, tmp_path):
        # the least D1^2 that keeps lam_minus >= 1 on [0, 2], by bisection
        # on a 4001-point lam_minus grid, is 9.8127; without Delta = 4 w^2
        # in the bound it would read 5.267
        scn = _write_scenario(tmp_path / "s.json", omega=0.37, d0_sq=20.0, t_end=2.0)
        assert main(["bounds", "--scenario", scn, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bounds.json").read_text())
        assert report["refined_d1_bound"] == pytest.approx(9.8127, abs=1e-4)

    def test_library_warning_is_one_plain_line(self, tmp_path, capsys):
        scn = _write_scenario(tmp_path / "s.json", omega=0.37, d0_sq=20.0, t_end=2.0)
        assert main(["bounds", "--scenario", scn, "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "warning: ||y1(t_b)|| is not small against ||y0(t_b)||; the approximate bounds may be loose"
        ]

    def test_refined_bound_on_the_scenario_interval(self, tmp_path):
        # lambda_minus(0) = 0.9 < 1 and max ||y1||^2 = 1.213 on [0, 3.5], but
        # 0.677 on [2, 3.5]: the b-root exists on the scenario's interval
        scn = _write_scenario(tmp_path / "s.json", d0_sq=0.9, t_start=2.0, t_end=3.5)
        assert main(["bounds", "--scenario", scn, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bounds.json").read_text())
        d1_sq = report["refined_d1_bound"]
        assert d1_sq is not None and report["refined_reason"] is None
        p, ts = HamiltonianParams(1.0, 0.5), np.linspace(2.0, 3.5, 1501)
        assert eigenvalues(p, DilationParams(0.9, d1_sq), ts)[1].min() >= 1.0 - 1e-9
        assert eigenvalues(p, DilationParams(0.9, 0.999999 * d1_sq), ts)[1].min() < 1.0 - 1e-9

    def test_bounds_from_one_region_equal_each_functions_own_scan(self, tmp_path):
        # the command reads every bound from one region on [t_start, t_end];
        # each function called alone scans that interval itself
        scn = _write_scenario(tmp_path / "s.json", d0_sq=0.9, t_start=2.0, t_end=3.5)
        assert main(["bounds", "--scenario", scn, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bounds.json").read_text())
        p, interval = HamiltonianParams(1.0, 0.5), (2.0, 3.5)
        d0_min, d1_min = approx_bounds_interval(p, interval)
        assert (report["approx_d0_min"], report["approx_d1_min"]) == (float(f"{d0_min:.11e}"), float(f"{d1_min:.11e}"))
        assert report["equal_d_bound"] == float(f"{equal_d_bound(p, interval):.11e}")
        assert report["refined_d1_bound"] == float(f"{refined_d1_bound(p, 0.9, interval):.11e}")


class TestBreakdownCommand:
    def test_breakdown_written(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", t_end=5.0)
        assert main(["breakdown", "--scenario", scn, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "breakdown.json").read_text())
        assert report["breakdown_time"] == pytest.approx(4.0001, abs=0.002)

    def test_none_when_no_crossing(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", t_end=2.0)
        assert main(["breakdown", "--scenario", scn, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "breakdown.json").read_text())
        assert report["breakdown_time"] is None

    def test_start_valid_within_the_tolerance(self, tmp_path):
        # lambda_minus(0) = 1 - 5e-13 is valid; it turns invalid at t = 1.0e-6
        scn = _write_scenario(tmp_path / "s.json", d0_sq=1.0 - 5e-13, t_end=2.0)
        assert main(["breakdown", "--scenario", scn, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "breakdown.json").read_text())
        expected = breakdown_time(HamiltonianParams(1.0, 0.5), DilationParams(1.0 - 5e-13, 238.0), 2.0)
        assert report["breakdown_time"] == pytest.approx(expected, rel=1e-11)
        assert report["breakdown_time"] == pytest.approx(1.0e-6, abs=1e-9)

    def test_overflow_near_the_omega_floor_reported_at_once(self, tmp_path):
        # l overflows at t = 0 just above the Whittaker omega floor, and the
        # scan's first pass of points must cost little; the knot table starts cold
        _whittaker_knots.cache_clear()
        start = time.perf_counter()
        with pytest.raises(OverflowRangeError, match=r"metric scalars exceed double range at t = 0\.0"):
            breakdown_time(HamiltonianParams(1.0, 0.0015), DilationParams(3.5, 238.0), 1.0)
        assert time.perf_counter() - start <= 0.5
        scn = _write_scenario(tmp_path / "s.json", omega=0.0015, t_end=1.0, grid_step=0.5)
        assert main(["breakdown", "--scenario", scn, "--out", str(tmp_path)]) == 3


class TestSimulateCommand:
    def test_summary_tolerances(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", t_end=3.9, grid_step=0.05)
        assert main(["simulate", "--scenario", scn, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert summary["max_upper_deviation"] < 1e-6
        assert summary["max_norm_drift"] < 1e-8
        assert summary["max_lower_consistency"] < 1e-6

    def test_breakdown_inside_span(self, tmp_path, capsys):
        scn = _write_scenario(tmp_path / "s.json", t_end=4.2, grid_step=0.05)
        assert main(["simulate", "--scenario", scn, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "4.000" in err

    def test_breakdown_just_after_a_start_valid_within_the_tolerance(self, tmp_path, capsys):
        scn = _write_scenario(tmp_path / "s.json", d0_sq=1.0 - 5e-13, t_end=2.0)
        assert main(["simulate", "--scenario", scn, "--out", str(tmp_path)]) == 3
        assert "dilation breaks down at" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            # loose integrator tolerances: upper deviation 4.9e-4
            {"t_end": 3.9, "grid_step": 0.1, "tolerances": {"rel_tol": 0.01, "max_step": 0.5}},
            # the Whittaker basis from t = 0: upper deviation 1.06e-2
            {"omega": 1.0, "t_end": 1.5, "grid_step": 0.1, "initial_state": [0.6, 0.1, 0.3, -0.7]},
        ],
        ids=["loose_tolerances", "whittaker_from_zero"],
    )
    def test_missed_gate_warns_and_exits_0(self, tmp_path, capsys, overrides):
        scn = _write_scenario(tmp_path / "s.json", **overrides)
        assert main(["simulate", "--scenario", scn, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert summary["max_upper_deviation"] > 1e-6
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert warnings == [
            f"warning: simulate misses its gate: max_upper_deviation = {summary['max_upper_deviation']:.3e} > 1e-06"
        ]

    def test_guard_scans_only_the_span(self, tmp_path):
        # lambda_minus(0) = 0.9 < 1, but lambda_minus >= 1.31 on [2, 3.5]
        scn = _write_scenario(tmp_path / "s.json", d0_sq=0.9, t_start=2.0, t_end=3.5)
        assert main(["simulate", "--scenario", scn, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert summary["max_norm_drift"] <= 1e-8
        assert summary["max_upper_deviation"] <= 1e-6

    def test_general_omega_fine_grid(self, tmp_path):
        # every Magnus node is a Whittaker point; the knot table starts cold
        scn = _write_scenario(
            tmp_path / "s.json", omega=1.0, t_start=0.5, t_end=1.0, initial_state=[0.6, 0.1, 0.3, -0.7]
        )
        _whittaker_knots.cache_clear()
        start = time.perf_counter()
        assert main(["simulate", "--scenario", scn, "--out", str(tmp_path)]) == 0
        assert time.perf_counter() - start <= 1.0
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert summary["max_norm_drift"] <= 1e-8
        assert summary["max_upper_deviation"] <= 1e-6

    def test_zero_state_rejected(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", t_end=3.9, grid_step=0.05, initial_state=[0, 0, 0, 0])
        assert main(["simulate", "--scenario", scn, "--out", str(tmp_path)]) == 2

    def test_tiny_rel_tol_runs_with_one_warning(self, tmp_path, capsys):
        # rel_tol is floored at 100 eps; the default span ends 1.3e-4 before
        # the breakdown, where tau' is steepest
        scn = _write_scenario(tmp_path / "s.json", tolerances={"rel_tol": 1e-300})
        start = time.perf_counter()
        assert main(["simulate", "--scenario", scn, "--out", str(tmp_path)]) == 0
        assert time.perf_counter() - start < 10.0
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1 and "below 100 eps" in warnings[0]
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert summary["max_upper_deviation"] < 1e-10


def test_csv_rows_match_per_cell_formatting(tmp_path):
    # the array writer writes what one 12-digit format per cell wrote,
    # subnormals, signed zeros and non-finite cells included, for tables
    # shorter than one block, of exactly one and of several blocks
    rng = np.random.default_rng(11)
    phases = [label.value for label in PhaseLabel]   # string cells of unequal width
    for n in (0, 1, 500, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 3):
        values = rng.normal(size=(n, 6)) * 10.0 ** rng.integers(-320, 308, size=(n, 6))
        values[::7, 0], values[::11, 1], values[::13, 2], values[::17, 3] = -0.0, 5e-324, np.inf, np.nan
        columns = {f"c{j}": values[:, j] for j in range(5)}
        columns["listed"] = [float(v) for v in values[:, 5]]
        columns["valid"] = np.where(values[:, 4] > 0.0, "1", "0")
        columns["count"] = rng.integers(-10**18, 10**18, size=n)
        columns["phase"] = [phases[i] for i in rng.integers(0, len(phases), size=n)]
        columns["reversed"] = np.array(columns["phase"], dtype=str)[::-1]   # a strided str column
        columns["bytes"] = np.where(values[:, 3] > 0.0, b"yes", b"no")
        _write_csv(tmp_path / "x.csv", columns)
        rows = (",".join(c if isinstance(c, str) else c.decode() if isinstance(c, bytes) else f"{float(c):.11e}" for c in row)
                for row in zip(*columns.values()))
        assert (tmp_path / "x.csv").read_text() == "\n".join([",".join(columns), *rows]) + "\n", n


def test_csv_refuses_non_ascii_text(tmp_path):
    with pytest.raises(ValueError, match="ASCII"):
        _write_csv(tmp_path / "x.csv", {"t": [0.0, 1.0], "label": ["a", "\u0141"]})


class TestCellFormatterOracle:
    """`_e_cells` against Python's own "%.11e", byte for byte."""

    def _check(self, values):
        values = np.asarray(values, dtype=float)
        expected = ["%.11e" % v for v in values.tolist()]
        got = [cell.tobytes().replace(b"\0", b"").decode("ascii") for cell in _e_cells(values)]
        wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, expected) if g != w]
        assert not wrong, wrong[:5]

    def test_random_doubles_over_every_binade(self):
        rng = np.random.default_rng(2)
        n = 120_000
        values = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-1021, 1025, n)) * rng.choice([-1.0, 1.0], n)
        assert np.abs(values).min() < 1e-307 and np.abs(values).max() > 1e307
        self._check(values)

    def test_constructed_near_ties_and_neighbours(self):
        # the doubles nearest (k + 1/2) 10^(e - 11), whose 13th significant
        # digit is a 5 within rounding, and the doubles on either side
        rng = np.random.default_rng(3)
        ties = np.array([float(f"{10 * k + 5}e{e - 12}") for e in range(-300, 301) for k in rng.integers(10**11, 10**12, 8).tolist()])
        self._check(np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf), -ties]))

    def test_decade_roll_overs(self):
        rolls = [9.999999999995, 999999999999.5, 99999999999.95, 9.9999999999949, 9.99999999999500001,
                 9.999999999995e-280, 9.999999999995e279, 9.9999999999999e279]
        powers = np.array([float(f"1e{e}") for e in range(-280, 281)])
        self._check(np.concatenate([rolls, np.negative(rolls), powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))

    def test_zeros_non_finite_and_extremes(self):
        self._check([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e-280, 1e280, 1e-281, 1e281])


class TestDilateAndEfficiency:
    def test_dilate_hermitian_along_grid(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", t_end=3.0, grid_step=0.25)
        assert main(["dilate", "--scenario", scn, "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "dilate.csv")
        res_col = header.index("hh_residual")
        assert all(float(r[res_col]) < 1e-9 for r in rows)

    def test_dilate_re_tau10_vanishes_at_half(self, tmp_path):
        # at w = 1/2 the phase-free duals make eta_10, hence tau_10, purely
        # imaginary, so the a column is exactly 0
        assert main(["dilate", "--tmax", "3.9", "--grid-step", "0.01", "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "dilate.csv")
        a_col = header.index("a")
        assert len(rows) == 391
        assert all(float(r[a_col]) == 0.0 for r in rows)

    def test_efficiency_start_value(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", t_end=2.0, grid_step=0.5)
        assert main(["efficiency", "--scenario", scn, "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "efficiency.csv")
        eff_col = header.index("efficiency")
        assert float(rows[0][eff_col]) == pytest.approx(1.0 / 3.5, rel=1e-9)
        assert all(0.0 < float(r[eff_col]) <= 1.0 + 1e-12 for r in rows)


_HH_COLUMNS = (
    "re_hh_00,im_hh_00,re_hh_01,im_hh_01,re_hh_02,im_hh_02,re_hh_03,im_hh_03,"
    "re_hh_10,im_hh_10,re_hh_11,im_hh_11,re_hh_12,im_hh_12,re_hh_13,im_hh_13,"
    "re_hh_20,im_hh_20,re_hh_21,im_hh_21,re_hh_22,im_hh_22,re_hh_23,im_hh_23,"
    "re_hh_30,im_hh_30,re_hh_31,im_hh_31,re_hh_32,im_hh_32,re_hh_33,im_hh_33"
)


class TestTableHeaders:
    """Every table's columns, exactly and in order."""

    @pytest.mark.parametrize(
        "command, filename, header",
        [
            ("spectrum", "spectrum.csv", "t,re_lam_plus,im_lam_plus,re_lam_minus,im_lam_minus,phase"),
            ("metric-scan", "metric_scan.csv", "t,lambda_minus,lambda_plus,valid"),
            ("dilate", "dilate.csv", f"t,a,b,c,d,{_HH_COLUMNS},hh_residual"),
            (
                "simulate",
                "simulate.csv",
                "t,re_psi_up,im_psi_up,re_psi_down,im_psi_down,"
                "re_Psi_0,im_Psi_0,re_Psi_1,im_Psi_1,re_Psi_2,im_Psi_2,re_Psi_3,im_Psi_3,"
                "norm_Psi,fidelity,lower_consistency,efficiency,valid",
            ),
            ("efficiency", "efficiency.csv", "t,efficiency,eta_weighted_norm"),
        ],
    )
    def test_header(self, tmp_path, command, filename, header):
        scn = _write_scenario(tmp_path / "s.json", t_end=1.0, grid_step=0.5)
        assert main([command, "--scenario", scn, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / filename).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 4 and all(len(line.split(",")) == len(header.split(",")) for line in lines)


class TestPaperFigures:
    def test_files_and_thresholds(self, tmp_path):
        assert main(["paper-figures", "--out", str(tmp_path)]) == 0
        for tag in ("238", "1474", "4p13", "4p634"):
            assert (tmp_path / f"lambda_minus_d{tag}.csv").exists()
        thresholds = json.loads((tmp_path / "thresholds.json").read_text())
        assert thresholds["breakdown_238"] == pytest.approx(4.0001, abs=0.002)
        assert thresholds["breakdown_1474"] == pytest.approx(4.5, abs=0.05)
        assert thresholds["breakdown_4p13"] == pytest.approx(2.003, abs=0.003)
        assert thresholds["breakdown_4p634"] == pytest.approx(2.1003, abs=0.002)
        assert thresholds["approx_d1_min_0_4"] == pytest.approx(237.80, abs=0.25)
        assert thresholds["approx_d1_min_0_4p5"] == pytest.approx(1474.0, abs=1.0)
        assert thresholds["y0_norm_sq_2p1"] == pytest.approx(4.129, abs=0.005)
        assert thresholds["refined_d1_bound_2p1"] == pytest.approx(4.633, abs=0.005)

    @staticmethod
    def _basis_call_sizes(monkeypatch):
        sizes = []
        dual_amplitudes = SolutionBasis.dual_amplitudes

        def counted(self, t):
            sizes.append(np.size(t))
            return dual_amplitudes(self, t)

        monkeypatch.setattr(SolutionBasis, "dual_amplitudes", counted)
        return sizes

    def test_each_table_grid_is_evaluated_once(self, tmp_path, monkeypatch):
        # the tables for D1^2 = 238 and 1474 share the 5001 points of [0, 5],
        # those for 4.13 and 4.634 the 2501 points of [0, 2.5]; the breakdown
        # and bound searches read those grids and evaluate the basis only in
        # narrowing and refinement passes
        sizes = self._basis_call_sizes(monkeypatch)
        assert main(["paper-figures", "--out", str(tmp_path)]) == 0
        assert sizes.count(5001) == 1 and sizes.count(2501) == 1
        assert max(sorted(sizes)[:-2]) <= REFINE_POINTS

    def test_off_scan_grid_searches_keep_their_values(self, tmp_path, monkeypatch):
        # at grid step 0.002 no table grid is the 1e-3 scan grid of a search,
        # so each search evaluates its own grid, with the same results
        assert main(["paper-figures", "--out", str(tmp_path / "scan")]) == 0
        sizes = self._basis_call_sizes(monkeypatch)
        assert main(["paper-figures", "--grid-step", "0.002", "--out", str(tmp_path / "coarse")]) == 0
        assert sizes.count(2501) == 1 and sizes.count(1251) == 1 and max(sizes) == 4501
        scan, coarse = (json.loads((tmp_path / name / "thresholds.json").read_text()) for name in ("scan", "coarse"))
        assert coarse == scan

    @pytest.mark.parametrize("step", ["0", "nan", "-0.5", "inf", "1e-12"])
    def test_bad_grid_step_exit_2(self, tmp_path, step):
        assert main(["paper-figures", "--grid-step", step, "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.iterdir())


class TestArgparseBehavior:
    def test_unknown_command_exits_2(self):
        assert main(["no-such-command"]) == 2

    @pytest.mark.parametrize("flags", [["--scenario", "x.json"], ["--tmax", "3"], ["--h4-mode", "mirror"]])
    def test_paper_figures_refuses_scenario_options(self, tmp_path, flags):
        assert main(["paper-figures", *flags, "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.iterdir())

    def test_unknown_h4_mode_exits_2(self, tmp_path):
        assert main(["dilate", "--h4-mode", "bogus", "--out", str(tmp_path)]) == 2

    def test_options_before_or_after_the_command(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", t_end=2.0)
        assert main(["--tmax", "5.0", "breakdown", "--scenario", scn, "--out", str(tmp_path / "a")]) == 0
        assert main(["breakdown", "--out", str(tmp_path / "b"), "--tmax", "5.0", "--scenario", scn]) == 0
        assert (tmp_path / "a" / "breakdown.json").read_bytes() == (tmp_path / "b" / "breakdown.json").read_bytes()

    def test_tmax_override(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", t_end=2.0)
        assert main(["breakdown", "--scenario", scn, "--tmax", "5.0", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "breakdown.json").read_text())
        assert report["breakdown_time"] == pytest.approx(4.0001, abs=0.002)


class TestReusedDiagnostics:
    """Columns the CLI takes from one diagnostics pass, against an
    independent recomputation at the same time points."""

    STATE = [0.31, -0.42, 0.77, 0.12]
    GRID = np.linspace(0.0, 3.9, 14)   # t_end 3.9, grid_step 0.3

    def test_simulate_columns(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", t_end=3.9, grid_step=0.3, initial_state=self.STATE)
        assert main(["simulate", "--scenario", scn, "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "simulate.csv")
        p, d = HamiltonianParams(1.0, 0.5), DilationParams(3.5, 238.0)
        psi0 = np.array([self.STATE[0] + 1j * self.STATE[1], self.STATE[2] + 1j * self.STATE[3]])
        psi_cols = [header.index(c) for c in ("re_psi_up", "im_psi_up", "re_psi_down", "im_psi_down")]
        eff_col = header.index("efficiency")
        assert len(rows) == self.GRID.size
        for row, t in zip(rows, self.GRID):
            assert row[0] == f"{t:.11e}"
            psi = propagate_analytic(p, psi0, 0.0, float(t))
            expected = [psi[0].real, psi[0].imag, psi[1].real, psi[1].imag]
            assert [row[c] for c in psi_cols] == [f"{x:.11e}" for x in expected]
            assert row[eff_col] == f"{dilation_efficiency(p, d, psi, float(t)):.11e}"

    def test_dilate_tau_columns(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", t_end=3.9, grid_step=0.3)
        assert main(["dilate", "--scenario", scn, "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "dilate.csv")
        p, d = HamiltonianParams(1.0, 0.5), DilationParams(3.5, 238.0)
        cols = [header.index(c) for c in ("a", "b", "c", "d")]
        assert len(rows) == self.GRID.size
        for row, t in zip(rows, self.GRID):
            assert row[0] == f"{t:.11e}"
            # tau = [[d + c, a - i b], [a + i b, d - c]]
            tau = tau_from_metric(metric(p, d, float(t)))
            c, d_ = (tau[0, 0] - tau[1, 1]).real / 2.0, (tau[0, 0] + tau[1, 1]).real / 2.0
            expected = (tau[1, 0].real, tau[1, 0].imag, c, d_)
            assert [row[c] for c in cols] == [f"{x:.11e}" for x in expected]


# values of the wrong type, non-finite or non-positive; the numbers that
# pass validation stay small, so no example asks for a huge grid
_JUNK = st.one_of(
    st.floats(-1.0, 0.0),
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.text(max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=1),
)


@st.composite
def _scenarios(draw):
    """A well-typed scenario with at most one value replaced by junk.

    grid_step >= 6e-3 over a span of at most 7 keeps the grid under about
    1000 points."""
    payload = draw(
        st.fixed_dictionaries(
            {"grid_step": st.floats(6e-3, 1.0)},
            optional={
                "E": st.floats(-5.0, 5.0),
                "omega": st.floats(1e-300, 3.0),
                "d0_sq": st.floats(0.0, 500.0),
                "d1_sq": st.floats(0.0, 500.0),
                "t_start": st.floats(-2.0, 2.0),
                "t_end": st.floats(-2.0, 4.0),
                "h4_mode": st.sampled_from(["hermitian_part", "mirror"]),
                "initial_state": st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
                "tolerances": st.dictionaries(
                    st.sampled_from(["rel_tol", "abs_tol", "max_step"]),
                    st.floats(1e-12, 1e-2),
                    max_size=3,
                ),
            },
        )
    )
    if draw(st.booleans()):
        key = draw(st.sampled_from([*payload, "unknown"]))
        junk = draw(_JUNK)
        if key == "initial_state" and draw(st.booleans()):
            payload[key] = [junk, 0.0, 0.0, 0.0]
        elif key == "tolerances" and draw(st.booleans()):
            payload[key] = {draw(st.sampled_from(["rel_tol", "abs_tol", "max_step"])): junk}
        else:
            payload[key] = junk
    return payload


@settings(max_examples=150, deadline=None)
@given(payload=st.one_of(_scenarios(), _JUNK))
def test_any_scenario_json_maps_to_an_exit_code(payload):
    """The exit-code contract: every scenario file gives 0, 2 or 3, also on
    a coarse grid of the command that evaluates the solution basis."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["spectrum", "--scenario", str(path), "--out", tmp]) in (0, 2, 3)
        assert main(["metric-scan", "--scenario", str(path), "--out", tmp, "--grid-step", "1.0"]) in (0, 2, 3)
