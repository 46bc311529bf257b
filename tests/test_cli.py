"""End-to-end CLI checks: files, exit codes, determinism."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptdilate.cli import MAX_GRID_POINTS, Scenario, main
from ptdilate.dilation import tau_from_metric
from ptdilate.errors import ValidationError
from ptdilate.evolve import dilation_efficiency, propagate_analytic
from ptdilate.metric import DilationParams, metric
from ptdilate.model import HamiltonianParams


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

    def test_guard_scans_only_the_span(self, tmp_path):
        # lambda_minus(0) = 0.9 < 1, but lambda_minus >= 1.31 on [2, 3.5]
        scn = _write_scenario(tmp_path / "s.json", d0_sq=0.9, t_start=2.0, t_end=3.5)
        assert main(["simulate", "--scenario", scn, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert summary["max_norm_drift"] <= 1e-8
        assert summary["max_upper_deviation"] <= 1e-6

    def test_zero_state_rejected(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", t_end=3.9, grid_step=0.05, initial_state=[0, 0, 0, 0])
        assert main(["simulate", "--scenario", scn, "--out", str(tmp_path)]) == 2


class TestDilateAndEfficiency:
    def test_dilate_hermitian_along_grid(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", t_end=3.0, grid_step=0.25)
        assert main(["dilate", "--scenario", scn, "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "dilate.csv")
        res_col = header.index("hh_residual")
        assert all(float(r[res_col]) < 1e-9 for r in rows)

    def test_efficiency_start_value(self, tmp_path):
        scn = _write_scenario(tmp_path / "s.json", t_end=2.0, grid_step=0.5)
        assert main(["efficiency", "--scenario", scn, "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "efficiency.csv")
        eff_col = header.index("efficiency")
        assert float(rows[0][eff_col]) == pytest.approx(1.0 / 3.5, rel=1e-9)
        assert all(0.0 < float(r[eff_col]) <= 1.0 + 1e-12 for r in rows)


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

    @pytest.mark.parametrize("step", ["0", "nan", "-0.5", "inf", "1e-12"])
    def test_bad_grid_step_exit_2(self, tmp_path, step):
        assert main(["paper-figures", "--grid-step", step, "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.iterdir())


class TestArgparseBehavior:
    def test_unknown_command_exits_2(self):
        assert main(["no-such-command"]) == 2

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
            td = tau_from_metric(metric(p, d, float(t)))
            assert [row[c] for c in cols] == [f"{x:.11e}" for x in (td.a, td.b, td.c, td.d)]


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
                "omega": st.floats(1e-3, 3.0),
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
            payload[key] = {"rel_tol": junk}
        else:
            payload[key] = junk
    return payload


@settings(max_examples=150, deadline=None)
@given(payload=st.one_of(_scenarios(), _JUNK))
def test_any_scenario_json_maps_to_an_exit_code(payload):
    """The exit-code contract: every scenario file gives 0, 2 or 3."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["spectrum", "--scenario", str(path), "--out", tmp]) in (0, 2, 3)
