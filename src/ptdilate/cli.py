"""Command-line front end: scenario files in, CSV tables and JSON out.

Subcommands: spectrum | metric-scan | bounds | breakdown | dilate |
simulate | efficiency | paper-figures.  Every number is emitted with 12
significant digits so identical scenarios produce byte-identical files.
Exit codes: 0 success, 2 validation error, 3 numeric-domain error
(overflow or breakdown).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .dilation import H4Mode, assemble_dilated
from .errors import DegenerateDenominatorError, PTDilateError, ValidationError
from .evolve import EvolutionConfig, _analytic_path, _efficiency, _eta_norm, simulate_dilated
from .metric import (
    VALIDITY_TOL,
    DilationParams,
    _grid,
    approx_bounds_interval,
    breakdown_time,
    eigenvalues,
    equal_d_bound,
    metric,
    refined_d1_bound,
)
from .model import HamiltonianParams, instantaneous_spectrum
from .solutions import solution_basis

__all__ = ["Scenario", "main"]

_H4_MODES = {
    "hermitian_part": H4Mode.HERMITIAN_PART,
    "mirror": H4Mode.MIRROR,
}


def _fmt(x: float) -> str:
    return f"{float(x):.11e}"


def _round12(x: float) -> float:
    return float(_fmt(x))


_FLOAT_KEYS = ("E", "omega", "d0_sq", "d1_sq", "t_start", "t_end", "grid_step")
MAX_GRID_POINTS = 10**6     # largest (t_end - t_start) / grid_step a scenario may ask for


def _as_float(key: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{key} must be a number, got {value!r}") from exc


@dataclass
class Scenario:
    """One run configuration; defaults are the documented reference case."""

    E: float = 1.0
    omega: float = 0.5
    d0_sq: float = 3.5
    d1_sq: float = 238.0
    t_start: float = 0.0
    t_end: float = 4.0
    grid_step: float = 1e-3
    h4_mode: str = "hermitian_part"
    tolerances: EvolutionConfig = field(default_factory=EvolutionConfig)
    initial_state: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)

    def validate(self) -> "Scenario":
        for key in _FLOAT_KEYS:
            if not math.isfinite(getattr(self, key)):
                raise ValidationError(f"{key} must be finite, got {getattr(self, key)}")
        if not self.t_start < self.t_end:
            raise ValidationError(f"need t_start < t_end, got [{self.t_start}, {self.t_end}]")
        if not self.grid_step >= (self.t_end - self.t_start) / MAX_GRID_POINTS:
            raise ValidationError(
                f"grid_step must be positive with at most {MAX_GRID_POINTS} steps, got {self.grid_step}"
            )
        if self.d0_sq < 0.0 or self.d1_sq < 0.0:
            raise ValidationError("d0_sq and d1_sq must be >= 0")
        if self.h4_mode not in _H4_MODES:
            raise ValidationError(f"unknown h4_mode {self.h4_mode!r}; use one of {sorted(_H4_MODES)}")
        if len(self.initial_state) != 4 or not all(math.isfinite(v) for v in self.initial_state):
            raise ValidationError(
                "initial_state must be four finite reals (re_up, im_up, re_down, im_down)"
            )
        self.params  # validates omega > 0
        return self

    @classmethod
    def from_file(cls, path) -> "Scenario":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read scenario file {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValidationError("scenario file must hold a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValidationError(f"unknown scenario keys: {sorted(unknown)}")
        kwargs = dict(raw)
        if "tolerances" in kwargs:
            tol_raw = kwargs.pop("tolerances")
            if not isinstance(tol_raw, dict):
                raise ValidationError("tolerances must be a JSON object")
            tol_known = {"rel_tol", "abs_tol", "max_step"}
            tol_unknown = set(tol_raw) - tol_known
            if tol_unknown:
                raise ValidationError(f"unknown tolerance keys: {sorted(tol_unknown)}")
            kwargs["tolerances"] = EvolutionConfig(
                **{k: _as_float(f"tolerances.{k}", v) for k, v in tol_raw.items()}
            )
        if "initial_state" in kwargs:
            if not isinstance(kwargs["initial_state"], list):
                raise ValidationError("initial_state must be a list of four reals")
            kwargs["initial_state"] = tuple(_as_float("initial_state", v) for v in kwargs["initial_state"])
        if "h4_mode" in kwargs and not isinstance(kwargs["h4_mode"], str):
            raise ValidationError("h4_mode must be a string")
        for key in _FLOAT_KEYS:
            if key in kwargs:
                kwargs[key] = _as_float(key, kwargs[key])
        return cls(**kwargs).validate()

    @property
    def params(self) -> HamiltonianParams:
        return HamiltonianParams(E=self.E, omega=self.omega)

    @property
    def dparams(self) -> DilationParams:
        return DilationParams(d0_sq=self.d0_sq, d1_sq=self.d1_sq)

    @property
    def psi0(self) -> np.ndarray:
        r = self.initial_state
        return np.array([r[0] + 1j * r[1], r[2] + 1j * r[3]], dtype=complex)

    @property
    def mode(self) -> H4Mode:
        return _H4_MODES[self.h4_mode]

    def grid(self) -> np.ndarray:
        return _grid(self.t_start, self.t_end, self.grid_step)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_spectrum(scn: Scenario, out: Path) -> None:
    p = scn.params
    rows = []
    for t in scn.grid():
        sp = instantaneous_spectrum(p, float(t))
        rows.append(
            [t, sp.lam_plus.real, sp.lam_plus.imag, sp.lam_minus.real, sp.lam_minus.imag, sp.phase.value]
        )
    _write_csv(out / "spectrum.csv", ["t", "re_lam_plus", "im_lam_plus", "re_lam_minus", "im_lam_minus", "phase"], rows)


def _write_lambda_csv(path: Path, p, d, grid, basis) -> None:
    lam_p, lam_m = eigenvalues(p, d, grid, basis)
    valid = np.where(lam_m >= 1.0 - VALIDITY_TOL, "1", "0")
    _write_csv(path, ["t", "lambda_minus", "lambda_plus", "valid"], zip(grid, lam_m, lam_p, valid))


def cmd_metric_scan(scn: Scenario, out: Path) -> None:
    _write_lambda_csv(out / "metric_scan.csv", scn.params, scn.dparams, scn.grid(), solution_basis(scn.params))


def cmd_bounds(scn: Scenario, out: Path) -> None:
    p = scn.params
    basis = solution_basis(p)
    interval = (scn.t_start, scn.t_end)
    d0_min, d1_min = approx_bounds_interval(p, interval, basis)
    y0_end = basis.y0(scn.t_end)
    naive_d1 = float(np.vdot(y0_end, y0_end).real) / basis.gram_det
    payload = {
        "interval": [scn.t_start, scn.t_end],
        "equal_d_bound": _round12(equal_d_bound(p, interval, basis)),
        "approx_d0_min": _round12(d0_min),
        "approx_d1_min": _round12(d1_min),
        "naive_d1_bound": _round12(naive_d1),
        "d0_sq": scn.d0_sq,
    }
    try:
        refined = refined_d1_bound(p, scn.d0_sq, scn.t_end, basis)
        payload["refined_d1_bound"] = _round12(refined)
        payload["refined_reason"] = None
        payload["naive_sufficient"] = bool(naive_d1 >= refined - 1e-9)
    except DegenerateDenominatorError as exc:
        payload["refined_d1_bound"] = None
        payload["refined_reason"] = str(exc)
        payload["naive_sufficient"] = None
    _write_json(out / "bounds.json", payload)


def cmd_breakdown(scn: Scenario, out: Path, t_max: float | None = None) -> None:
    p, d = scn.params, scn.dparams
    horizon = t_max if t_max is not None else scn.t_end
    t_break = breakdown_time(p, d, horizon)
    _write_json(
        out / "breakdown.json",
        {
            "t_max": horizon,
            "d0_sq": scn.d0_sq,
            "d1_sq": scn.d1_sq,
            "breakdown_time": None if t_break is None else _round12(t_break),
        },
    )


def cmd_dilate(scn: Scenario, out: Path) -> None:
    p, d = scn.params, scn.dparams
    basis = solution_basis(p)
    header = ["t", "a", "b", "c", "d"]
    for i in range(4):
        for j in range(4):
            header += [f"re_hh_{i}{j}", f"im_hh_{i}{j}"]
    header += ["hh_residual"]
    rows = []
    for t in scn.grid():
        dh = assemble_dilated(p, d, float(t), scn.mode, basis)
        row = [t, dh.tau.a, dh.tau.b, dh.tau.c, dh.tau.d]
        for i in range(4):
            for j in range(4):
                row += [dh.hh[i, j].real, dh.hh[i, j].imag]
        row.append(float(np.abs(dh.hh - dh.hh.conj().T).max()))
        rows.append(row)
    _write_csv(out / "dilate.csv", header, rows)


def cmd_simulate(scn: Scenario, out: Path) -> None:
    p, d = scn.params, scn.dparams
    cfg = replace(scn.tolerances, output_grid=scn.grid())
    traj = simulate_dilated(p, d, scn.psi0, (scn.t_start, scn.t_end), cfg, scn.mode)
    rows = []
    for k, t in enumerate(traj.times):
        psi_ref = traj.extras["psi_ref"][k]
        row = [t]
        row += [psi_ref[0].real, psi_ref[0].imag, psi_ref[1].real, psi_ref[1].imag]
        for c in traj.states[k]:
            row += [c.real, c.imag]
        row += [
            traj.norms[k],
            traj.fidelity[k],
            traj.extras["lower_consistency"][k],
            traj.extras["efficiency"][k],
            "1" if traj.valid[k] else "0",
        ]
        rows.append(row)
    header = (
        ["t", "re_psi_up", "im_psi_up", "re_psi_down", "im_psi_down"]
        + [f"{part}_Psi_{i}" for i in range(4) for part in ("re", "im")]
        + ["norm_Psi", "fidelity", "lower_consistency", "efficiency", "valid"]
    )
    _write_csv(out / "simulate.csv", header, rows)
    norm0 = traj.norms[0]
    _write_json(
        out / "simulate_summary.json",
        {
            "max_upper_deviation": _round12(float(traj.extras["upper_deviation"].max())),
            "max_norm_drift": _round12(float(np.abs(traj.norms / norm0 - 1.0).max())),
            "max_lower_consistency": _round12(float(traj.extras["lower_consistency"].max())),
            "min_fidelity": _round12(float(traj.fidelity.min())),
            "h4_mode": scn.h4_mode,
        },
    )


def cmd_efficiency(scn: Scenario, out: Path) -> None:
    p, d = scn.params, scn.dparams
    basis = solution_basis(p)
    if np.linalg.norm(scn.psi0) == 0.0:
        raise ValidationError("initial_state must be nonzero")
    grid = scn.grid()
    psi = _analytic_path(basis, scn.psi0, scn.t_start)(grid)
    eta = metric(p, d, grid, basis).eta
    rows = zip(grid, _efficiency(psi, eta), _eta_norm(psi, eta))
    _write_csv(out / "efficiency.csv", ["t", "efficiency", "eta_weighted_norm"], rows)


_FIGURE_SETS = [
    ("238", 238.0, 5.0),
    ("1474", 1474.0, 5.0),
    ("4p13", 4.13, 2.5),
    ("4p634", 4.634, 2.5),
]


def cmd_paper_figures(out: Path, grid_step: float = 1e-3) -> None:
    """Emit the four lambda_minus datasets and the reproduced constants."""
    p = HamiltonianParams(E=1.0, omega=0.5)
    basis = solution_basis(p)
    d0_sq = 3.5
    thresholds: dict = {"d0_sq": d0_sq}
    for tag, d1_sq, t_end in _FIGURE_SETS:
        d = DilationParams(d0_sq, d1_sq)
        scn = Scenario(d1_sq=d1_sq, t_start=0.0, t_end=t_end, grid_step=grid_step).validate()
        _write_lambda_csv(out / f"lambda_minus_d{tag}.csv", p, d, scn.grid(), basis)
        t_break = breakdown_time(p, d, t_end)
        thresholds[f"breakdown_{tag}"] = None if t_break is None else _round12(t_break)
    d0_min, d1_min = approx_bounds_interval(p, (0.0, 4.0), basis)
    thresholds["approx_d0_min_0_4"] = _round12(d0_min)
    thresholds["approx_d1_min_0_4"] = _round12(d1_min)
    thresholds["approx_d1_min_0_4p5"] = _round12(approx_bounds_interval(p, (0.0, 4.5), basis)[1])
    y0_21 = basis.y0(2.1)
    thresholds["y0_norm_sq_2p1"] = _round12(float(np.vdot(y0_21, y0_21).real))
    thresholds["refined_d1_bound_2p1"] = _round12(refined_d1_bound(p, d0_sq, 2.1, basis))
    _write_json(out / "thresholds.json", thresholds)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptdilate",
        description="Metric-operator construction and Hermitian dilation of the swept two-level model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "metric-scan", "bounds", "breakdown", "dilate", "simulate", "efficiency"):
        sp = sub.add_parser(name)
        sp.add_argument("--scenario", type=str, default=None, help="JSON scenario file")
        sp.add_argument("--out", type=str, default=".", help="output directory")
        sp.add_argument("--grid-step", type=float, default=None, help="override scenario grid_step")
        sp.add_argument("--tmax", type=float, default=None, help="override scenario t_end")
        sp.add_argument("--h4-mode", type=str, default=None, choices=sorted(_H4_MODES))
    sp = sub.add_parser("paper-figures")
    sp.add_argument("--out", type=str, default=".", help="output directory")
    sp.add_argument("--grid-step", type=float, default=1e-3)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = Path(args.out)
    try:
        if args.command == "paper-figures":
            cmd_paper_figures(out, grid_step=args.grid_step)
            return 0
        scn = Scenario.from_file(args.scenario) if args.scenario else Scenario()
        if args.grid_step is not None:
            scn.grid_step = args.grid_step
        if args.tmax is not None:
            scn.t_end = args.tmax
        if args.h4_mode is not None:
            scn.h4_mode = args.h4_mode
        scn.validate()
        dispatch = {
            "spectrum": cmd_spectrum,
            "metric-scan": cmd_metric_scan,
            "bounds": cmd_bounds,
            "breakdown": cmd_breakdown,
            "dilate": cmd_dilate,
            "simulate": cmd_simulate,
            "efficiency": cmd_efficiency,
        }
        dispatch[args.command](scn, out)
        return 0
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except PTDilateError as exc:
        print(f"numeric-domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
