"""Command-line front end: scenario files in, CSV tables and JSON out.

Subcommands: paper-figures, and the scenario commands of `_COMMANDS`.
Every number is emitted with 12 significant digits so identical scenarios
produce byte-identical files.  Each distinct library warning is printed
once to stderr as a `warning: <message>` line.  Exit codes: 0 success,
2 validation error, 3 numeric-domain error (overflow or breakdown).
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  imported by argparse's gettext on first use; here it is start-up
import math
import sys
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .dilation import H4Mode, assemble_dilated
from .errors import DegenerateDenominatorError, PTDilateError, ValidationError
from .evolve import EvolutionConfig, _efficiency, _eta_norm, propagate_analytic, simulate_dilated
from .metric import (
    DilationParams,
    Region,
    _approx_d1_min,
    _grid,
    _scan_region,
    _valid,
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

_H4_MODE_NAMES = sorted(m.value for m in H4Mode)


def _fmt(x: float) -> str:
    return f"{float(x):.11e}"


def _round12(x: float) -> float:
    return float(_fmt(x))


_FLOAT_KEYS = ("E", "omega", "d0_sq", "d1_sq", "t_start", "t_end", "grid_step")
MAX_GRID_POINTS = 10**6     # largest (t_end - t_start) / grid_step, or / max_step, a scenario may ask for


def _as_float(key: str, value) -> float:
    """A JSON number as a float; booleans and strings are not numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:   # an integer past double range
            pass
    raise ValidationError(f"{key} must be a number, got {value!r}")


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
        # the integrator takes at least (t_end - t_start) / max_step steps
        if not self.tolerances.max_step >= (self.t_end - self.t_start) / MAX_GRID_POINTS:
            raise ValidationError(
                f"tolerances.max_step must allow at most {MAX_GRID_POINTS} steps, got {self.tolerances.max_step}"
            )
        if self.h4_mode not in _H4_MODE_NAMES:
            raise ValidationError(f"unknown h4_mode {self.h4_mode!r}; use one of {_H4_MODE_NAMES}")
        if len(self.initial_state) != 4 or not all(math.isfinite(v) for v in self.initial_state):
            raise ValidationError(
                "initial_state must be four finite reals (re_up, im_up, re_down, im_down)"
            )
        self.params, self.dparams  # validate omega > 0 and d0_sq, d1_sq >= 0
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
        return H4Mode(self.h4_mode)

    def grid(self) -> np.ndarray:
        return _grid(self.t_start, self.t_end, self.grid_step)


def _write_text(path: Path, lines) -> None:
    """Write the strings of an iterable one after another, as they come."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    print(f"wrote {path}")


# Tables of `_e_cells`.  For the binary exponent k of np.frexp, at k - _K_MIN:
# the decimal exponent of 2^(k-1), which is that of every double in
# [2^(k-1), 2^k) or one below it, and 10^(11 - e), 10^(10 - e) correctly rounded.
_K_MIN = -940
_POW10 = np.array([float(f"1e{n}") for n in range(-300, 301)])   # 10^n at n + 300
_E_LOW = np.floor(np.arange(_K_MIN - 1, -_K_MIN - 1) * math.log10(2.0)).astype(np.intp)
_SCALE, _SCALE_UP = _POW10[311 - _E_LOW], _POW10[310 - _E_LOW]


def _words(cells) -> np.ndarray:
    """Each 4-byte ASCII string of cells as one uint32 (NUL-padded)."""
    return np.array(cells, dtype="S4").view(np.uint32)


# A cell "-d.ddddddddddde-ddd" is five 4-byte words: sign, digit 1, "." and
# digit 2; digits 3-6; digits 7-10; digits 11-12, "e" and the exponent's sign;
# the exponent's digits.  NUL fills what a cell does not use.
_CELL_WIDTH = 20
_D2 = np.array([f"{i:02d}" for i in range(100)], dtype="S2").view(np.uint16)
_D4 = np.empty((100, 100, 2), np.uint16)
_D4[..., 0], _D4[..., 1] = _D2[:, None], _D2
_D4 = _D4.view(np.uint32).ravel()                                            # "dddd" at dddd
_LEAD = _words([f"{s}{i // 10}.{i % 10}" for s in ("", "-") for i in range(100)])  # at dd + 100 (x < 0)
_TAIL = _words([f"{i:02d}e{s}" for i in range(100) for s in "+-"])           # at 2 dd + (e < 0)
_EXP = _words([f"{e:02d}" for e in range(301)])                               # at |e|
_GROUPS = np.array([1e10, 1e6, 1e2, 1.0])[:, None]   # the 12 digits as 2 + 4 + 4 + 2
_GROUP_SPAN = np.array([1e4, 1e4, 1e2])[:, None]      # the size of groups 2-4
_CSV_BLOCK_ROWS = 512      # rows formatted per pass, so the temporaries stay small at any row count


def _e_cells(x: np.ndarray) -> np.ndarray:
    """The "%.11e" text of each float64 of x as an (n, _CELL_WIDTH) uint8
    matrix padded with NUL bytes.  The 12 digits are the integer nearest
    m = |x| 10^(11 - e), which one product with a correctly rounded power of
    ten gives to within 2e-4; cells whose m lies within 1e-3 of a tie, and
    |x| outside [1e-280, 1e280] (subnormals, inf, nan), take Python's format."""
    a = np.abs(x)
    direct = (a >= 1e-280) & (a <= 1e280)
    a = np.where(direct, a, 1.0)
    k = np.frexp(a)[1] - _K_MIN
    m = a * _SCALE[k]
    up = m >= 1e12
    m = np.where(up, a * _SCALE_UP[k], m)
    q = np.rint(m)
    slow = ~direct & (x != 0.0) | (m < 1e11) | (m >= 1e12) | (np.abs(m - q) > 0.499)
    roll = q == 1e12          # m in [1e12 - 1/2, 1e12) rounds into the next decade
    e = _E_LOW[k] + up + roll
    q = np.where(slow | ~direct, 0.0, np.where(roll, 1e11, q))
    groups = np.floor(q / _GROUPS)
    groups[1:] -= _GROUP_SPAN * groups[:-1]
    g = groups.astype(np.intp)
    words = np.empty((x.size, 5), np.uint32)
    words[:, 0] = _LEAD[g[0] + 100 * np.signbit(x)]
    words[:, 1] = _D4[g[1]]
    words[:, 2] = _D4[g[2]]
    words[:, 3] = _TAIL[2 * g[3] + (e < 0)]
    words[:, 4] = _EXP[np.abs(e)]
    cells = words.view(np.uint8)
    (i,) = np.nonzero(slow)
    if i.size:
        text = np.array(["%.11e" % v for v in x[i].tolist()], dtype=f"S{_CELL_WIDTH}")
        cells[i] = text.view(np.uint8).reshape(i.size, _CELL_WIDTH)
    return cells


def _text_cells(c: np.ndarray) -> np.ndarray:
    """The ASCII cells of a str or bytes array as an (n, width) uint8 matrix
    padded with NUL bytes; a str array's code points are cast, not encoded."""
    c = np.ascontiguousarray(c)
    if c.dtype.kind == "S":
        return c.view(np.uint8).reshape(len(c), c.itemsize)
    codes = c.view(np.uint32).reshape(len(c), c.itemsize // 4)
    if codes.size and codes.max() > 127:
        raise ValueError("CSV string cells must be ASCII")
    return codes.astype(np.uint8)


def _write_csv(path: Path, columns: dict) -> None:
    """One line per row of the named, equally long columns, in the dict's
    order: string cells as they are, numbers as "%.11e" writes them.  Each
    block of rows is one uint8 matrix of NUL-padded cells and separators."""
    cols = [np.asarray(c) for c in columns.values()]
    strings = [j for j, c in enumerate(cols) if c.dtype.kind in "SU"]
    numeric = [j for j in range(len(cols)) if j not in strings]
    cols = [_text_cells(c) if j in strings else np.asarray(c, dtype=float) for j, c in enumerate(cols)]
    slots, width = [], 0   # each cell's byte range in a line, and the line's width
    for j, c in enumerate(cols):
        slots.append(slice(width, width + (c.shape[1] if j in strings else _CELL_WIDTH)))
        width = slots[-1].stop + 1

    def blocks():
        yield ",".join(columns) + "\n"
        for first in range(0, len(cols[0]) if cols else 0, _CSV_BLOCK_ROWS):
            block = [c[first:first + _CSV_BLOCK_ROWS] for c in cols]
            rows = len(block[0])
            out = np.full((rows, width), ord(","), np.uint8)
            out[:, -1] = ord("\n")
            if numeric:
                cells = _e_cells(np.column_stack([block[j] for j in numeric]).ravel()).reshape(rows, len(numeric), -1)
                for i, j in enumerate(numeric):
                    out[:, slots[j]] = cells[:, i]
            for j in strings:
                out[:, slots[j]] = block[j]
            yield out.tobytes().translate(None, b"\0").decode("ascii")

    _write_text(path, blocks())


def _re_im(columns: dict) -> dict:
    """The re_NAME and im_NAME columns of each complex column NAME."""
    out = {}
    for name, values in columns.items():
        values = np.asarray(values)
        out[f"re_{name}"], out[f"im_{name}"] = values.real, values.imag
    return out


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def cmd_spectrum(scn: Scenario, out: Path) -> None:
    grid = scn.grid()
    spectrum = instantaneous_spectrum(scn.params, grid)
    _write_csv(out / "spectrum.csv", {
        "t": grid, **_re_im({"lam_plus": spectrum.lam_plus, "lam_minus": spectrum.lam_minus}), "phase": spectrum.phase,
    })


def _write_lambda_csv(path: Path, grid, lam_p, lam_m) -> None:
    valid = np.where(_valid(lam_m), "1", "0")
    _write_csv(path, {"t": grid, "lambda_minus": lam_m, "lambda_plus": lam_p, "valid": valid})


def cmd_metric_scan(scn: Scenario, out: Path) -> None:
    grid = scn.grid()
    _write_lambda_csv(out / "metric_scan.csv", grid, *eigenvalues(scn.params, scn.dparams, grid))


def cmd_bounds(scn: Scenario, out: Path) -> None:
    p = scn.params
    interval = (scn.t_start, scn.t_end)
    basis = solution_basis(p)
    region = Region(basis, _grid(scn.t_start, scn.t_end))   # the scan grid of every bound
    d0_min, d1_min = approx_bounds_interval(p, interval, region=region)
    naive_d1 = float(region.n0[-1]) / basis.gram_det   # ||y0(t_end)||^2 / Delta
    payload = {
        "interval": [scn.t_start, scn.t_end],
        "equal_d_bound": _round12(equal_d_bound(p, interval, region=region)),
        "approx_d0_min": _round12(d0_min),
        "approx_d1_min": _round12(d1_min),
        "naive_d1_bound": _round12(naive_d1),
        "d0_sq": scn.d0_sq,
    }
    try:
        refined = refined_d1_bound(p, scn.d0_sq, interval, region=region)
        payload["refined_d1_bound"] = _round12(refined)
        payload["refined_reason"] = None
        payload["naive_sufficient"] = bool(naive_d1 >= refined - 1e-9)
    except DegenerateDenominatorError as exc:
        payload["refined_d1_bound"] = None
        payload["refined_reason"] = str(exc)
        payload["naive_sufficient"] = None
    _write_json(out / "bounds.json", payload)


def cmd_breakdown(scn: Scenario, out: Path) -> None:
    t_break = breakdown_time(scn.params, scn.dparams, scn.t_end)
    _write_json(
        out / "breakdown.json",
        {
            "t_max": scn.t_end,
            "d0_sq": scn.d0_sq,
            "d1_sq": scn.d1_sq,
            "breakdown_time": None if t_break is None else _round12(t_break),
        },
    )


def cmd_dilate(scn: Scenario, out: Path) -> None:
    p, d = scn.params, scn.dparams
    basis = solution_basis(p)
    grid = scn.grid()
    dh = assemble_dilated(p, d, grid, scn.mode, basis)
    tau, hh = dh.tau, dh.hh   # tau = [[d + c, a - i b], [a + i b, d - c]]
    t00, t11 = tau[:, 0, 0].real, tau[:, 1, 1].real
    _write_csv(out / "dilate.csv", {
        "t": grid,
        "a": tau[:, 1, 0].real,
        "b": tau[:, 1, 0].imag,
        "c": (t00 - t11) / 2.0,
        "d": (t00 + t11) / 2.0,
        **_re_im({f"hh_{i}{j}": hh[:, i, j] for i in range(4) for j in range(4)}),
        "hh_residual": np.abs(hh - hh.conj().swapaxes(1, 2)).max(axis=(1, 2)),
    })


def cmd_simulate(scn: Scenario, out: Path) -> None:
    p, d = scn.params, scn.dparams
    cfg = replace(scn.tolerances, output_grid=scn.grid())
    traj = simulate_dilated(p, d, scn.psi0, (scn.t_start, scn.t_end), cfg, scn.mode)
    psi_ref = traj.extras["psi_ref"]
    _write_csv(out / "simulate.csv", {
        "t": traj.times,
        **_re_im({"psi_up": psi_ref[:, 0], "psi_down": psi_ref[:, 1]}),
        **_re_im({f"Psi_{i}": traj.states[:, i] for i in range(4)}),
        "norm_Psi": traj.norms,
        "fidelity": traj.fidelity,
        "lower_consistency": traj.extras["lower_consistency"],
        "efficiency": traj.extras["efficiency"],
        "valid": np.where(traj.valid, "1", "0"),
    })
    norm0 = traj.norms[0]
    summary = {
        "max_upper_deviation": _round12(float(traj.extras["upper_deviation"].max())),
        "max_norm_drift": _round12(float(np.abs(traj.norms / norm0 - 1.0).max())),
        "max_lower_consistency": _round12(float(traj.extras["lower_consistency"].max())),
        "min_fidelity": _round12(float(traj.fidelity.min())),
        "h4_mode": scn.h4_mode,
    }
    for key, gate in (("max_upper_deviation", 1e-6), ("max_norm_drift", 1e-8)):   # the run's gates
        if summary[key] > gate:
            warnings.warn(f"simulate misses its gate: {key} = {summary[key]:.3e} > {gate:.0e}", stacklevel=2)
    _write_json(out / "simulate_summary.json", summary)


def cmd_efficiency(scn: Scenario, out: Path) -> None:
    p, d = scn.params, scn.dparams
    basis = solution_basis(p)
    if np.linalg.norm(scn.psi0) == 0.0:
        raise ValidationError("initial_state must be nonzero")
    grid = scn.grid()
    psi = propagate_analytic(p, scn.psi0, scn.t_start, grid, basis)
    eta = metric(p, d, grid, basis).eta
    _write_csv(out / "efficiency.csv", {
        "t": grid,
        "efficiency": _efficiency(psi, eta),
        "eta_weighted_norm": _eta_norm(psi, eta),
    })


# (t_end, [(tag, |D1|^2), ...]): the tables of one t_end share their grid
_FIGURE_SETS = [
    (5.0, [("238", 238.0), ("1474", 1474.0)]),
    (2.5, [("4p13", 4.13), ("4p634", 4.634)]),
]


def cmd_paper_figures(out: Path, grid_step: float = 1e-3) -> None:
    """Emit the four lambda_minus datasets and the reproduced constants.
    Each table grid is one region, which the searches read where their scan
    grid is its leading points: at grid step 1e-3 the [0, 5] one holds all."""
    p = HamiltonianParams(E=1.0, omega=0.5)
    basis = solution_basis(p)
    d0_sq = 3.5
    thresholds: dict = {"d0_sq": d0_sq}
    regions = {}
    for t_end, tables in _FIGURE_SETS:
        grid = Scenario(t_start=0.0, t_end=t_end, grid_step=grid_step).validate().grid()
        region = regions[t_end] = Region(basis, grid)
        for tag, d1_sq in tables:
            d = DilationParams(d0_sq, d1_sq)
            _write_lambda_csv(out / f"lambda_minus_d{tag}.csv", grid, *region.eigenvalues(d)[1:])
            t_break = breakdown_time(p, d, t_end, region=region)
            thresholds[f"breakdown_{tag}"] = None if t_break is None else _round12(t_break)
    scan = regions[5.0]
    d0_min, d1_min = approx_bounds_interval(p, (0.0, 4.0), region=scan)
    thresholds["approx_d0_min_0_4"] = _round12(d0_min)
    thresholds["approx_d1_min_0_4"] = _round12(d1_min)
    thresholds["approx_d1_min_0_4p5"] = _round12(_approx_d1_min(_scan_region(p, (0.0, 4.5), None, scan)))
    y0_21 = basis.y_pair(2.1)[0]
    thresholds["y0_norm_sq_2p1"] = _round12(float(np.vdot(y0_21, y0_21).real))
    thresholds["refined_d1_bound_2p1"] = _round12(refined_d1_bound(p, d0_sq, (0.0, 2.1), region=scan))
    _write_json(out / "thresholds.json", thresholds)


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "metric-scan": cmd_metric_scan,
    "bounds": cmd_bounds,
    "breakdown": cmd_breakdown,
    "dilate": cmd_dilate,
    "simulate": cmd_simulate,
    "efficiency": cmd_efficiency,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptdilate",
        description="Metric-operator construction and Hermitian dilation of the swept two-level model",
    )
    parser.add_argument("command", choices=[*_COMMANDS, "paper-figures"])
    parser.add_argument("--scenario", type=str, default=None, help="JSON scenario file")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    parser.add_argument("--grid-step", type=float, default=None, help="override scenario grid_step (paper-figures: 1e-3)")
    parser.add_argument("--tmax", type=float, default=None, help="override scenario t_end")
    parser.add_argument("--h4-mode", type=str, default=None, choices=_H4_MODE_NAMES)
    return parser


def _run(args) -> None:
    if args.command == "paper-figures":
        return cmd_paper_figures(Path(args.out), grid_step=1e-3 if args.grid_step is None else args.grid_step)
    scn = Scenario.from_file(args.scenario) if args.scenario else Scenario()
    for key, value in (("grid_step", args.grid_step), ("t_end", args.tmax), ("h4_mode", args.h4_mode)):
        if value is not None:
            setattr(scn, key, value)
    _COMMANDS[args.command](scn.validate(), Path(args.out))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        scenario_flags = {"--scenario": args.scenario, "--tmax": args.tmax, "--h4-mode": args.h4_mode}
        if args.command == "paper-figures" and any(v is not None for v in scenario_flags.values()):
            parser.error(f"paper-figures takes none of {', '.join(scenario_flags)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings(record=True) as caught:
        try:
            _run(args)
            code, error = 0, None
        except ValidationError as exc:
            code, error = 2, f"validation error: {exc}"
        except PTDilateError as exc:
            code, error = 3, f"numeric-domain error: {exc}"
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if error:
        print(error, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
