"""Regenerate the reference data in refs/ from the ptdilate in ../src.

    python3 perfbench/capture_refs.py

Run it only to re-baseline on purpose; the references pin the outputs of
the commit that captured them.  figures_half.json keeps every STRIDE-th
row of the four lambda_minus CSVs plus thresholds.json.  scan_whittaker.json
keeps, for each seeded start offset, the unit-D scalars ||y0||^2, ||y1||^2
and Delta at every grid point, from which checks.scan_reference rebuilds
lambda_minus and lambda_plus for any (D0^2, D1^2).
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import SCAN_OFFSETS, SCAN_OMEGA, SCAN_STEP, SCAN_T_END, scan_start  # noqa: E402

STRIDE = 10


def capture_figures(work: Path) -> dict:
    from ptdilate.cli import _FIGURE_SETS, main

    if main(["paper-figures", "--out", str(work)]) != 0:
        raise SystemExit("paper-figures failed")
    tables = {}
    for tag, _, t_end in _FIGURE_SETS:
        with open(work / f"lambda_minus_d{tag}.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        tables[tag] = {
            "rows": len(rows),
            "step": 1e-3,
            "t_end": t_end,
            "lambda_minus": [float(r[1]) for r in rows[::STRIDE]],
            "lambda_plus": [float(r[2]) for r in rows[::STRIDE]],
        }
    with open(work / "thresholds.json", encoding="utf-8") as fh:
        thresholds = json.load(fh)
    return {"stride": STRIDE, "tables": tables, "thresholds": thresholds}


def capture_scan() -> dict:
    from ptdilate.cli import Scenario
    from ptdilate.metric import DilationParams, _scalars
    from ptdilate.model import HamiltonianParams
    from ptdilate.solutions import solution_basis

    p = HamiltonianParams(E=1.0, omega=SCAN_OMEGA)
    basis = solution_basis(p)
    unit = DilationParams(1.0, 1.0)
    offsets = []
    for k in range(SCAN_OFFSETS):
        scn = Scenario(omega=SCAN_OMEGA, t_start=scan_start(k), t_end=SCAN_T_END, grid_step=SCAN_STEP)
        entry = {"t_start": scn.t_start, "t": [], "n0": [], "n1": [], "delta": []}
        for t in scn.grid():
            n0, n1, _, delta, _, _ = _scalars(p, unit, float(t), basis)
            for key, value in (("t", float(t)), ("n0", n0), ("n1", n1), ("delta", delta)):
                entry[key].append(value)
        offsets.append(entry)
    return {"omega": SCAN_OMEGA, "offsets": offsets}


def main() -> int:
    work = HERE / ".work" / "capture"
    try:
        figures = capture_figures(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "refs").mkdir(exist_ok=True)
    for name, payload in (("figures_half.json", figures), ("scan_whittaker.json", capture_scan())):
        with open(HERE / "refs" / name, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
