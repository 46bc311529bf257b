"""Run a fixed set of ptdilate CLI invocations, or compare two such runs.

    python tools/compare_outputs.py run OUT [--src SRC]
    python tools/compare_outputs.py diff DIR_A DIR_B

`run` executes every invocation below in a fresh interpreter that imports
`ptdilate` from SRC (default: this checkout's `src/`), each into its own
subdirectory of OUT, and records the exit codes in OUT/exit_codes.json
and each invocation's stderr in OUT/stderr.json.
Pointing SRC at another checkout's `src/` gives the outputs of that
version on the same inputs.

`diff` prints, per file present in either directory: whether the bytes are
identical, how many CSV or JSON cells differ, and the largest relative
difference among the numeric cells that differ, also scaled by the largest
magnitude in the cell's column, each with the column it comes from.  A JSON
file is one row with a column per leaf.  Columns whose largest magnitude is
at most 1e-9 hold rounding residuals; they are reported apart, by their
largest absolute difference, so they do not swamp the scaled figure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDING_LEVEL = 1e-9   # a column whose largest magnitude is at most this holds rounding residuals


def _seeded_state(seed: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.gauss(0.0, 1.0) for _ in range(4)]


# (name, CLI arguments, scenario or None)
INVOCATIONS = [
    ("paper_figures", ["paper-figures"], None),
    ("spectrum", ["spectrum"], {"t_end": 4.0, "grid_step": 0.01}),
    ("simulate_default", ["simulate", "--tmax", "3.9"], None),
    ("simulate_seeded", ["simulate"], {"t_end": 3.9, "initial_state": _seeded_state(1)}),
    ("simulate_span_start", ["simulate"], {"d0_sq": 0.9, "t_start": 2.0, "t_end": 3.5}),
    # general omega: the Whittaker basis at every Magnus node
    ("simulate_general", ["simulate"], {"omega": 1.0, "t_start": 0.5, "t_end": 1.5, "grid_step": 0.1}),
    ("metric_scan_half", ["metric-scan"], {"d0_sq": 2.0, "d1_sq": 500.0, "t_end": 6.0}),
    ("metric_scan_037", ["metric-scan"], {"omega": 0.37, "t_end": 10.0, "grid_step": 0.05}),
    # w t^2 up to 520: deep Whittaker knots, and l past 1e154
    ("metric_scan_far", ["metric-scan"], {"omega": 1.3, "t_end": 20.0, "grid_step": 0.25}),
    # w t^2 from 50.6 to 134: deep Whittaker knots at a slow sweep
    ("metric_scan_037_far", ["metric-scan"], {"omega": 0.37, "t_start": 11.7, "t_end": 19.0, "grid_step": 0.05}),
    # a fast sweep to w t^2 = 675, where the w h^2 term of the knot steps weighs most
    ("metric_scan_3_far", ["metric-scan"], {"omega": 3.0, "t_end": 15.0, "grid_step": 0.05}),
    ("efficiency", ["efficiency"], {"t_end": 3.9, "initial_state": _seeded_state(2)}),
    ("bounds", ["bounds"], None),
    # general omega: every bound divides by the Whittaker basis's Delta = 4 w^2
    ("bounds_general", ["bounds"], {"omega": 0.37, "d0_sq": 20.0, "t_end": 2.0}),
    # an interval that does not start at 0: every bound slices [t_start, t_end]
    ("bounds_span", ["bounds"], {"t_start": 2.0, "t_end": 3.5, "d0_sq": 0.9}),
    ("breakdown", ["breakdown", "--tmax", "5.0"], None),
    # general omega: the Whittaker basis, with a crossing at t = 1.3966 for the refinement passes
    ("breakdown_general", ["breakdown", "--tmax", "1.5"], {"omega": 1.3, "d1_sq": 2.0}),
    # lambda_minus(0) = 1 - 5e-13 counts as valid; it turns invalid at t = 1.0e-6
    ("breakdown_edge", ["breakdown"], {"d0_sq": 0.9999999999995, "t_end": 2.0}),
    ("dilate_hermitian_part", ["dilate"], {"t_end": 3.9, "grid_step": 0.01}),
    ("dilate_mirror", ["dilate", "--h4-mode", "mirror"], {"t_end": 3.9, "grid_step": 0.01}),
    # general omega: Re eta_10 != 0, so every entry of eta - 1 enters tau;
    # t_start past the frozen small-t Whittaker amplitude (t <= 1e-3)
    ("dilate_general", ["dilate"], {"omega": 0.37, "t_start": 0.05, "t_end": 2.0, "grid_step": 0.01}),
]


def run(out: Path, src: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    codes, stderr = {}, {}
    for name, argv, scenario in INVOCATIONS:
        target = out / name
        target.mkdir(exist_ok=True)
        args = [sys.executable, "-m", "ptdilate.cli", *argv, "--out", str(target)]
        if scenario is not None:
            path = out / f"{name}.scenario.json"
            path.write_text(json.dumps(scenario), encoding="utf-8")
            args += ["--scenario", str(path)]
        proc = subprocess.run(args, env=env, capture_output=True, text=True)
        codes[name], stderr[name] = proc.returncode, proc.stderr
        print(f"{name}: exit {proc.returncode}", proc.stderr.strip(), flush=True)
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")
    (out / "stderr.json").write_text(json.dumps(stderr, indent=2) + "\n", encoding="utf-8")


def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    """(header, rows) of a CSV file; a JSON file is one row of its leaves,
    each headed by its key path."""
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        return rows[0], rows[1:]
    leaves: dict[str, str] = {}

    def walk(value, key):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(value[k], f"{key}.{k}" if key else k)
        elif isinstance(value, list):
            leaves[f"{key}[]"] = str(len(value))
            for i, item in enumerate(value):
                walk(item, f"{key}[{i}]")
        else:
            leaves[key] = json.dumps(value)

    walk(json.loads(path.read_text(encoding="utf-8")), "")
    return list(leaves), [list(leaves.values())]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _compare(table_a, table_b) -> str:
    """Differing cells; the largest relative difference and the largest
    difference scaled by its column's largest magnitude, each with its
    column; and apart from those, the largest absolute difference in the
    columns that hold only rounding residuals."""
    (header, rows_a), (header_b, rows_b) = table_a, table_b
    if header != header_b or [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "differs in shape"
    scale: dict[int, float] = {}
    for row in rows_a + rows_b:
        for j, cell in enumerate(row):
            x = _number(cell)
            if x is not None:
                scale[j] = max(scale.get(j, 0.0), abs(x))
    changed, other = 0, 0
    rel, col, noise = (0.0, None), (0.0, None), (0.0, None)   # (value, column)
    for ra, rb in zip(rows_a, rows_b):
        for j, (a, b) in enumerate(zip(ra, rb)):
            if a == b:
                continue
            changed += 1
            x, y = _number(a), _number(b)
            if x is None or y is None:
                other += 1
                continue
            if x == y:   # the same number spelled differently, 0.0 and -0.0 say
                continue
            if scale[j] <= ROUNDING_LEVEL:
                noise = max(noise, (abs(x - y), header[j]), key=lambda v: v[0])
                continue
            rel = max(rel, (abs(x - y) / max(abs(x), abs(y)), header[j]), key=lambda v: v[0])
            col = max(col, (abs(x - y) / scale[j], header[j]), key=lambda v: v[0])
    parts = [f"{changed} of {sum(len(r) for r in rows_a)} cells"]
    if col[1] is not None:
        parts.append(f"max relative {rel[0]:.3e} ({rel[1]}), max column-scaled {col[0]:.3e} ({col[1]})")
    if noise[1] is not None:
        parts.append(f"in columns with max <= {ROUNDING_LEVEL:g}: max absolute {noise[0]:.3e} ({noise[1]})")
    if other:
        parts.append(f"{other} non-numeric")
    return ", ".join(parts)


def diff(dir_a: Path, dir_b: Path) -> None:
    names = sorted(
        {p.relative_to(d).as_posix() for d in (dir_a, dir_b) for p in d.rglob("*") if p.is_file()}
    )
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.exists() and b.exists()):
            print(f"{name}: only in {dir_a if a.exists() else dir_b}")
        elif a.read_bytes() == b.read_bytes():
            print(f"{name}: identical")
        else:
            print(f"{name}: differs, {_compare(_table(a), _table(b))}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run every invocation into OUT")
    p_run.add_argument("out", type=Path)
    p_run.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the ptdilate package")
    p_diff = sub.add_parser("diff", help="compare two run directories")
    p_diff.add_argument("dir_a", type=Path)
    p_diff.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.out, args.src.resolve())
    else:
        diff(args.dir_a, args.dir_b)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
