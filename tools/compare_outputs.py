"""Run a fixed set of ptdilate CLI invocations, or compare two such runs.

    python tools/compare_outputs.py run OUT [--src SRC]
    python tools/compare_outputs.py diff DIR_A DIR_B

`run` executes every invocation below in a fresh interpreter that imports
`ptdilate` from SRC (default: this checkout's `src/`), each into its own
subdirectory of OUT, and records the exit codes in OUT/exit_codes.json.
Pointing SRC at another checkout's `src/` gives the outputs of that
version on the same inputs.

`diff` prints, per file present in either directory: whether the bytes are
identical, how many CSV or JSON cells differ, and the largest relative
difference among the numeric cells that differ, also scaled by the largest
magnitude in the cell's column.
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


def _seeded_state(seed: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.gauss(0.0, 1.0) for _ in range(4)]


# (name, CLI arguments, scenario or None)
INVOCATIONS = [
    ("paper_figures", ["paper-figures"], None),
    ("simulate_default", ["simulate", "--tmax", "3.9"], None),
    ("simulate_seeded", ["simulate"], {"t_end": 3.9, "initial_state": _seeded_state(1)}),
    ("simulate_span_start", ["simulate"], {"d0_sq": 0.9, "t_start": 2.0, "t_end": 3.5}),
    ("metric_scan_half", ["metric-scan"], {"d0_sq": 2.0, "d1_sq": 500.0, "t_end": 6.0}),
    ("metric_scan_037", ["metric-scan"], {"omega": 0.37, "t_end": 10.0, "grid_step": 0.05}),
    # w t^2 up to 520: the asymptotic W past magnitude 50, and l past 1e154
    ("metric_scan_far", ["metric-scan"], {"omega": 1.3, "t_end": 20.0, "grid_step": 0.25}),
    ("efficiency", ["efficiency"], {"t_end": 3.9, "initial_state": _seeded_state(2)}),
    ("bounds", ["bounds"], None),
    # general omega: every bound divides by the Whittaker basis's Delta = 4 w^2
    ("bounds_general", ["bounds"], {"omega": 0.37, "d0_sq": 20.0, "t_end": 2.0}),
    ("breakdown", ["breakdown", "--tmax", "5.0"], None),
    # general omega: the Whittaker basis, with a crossing at t = 1.3966 for the bisection
    ("breakdown_general", ["breakdown", "--tmax", "1.5"], {"omega": 1.3, "d1_sq": 2.0}),
    ("dilate_hermitian_part", ["dilate"], {"t_end": 3.9, "grid_step": 0.01}),
    ("dilate_mirror", ["dilate", "--h4-mode", "mirror"], {"t_end": 3.9, "grid_step": 0.01}),
]


def run(out: Path, src: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    codes = {}
    for name, argv, scenario in INVOCATIONS:
        target = out / name
        target.mkdir(exist_ok=True)
        args = [sys.executable, "-m", "ptdilate.cli", *argv, "--out", str(target)]
        if scenario is not None:
            path = out / f"{name}.scenario.json"
            path.write_text(json.dumps(scenario), encoding="utf-8")
            args += ["--scenario", str(path)]
        proc = subprocess.run(args, env=env, capture_output=True, text=True)
        codes[name] = proc.returncode
        print(f"{name}: exit {proc.returncode}", proc.stderr.strip(), flush=True)
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")


def _table(path: Path) -> list[list[str]]:
    """CSV rows; a JSON file's leaves (keys included) as one column."""
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    leaves: list[str] = []

    def walk(value):
        if isinstance(value, dict):
            for key in sorted(value):
                leaves.append(key)
                walk(value[key])
        elif isinstance(value, list):
            leaves.append(f"[{len(value)}]")
            for item in value:
                walk(item)
        else:
            leaves.append(json.dumps(value))

    walk(json.loads(path.read_text(encoding="utf-8")))
    return [[leaf] for leaf in leaves]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _compare(rows_a: list[list[str]], rows_b: list[list[str]]) -> str:
    """Differing cells, their largest relative difference, and the largest
    difference scaled by its column's largest magnitude (the meaningful
    measure for columns that hold rounding residuals)."""
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "differs in shape"
    scale: dict[int, float] = {}
    for row in rows_a + rows_b:
        for j, cell in enumerate(row):
            x = _number(cell)
            if x is not None:
                scale[j] = max(scale.get(j, 0.0), abs(x))
    changed, other, rel, col = 0, 0, 0.0, 0.0
    for ra, rb in zip(rows_a, rows_b):
        for j, (a, b) in enumerate(zip(ra, rb)):
            if a == b:
                continue
            changed += 1
            x, y = _number(a), _number(b)
            if x is None or y is None:
                other += 1
                continue
            rel = max(rel, abs(x - y) / max(abs(x), abs(y)))
            col = max(col, abs(x - y) / scale[j])
    total = sum(len(r) for r in rows_a)
    text = f"{changed} of {total} cells, max relative {rel:.3e}, max column-scaled {col:.3e}"
    return text + (f", {other} non-numeric" if other else "")


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
