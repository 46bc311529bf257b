"""Per-layer timings of `simulate` and `paper-figures`: generator assembly,
one Magnus chunk and the CSV writes, each the median of repeated in-process
calls.

    python tools/layer_cost.py [--src SRC] [--repeat N]

SRC (default: this checkout's `src/`) is the `ptdilate` that is timed;
pointing it at another checkout's `src/` times that version on the same
inputs.  The inputs are those of the default `simulate` scenario: E = 1,
w = 1/2, D = (3.5, 238) on [0, 3.9].  Printed, in microseconds:

- `assemble_dilated` at one time (20 N calls, each at its own time) and
  on 1536 times, the three Gauss-Legendre nodes of one chunk of
  `CHUNK_STEPS` = 512 Magnus steps (N calls), in both h4 gauges;
- `_magnus_steps` on one chunk of 512 steps, with the generator's 1536
  matrices computed beforehand, so that only the Magnus combination and
  the exponentials are timed (N calls), and inside it `_expm_skew`, the
  exponentials alone, on the anti-Hermitian Omega stack of that chunk
  (N calls; its largest ||Omega||_F is printed beside it, and the line is
  left out for a checkout without `_expm_skew`);
- the `simulate` command (`cmd_simulate`, N runs) and, inside it, the
  write of `simulate.csv` (`_write_csv`);
- the `paper-figures` command (`cmd_paper_figures`, N runs) and, inside
  it, the write of each of its four `lambda_minus_d*.csv` tables.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _median_us(samples) -> str:
    return f"{1e6 * statistics.median(samples):10.1f} us"


def _timed(fn, args_list) -> list[float]:
    samples = []
    for args in args_list:
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
    return samples


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the ptdilate package")
    parser.add_argument("--repeat", type=int, default=21, help="calls per array timing (N)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path.insert(0, args.src)

    import numpy as np

    from ptdilate import cli, evolve
    from ptdilate.dilation import H4Mode, assemble_dilated
    from ptdilate.metric import DilationParams
    from ptdilate.model import HamiltonianParams
    from ptdilate.solutions import solution_basis

    n = args.repeat
    p, d = HamiltonianParams(1.0, 0.5), DilationParams(3.5, 238.0)
    basis = solution_basis(p)
    steps = evolve.CHUNK_STEPS
    widths = np.full(steps, 3.9 / steps)
    starts = np.arange(steps) * widths[0]
    nodes = (starts[:, None] + widths[:, None] * evolve._GL_NODES).ravel()
    one_point = np.linspace(0.0, 3.9, 20 * n)
    assemble_dilated(p, d, nodes, H4Mode.HERMITIAN_PART, basis)   # warm every first-call path

    print(f"ptdilate from {args.src}")
    for mode in H4Mode:
        single = _timed(assemble_dilated, [(p, d, float(t), mode, basis) for t in one_point])
        chunk = _timed(assemble_dilated, [(p, d, nodes, mode, basis)] * n)
        print(f"assemble_dilated {mode.value:>14}, 1 time    {_median_us(single)}  ({len(single)} calls)")
        print(f"assemble_dilated {mode.value:>14}, {nodes.size} times {_median_us(chunk)}  ({n} calls)")

    hh = assemble_dilated(p, d, nodes, H4Mode.HERMITIAN_PART, basis).hh
    magnus = _timed(evolve._magnus_steps, [(lambda ts: hh, starts, widths)] * n)
    print(f"_magnus_steps, {steps} steps                   {_median_us(magnus)}  ({n} calls)")
    if hasattr(evolve, "_expm_skew"):   # older checkouts exponentiate through np.linalg.eigh
        exponents, expm_skew = [], evolve._expm_skew   # the (x, norm) of one chunk
        evolve._expm_skew = lambda *args: exponents.append(args) or expm_skew(*args)
        try:
            evolve._magnus_steps(lambda ts: hh, starts, widths)
        finally:
            evolve._expm_skew = expm_skew
        exponentials = _timed(expm_skew, exponents * n)
        print(f"  of which _expm_skew, ||Omega||_F <= {exponents[0][1]:.3f}  {_median_us(exponentials)}  ({n} calls)")

    writes, write_csv = {}, cli._write_csv   # seconds per call, by file name

    def timed_write(path, columns):
        t0 = time.perf_counter()
        write_csv(path, columns)
        writes.setdefault(path.name, []).append(time.perf_counter() - t0)

    scn = cli.Scenario(t_end=3.9).validate()
    cli._write_csv = timed_write
    try:
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            runs = _timed(cli.cmd_simulate, [(scn, Path(out))] * n)
            figures = _timed(cli.cmd_paper_figures, [(Path(out),)] * n)
    finally:
        cli._write_csv = write_csv
    print(f"cmd_simulate on [0, 3.9]                     {_median_us(runs)}  ({n} runs)")
    print(f"  of which the simulate.csv write            {_median_us(writes.pop('simulate.csv'))}")
    print(f"cmd_paper_figures                            {_median_us(figures)}  ({n} runs)")
    for name, samples in sorted(writes.items()):
        print(f"  of which the {name + ' write':<30}{_median_us(samples)}")


if __name__ == "__main__":
    main()
