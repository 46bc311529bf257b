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
  (N calls; its largest ||Omega||_F and the Taylor degree taken at it are
  printed beside it, and the line is left out for a checkout without
  `_expm_skew`); both for the chunk above, steps of 3.9 / 512, and for a
  chunk of steps of 1e-3 from t = 0, the output run's on the default grid;
- `_magnus_run`'s propagation of the state through that last chunk, with
  its propagators computed beforehand (N calls, each with one copy of the
  propagator stack);
- the `simulate` command (`cmd_simulate`, N runs) and, inside it, the
  write of `simulate.csv` (`_write_csv`);
- the `paper-figures` command (`cmd_paper_figures`, N runs) and, inside
  it, the write of each of its four `lambda_minus_d*.csv` tables, its
  breakdown searches and its bound searches (the `breakdown_time` calls,
  and the bound-function calls, summed per run);
- the basis points and calls of one `paper-figures` and one default
  `bounds` run, counted by wrapping `SolutionBasis.dual_amplitudes`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

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


def _taylor_degree(expm_skew, norm: float) -> int:
    """The Taylor degree expm_skew takes at this largest norm: the exponential
    of the 1x1 stack i 2^s, which the scaling makes i, is the 2^s-th power of
    a partial sum of e^i, and partial sums of different degrees differ by
    more than rounding."""
    s = math.frexp(norm)[1] + 1 if norm >= 0.5 else 0
    u = expm_skew(np.full((1, 1, 1), 1j * 2.0**s), norm)[0, 0, 0]
    partial = np.cumsum([1j**k / math.factorial(k) for k in range(20)]) ** 2**s
    return int(np.argmin(np.abs(partial - u)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the ptdilate package")
    parser.add_argument("--repeat", type=int, default=21, help="calls per array timing (N)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path.insert(0, args.src)

    from ptdilate import cli, evolve
    from ptdilate.dilation import H4Mode, assemble_dilated
    from ptdilate.metric import DilationParams
    from ptdilate.model import HamiltonianParams
    from ptdilate.solutions import SolutionBasis, solution_basis

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

    for width in (3.9 / steps, 1e-3):
        widths = np.full(steps, width)
        starts = np.arange(steps) * width
        hh = assemble_dilated(p, d, (starts[:, None] + widths[:, None] * evolve._GL_NODES).ravel(), H4Mode.HERMITIAN_PART, basis).hh
        magnus = _timed(evolve._magnus_steps, [(lambda ts: hh, starts, widths)] * n)
        print(f"_magnus_steps, {steps} steps of {width:.2e}          {_median_us(magnus)}  ({n} calls)")
        if hasattr(evolve, "_expm_skew"):   # older checkouts exponentiate through np.linalg.eigh
            exponents, expm_skew = [], evolve._expm_skew   # the (x, norm) of one chunk
            evolve._expm_skew = lambda *args: exponents.append(args) or expm_skew(*args)
            try:
                evolve._magnus_steps(lambda ts: hh, starts, widths)
            finally:
                evolve._expm_skew = expm_skew
            exponentials = _timed(expm_skew, exponents * n)
            norm = exponents[0][1]
            print(f"  of which _expm_skew, ||Omega||_F <= {norm:.3f}, degree {_taylor_degree(expm_skew, norm):2d}"
                  f"{_median_us(exponentials)}  ({n} calls)")

    # the propagators of the last chunk, handed out afresh at each call, as a
    # newer `_magnus_run` overwrites them
    propagators, magnus_steps = evolve._magnus_steps(lambda ts: hh, starts, widths), evolve._magnus_steps
    evolve._magnus_steps = lambda *args: propagators.transpose(1, 2, 0).copy().transpose(2, 0, 1)
    edges, counts, psi0 = np.append(starts, steps * width), np.ones(steps, dtype=int), np.array([1.0, 0.0, 0.5, 0.5j])
    try:
        propagation = _timed(evolve._magnus_run, [(None, psi0, edges, counts)] * n)
    finally:
        evolve._magnus_steps = magnus_steps
    print(f"_magnus_run propagation, {steps} steps             {_median_us(propagation)}  ({n} calls)")

    writes, write_csv = {}, cli._write_csv   # seconds per call, by file name

    def timed_write(path, columns):
        t0 = time.perf_counter()
        write_csv(path, columns)
        writes.setdefault(path.name, []).append(time.perf_counter() - t0)

    # the search functions as `cli` binds them; a checkout may lack some
    searches = {
        "breakdown searches": ("breakdown_time",),
        "bound searches": ("approx_bounds_interval", "refined_d1_bound", "equal_d_bound", "_approx_d1_min"),
    }
    search_s = dict.fromkeys(searches, 0.0)   # seconds in the current run
    originals = {name: getattr(cli, name) for names in searches.values() for name in names if hasattr(cli, name)}

    def timed_search(kind, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                search_s[kind] += time.perf_counter() - t0
        return call

    def figures_run(out):
        search_s.update(dict.fromkeys(searches, 0.0))
        cli.cmd_paper_figures(out)
        return dict(search_s)

    scn = cli.Scenario(t_end=3.9).validate()
    cli._write_csv = timed_write
    for kind, names in searches.items():
        for name in names:
            if name in originals:
                setattr(cli, name, timed_search(kind, originals[name]))
    try:
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            runs = _timed(cli.cmd_simulate, [(scn, Path(out))] * n)
            per_run = []
            figures = _timed(lambda: per_run.append(figures_run(Path(out))), [()] * n)
    finally:
        cli._write_csv = write_csv
        for name, fn in originals.items():
            setattr(cli, name, fn)
    print(f"cmd_simulate on [0, 3.9]                     {_median_us(runs)}  ({n} runs)")
    print(f"  of which the simulate.csv write            {_median_us(writes.pop('simulate.csv'))}")
    print(f"cmd_paper_figures                            {_median_us(figures)}  ({n} runs)")
    for name, samples in sorted(writes.items()):
        print(f"  of which the {name + ' write':<30}{_median_us(samples)}")
    for kind in searches:
        print(f"  of which the {kind:<30}{_median_us([run[kind] for run in per_run])}")

    sizes, dual_amplitudes = [], SolutionBasis.dual_amplitudes   # times per basis call
    SolutionBasis.dual_amplitudes = lambda self, t: sizes.append(np.size(t)) or dual_amplitudes(self, t)
    counts = {}
    try:
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            for label, command, inputs in (("paper-figures", cli.cmd_paper_figures, ()),
                                           ("bounds (default scenario)", cli.cmd_bounds, (cli.Scenario(),))):
                sizes.clear()
                command(*inputs, Path(out))
                counts[label] = (sum(sizes), len(sizes), sum(size > 33 for size in sizes))
    finally:
        SolutionBasis.dual_amplitudes = dual_amplitudes
    for label, (points, calls, large) in counts.items():
        print(f"basis points of one {label} run: {points} in {calls} calls, {large} of them over 33 times")


if __name__ == "__main__":
    main()
