"""ptdilate benchmark: fresh-process CLI runs, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the package is imported from the `src/` next to
this directory, never from an installed copy.  Every sample is one fresh
interpreter (cold caches, as a CLI user sees them) that imports `ptdilate`
and calls `ptdilate.cli.main(argv)` on inputs generated from the seed.
Samples run one at a time with BLAS pinned to one thread, and a new one
starts only while its typical duration still fits in S seconds (at least
three per run).  Each sample's outputs are checked; a non-zero exit code
or a failed check counts it as failed.

With --trace 0 the last line reports the end-to-end metrics (medians over
the samples); `run_ref_s` and `setup_s` are the `main()` and set-up wall
times scaled by a calibration loop timed in the same process (see
child.py), and the wall times are printed on the lines before it.  With --trace 1 the first half of S runs
plain samples and the second half traced ones (`tracer.py`); the last
line reports the per-layer metrics, and the lines before it every span,
the derived layer times and the per-call medians.  See README.md for the
rationale.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from workloads import WORKLOADS, Inputs, make_inputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD = HERE / "child.py"
MIN_SAMPLES = {"plain": 3, "trace": 2}
HARD_LIMIT_S = 150.0        # no sample starts or keeps running past this
BLAS_THREADS = "1"
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
ENV.update({k: BLAS_THREADS for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

END_TO_END_UNITS = {"run_ref_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# printed with the end-to-end metrics: the wall times they scale and the calibration loop
PRINTED_UNITS = {"run_s": "s", "setup_wall_s": "s", "calib_s": "s", **END_TO_END_UNITS}


@dataclass
class Sample:
    mode: str
    wall_s: float
    result: dict | None
    problems: list[str] = field(default_factory=list)


def run_child(mode: str, cli_args: list[str], timeout: float) -> tuple[dict | None, str]:
    """Start child.py, wait for it, return its last stdout line as JSON."""
    launch = time.monotonic()
    cmd = [sys.executable, str(CHILD), repr(launch), str(SRC), mode, *cli_args]
    try:
        proc = subprocess.run(cmd, env=ENV, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"child exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return json.loads(lines[-1]), proc.stderr
    except json.JSONDecodeError:
        return None, f"unreadable child output: {lines[-1][:200]}"


def take_sample(workload: str, inputs: Inputs, mode: str, out: Path, timeout: float) -> Sample:
    t0 = time.monotonic()
    result, err = run_child(mode, [*inputs.argv, "--out", str(out)], timeout)
    sample = Sample(mode, time.monotonic() - t0, result)
    if result is None:
        sample.problems = [err]
    elif result["rc"] != 0:
        sample.problems = [f"ptdilate exit code {result['rc']}: {err.strip()[-500:]}"]
    else:
        sample.problems = checks.check(workload, out, inputs)
    shutil.rmtree(out, ignore_errors=True)
    return sample


def collect(workload: str, inputs: Inputs, work: Path, seconds: float, trace: bool) -> list[Sample]:
    begin = time.monotonic()
    plan = [("plain", seconds / 2.0), ("trace", seconds)] if trace else [("plain", seconds)]
    samples: list[Sample] = []
    for mode, until in plan:
        taken: list[Sample] = []
        while True:
            remaining = HARD_LIMIT_S - (time.monotonic() - begin)
            if remaining <= 1.0:
                break
            s = take_sample(workload, inputs, mode, work / f"out{len(samples)}", remaining)
            samples.append(s)
            taken.append(s)
            typical = statistics.median(x.wall_s for x in taken)
            if len(taken) >= MIN_SAMPLES[mode] and time.monotonic() - begin + typical > until:
                break
    return samples


def _ms(seconds: float | None) -> str:
    return "n/a" if seconds is None else f"{seconds * 1e3:.4g} ms"


# --- per-layer metrics from traced samples ------------------------------------

# name, unit; the ones reported on the last line of a traced run
PER_LAYER = (
    ("specfun.erfi_mp.calls", "count"),
    ("specfun.whittaker_series.calls", "count"),
    ("specfun.whittaker_asym.calls", "count"),
    ("specfun.self_s", "s"),
    ("solutions.x_pair.calls", "count"),
    ("solutions.x_pair.self_s", "s"),
    ("solutions.y_pair_mp.calls", "count"),
    ("solutions.cache_hit_ratio", "ratio"),
    ("metric.metric.calls", "count"),
    ("metric.eigenvalues.calls", "count"),
    ("metric.self_s", "s"),
    ("metric.mp_share", "ratio"),
    ("dilation.assemble.calls", "count"),
    ("evolve.rhs_calls", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# per-call medians next to the ROADMAP's single-shot baseline (2 cores, one run each)
PER_CALL = (
    ("specfun.erfi_mp", "median_self_s", "erfi in mpmath, self", None),
    ("specfun.whittaker_series", "median_self_s", "Whittaker W series, self", None),
    ("specfun.whittaker_asym", "median_self_s", "Whittaker W asymptotic, self", None),
    ("solutions.x_pair", "median_total_s", "x_pair per point",
     "0.26 ms closed form cold; 6.1 / 10.2 ms Whittaker cold, w = 1/2 / 0.37"),
    ("solutions.x_pair", "median_self_s", "x_pair per point, self", None),
    ("metric.metric", "median_total_s", "metric() per point",
     "0.08 ms closed form warm; 8.2 ms Whittaker w = 0.37"),
    ("metric.eigenvalues", "median_total_s", "eigenvalues per point", None),
    ("metric.scalars_mp", "median_total_s", "mpmath metric path per point", "2.0 ms (w t^2 > 12)"),
    ("dilation.assemble", "median_total_s", "assemble_dilated per call",
     "0.18 / 0.22 ms warm, hermitian_part / mirror"),
)


class TraceView:
    """Medians over traced samples; counts come from the first one."""

    def __init__(self, traces: list[dict]):
        self.traces = traces
        self.first = traces[0]

    def has(self, name: str) -> bool:
        return name in self.first["spans"]

    def calls(self, name: str) -> int | None:
        return self.first["spans"][name]["calls"] if self.has(name) else None

    def span_s(self, key: str, *names: str) -> float | None:
        present = [n for n in names if self.has(n)]
        if not present:
            return None
        return statistics.median(sum(t["spans"][n][key] for n in present) for t in self.traces)

    def layer_self_s(self, layer: str) -> float | None:
        return self.span_s("self_s", *(n for n in self.first["spans"] if n.startswith(layer + ".")))

    def counts(self, trace: dict) -> tuple:
        return (
            sorted((n, s["calls"]) for n, s in trace["spans"].items()),
            trace["rhs_calls"],
            trace["cache"],
        )


def per_layer_metrics(view: TraceView, traced_run_s: float, plain_run_s: float) -> dict:
    first = view.first
    cache = first["cache"]
    mp, dbl = view.calls("metric.scalars_mp"), view.calls("metric.scalars_double")
    values = {
        "specfun.erfi_mp.calls": view.calls("specfun.erfi_mp"),
        "specfun.whittaker_series.calls": view.calls("specfun.whittaker_series"),
        "specfun.whittaker_asym.calls": view.calls("specfun.whittaker_asym"),
        "specfun.self_s": view.layer_self_s("specfun"),
        "solutions.x_pair.calls": view.calls("solutions.x_pair"),
        "solutions.x_pair.self_s": view.span_s("self_s", "solutions.x_pair"),
        "solutions.y_pair_mp.calls": view.calls("solutions.y_pair_mp"),
        "solutions.cache_hit_ratio": (
            None if cache is None else cache["hits"] / cache["lookups"] if cache["lookups"] else 0.0
        ),
        "metric.metric.calls": view.calls("metric.metric"),
        "metric.eigenvalues.calls": view.calls("metric.eigenvalues"),
        "metric.self_s": view.layer_self_s("metric"),
        "metric.mp_share": None if mp is None or dbl is None else mp / (mp + dbl) if mp + dbl else 0.0,
        "dilation.assemble.calls": view.calls("dilation.assemble"),
        "evolve.rhs_calls": None if "evolve.rhs_calls" in first["absent"] else first["rhs_calls"],
        "cli.self_s": statistics.median(t["cli_self_s"] for t in view.traces),
        "trace.overhead_s": traced_run_s - plain_run_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def trace_report(view: TraceView) -> dict:
    """Every span plus the layer times that are zero on some workloads."""
    integrate = view.span_s("total_s", "evolve.integrate_linear")
    guard = view.span_s("total_s", "evolve.guard")
    simulate = view.span_s("total_s", "evolve.simulate_dilated")
    diagnostics = None
    if None not in (integrate, guard, simulate) and view.calls("evolve.simulate_dilated"):
        diagnostics = simulate - integrate - guard
    derived = {
        "specfun.erfi_mp.self_s": view.span_s("self_s", "specfun.erfi_mp"),
        "specfun.whittaker_series.self_s": view.span_s("self_s", "specfun.whittaker_series"),
        "specfun.whittaker_asym.self_s": view.span_s("self_s", "specfun.whittaker_asym"),
        "solutions.self_s": view.layer_self_s("solutions"),
        "dilation.assemble.self_s": view.span_s("self_s", "dilation.assemble"),
        "dilation.self_s": view.layer_self_s("dilation"),
        "evolve.self_s": view.layer_self_s("evolve"),
        "evolve.integrate_s": integrate,
        "evolve.guard_s": guard,
        "evolve.diagnostics_s": diagnostics,
    }
    spans = {
        name: {"calls": s["calls"], "total_s": view.span_s("total_s", name), "self_s": view.span_s("self_s", name)}
        for name, s in view.first["spans"].items()
    }
    per_call = []
    for name, key, label, roadmap in PER_CALL:
        if view.calls(name):
            value = statistics.median(t["spans"][name][key] for t in view.traces)
            per_call.append({"span": name, "what": label, "median_s": value,
                             "calls": view.calls(name), "roadmap_single_shot": roadmap})
    sims = view.calls("evolve.simulate_dilated")
    rhs_per_simulate = view.first["rhs_calls"] / sims if sims else None
    return {
        "spans": spans,
        "derived": derived,
        "per_call": per_call,
        "rhs_calls_per_simulate": rhs_per_simulate,
        "rhs_calls_per_simulate_roadmap": "4736 generator calls, [0, 3.9] with 14 output points",
        "absent": view.first["absent"],
        "counts_repeat": all(view.counts(t) == view.counts(view.first) for t in view.traces),
    }


def _print_trace_report(report: dict) -> None:
    for name, s in report["spans"].items():
        print(f"span     {name:32s} calls {s['calls']:8d}  total {s['total_s']:.4f} s  self {s['self_s']:.4f} s")
    for name, value in report["derived"].items():
        print(f"layer    {name:32s} {'n/a' if value is None else f'{value:.4f} s'}")
    for row in report["per_call"]:
        ref = f"  (ROADMAP single shot: {row['roadmap_single_shot']})" if row["roadmap_single_shot"] else ""
        print(f"per-call {row['what']:32s} median {_ms(row['median_s'])} over {row['calls']} calls{ref}")
    if report["rhs_calls_per_simulate"] is not None:
        print(f"per-call {'RHS calls per simulate':32s} {report['rhs_calls_per_simulate']:.0f}"
              f"  (ROADMAP: {report['rhs_calls_per_simulate_roadmap']})")
    print(f"counts   identical across traced samples: {report['counts_repeat']}")
    if report["absent"]:
        print(f"absent   {', '.join(report['absent'])}")


# --- main ------------------------------------------------------------------------

def _median_of(samples: list[Sample], key: str) -> float | None:
    values = [s.result[key] for s in samples if s.result is not None]
    return statistics.median(values) if values else None


def measure(args, work: Path) -> int:
    inputs = make_inputs(args.workload, args.seed, work)
    env_info, err = run_child("probe", [], 20.0)
    if env_info is None:
        print(f"cannot import ptdilate from {SRC}: {err}", file=sys.stderr)
        return 1
    samples = collect(args.workload, inputs, work, float(args.seconds), bool(args.trace))
    plain = [s for s in samples if s.mode == "plain" and s.result is not None]
    if not plain:
        print("no sample produced timings: " + "; ".join(samples[0].problems), file=sys.stderr)
        return 1
    failed = sum(1 for s in samples if s.problems)
    medians = {key: _median_of(plain, key) for key in PRINTED_UNITS}

    print(f"workload {args.workload}  seed {args.seed}  scenario {json.dumps(inputs.scenario)}")
    print(f"env      {json.dumps(env_info)}")
    for key, unit in PRINTED_UNITS.items():
        values = [s.result[key] for s in plain]
        print(f"{key:12s} median {medians[key]:.4f} {unit}  min {min(values):.4f}  max {max(values):.4f}  n={len(values)}")
    print(f"failed_ratio {failed / len(samples):.4f}  ({failed} of {len(samples)} samples)")
    for i, s in enumerate(samples):
        for problem in s.problems:
            print(f"FAILED   sample {i} ({s.mode}): {problem}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env_info, "failed_ratio": failed / len(samples),
        "samples": [{"mode": s.mode, "wall_s": s.wall_s, "problems": s.problems,
                     **{k: v for k, v in (s.result or {}).items() if k != "trace"}} for s in samples],
    }

    if args.trace:
        traced = [s for s in samples if s.mode == "trace" and s.result is not None]
        if not traced:
            print("no traced sample completed", file=sys.stderr)
            return 1
        view = TraceView([s.result["trace"] for s in traced])
        traced_run_s = _median_of(traced, "run_ref_s")
        metrics = per_layer_metrics(view, traced_run_s, medians["run_ref_s"])
        report = trace_report(view)
        _print_trace_report(report)
        record["trace_report"] = report
    else:
        metrics = {key: {"value": medians[key], "unit": unit} for key, unit in END_TO_END_UNITS.items()}
    print("record   " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ptdilate" / "__init__.py").is_file():
        print(f"no ptdilate sources at {SRC}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
