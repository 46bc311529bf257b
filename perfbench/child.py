"""One benchmark sample in a fresh interpreter.

    python3 child.py LAUNCH SRC MODE [CLI ARGS...]

LAUNCH is the parent's `time.monotonic()` just before it started this
process, SRC the checkout's `src` directory, MODE one of `probe` (print
the environment and exit), `plain` or `trace`.  In the other modes the
child imports `ptdilate`, calls `ptdilate.cli.main(CLI ARGS)` once and
prints one JSON line last: exit code, set-up wall time (interpreter start
plus `import ptdilate`), wall time of the `main()` call, the calibration
time, both times scaled by it, and peak RSS.

The host's speed drifts by tens of percent over seconds, and it slows
this process's CPU time as much as its wall time.  So the child times a
fixed pure-Python loop (`calibrate`) just before and just after `main()`
and reports `run_ref_s` and `setup_s`: the `main()` and set-up wall times
scaled to the speed at which the median loop takes `CALIB_REF_S` seconds.
The loop uses nothing from `ptdilate`, so a change to the package moves
the scaled and the wall times alike, while a change in host speed moves
only the wall times.
"""

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CALIB_LOOPS = 400_000
CALIB_CHUNKS = 4            # timed loops before and again after main()
CALIB_REF_S = 0.046         # one loop on the defining host (2 vCPUs, Intel Xeon), quiet period


def calibrate() -> list[float]:
    """Wall times of CALIB_CHUNKS runs of a fixed pure-Python integer loop."""
    times = []
    for _ in range(CALIB_CHUNKS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIB_LOOPS):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _fingerprint(ptdilate) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "ptdilate": getattr(ptdilate, "__version__", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def main() -> int:
    launch, src, mode, cli_argv = float(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
    sys.path.insert(0, src)
    import ptdilate.cli

    setup_wall_s = time.monotonic() - launch
    if not Path(ptdilate.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"ptdilate imported from {ptdilate.__file__}, not from {src}", file=sys.stderr)
        return 4
    if mode == "probe":
        print(json.dumps(_fingerprint(ptdilate)))
        return 0
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.install()
    calib = calibrate()
    t0 = time.perf_counter()
    try:
        rc = ptdilate.cli.main(cli_argv)
    except Exception:
        # an uncaught exception breaks the CLI exit-code contract: a failed run
        traceback.print_exc()
        rc = 1
    run_s = time.perf_counter() - t0
    calib_s = statistics.median(calib + calibrate())
    result = {
        "rc": rc,
        "setup_wall_s": setup_wall_s,
        "run_s": run_s,
        "calib_s": calib_s,
        "setup_s": setup_wall_s * CALIB_REF_S / calib_s,
        "run_ref_s": run_s * CALIB_REF_S / calib_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.report(run_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
