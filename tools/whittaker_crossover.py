"""Print the timing table behind `specfun.ASYM_CROSSOVER`.

    python tools/whittaker_crossover.py [MAGNITUDES]

For the model's first Whittaker indices kappa(omega), kappa'(omega) and
their negatives, omega in {0.03, 0.05, 0.07, 0.1, 0.15, 0.25, 0.37, 0.5, 1,
1.3}, prints per magnitude (comma-separated, default 20,30,40,45,50,55,60,65,
70,80,100,200,400,699) and ray: the median time of one connection-formula
evaluation (`_whittaker_series_mp`), the median time of one mpmath `whitw`
(`_whittaker_asym_mp`), and the largest relative difference between the
two over those indices.  Both are accurate at every magnitude; the
crossover belongs where `whitw` stops being the slower one.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ptdilate.solutions import MU, model_kappas  # noqa: E402
from ptdilate.specfun import Ray, _whittaker_asym_mp, _whittaker_series_mp  # noqa: E402

OMEGAS = (0.03, 0.05, 0.07, 0.1, 0.15, 0.25, 0.37, 0.5, 1.0, 1.3)
DEFAULT_MAGNITUDES = "20,30,40,45,50,55,60,65,70,80,100,200,400,699"


def _timed(fn, *args) -> tuple[complex, float]:
    """(value as a complex, milliseconds of one call)."""
    start = time.perf_counter()
    value = complex(fn(*args))
    return value, 1e3 * (time.perf_counter() - start)


def main(argv: list[str]) -> None:
    mags = [float(m) for m in (argv[0] if argv else DEFAULT_MAGNITUDES).split(",")]
    kappas = []
    for omega in OMEGAS:
        kap, kap_p = model_kappas(omega)
        kappas += [kap, -kap, kap_p, -kap_p]
    print(f"{'magnitude':>9} {'ray':8} {'series ms':>9} {'whitw ms':>9} {'max rel diff':>12}")
    for mag in mags:
        for ray in Ray:
            t_series, t_whitw, diff = [], [], 0.0
            for kappa in kappas:
                series, ts = _timed(_whittaker_series_mp, kappa, MU, mag, ray)
                whitw, tw = _timed(_whittaker_asym_mp, kappa, MU, mag, ray)
                t_series.append(ts)
                t_whitw.append(tw)
                diff = max(diff, abs(series - whitw) / abs(whitw))
            print(
                f"{mag:9g} {ray.value:8} {statistics.median(t_series):9.3f} "
                f"{statistics.median(t_whitw):9.3f} {diff:12.1e}"
            )


if __name__ == "__main__":
    main(sys.argv[1:])
